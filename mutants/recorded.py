"""The recorded mutants, each (module, exact old text, new text, test file).

A mutant replaces `old` by `new` in `module` and must make `test file` fail.
`old` must occur exactly once in `module`: a change that rewrites that code
updates the mutant here or drops it with the code.  The comment above each
says what the mutant breaks.
"""

HARDCORE = "src/dtlab/hardcore.py"
TEST_HARDCORE = "tests/test_hardcore.py"

MUTANTS = [
    # --- the restricted game's data in one _Game
    # a pool tree's payoff row is T, not f*T
    (HARDCORE,
     "payoff = tuple(v * evaluate(t, x)[0] for x, v in enumerate(f.table))",
     "payoff = tuple(evaluate(t, x)[0] for x, v in enumerate(f.table))",
     TEST_HARDCORE),
    # x0, the seed basis' point, has the greatest payoff instead of the least
    (HARDCORE,
     "key=pool[t0][1].__getitem__)",
     "key=lambda x: -pool[t0][1][x])",
     TEST_HARDCORE),
    # the greedy re-check pairs each weight with another tree's payoff row
    (HARDCORE,
     "for v, (_, payoff, _) in zip(wn, pool) if v]",
     "for v, (_, payoff, _) in zip(wn, pool[::-1]) if v]",
     TEST_HARDCORE),
    # the re-check reads the kernel's state: only the trees with a slack
    (HARDCORE,
     "dd, dn = _scale([depth for _, _, depth in pool])",
     "dd, dn = _scale([depth for _, _, depth in pool][:len(game.slacks)])",
     TEST_HARDCORE),
    # mu is scaled again before every game instead of once per solve
    (HARDCORE,
     "        value, h, w = _restricted_game(game)\n",
     "        game.den, game.mass = _masses(mu, half)\n"
     "        value, h, w = _restricted_game(game)\n",
     TEST_HARDCORE),
    # a first game lays down its cost row before it refuses a pool with no
    # tree within the budget
    (HARDCORE,
     "        t0 = next((t for t, (_, _, depth) in enumerate(pool) if depth <= budget), None)\n"
     "        if t0 is None:\n"
     '            raise Infeasible("no pool tree within the depth budget: the game is unbounded")\n'
     "        d, p = _scale((1, -1, budget))\n"
     "        tab.append([0] * npts + [*p, 0, d])  # costs of H, s+, s-, y; rhs; D\n",
     "        d, p = _scale((1, -1, budget))\n"
     "        tab.append([0] * npts + [*p, 0, d])  # costs of H, s+, s-, y; rhs; D\n"
     "        t0 = next((t for t, (_, _, depth) in enumerate(pool) if depth <= budget), None)\n"
     "        if t0 is None:\n"
     '            raise Infeasible("no pool tree within the depth budget: the game is unbounded")\n',
     TEST_HARDCORE),

    # --- artifacts refuse what no solve takes
    # a certificate no longer checks its domain
    (HARDCORE,
     "        _check_domain(f, mu, delta, gamma, depth_budget)\n"
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["measure"] = f, mu, measure\n',
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["measure"] = f, mu, measure\n',
     "tests/test_cli.py"),
    # a committee no longer checks its domain
    (HARDCORE,
     "        _check_domain(f, mu, delta, gamma, depth_budget)\n"
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["trees"] = f, mu, trees\n',
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["trees"] = f, mu, trees\n',
     "tests/test_cli.py"),
    # gamma above 1 accepted
    (HARDCORE, "    if not 0 < gamma <= 1:\n", "    if not 0 < gamma:\n", TEST_HARDCORE),

    # --- one admission step into the tableau
    # an admitted row goes below the reduced costs
    (HARDCORE, "    tab.insert(len(basis), row)\n", "    tab.append(row)\n", TEST_HARDCORE),
    # an admitted row is not gcd-reduced before its eliminations
    (HARDCORE, "    row = _reduced(row)\n", "", TEST_HARDCORE),

    # --- the committee size by one bisection
    (HARDCORE,
     "lo, hi = (lo, mid) if passes(mid) else (mid, hi)",
     "lo, hi = (mid, hi) if passes(mid) else (lo, mid)",
     TEST_HARDCORE),
    (HARDCORE,
     "lo, hi = -1, MAX_COMMITTEE_SIZE // 2  #",
     "lo, hi = -1, MAX_COMMITTEE_SIZE // 2 - 1  #",
     TEST_HARDCORE),
    (HARDCORE,
     'raise KernelFault("best response adds no tree to the pool (kernel bug)")',
     'raise BoostFailure("best response adds no tree to the pool (kernel bug)")',
     TEST_HARDCORE),
    (HARDCORE, "MAX_COMMITTEE_SIZE = 65535", "MAX_COMMITTEE_SIZE = 65537", "tests/test_readme.py"),

    # --- one cost guard on the restricted game
    # a game whose estimate equals the limit is refused
    (HARDCORE, "        if cost > MAX_GAME_COST:\n", "        if cost >= MAX_GAME_COST:\n",
     TEST_HARDCORE),
    # the estimate drops its point factor
    (HARDCORE,
     "* (len(game.pool) + 2 * npts + 5) * npts\n",
     "* (len(game.pool) + 2 * npts + 5)\n",
     TEST_HARDCORE),
    # the estimate counts the pool before the best response's trees enter
    (HARDCORE,
     "        cost = (len(game.pool) + npts + 2)",
     "        cost = (admitted + npts + 2)",
     TEST_HARDCORE),

    # --- records check themselves when built
    # an even committee accepted
    (HARDCORE,
     "        if len(trees) % 2 != 1:\n",
     "        if len(trees) % 2 != 1 and False:\n",
     TEST_HARDCORE),
    # the committee's shape check runs before its size check
    (HARDCORE,
     "        if len(trees) % 2 != 1:\n"
     '            raise InvalidValue("committee size must be odd")\n'
     "        if any((t.n, t.k) != (f.n, 1) for t in trees):\n"
     "            raise DimensionMismatch(\"committee trees must be k=1 trees on f's variables\")\n",
     "        if any((t.n, t.k) != (f.n, 1) for t in trees):\n"
     "            raise DimensionMismatch(\"committee trees must be k=1 trees on f's variables\")\n"
     "        if len(trees) % 2 != 1:\n"
     '            raise InvalidValue("committee size must be odd")\n',
     TEST_HARDCORE),
    # a vector function's row width is not checked
    ("src/dtlab/functions.py", "if len(row) != k or any(", "if any(", "tests/test_functions.py"),
    # an int-built law's scaled form is stored after its check reads it
    ("src/dtlab/functions.py",
     '        law.__dict__["scaled"] = scale // g, tuple(m // g for m in nums)\n'
     "        law.__init__(n, tuple(Fraction(m, scale) if m else _ZERO for m in nums))\n",
     "        law.__init__(n, tuple(Fraction(m, scale) if m else _ZERO for m in nums))\n"
     '        law.__dict__["scaled"] = scale // g, tuple(m // g for m in nums)\n',
     "tests/test_functions.py"),
    # a Boolean function checks its table length before its variable count
    ("src/dtlab/functions.py",
     '        _check_var_count(n, "BooleanFunction")\n'
     "        if len(table) != 1 << n:\n"
     '            raise DimensionMismatch(f"table length {len(table)} != 2**{n}")\n',
     "        if len(table) != 1 << n:\n"
     '            raise DimensionMismatch(f"table length {len(table)} != 2**{n}")\n'
     '        _check_var_count(n, "BooleanFunction")\n',
     "tests/test_functions.py"),
    # fields written to each other's names
    ("src/dtlab/scenarios.py",
     'fields["name"], fields["report"] = name, report',
     'fields["name"], fields["report"] = report, name',
     "tests/test_records.py"),
    ("src/dtlab/synth.py", "= sense, n, k, points", "= sense, k, n, points",
     "tests/test_records.py"),
    # a default that differs from the one the records test expects
    ("src/dtlab/bounds.py",
     "                 hypothesis_ok: bool = True, related",
     "                 hypothesis_ok: bool = False, related",
     "tests/test_records.py"),
    # ExpSum's constructor skips canonicalization
    ("src/dtlab/exactexp.py",
     '        self.__dict__["terms"] = _canon(terms)\n',
     '        self.__dict__["terms"] = tuple(terms)\n',
     "tests/test_exactexp.py"),

    # --- tree nodes checked when built
    ("src/dtlab/trees.py", "        if below >> var & 1:\n", "        if False:\n",
     "tests/test_trees.py"),
    ("src/dtlab/trees.py",
     "if any(v not in (-1, 1) for v in label):",
     "if any(v not in (-1, 0, 1) for v in label):",
     "tests/test_trees.py"),
    ("src/dtlab/trees.py", "if depth == MAX_TABLE_VARS:", "if depth == 10 * MAX_TABLE_VARS:",
     "tests/test_trees.py"),

    # --- README figures read by the tests
    ("README.md", "would exceed 4,194,304", "would exceed 4,194,305", "tests/test_readme.py"),
    ("README.md", "`random`, `time` and", "`random` and", "tests/test_readme.py"),
]
