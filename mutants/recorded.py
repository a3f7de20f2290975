"""The recorded mutants, each (module, exact old text, new text, test file).

A mutant replaces `old` by `new` in `module` and must make `test file` fail.
`old` must occur exactly once in `module`: a change that rewrites that code
updates the mutant here or drops it with the code.  The comment above each
says what the mutant breaks.
"""

HARDCORE = "src/dtlab/hardcore.py"
TEST_HARDCORE = "tests/test_hardcore.py"
SYNTH = "src/dtlab/synth.py"
TEST_SYNTH = "tests/test_synth.py"
TREES = "src/dtlab/trees.py"
TEST_LEAF = "tests/test_leaf_oracles.py"

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
    # the half density enters the game as the first cell's mass, not after
    # the cells
    (HARDCORE,
     "_Game(*_scale((*mu.weights, half)), depth_budget)",
     "_Game(*_scale((half, *mu.weights)), depth_budget)",
     TEST_HARDCORE),
    # the saddle-point check lets a cell value above 1 through
    (HARDCORE,
     "    if not all(0 <= v <= dz for v in zn):\n",
     "    if not all(0 <= v for v in zn):\n",
     TEST_HARDCORE),
    # ... or one below 0
    (HARDCORE,
     "    if not all(0 <= v <= dz for v in zn):\n",
     "    if not all(v <= dz for v in zn):\n",
     TEST_HARDCORE),
    # a first game lays down its cost row before it refuses a pool with no
    # tree within the budget
    (HARDCORE,
     "        t0 = next((t for t, (_, _, depth) in enumerate(pool) if depth <= budget), None)\n"
     "        if t0 is None:\n"
     '            raise Infeasible("no pool tree within the depth budget: the game is unbounded")\n'
     "        d, p = _scale((1, -1, budget))\n"
     "        tab.append([0] * cells + [*p, 0, d])  # costs of H, s+, s-, y; rhs; D\n",
     "        d, p = _scale((1, -1, budget))\n"
     "        tab.append([0] * cells + [*p, 0, d])  # costs of H, s+, s-, y; rhs; D\n"
     "        t0 = next((t for t, (_, _, depth) in enumerate(pool) if depth <= budget), None)\n"
     "        if t0 is None:\n"
     '            raise Infeasible("no pool tree within the depth budget: the game is unbounded")\n',
     TEST_HARDCORE),

    # --- the cells' bounds 0 <= H <= 1 held by complement flags, not box rows
    # the box slacks are ranked before the first pool's slacks
    (HARDCORE, "        game.box = cells + 3 + trees\n", "        game.box = cells + 3\n",
     TEST_HARDCORE),
    # a basic H above 1 is complemented in its row, but its flag stays
    (HARDCORE, "row[b], flip[b] = d, not flip[b]", "row[b] = d", TEST_HARDCORE),
    # an admitted row substitutes 1 - H_x without taking the entry off its rhs
    (HARDCORE, "               sum(e for (_, e), up in zip(entries, flip) if up), d)",
     "               0, d)", TEST_HARDCORE),
    # an H at its upper bound reads as 0
    (HARDCORE, "z = [_ONE if up else _ZERO for up in flip]", "z = [_ZERO for up in flip]",
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

    # --- one cost guard, checked by the restricted game itself
    # a game whose estimate equals the limit is refused
    (HARDCORE, "    if cost > MAX_GAME_COST:\n", "    if cost >= MAX_GAME_COST:\n",
     TEST_HARDCORE),
    # the estimate drops its cell factor
    (HARDCORE,
     "* (trees + 2 * cells + 5) * cells\n",
     "* (trees + 2 * cells + 5)\n",
     TEST_HARDCORE),
    # the estimate counts only the trees already admitted, not the new ones
    (HARDCORE,
     "cells, trees = len(mass) - 1, len(pool)\n",
     "cells, trees = len(mass) - 1, len(slacks)\n",
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
     "        law._check(n, nums)\n",
     "        law._check(n, nums)\n"
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

    # --- the subcube DP's tie rules: the first candidate found is kept
    # a later candidate of equal cost replaces an earlier one at its depth
    (SYNTH, "if got is None or cost < got[0]:", "if got is None or cost <= got[0]:",
     TEST_SYNTH),
    # a leaf guesses the second label when both have equal mass
    (SYNTH,
     "(rest, leaves[0]) if stat >= rest else (stat, leaves[1])",
     "(rest, leaves[0]) if stat > rest else (stat, leaves[1])",
     TEST_SYNTH),
    # a cube tries its free variables high to low
    (SYNTH,
     "steps = steps + [s + ((v, pos, 2 * pos),) for s in steps]",
     "steps = steps + [((v, pos, 2 * pos),) + s for s in steps]",
     TEST_SYNTH),
    # Left out as equivalent: a skip keyed on the ordered pair of child ids
    # stays exact, and so do ids for every frontier or for the root's.

    # --- each distinct pair of child frontiers combined once per cube
    # a frontier's id forgets its costs
    (SYNTH,
     "ids.setdefault(tuple([(d, cost) for d, cost, _ in kept]), len(ids))",
     "ids.setdefault(tuple([d for d, cost, _ in kept]), len(ids))",
     TEST_SYNTH),
    # a pair is keyed on the neg child alone
    (SYNTH,
     "pair = (kn, kp) if kn < kp else (kp, kn)",
     "pair = kn",
     TEST_SYNTH),
    # a pair offered in any earlier cube is skipped, though its mass differs
    (SYNTH, "if offered.get(pair) == c:", "if pair in offered:", TEST_SYNTH),

    # --- int-built records build their Fractions on first read
    # an int-built law's lazy weights come out in reverse point order
    ("src/dtlab/functions.py",
     "return tuple(Fraction(m, scale) if m else _ZERO for m in nums)",
     "return tuple(Fraction(m, scale) if m else _ZERO for m in nums[::-1])",
     TEST_LEAF),
    # direct_product keeps product()'s order: block 0 in the high place
    ("src/dtlab/functions.py", "tuple(row[::-1] for row in product(",
     "tuple(row for row in product(", TEST_LEAF),
    # a lazy density is over S alone, not S*E
    (TREES, "Fraction(h, s * self._e) for s, h, _ in", "Fraction(h, s) for s, h, _ in",
     TEST_LEAF),
    # a lazy advantage keeps the sign of G
    (TREES, "Fraction(abs(g), s * self._e) for s, _, g in",
     "Fraction(g, s * self._e) for s, _, g in", TEST_LEAF),
    # a lazy p is over S*E, not 2*S*E
    (TREES, "Fraction(h - abs(g), 2 * s * self._e)", "Fraction(h - abs(g), s * self._e)",
     TEST_LEAF),
    # a total weights every cell by the first block's S
    (TREES, "abs(c[j]) * (r // c[0]) for c in cells", "abs(c[j]) * (r // cells[0][0]) for c in cells",
     TEST_LEAF),
    # the accuracy bound's int p is over S*E, not 2*S*E
    (TREES, "[(h - abs(g), 2 * s * self._e) for", "[(h - abs(g), s * self._e) for", TEST_LEAF),
    # the advantage total sums the cells' H
    (TREES, "return self._total(2) if", "return self._total(1) if", TEST_LEAF),
    # Left out as equivalent: lazy weights over the unreduced scale, which
    # Fraction normalizes.

    # --- README figures read by the tests
    ("README.md", "would exceed 4,194,304", "would exceed 4,194,305", "tests/test_readme.py"),
    ("README.md", "`random`, `time` and", "`random` and", "tests/test_readme.py"),
]
