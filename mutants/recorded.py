"""The recorded mutants, each (module, exact old text, new text, test).

A mutant replaces `old` by `new` in `module` and must make `test` fail:
`test` is the pytest node id of one test that kills it, so that a replay
runs that test alone and not its whole file.  `old` must occur exactly once
in `module`: a change that rewrites that code updates the mutant here or
drops it with the code.  The comment above each says what the mutant breaks.
"""

HARDCORE = "src/dtlab/hardcore.py"
SYNTH = "src/dtlab/synth.py"
TREES = "src/dtlab/trees.py"

MUTANTS = [
    # --- the restricted game's data in one _Game
    # a pool tree's payoff row is T, not f*T
    (HARDCORE,
     "payoff = tuple(v * evaluate(t, x)[0] for x, v in enumerate(f.table))",
     "payoff = tuple(evaluate(t, x)[0] for x, v in enumerate(f.table))",
     "tests/test_hardcore.py::test_artifact_readers_refuse_a_deep_tree_chain[committee]"),
    # x0, the seed basis' point, has the greatest payoff instead of the least
    (HARDCORE,
     "key=pool[t0][1].__getitem__)",
     "key=lambda x: -pool[t0][1][x])",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # the greedy re-check pairs each weight with another tree's payoff row
    (HARDCORE,
     "for v, (_, payoff, _) in zip(wn, pool) if v]",
     "for v, (_, payoff, _) in zip(wn, pool[::-1]) if v]",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # the re-check reads the kernel's state: only the trees with a slack
    (HARDCORE,
     "dd, dn = _scale([depth for _, _, depth in pool])",
     "dd, dn = _scale([depth for _, _, depth in pool][:len(game.slacks)])",
     "tests/test_hardcore.py::test_saddle_point_checks_read_the_game_data_alone"),
    # the half density enters the game as the first cell's mass, not after
    # the cells
    (HARDCORE,
     "_Game(*_scale((*mu.weights, half)), depth_budget)",
     "_Game(*_scale((half, *mu.weights)), depth_budget)",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # the saddle-point check lets a cell value above 1 through
    (HARDCORE,
     "    if not all(0 <= v <= dz for v in zn):\n",
     "    if not all(0 <= v for v in zn):\n",
     "tests/test_hardcore.py::test_saddle_point_checks_refuse_as_the_fraction_checks"),
    # ... or one below 0
    (HARDCORE,
     "    if not all(0 <= v <= dz for v in zn):\n",
     "    if not all(v <= dz for v in zn):\n",
     "tests/test_hardcore.py::test_saddle_point_checks_refuse_as_the_fraction_checks"),
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
     "tests/test_hardcore.py::test_a_pool_with_no_tree_within_the_budget_raises_infeasible"),

    # --- the cells' bounds 0 <= H <= 1 held by complement flags, not box rows
    # the box slacks are ranked before the first pool's slacks
    (HARDCORE, "        game.box = cells + 3 + trees\n", "        game.box = cells + 3\n",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # a basic H above 1 is complemented in its row, but its flag stays
    (HARDCORE, "row[b], flip[b] = d, not flip[b]", "row[b] = d",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # an admitted row substitutes 1 - H_x without taking the entry off its rhs
    (HARDCORE, "               sum(e for (_, e), up in zip(entries, flip) if up), d)",
     "               0, d)",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # an H at its upper bound reads as 0
    (HARDCORE, "z = [_ONE if up else _ZERO for up in flip]", "z = [_ZERO for up in flip]",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),

    # --- artifacts refuse what no solve takes
    # a certificate no longer checks its domain
    (HARDCORE,
     "        _check_domain(f, mu, delta, gamma, depth_budget)\n"
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["measure"] = f, mu, measure\n',
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["measure"] = f, mu, measure\n',
     "tests/test_cli.py::test_verify_refuses_an_out_of_domain_field[gamma=0-certificate]"),
    # a committee no longer checks its domain
    (HARDCORE,
     "        _check_domain(f, mu, delta, gamma, depth_budget)\n"
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["trees"] = f, mu, trees\n',
     "        fields = self.__dict__\n"
     '        fields["f"], fields["mu"], fields["trees"] = f, mu, trees\n',
     "tests/test_cli.py::test_verify_refuses_an_out_of_domain_field[gamma=-1/2-committee]"),
    # gamma above 1 accepted
    (HARDCORE, "    if not 0 < gamma <= 1:\n", "    if not 0 < gamma:\n",
     "tests/test_hardcore.py::test_committee_size_refuses_delta_and_gamma_outside_the_solver_domain"),
    # committee_size no longer checks delta and gamma
    (HARDCORE, "    _check_rates(delta, gamma)\n    rate = ", "    rate = ",
     "tests/test_hardcore.py::test_committee_size_refuses_delta_and_gamma_outside_the_solver_domain"),

    # --- one admission step into the tableau
    # an admitted row goes below the reduced costs
    (HARDCORE, "    tab.insert(len(basis), row)\n", "    tab.append(row)\n",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),
    # an admitted row is not gcd-reduced before its eliminations
    (HARDCORE, "    row = _reduced(row)\n", "",
     "tests/test_hardcore.py::test_admit_enters_a_row_reduced_and_canonical_with_its_slack_basic"),

    # --- the committee size by one bisection
    (HARDCORE,
     "lo, hi = (lo, mid) if passes(mid) else (mid, hi)",
     "lo, hi = (mid, hi) if passes(mid) else (lo, mid)",
     "tests/test_hardcore.py::test_committee_size_refuses_more_seats_than_its_limit"),
    (HARDCORE,
     "lo, hi = -1, MAX_COMMITTEE_SIZE // 2  #",
     "lo, hi = -1, MAX_COMMITTEE_SIZE // 2 - 1  #",
     "tests/test_hardcore.py::test_committee_size_refuses_more_seats_than_its_limit"),
    (HARDCORE,
     'raise KernelFault("best response adds no tree to the pool (kernel bug)")',
     'raise BoostFailure("best response adds no tree to the pool (kernel bug)")',
     "tests/test_hardcore.py::test_best_response_with_no_new_tree_is_a_kernel_fault"),
    (HARDCORE, "MAX_COMMITTEE_SIZE = 65535", "MAX_COMMITTEE_SIZE = 65537",
     "tests/test_readme.py::test_readme_guard_limits_are_the_constants"),

    # --- one cost guard, checked by the restricted game itself
    # a game whose estimate equals the limit is refused
    (HARDCORE, "    if cost > MAX_GAME_COST:\n", "    if cost >= MAX_GAME_COST:\n",
     "tests/test_hardcore.py::test_game_cost_guard_refuses_before_the_game_is_built[at]"),
    # the estimate drops its cell factor
    (HARDCORE,
     "* (trees + 2 * cells + 5) * cells\n",
     "* (trees + 2 * cells + 5)\n",
     "tests/test_hardcore.py::test_game_cost_guard_refuses_before_the_game_is_built[at]"),
    # the estimate counts only the trees already admitted, not the new ones
    (HARDCORE,
     "cells, trees = len(mass) - 1, len(pool)\n",
     "cells, trees = len(mass) - 1, len(slacks)\n",
     "tests/test_hardcore.py::test_restricted_game_rows_stay_gcd_reduced_ints"),

    # --- records check themselves when built
    # an even committee accepted
    (HARDCORE,
     "        if len(trees) % 2 != 1:\n",
     "        if len(trees) % 2 != 1 and False:\n",
     "tests/test_hardcore.py::test_committee_refuses_an_even_size_before_a_mis_shaped_tree"),
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
     "tests/test_hardcore.py::test_committee_refuses_an_even_size_before_a_mis_shaped_tree"),
    # a vector function's row width is not checked
    ("src/dtlab/functions.py", "if len(row) != k or any(", "if any(",
     "tests/test_functions.py::test_function_and_law_constructors_refuse_as_the_former_checks"),
    # an int-built law hands its check the ints unreduced: its scale keeps a
    # common factor
    ("src/dtlab/functions.py",
     "law._check(n, scale // g, tuple(m // g for m in nums))",
     "law._check(n, scale, tuple(nums))",
     "tests/test_functions.py::test_int_built_laws_equal_the_fraction_built_ones"),
    # a Boolean function checks its table length before its variable count
    ("src/dtlab/functions.py",
     '        _check_var_count(n, "BooleanFunction")\n'
     "        if len(table) != 1 << n:\n"
     '            raise DimensionMismatch(f"table length {len(table)} != 2**{n}")\n',
     "        if len(table) != 1 << n:\n"
     '            raise DimensionMismatch(f"table length {len(table)} != 2**{n}")\n'
     '        _check_var_count(n, "BooleanFunction")\n',
     "tests/test_functions.py::test_function_and_law_constructors_refuse_as_the_former_checks"),
    # fields written to each other's names
    ("src/dtlab/scenarios.py",
     'fields["name"], fields["report"] = name, report',
     'fields["name"], fields["report"] = report, name',
     "tests/test_records.py::test_a_record_agrees_with_its_frozen_dataclass_twin[CheckResult]"),
    ("src/dtlab/synth.py", "= sense, n, k, points", "= sense, k, n, points",
     "tests/test_records.py::test_a_record_agrees_with_its_frozen_dataclass_twin[ParetoFrontier]"),
    # a default that differs from the one the records test expects
    ("src/dtlab/bounds.py",
     "                 hypothesis_ok: bool = True, related",
     "                 hypothesis_ok: bool = False, related",
     "tests/test_records.py::test_defaults_fill_as_the_twin_does"),
    # ExpSum's constructor skips canonicalization
    ("src/dtlab/exactexp.py",
     '        self.__dict__["terms"] = _canon(terms)\n',
     '        self.__dict__["terms"] = tuple(terms)\n',
     "tests/test_exactexp.py::test_total_matches_repeated_addition"),

    # --- tree nodes checked when built
    ("src/dtlab/trees.py", "        if below >> var & 1:\n", "        if False:\n",
     "tests/test_trees.py::test_error_messages_name_the_fault"),
    ("src/dtlab/trees.py",
     "if any(v not in (-1, 1) for v in label):",
     "if any(v not in (-1, 0, 1) for v in label):",
     "tests/test_trees.py::test_error_messages_name_the_fault"),
    ("src/dtlab/trees.py", "if depth == MAX_TABLE_VARS:", "if depth == 10 * MAX_TABLE_VARS:",
     "tests/test_trees.py::test_a_deep_json_chain_is_refused_without_reading_down_it"),

    # --- the subcube DP's tie rules: the first candidate found is kept
    # a later candidate of equal cost replaces an earlier one at its depth
    (SYNTH, "if got is None or cost < got[0]:", "if got is None or cost <= got[0]:",
     "tests/test_synth.py::test_label_fields_hold_a_whole_mass"),
    # a leaf guesses the second label when both have equal mass
    (SYNTH,
     "(rest, leaves[0]) if stat >= rest else (stat, leaves[1])",
     "(rest, leaves[0]) if stat > rest else (stat, leaves[1])",
     "tests/test_synth.py::test_advantage_kernel_with_sparse_mu_and_zeros_in_h"),
    # a cube tries its free variables high to low
    (SYNTH,
     "steps = steps + [s + ((v, pos, 2 * pos),) for s in steps]",
     "steps = steps + [((v, pos, 2 * pos),) + s for s in steps]",
     "tests/test_synth.py::test_label_fields_hold_a_whole_mass"),
    # Left out as equivalent: a skip keyed on the ordered pair of child ids
    # stays exact, and so do ids for every frontier or for the root's.

    # --- each distinct pair of child frontiers combined once per cube
    # a frontier's id forgets its costs
    (SYNTH,
     "ids.setdefault(tuple([(d, cost) for d, cost, _ in kept]), len(ids))",
     "ids.setdefault(tuple([d for d, cost, _ in kept]), len(ids))",
     "tests/test_synth.py::test_integer_kernel_matches_fraction_reference_on_symmetric_inputs"),
    # a pair is keyed on the neg child alone
    (SYNTH,
     "pair = (kn, kp) if kn < kp else (kp, kn)",
     "pair = kn",
     "tests/test_synth.py::test_integer_kernel_matches_fraction_reference_on_symmetric_inputs"),
    # a pair offered in any earlier cube is skipped, though its mass differs
    (SYNTH, "if offered.get(pair) == c:", "if pair in offered:",
     "tests/test_synth.py::test_frontier_json_shares_what_the_dp_shares"),

    # --- int-built records build their Fractions on first read
    # an int-built law's lazy weights come out in reverse point order
    ("src/dtlab/functions.py",
     "return tuple(Fraction(m, scale) if m else _ZERO for m in nums)",
     "return tuple(Fraction(m, scale) if m else _ZERO for m in nums[::-1])",
     "tests/test_leaf_oracles.py::test_direct_product_and_product_power_match_the_former_loops"),
    # direct_product keeps product()'s order: block 0 in the high place
    ("src/dtlab/functions.py", "tuple(row[::-1] for row in product(",
     "tuple(row for row in product(",
     "tests/test_leaf_oracles.py::test_direct_product_and_product_power_match_the_former_loops"),
    # a total weights every cell by the first block's S
    (TREES, "abs(c[j]) * (r // c[0]) for c in cells", "abs(c[j]) * (r // cells[0][0]) for c in cells",
     "tests/test_leaf_oracles.py::test_leaf_totals_are_the_fraction_sums_of_the_oracle_fields"),
    # the accuracy bound's int p is over S*E, not 2*S*E
    (TREES, "[(h - abs(g), 2 * s * self.scale) for", "[(h - abs(g), s * self.scale) for",
     "tests/test_leaf_oracles.py::test_accuracy_rhs_follows_the_leaf_p"),
    # the advantage total sums the cells' H
    (TREES, "        return self._total(2)\n", "        return self._total(1)\n",
     "tests/test_leaf_oracles.py::test_leaf_totals_are_the_fraction_sums_of_the_oracle_fields"),
    # a conditional block law keeps the points outside the block's cell
    (TREES, "ints = tuple(w if x & bm == bv else 0 for x, w in enumerate(weights))",
     "ints = tuple(w if x & bm == bv or not x else 0 for x, w in enumerate(weights))",

     "tests/test_leaf_oracles.py::test_leaf_stats_and_conditional_blocks_match_the_fraction_forms"),
    # a massless first block is not refused as an unreached leaf
    (TREES, "        if total == 0:\n", "        if total == 0 and i:\n",
     "tests/test_leaf_oracles.py::test_int_built_laws_keep_their_weights_scaled_form"),
    # Left out as equivalent: lazy weights over the unreduced scale, which
    # Fraction normalizes.

    # --- one printed precision; sign() escalates from the kept default enclosure
    # a config may state a precision_bits wider than the fixed 128
    ("src/dtlab/scenarios.py", "8, DEFAULT_PRECISION_BITS, \"precision_bits\")",
     "8, 2 * DEFAULT_PRECISION_BITS, \"precision_bits\")",
     "tests/test_scenarios.py::test_config_validation"),
    # an enclosure with an endpoint at zero decides the sign
    ("src/dtlab/exactexp.py", "        while lo <= 0 <= hi:\n", "        while lo < 0 < hi:\n",
     "tests/test_exactexp.py::test_sign_raises_once_doubling_budget_is_exhausted"),

    # --- ExpSum on ints: one int-keyed exp kernel
    # a negative exponent keeps the positive side's ends in place: lo > hi
    ("src/dtlab/exactexp.py", "        return d, c, b, a\n", "        return b, a, d, c\n",
     "tests/test_exactexp.py::test_exp_bounds_seeded_sweep_against_mpmath_and_the_series[96]"),
    # the upper end is reduced one bit past its trailing zeros
    ("src/dtlab/exactexp.py", "min(w, (hi & -hi).bit_length() - 1)",
     "min(w, (hi & -hi).bit_length())",
     "tests/test_exactexp.py::test_exp_bounds_seeded_sweep_against_mpmath_and_the_series[96]"),
    # the bit budget leaves out the precision asked for
    ("src/dtlab/exactexp.py", "bits = (p * 47275 // q >> 15) + prec_bits",
     "bits = (p * 47275 // q >> 15)",
     "tests/test_exactexp.py::test_huge_exponents_are_refused_before_any_squaring"),
    # a negative coefficient swaps only the numerators of its term's bounds
    ("src/dtlab/exactexp.py", "a, b, c, d = c, d, a, b", "a, c = c, a",
     "tests/test_exactexp.py::test_arithmetic_matches_oracle"),
    # is_rational reads only the first term: 1 + e**-1 passes as rational
    ("src/dtlab/exactexp.py", "(len(self.terms) == 1 and not self.terms[0][2])",
     "(not self.terms[0][2])",
     "tests/test_exactexp.py::test_is_rational_reads_the_canonical_form"),
    # a difference keeps the signs of the subtrahend's tail
    ("src/dtlab/exactexp.py", "tail = [(-u, v, x, y) for u, v, x, y in theirs[j:]] if negate",
     "tail = [(u, v, x, y) for u, v, x, y in theirs[j:]] if negate",
     "tests/test_exactexp.py::test_sign_raises_once_doubling_budget_is_exhausted"),
    # ... or of a subtrahend term taken inside the merge
    ("src/dtlab/exactexp.py", "out.append((-u, v, x, y) if negate else theirs[j])",
     "out.append(theirs[j])", "tests/test_exactexp.py::test_le_is_certified_not_float"),
    # the printed upper end is rounded down, not up
    ("src/dtlab/exactexp.py", "        ctx.rounding = ROUND_CEILING\n",
     "        ctx.rounding = ROUND_FLOOR\n",
     "tests/test_exactexp.py::test_decimal_interval_brackets_e"),

    # --- ExpSum's terms as reduced int quadruples (p, q, r, s)
    # the merge takes the smaller exponent first: the sum's order reversed
    ("src/dtlab/exactexp.py", "order = r * y - x * s", "order = x * s - r * y",
     "tests/test_exactexp.py::test_total_matches_repeated_addition"),
    # like terms add without the gcd reduction: 1/2 + 1/2 stays 4/4
    ("src/dtlab/exactexp.py", "p, q = _add(p, q, -u if negate else u, v)",
     "p, q = p * v + (-u if negate else u) * q, q * v",
     "tests/test_exactexp.py::test_total_matches_repeated_addition"),
    # a rational's sign reads 0 for a negative value
    ("src/dtlab/exactexp.py", "            return (p > 0) - (p < 0)\n",
     "            return int(p > 0)\n",
     "tests/test_exactexp.py::test_int_kernel_matches_the_former_fraction_pair_expsum"),
    # an exact zero prints as 0/0
    ("src/dtlab/exactexp.py", "value.terms[0][:2] if value.terms else (0, 1)",
     "value.terms[0][:2] if value.terms else (0, 0)",
     "tests/test_exactexp.py::test_int_kernel_matches_the_former_fraction_pair_expsum"),
    # a quadruple with a zero exponent denominator escapes as ZeroDivisionError
    ("src/dtlab/exactexp.py", "            if not q or not s:\n", "            if not q:\n",
     "tests/test_exactexp.py::test_a_quadruple_term_reads_as_its_pair"),
    # the scaled Lipschitz step read as delta/4, the plain form's
    ("src/dtlab/bounds.py", "step = _reduce(e * b, f * a)", "step = _reduce(e, 4 * f)",
     "tests/test_leaf_oracles.py::test_g_func_and_lipschitz_check_match_the_fraction_forms"),
    # t - z/4 drops t's denominator from z's side
    ("src/dtlab/bounds.py", "num = 4 * a * d - b * n", "num = 4 * a * d - n",
     "tests/test_leaf_oracles.py::test_g_func_and_lipschitz_check_match_the_fraction_forms"),
    # the Lipschitz lhs reads g at z + delta
    ("src/dtlab/bounds.py", "_g_sum([(1, 1, n * f - e * d, d * f)], a, b)",
     "_g_sum([(1, 1, n * f + e * d, d * f)], a, b)",
     "tests/test_leaf_oracles.py::test_g_func_and_lipschitz_check_match_the_fraction_forms"),
    # grouped leaves ordered by z's numerator alone: the sums leave canonical order
    ("src/dtlab/bounds.py", "key=lambda item: item[0][0] * (den // item[0][1])",
     "key=lambda item: item[0][0]",
     "tests/test_leaf_oracles.py::test_grouped_exp_sums_equal_their_canonicalized_totals"),
    # the flat term of a g-sum keeps only the last weight at z <= 4t
    ("src/dtlab/bounds.py", "flat = _add(*flat, p, q)", "flat = p, q",
     "tests/test_leaf_oracles.py::test_grouped_exp_sums_equal_their_canonicalized_totals"),
    # Left out as equivalent: >= read as > in _g_exponent's t >= z/4 test,
    # since e**(0/s) reduces to the same term (0, 1).

    # --- each exact value built once, in the form its readers use
    # the printed enclosure reads the ints over 2**(w-1): twice the value
    ("src/dtlab/exactexp.py", "low = str(Decimal(lo) / (1 << w))",
     "low = str(Decimal(lo) / (1 << (w - 1)))",
     "tests/test_exactexp.py::test_decimal_interval_brackets_e"),
    # an enclosure reports a scale one bit finer than the one it summed on
    ("src/dtlab/exactexp.py", "        return lo, hi, w\n", "        return lo, hi, w + 1\n",
     "tests/test_exactexp.py::test_arithmetic_matches_oracle"),
    # the binomial ceiling's weights over B, left unreduced
    ("src/dtlab/bounds.py", "bino = [(*_reduce(c, den), z, 1) for",
     "bino = [(c, den, z, 1) for",
     "tests/test_bounds.py::test_resilience_ceilings_are_the_binomial_law_canonically"),
    # the Lipschitz rhs reads g at t = b/a: the pair handed over swapped
    ("src/dtlab/bounds.py", "rhs = _g_sum([(1, 1, n, d)], a, b)",
     "rhs = _g_sum([(1, 1, n, d)], b, a)",
     "tests/test_leaf_oracles.py::test_g_func_and_lipschitz_check_match_the_fraction_forms"),
    # g_func weighs its one group by 1/2
    ("src/dtlab/bounds.py", "_g_sum([(1, 1, *_ratio(z))], *_ratio(t))",
     "_g_sum([(1, 2, *_ratio(z))], *_ratio(t))",
     "tests/test_leaf_oracles.py::test_g_func_and_lipschitz_check_match_the_fraction_forms"),
    # a measure's scaled ints are kept in reverse point order
    ("src/dtlab/functions.py", "fields[\"scaled\"] = n, values, (scale, nums)",
     "fields[\"scaled\"] = n, values, (scale, nums[::-1])",
     "tests/test_functions.py::test_measure_checks_on_ints_as_on_fractions"),

    # --- the seeded instance stream built once per (seed, count)
    # the shared stream is a list that a caller could change
    ("src/dtlab/instances.py", "    return tuple(out)\n", "    return out\n",
     "tests/test_bounds.py::test_the_instance_stream_is_built_once_and_shared_as_a_tuple"),
    # the stream is built anew on every call
    ("src/dtlab/instances.py", "@lru_cache(maxsize=1)\n", "",
     "tests/test_bounds.py::test_the_instance_stream_is_built_once_and_shared_as_a_tuple"),
    # a run keeps its last instance stream alive past its scenarios
    ("src/dtlab/scenarios.py", "    standard_verification_instances.cache_clear()\n", "",
     "tests/test_bounds.py::test_the_instance_stream_is_built_once_and_shared_as_a_tuple"),

    # --- README figures read by the tests
    ("README.md", "would exceed 4,194,304", "would exceed 4,194,305",
     "tests/test_readme.py::test_readme_game_cost_limit_is_max_game_cost"),
    ("README.md", "`random`, `time` and", "`random` and",
     "tests/test_readme.py::test_readme_install_lists_the_stdlib_modules_import_dtlab_loads"),
]
