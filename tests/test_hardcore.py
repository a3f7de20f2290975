"""Hardcore-measure game: LP kernel, certificates, and boosted committees."""

import bisect
import hashlib
import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from dtlab import hardcore
from dtlab.errors import (
    BoostFailure, DimensionMismatch, GuardExceeded, Infeasible, InvalidValue, KernelFault)
from dtlab.exactexp import exp_bounds
from dtlab.functions import (
    BooleanFunction,
    Distribution,
    Measure,
    constant_measure,
    density,
    dictator,
    parity,
    uniform,
)
from dtlab.hardcore import (
    Committee,
    HardcoreCertificate,
    _pivot,
    best_response,
    certificate_from_json,
    certificate_to_json,
    committee_from_json,
    committee_metrics,
    committee_size,
    committee_to_json,
    hardcore_solve,
    maj_boost,
    verify_certificate,
)
from dtlab.instances import random_distribution, random_function, random_tree
from dtlab.synth import mixture_optimum
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Query,
    evaluate,
)

F = Fraction


# --- exact simplex kernel
#
# Two Fraction oracles.  A dual simplex by Bland's rule in dual form: on
# every LP below the int-row kernel in `hardcore` must make the same pivots,
# leave the same tableau (as rationals) after each one, and end in the same
# tableau or the same error.  And the former two-phase primal simplex, which
# solves restricted games from their own rows, independently of the kernel.


def _oracle_pivot(tab, r, c):
    """Make column c the unit vector e_r by row operations on every row."""
    p = tab[r][c]
    row = tab[r] = [v / p for v in tab[r]]
    nonzero = [j for j, v in enumerate(row) if v]
    for i, other in enumerate(tab):
        m = other[c]
        if i != r and m:
            for j in nonzero:
                other[j] -= m * row[j]


def _oracle_dual_bland(tab, basis, seen):
    """Restore b >= 0 on Fraction rows [A | b] in canonical form for basis,
    reduced costs (all >= 0) last: the negative-rhs row of lowest basic index
    leaves, the lowest column of least cost / |entry| enters.  Counts the
    pivots with a ratio tie in seen."""
    costs = tab[-1]
    while True:
        negative = [i for i in range(len(basis)) if tab[i][-1] < 0]
        if not negative:
            return
        r = min(negative, key=basis.__getitem__)
        ratios = [(costs[j] / -a, j) for j, a in enumerate(tab[r][:-1]) if a < 0]
        if not ratios:
            raise Infeasible("LP has no feasible point")
        least, c = min(ratios)
        seen["ratio tie"] += sum(q == least for q, _ in ratios) > 1
        _oracle_pivot(tab, r, c)
        basis[r] = c


def _oracle_bland(tab, basis, ncols):
    costs = tab[-1]
    while True:
        c = next((j for j in range(ncols) if costs[j] < 0), None)
        if c is None:
            return
        best = min(((row[-1] / row[c], basis[i], i) for i, row in enumerate(tab[:len(basis)])
                    if row[c] > 0), default=None)
        if best is None:
            raise InvalidValue("unbounded LP")
        _oracle_pivot(tab, best[2], c)
        basis[best[2]] = c


def _oracle_simplex(tab, basis, cost, nreal):
    """Exact min of cost*x over {x >= 0 : A x = b} on Fraction rows [A | b],
    by two phases of Bland's rule, columns from nreal on being artificials."""
    width = len(tab[0])

    def priced(c):
        basic = [(c[b], tab[i]) for i, b in enumerate(basis) if c[b]]
        return [c[j] - sum((cb * row[j] for cb, row in basic), F(0)) for j in range(width)]

    tab.append(priced(list(cost) + [F(0)] * (width - len(cost))))
    if any(b >= nreal for b in basis):
        tab.append(priced([F(0)] * nreal + [F(1)] * (width - 1 - nreal) + [F(0)]))
        _oracle_bland(tab, basis, nreal)
        if tab.pop()[-1] != 0:
            raise Infeasible("LP has no feasible point")
        for i, b in enumerate(basis):
            if b >= nreal:
                c = next((j for j in range(nreal) if tab[i][j]), None)
                if c is not None:
                    _oracle_pivot(tab, i, c)
                    basis[i] = c
    _oracle_bland(tab, basis, nreal)
    return -tab[-1][-1]


def _oracle_game(f, mu, half_density, budget, tables, depths):
    """(value, z, w) of the pool-restricted game by _oracle_simplex, cold.

    Fraction rows in the explicit layout, the bounds H <= 1 as box rows,
    plus an artificial on the density row: H, s+, s-, y, pool slacks, box
    slacks, artificial, started on the slacks and the artificial.  w is the
    pool slacks' reduced costs, and z the cell values of H, as in
    _restricted_game."""
    npts, nt = 1 << f.n, len(tables)
    slack0 = npts + 3
    box0 = slack0 + nt
    art = box0 + npts

    def row(entries, rhs):
        r = [F(0)] * (art + 2)
        for j, v in entries:
            r[j] = F(v)
        r[-1] = F(rhs)
        return r

    tab = [row([*((x, mu.weights[x] * f.table[x] * v) for x, v in enumerate(tables[t])),
                (npts, -1), (npts + 1, 1), (npts + 2, -depths[t]), (slack0 + t, 1)], 0)
           for t in range(nt)]
    tab += [row([(x, 1), (box0 + x, 1)], 1) for x in range(npts)]
    tab.append(row([*enumerate(mu.weights), (art, 1)], half_density))
    basis = [slack0 + t for t in range(nt)] + [box0 + x for x in range(npts)] + [art]
    value = _oracle_simplex(tab, basis, [F(0)] * npts + [F(1), F(-1), budget], art)
    z = [F(0)] * npts
    for i, b in enumerate(basis):
        if b < npts:
            z[b] = tab[i][-1]
    return value, tuple(z), tuple(tab[-1][slack0:box0])


def _pool_entry(f, mu, tree):
    """(tree, payoff row f*T as +-1 ints, expected depth): a pool tree as a
    solve admits it into its game."""
    payoff = tuple(v * evaluate(tree, x)[0] for x, v in enumerate(f.table))
    return tree, payoff, hardcore.expected_depth(tree, mu)


def _game(f, mu, half, budget, trees):
    """A game on the pool `trees`, not yet played: one cell per point, its
    mass mu's weight there, as a solve builds it."""
    game = hardcore._Game(*hardcore._scale((*mu.weights, half)), budget)
    game.pool += [_pool_entry(f, mu, t) for t in trees]
    return game


def _oracle_args(f, mu, half, game):
    """The Fraction oracles' arguments for a game's pool: f, mu and each
    tree's +-1 outputs and expected depth, re-derived from the trees."""
    trees = [t for t, _, _ in game.pool]
    tables = [tuple(evaluate(t, x)[0] for x in range(1 << f.n)) for t in trees]
    return f, mu, half, game.budget, tables, [hardcore.expected_depth(t, mu) for t in trees]


def _int_row(row):
    """Fraction row -> the kernel's [numerators..., positive denominator]."""
    d = math.lcm(*(F(v).denominator for v in row))
    ints = [int(v * d) for v in row] + [d]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _frac_row(row):
    """The kernel's int row -> its Fractions."""
    return [F(v, row[-1]) for v in row[:-1]]


def _assert_reduced_int_rows(tab):
    for row in tab:
        assert all(type(v) is int for v in row), row
        assert row[-1] > 0 and math.gcd(*row) == 1, row


def _traced(module, name, kernel, snapshot, *args):
    """Run kernel(*args) with module.name (its pivot) spied on: returns
    (result or raised Infeasible, [(r, c, tableau after the pivot)])."""
    log, pivot = [], getattr(module, name)

    def spy(t, r, c):
        pivot(t, r, c)
        log.append((r, c, [snapshot(row) for row in t]))

    setattr(module, name, spy)
    try:
        return kernel(*args), log
    except Infeasible as e:
        return e, log
    finally:
        setattr(module, name, pivot)


def _explicit(game, j):
    """Column j of a game's bounded tableau as its index in the explicit
    layout H, s+, s-, y, first-pool slacks, box slacks, later slacks: a
    complemented H_x is the box slack u_x = 1 - H_x."""
    cells = len(game.flip)
    if j < cells:
        return game.box + j if game.flip[j] else j
    return j + cells if j >= game.box else j


def _explicit_pivots(monkeypatch):
    """Spy on every pivot of every restricted game: returns the list that
    collects each as (leaving, entering) in explicit-layout indices, the
    leaving variable None for the density row's seed pivot."""
    game_fn, pivot, games, log = hardcore._restricted_game, hardcore._pivot, [], []

    def spied_game(game):
        games.append(game)
        try:
            return game_fn(game)
        finally:
            games.pop()

    def spied_pivot(tab, r, c):
        game = games[-1]
        leaving = _explicit(game, game.basis[r]) if r < len(game.basis) else None
        log.append((leaving, _explicit(game, c)))
        pivot(tab, r, c)

    monkeypatch.setattr(hardcore, "_restricted_game", spied_game)
    monkeypatch.setattr(hardcore, "_pivot", spied_pivot)
    return log


# Beale's LP in Chvatal's form: columns x4..x7 then the slacks x1..x3.
BEALE_ROWS = [
    [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0), F(0)],
    [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0), F(0)],
    [F(0), F(0), F(1), F(0), F(0), F(0), F(1), F(1)],
]
BEALE_COST = [F(-3, 4), F(20), F(-1, 2), F(6), F(0), F(0), F(0)]


def test_beale_lp_cycles_under_dantzig_rule():
    # The fixture is a real cycling instance: most negative reduced cost in,
    # lowest basic index out on ratio ties, back to the start in 6 pivots,
    # and so to the same int rows, a basis having one canonical tableau.
    start = [_int_row(r) for r in BEALE_ROWS] + [_int_row(BEALE_COST + [F(0)])]
    tab = [list(r) for r in start]
    basis = [4, 5, 6]
    for _ in range(6):
        rows = [_frac_row(r) for r in tab]
        c = min(range(7), key=lambda j: (rows[-1][j], j))
        assert rows[-1][c] < 0
        r = min((i for i in range(3) if rows[i][c] > 0),
                key=lambda i: (rows[i][-1] / rows[i][c], basis[i]))
        _pivot(tab, r, c)
        basis[r] = c
    assert basis == [4, 5, 6] and tab == start


def _random_dual_lp(rng):
    """A small LP in canonical form for a slack basis that is dual feasible
    but not always primal: rows [A | I | b] with mixed denominators and some
    b < 0, then the reduced costs [c | 0 | 0] with c >= 0; (rows, basis).
    Small numerators make ratio ties common, and a row with b < 0 and no
    negative entry makes the LP infeasible."""
    def q(lo):
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(lo, 6), rng.choice((1, 2, 3)))

    m, n = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[q(-6) for _ in range(n)] + [F(int(i == j)) for j in range(m)] + [q(-6)]
            for i in range(m)]
    return rows + [[q(0) for _ in range(n)] + [F(0)] * (m + 1)], list(range(n, n + m))


def test_int_kernel_pivots_as_the_fraction_oracle_on_random_lps():
    rng = random.Random(2500)
    seen = Counter()
    for _ in range(400):
        rows, basis = _random_dual_lp(rng)
        want_tab, want_basis = [list(r) for r in rows], list(basis)
        tab, got_basis = [_int_row(r) for r in rows], list(basis)
        want, want_log = _traced(sys.modules[__name__], "_oracle_pivot", _oracle_dual_bland,
                                 list, want_tab, want_basis, seen)
        got, got_log = _traced(hardcore, "_pivot", hardcore._dual_bland, _frac_row,
                               tab, got_basis)
        # the same (row, column) pivots from one start: the same basis after each
        assert got_log == want_log
        _assert_reduced_int_rows(tab)
        if isinstance(want, Infeasible):
            assert (type(got), str(got)) == (type(want), str(want))
            seen["infeasible"] += 1
            continue
        assert got is None and got_basis == want_basis
        assert [_frac_row(r) for r in tab] == want_tab
        assert min(r[-1] for r in want_tab[:-1]) >= 0 and min(want_tab[-1][:-1]) >= 0
        seen["feasible after pivots" if want_log else "feasible at the start"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 5, seen


def test_restricted_game_runs_one_kernel_solve(monkeypatch):
    # Every game, the first from its seed basis and each later one from the
    # last tableau, is one _dual_bland run, with the cells' bounds as
    # complement flags: the tableau holds one row per pool tree, the density
    # row and the reduced costs, and columns H, s+, s-, y and the pool
    # slacks, no box row H_x + u_x = 1 and no box slack u_x.
    calls = {"game": 0, "dual": 0}
    game, dual = hardcore._restricted_game, hardcore._dual_bland

    def counted_game(played):
        calls["game"] += 1
        answer = game(played)
        cells, trees = len(played.flip), len(played.pool)
        assert len(played.rows) == trees + 2 and len(played.basis) == trees + 1
        assert {len(row) for row in played.rows} == {cells + 3 + trees + 2}
        return answer

    def counted_dual(tab, basis, flip, box):
        calls["dual"] += 1
        return dual(tab, basis, flip, box)

    monkeypatch.setattr(hardcore, "_restricted_game", counted_game)
    monkeypatch.setattr(hardcore, "_dual_bland", counted_dual)
    mu = Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    assert hardcore_solve(parity(2), mu, F(1, 4), F(1, 2), F(1)).iterations == 4
    assert calls == {"game": 4, "dual": 4}


def test_restricted_game_rows_stay_gcd_reduced_ints(monkeypatch):
    # A Fraction back in the kernel's rows, a denominator slot that is not
    # positive or a row left unreduced fails here: every row is checked after
    # each pivot, the two seed pivots of the first game included, at each
    # _dual_bland entry with the rows appended for a warm game, and at its
    # exit, after the last row it complemented, over one sweep solve's 8
    # restricted games.
    game, dual, pivot = hardcore._restricted_game, hardcore._dual_bland, hardcore._pivot
    counts = {"games": 0, "dual": 0, "pivots": 0}

    def counted_game(*args):
        counts["games"] += 1
        return game(*args)

    def checked_dual(tab, basis, flip, box):
        counts["dual"] += 1
        _assert_reduced_int_rows(tab)
        dual(tab, basis, flip, box)
        _assert_reduced_int_rows(tab)

    def checked_pivot(tab, r, c):
        pivot(tab, r, c)
        counts["pivots"] += 1
        _assert_reduced_int_rows(tab)

    monkeypatch.setattr(hardcore, "_restricted_game", counted_game)
    monkeypatch.setattr(hardcore, "_dual_bland", checked_dual)
    monkeypatch.setattr(hardcore, "_pivot", checked_pivot)
    rng = random.Random(9001)
    f = random_function(rng, 3)
    mu = random_distribution(rng, 3, allow_zeros=False)
    assert isinstance(hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1)), HardcoreCertificate)
    assert counts == {"games": 8, "dual": 8, "pivots": 14}


def test_best_response_with_no_new_tree_is_a_kernel_fault(monkeypatch):
    # After a game whose value is at most the threshold, its certified saddle
    # point rules out a pool mixture above the threshold.  A best response
    # that admits no tree yet beats the threshold is a kernel bug, not a
    # budget: here the second best response replays the first.
    real, first = hardcore.best_response, []

    def replayed(*args):
        if not first:
            first.append(real(*args))
        return first[0]

    monkeypatch.setattr(hardcore, "best_response", replayed)
    rng = random.Random(9001)  # plays 8 games before it certifies
    f = random_function(rng, 3)
    mu = random_distribution(rng, 3, allow_zeros=False)
    with pytest.raises(KernelFault, match="no tree"):
        hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert first[0][0] > F(1, 2) * F(1, 4) / 2


# The seeded sweep: 16 (f, mu) pairs on 3 variables with positive mu, at four
# budgets.  A former sympy-based LP hung on (instance, budget) (6, 3/2),
# called (6, 1) infeasible, and returned vertices that failed the self-checks
# on (0, 1), (9, 1/2) and (14, 3/2).
SWEEP_BUDGETS = (F(1, 2), F(1), F(3, 2), F(2))
FORMER_LP_FAILURES = {(6, F(3, 2)), (6, F(1)), (0, F(1)), (9, F(1, 2)), (14, F(3, 2))}


def test_seeded_sweep_decides_and_rechecks_every_solve(monkeypatch):
    pivots = _explicit_pivots(monkeypatch)
    solved = set()
    artifacts = []
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            out = hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
            if isinstance(out, HardcoreCertificate):
                assert verify_certificate(out)["ok"], (s, budget)
                artifacts.append(certificate_to_json(out))
            else:
                err, cost = committee_metrics(out, f, mu)
                assert err <= out.delta and cost <= out.r * budget, (s, budget)
                artifacts.append(committee_to_json(out))
            solved.add((s, budget))
    assert len(solved) == 64 and FORMER_LP_FAILURES <= solved
    # a refactor must leave every certificate and committee byte-identical
    assert hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest() == (
        "917fdf81ec7de746714ed7a40d623bd9522bb81bbab8903418ffd8248c7573fd")
    # ... and make the same pivots in the same order: in each solve's first
    # game the two seed pivots, then those of the dual Bland rule, each
    # named by its (leaving, entering) variables in the explicit layout, as
    # the kernel made them when the box rows were rows of its tableau
    assert len(pivots) == 446
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == (
        "63a3813b453c5de730e6fa3ce235f5de322b13ba8538b1802ab93f2888bfea9a")


def test_every_warm_sweep_game_matches_a_cold_solve_of_its_pool(monkeypatch):
    # Each restricted game of the n=3 sweep is solved again cold, on the
    # same pool, by the Fraction two-phase oracle: the values agree, and
    # both strategy pairs pass the saddle-point re-checks.
    solve = hardcore._restricted_game
    seen = Counter()

    def checked(game):
        first = not game.slacks
        value, z, w = solve(game)
        cold = _oracle_game(*_oracle_args(f, mu, F(1, 8), game))
        hardcore._check_saddle_point(game, *cold)
        assert cold[0] == value
        seen["first" if first else "warm"] += 1
        seen["other vertex"] += cold[1:] != (z, w)
        return value, z, w

    monkeypatch.setattr(hardcore, "_restricted_game", checked)
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
    assert seen["first"] == 56 and seen["warm"] == 164 - 56 and seen["other vertex"] > 0, seen


def test_n4_seeded_solves_boost_committees():
    # The sweep's first three instances on 4 variables, at budget 2.
    for s, iterations in enumerate((2, 30, 11)):
        rng = random.Random(9000 + s)
        f = random_function(rng, 4)
        mu = random_distribution(rng, 4, allow_zeros=False)
        out = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
        assert isinstance(out, Committee) and out.iterations == iterations, s
        err, cost = committee_metrics(out, f, mu)
        assert err <= F(1, 4) and cost <= out.r * 2, s


def test_dual_bland_pivots_by_the_rule_through_ratio_ties(monkeypatch):
    # Re-derived in Fractions before each dual pivot, every variable named by
    # its explicit-layout index: the leaving row is, among the rows with a
    # negative basic variable or a basic H above 1 (whose box slack is then
    # negative, and whose row the kernel has already complemented), the one
    # of least index; the entering column the least of least cost / |entry|.
    # The instances are degenerate: a ratio tie occurs, an H goes above 1,
    # and the loop still ends.
    dual, pivot = hardcore._dual_bland, hardcore._pivot
    running, seen = [], Counter()

    def spied_dual(tab, basis, flip, box):
        running.append(SimpleNamespace(basis=basis, flip=flip, box=box))
        try:
            dual(tab, basis, flip, box)
        finally:
            running.pop()

    def checked_pivot(tab, r, c):
        if running:
            game = running[-1]
            cells, rows = len(game.flip), [_frac_row(row) for row in tab]
            eligible = {}
            for i, b in enumerate(game.basis):
                if rows[i][-1] < 0:
                    eligible[i] = _explicit(game, b)
                elif b < cells and rows[i][-1] > 1:
                    eligible[i] = game.box + b if not game.flip[b] else b
            assert eligible[r] == min(eligible.values()) and rows[r][-1] < 0
            ratios = {j: rows[-1][j] / -a for j, a in enumerate(rows[r][:-1]) if a < 0}
            tied = sorted(_explicit(game, j) for j, q in ratios.items()
                          if q == min(ratios.values()))
            assert _explicit(game, c) == tied[0]
            seen["pivots"] += 1
            seen["ties"] += len(tied) > 1
            seen["complemented"] += any(b < cells and game.flip[b] for b in game.basis)
        pivot(tab, r, c)

    monkeypatch.setattr(hardcore, "_dual_bland", spied_dual)
    monkeypatch.setattr(hardcore, "_pivot", checked_pivot)
    for n, budget in ((2, F(3, 2)), (3, F(2))):
        out = hardcore_solve(parity(n), uniform(n), F(1, 4), F(1, 2), budget)
        assert isinstance(out, Committee)
    rng = random.Random(9001)
    f = random_function(rng, 3)
    hardcore_solve(f, random_distribution(rng, 3, allow_zeros=False), F(1, 4), F(1, 2), F(1))
    assert seen["ties"] >= 2 and seen["pivots"] >= 3 and seen["complemented"], seen


def test_dual_bland_refuses_a_row_with_no_negative_entry():
    # x0 + s = -1 with x0, s >= 0: no entry can enter to make the rhs >= 0
    tab = [[1, 1, -1, 1], [1, 0, 0, 1]]
    with pytest.raises(Infeasible):
        hardcore._dual_bland(tab, [1])


def test_admit_enters_a_row_reduced_and_canonical_with_its_slack_basic():
    # Columns x0, x1, s0 then rhs, D; x0 basic in x0 + x1 + s0 = 2, and the
    # reduced costs last.  2*x1 + s1 = 3 comes in at d = 2 as [0, 4, 0, 2,
    # 6, 2], clear of every basic column: only the gcd step reduces it.
    tab = [[1, 1, 1, 2, 1], [0, 3, 1, 0, 1]]
    basis = [0]
    hardcore._admit(tab, basis, [(1, 4)], 6, 2)
    assert tab == [[1, 1, 1, 0, 2, 1], [0, 2, 0, 1, 3, 1], [0, 3, 1, 0, 0, 1]]
    assert basis == [0, 3]
    # x0 + x1 + s2 = 2 has basic x0: it enters as its difference from x0's
    # row, -s0 + s2 = 0, still above the reduced costs.
    hardcore._admit(tab, basis, [(0, 2), (1, 2)], 4, 2)
    assert tab == [[1, 1, 1, 0, 0, 2, 1], [0, 2, 0, 1, 0, 3, 1],
                   [0, 0, -1, 0, 1, 0, 1], [0, 3, 1, 0, 0, 0, 1]]
    assert basis == [0, 3, 4]


@pytest.mark.parametrize("s, kind, iterations", [(0, Committee, 51),
                                                  (3, HardcoreCertificate, 47)])
def test_n5_seeded_solves_decide_and_recheck(s, kind, iterations):
    # Each took 12 s and 37 s when every game was solved cold.
    rng = random.Random(9000 + s)
    f = random_function(rng, 5)
    mu = random_distribution(rng, 5, allow_zeros=False)
    out = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
    assert type(out) is kind and out.iterations == iterations
    if kind is Committee:
        err, cost = committee_metrics(out, f, mu)
        assert err <= F(1, 4) and cost <= out.r * 2
    else:
        assert verify_certificate(out)["ok"]


def _random_pool(rng, n, size):
    """(mu, trees, budget): a random mu and pool of trees on n variables,
    the budget at least the first tree's depth so that the game is
    bounded."""
    mu = random_distribution(rng, n, allow_zeros=rng.random() < 0.3)
    trees = [random_tree(rng, n, 1) for _ in range(size)]
    budget = hardcore.expected_depth(trees[0], mu) + F(rng.randint(0, 4 * n), 4)
    return mu, trees, budget


def test_warm_games_match_cold_solves_on_random_pools(monkeypatch):
    # Rows appended one at a time: after each, the warm game's value is the
    # value the Fraction two-phase oracle finds cold on the same pool, and
    # both strategy pairs pass the re-checks (each raises InvalidValue
    # otherwise).
    pivot, pivots = hardcore._pivot, []

    def counted(tab, r, c):
        pivots.append((r, c))
        pivot(tab, r, c)

    monkeypatch.setattr(hardcore, "_pivot", counted)
    rng = random.Random(1900)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(2, 7))
        half = F(rng.randint(1, 7), 8)
        game = _game(f, mu, half, budget, [])
        for k, tree in enumerate(trees):
            game.pool.append(_pool_entry(f, mu, tree))
            before = len(pivots)
            warm = hardcore._restricted_game(game)
            if k:
                seen["warm games"] += 1
                seen["warm games that pivot"] += len(pivots) > before
            cold = _oracle_game(*_oracle_args(f, mu, half, game))
            hardcore._check_saddle_point(game, *cold)
            assert warm[0] == cold[0]
            seen["other vertex"] += warm[1:] != cold[1:]
    assert min(seen.values()) >= 20, seen


def test_every_dual_bland_run_starts_dual_feasible(monkeypatch):
    # At each _dual_bland entry every reduced cost is >= 0, and each basic
    # column's is 0: after the two seed pivots of a first game as after the
    # rows a warm game appends, on the n=3 sweep and on random pools.
    solve, dual = hardcore._restricted_game, hardcore._dual_bland
    first, seen = [], Counter()

    def spied_game(game):
        first.append(not game.slacks)
        return solve(game)

    def checked_dual(tab, basis, flip, box):
        costs = tab[-1]
        assert min(costs[:-2]) >= 0 and not any(costs[b] for b in basis)
        seen["first" if first.pop() else "warm"] += 1
        dual(tab, basis, flip, box)

    monkeypatch.setattr(hardcore, "_restricted_game", spied_game)
    monkeypatch.setattr(hardcore, "_dual_bland", checked_dual)
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
    assert seen == {"first": 56, "warm": 164 - 56}, seen
    rng = random.Random(2501)
    for _ in range(150):
        n = rng.randint(1, 3)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(1, 7))
        game = _game(f, mu, F(rng.randint(1, 7), 8), budget, [])
        for tree in trees:
            game.pool.append(_pool_entry(f, mu, tree))
            hardcore._restricted_game(game)
    assert seen["first"] == 56 + 150 and seen["warm"] > 164, seen


def _oracle_first_tableau(f, mu, half_density, budget, tables, depths):
    """(rows, basis, slacks, t0) of a first game at its _dual_bland entry in
    the explicit layout, by the former fixed-width build: every row laid out
    at its final width in the columns H, s+, s-, y, pool slacks, box slacks;
    the tree rows, box rows H_x + u_x = 1 and density row; the two seed
    pivots; then the cost row priced against the seed basis."""
    npts, nt = 1 << f.n, len(tables)
    den, mass = hardcore._scale((*mu.weights, half_density))
    t0 = next(t for t, depth in enumerate(depths) if depth <= budget)
    slack0 = npts + 3
    box0 = slack0 + nt
    width = box0 + npts + 2

    def row(entries, rhs, d):
        r = [0] * width
        for j, v in entries:
            r[j] = v
        r[-2], r[-1] = rhs, d
        return r

    tab = []
    for t in range(nt):
        depth = depths[t]
        d = math.lcm(den, depth.denominator)
        y = depth.numerator * (d // depth.denominator)
        r = row([(x, d // den * mass[x] * f.table[x] * v) for x, v in enumerate(tables[t])]
                + [(npts, -d), (npts + 1, d), (npts + 2, -y), (slack0 + t, d)], 0, d)
        tab.append(hardcore._reduced(r))
    tab += [row([(x, 1), (box0 + x, 1)], 1, 1) for x in range(npts)]
    tab.append(row(enumerate(mass[:npts]), mass[npts], den))
    x0 = min((x for x in range(npts) if mass[x]), key=lambda x: f.table[x] * tables[t0][x])
    _pivot(tab, len(tab) - 1, x0)
    _pivot(tab, t0, npts)
    basis = [slack0 + t for t in range(nt)] + [box0 + x for x in range(npts)] + [x0]
    basis[t0] = npts
    d = budget.denominator
    cost = row([(npts, d), (npts + 1, -d), (npts + 2, budget.numerator)], 0, d)
    for i, b in enumerate(basis):
        if cost[b]:
            cost = hardcore._eliminate(cost, tab[i], b, [j for j, v in enumerate(tab[i][:-1]) if v])
    return tab + [cost], basis, list(range(slack0, box0)), t0


def test_first_games_enter_dual_bland_as_the_fixed_width_build(monkeypatch):
    # Rows admitted one at a time reach the tableau the former fixed-width
    # build laid out, less its box rows and box-slack columns (every box
    # slack is basic there, so its column is zero in every other row): the
    # same int rows in the same order, the same basis and pool slacks, no
    # cell complemented and the box slacks ranked from the first after the
    # pool slacks, on the n=3 sweep's first games and on random pools, some
    # played first by a tree other than the first.
    solve, dual = hardcore._restricted_game, hardcore._dual_bland
    entry, seen = [], Counter()

    def spied_game(game):
        entry.append((game, not game.slacks))
        try:
            return solve(game)
        finally:
            entry.pop()

    def checked_dual(tab, basis, flip, box):
        game, first = entry[-1]
        if first:
            rows, want_basis, slacks, t0 = _oracle_first_tableau(
                *_oracle_args(f, mu, half, game))
            cells, trees = len(flip), len(slacks)
            box0 = cells + 3 + trees
            bounded = [row[:box0] + row[box0 + cells:] for row in rows[:trees] + rows[-2:]]
            assert len(rows) == trees + cells + 2
            assert (tab, basis, game.slacks) == (
                bounded, [b for b in want_basis if not box0 <= b < box0 + cells], slacks)
            assert (flip, box) == ([False] * cells, box0)
            seen["first"] += 1
            seen["t0 > 0"] += t0 > 0
        dual(tab, basis, flip, box)

    monkeypatch.setattr(hardcore, "_restricted_game", spied_game)
    monkeypatch.setattr(hardcore, "_dual_bland", checked_dual)
    half = F(1, 8)
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
    assert seen["first"] == 56, seen
    rng = random.Random(2902)
    for _ in range(150):
        n = rng.randint(1, 4)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(1, 7))
        if rng.random() < 0.5:
            budget = hardcore.expected_depth(rng.choice(trees), mu)
        half = F(rng.randint(1, 7), 8)
        hardcore._restricted_game(_game(f, mu, half, budget, trees))
    assert seen["first"] == 56 + 150 and seen["t0 > 0"] >= 20, seen


def _oracle_explicit_game(state, f, mu, half_density, budget, tables, depths):
    """(value, z, w) of the pool-restricted game in the explicit layout, on
    Fraction rows played warm by _oracle_dual_bland: columns H, s+, s-, y,
    first-pool slacks, box slacks u_x with H_x + u_x = 1 as rows, later
    slacks.  `state` keeps the rows, basis and pool slacks between the games
    of one pool.  A first game lays down the tree rows, box rows and density
    row and makes the two seed pivots of _restricted_game; a later one
    admits each new tree row in the basis' canonical form."""
    npts, rows, basis, slacks = 1 << f.n, state["rows"], state["basis"], state["slacks"]

    def tree_row(t, width):
        row = [F(0)] * width
        for x in range(npts):
            row[x] = mu.weights[x] * f.table[x] * tables[t][x]
        row[npts:npts + 3] = F(-1), F(1), -depths[t]
        return row

    if not slacks:
        nt = len(tables)
        slack0, box0 = npts + 3, npts + 3 + nt
        width = box0 + npts + 1
        for t in range(nt):
            rows.append(tree_row(t, width))
            rows[-1][slack0 + t] = F(1)
        for x in range(npts):
            rows.append([F(x == j or box0 + x == j) for j in range(width - 1)] + [F(1)])
        rows.append([*mu.weights] + [F(0)] * (width - npts - 1) + [half_density])
        rows.append([F(0)] * npts + [F(1), F(-1), budget] + [F(0)] * (width - npts - 3))
        basis += [slack0 + t for t in range(nt)] + [box0 + x for x in range(npts)]
        slacks += range(slack0, box0)
        t0 = next(t for t, depth in enumerate(depths) if depth <= budget)
        x0 = min((x for x in range(npts) if mu.weights[x]),
                 key=lambda x: f.table[x] * tables[t0][x])
        _oracle_pivot(rows, len(basis), x0)
        basis.append(x0)
        _oracle_pivot(rows, t0, npts)
        basis[t0] = npts
    for t in range(len(slacks), len(tables)):
        for row in rows:
            row.insert(-1, F(0))
        new = tree_row(t, len(rows[0]))
        new[-2] = F(1)
        for i, b in enumerate(basis):
            m = new[b]
            if m:
                new = [v - m * u for v, u in zip(new, rows[i])]
        rows.insert(len(basis), new)
        basis.append(len(new) - 2)
        slacks.append(len(new) - 2)
    _oracle_dual_bland(rows, basis, Counter())
    z = [F(0)] * npts
    for i, b in enumerate(basis):
        if b < npts:
            z[b] = rows[i][-1]
    return -rows[-1][-1], tuple(z), tuple(rows[-1][j] for j in slacks)


def test_bounded_kernel_pivots_as_the_explicit_layout_on_random_pools(monkeypatch):
    # The explicit layout, its bounds as box rows, played in Fractions by
    # _oracle_dual_bland next to the int kernel on the same pools, a tree at
    # a time: every game makes the same pivots, each named by its (leaving,
    # entering) variables, and ends at the same (value, z, w).
    got, want, state = _explicit_pivots(monkeypatch), [], {}
    pivot = _oracle_pivot

    def spied(tab, r, c):
        basis = state["basis"]
        want.append((basis[r] if r < len(basis) else None, c))
        pivot(tab, r, c)

    monkeypatch.setattr(sys.modules[__name__], "_oracle_pivot", spied)
    rng = random.Random(3601)
    seen = Counter()
    for _ in range(120):
        n = rng.randint(1, 4)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(1, 7))
        half = F(rng.randint(1, 7), 8)
        game = _game(f, mu, half, budget, [])
        state.update(rows=[], basis=[], slacks=[])
        for tree in trees:
            game.pool.append(_pool_entry(f, mu, tree))
            answer = hardcore._restricted_game(game)
            assert _oracle_explicit_game(state, *_oracle_args(f, mu, half, game)) == answer
            assert got == want
            box = range(game.box, game.box + len(game.flip))
            seen["games"] += 1
            seen["H at 1"] += any(game.flip)
            seen["pivots"] += len(got)
            seen["upper-bound pivots"] += sum(a in box or b in box for a, b in got)
            got.clear()
            want.clear()
    assert seen["games"] >= 400 and seen["upper-bound pivots"] >= 100, seen
    assert seen["H at 1"] >= 100, seen


def test_a_pool_with_no_tree_within_the_budget_raises_infeasible():
    # Every pool tree is deeper than the budget, so s + budget*y falls without
    # bound along y; the cold oracle finds the LP unbounded too.
    f, mu = parity(2), Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    trees = [DecisionTree(2, 1, Query(0, Leaf((-1,)), Leaf((1,)))),
             DecisionTree(2, 1, Query(1, Leaf((1,)), Query(0, Leaf((1,)), Leaf((-1,)))))]
    budget = min(hardcore.expected_depth(t, mu) for t in trees) - F(1, 8)
    game = _game(f, mu, F(1, 8), budget, trees)
    with pytest.raises(Infeasible, match="no pool tree within the depth budget"):
        hardcore._restricted_game(game)
    # refused before any row is built, the cost row included
    assert (game.rows, game.basis, game.slacks) == ([], [], [])
    with pytest.raises(InvalidValue, match="unbounded"):
        _oracle_game(*_oracle_args(f, mu, F(1, 8), game))


def _payoff_vector(f, mu, table):
    """c_T(x) = mu(x) f(x) T(x), so payoff(H, T) = sum_x c_T(x) H(x)."""
    return tuple(mu.weights[x] * f.table[x] * table[x] for x in range(1 << f.n))


def _greedy_min_measure(mu, half_density, scores):
    """Exact min of sum_x mu(x) score(x) H(x) over measures of given density.

    Classic fractional fill: put H = 1 on the lowest scores first."""
    order = sorted(mu.support(), key=lambda x: (scores[x], x))
    remaining = half_density
    value = F(0)
    for x in order:
        if remaining == 0:
            break
        take = min(mu.weights[x], remaining)
        value += take * scores[x]
        remaining -= take
    if remaining != 0:
        raise InvalidValue("density exceeds total distribution mass")
    return value


def _oracle_saddle_point(f, mu, half_density, budget, tables, depths, value, z, w):
    """The former Fraction re-checks of a restricted game's answer, with
    the cell values z checked to lie in [0,1] as Measure checks them: the
    message of the InvalidValue they raise, or None when they accept."""
    npts = 1 << f.n
    try:
        if any(v < 0 for v in w) or sum(w, F(0)) != 1:
            raise InvalidValue(f"mixture {w} is not a distribution (LP kernel bug)")
        if sum((v * d for v, d in zip(w, depths)), F(0)) > budget:
            raise InvalidValue(f"mixture {w} exceeds the depth budget (LP kernel bug)")
        if not all(0 <= v <= 1 for v in z):
            raise InvalidValue(f"measure {z} leaves [0,1] (LP kernel bug)")
        h = Measure(f.n, z)
        if density(h, mu) != half_density:
            raise InvalidValue(f"measure {z} misses the density (LP kernel bug)")
        live = [t for t in range(len(tables)) if w[t]]
        scores = [f.table[x] * sum((w[t] * tables[t][x] for t in live), F(0))
                  for x in range(npts)]
        g_value = _greedy_min_measure(mu, half_density, scores)
        if g_value != value:
            raise InvalidValue(
                f"restricted value {value} not reproduced by greedy minimum {g_value}")
        pairs = []
        for t, table in enumerate(tables):
            payoffs = _payoff_vector(f, mu, table)
            pairs.append((depths[t], sum((payoffs[x] * h.values[x] for x in range(npts)),
                                         F(0)), t))
        e_value, _ = mixture_optimum(pairs, budget, minimize=False)
        if e_value != value:
            raise InvalidValue(
                f"restricted value {value} not reproduced by envelope maximum {e_value}")
    except InvalidValue as exc:
        return str(exc)
    return None


def _tampered(rng, mu, depths, value, z, w):
    """The game's answer, then copies with one part changed: the value, the
    mixture (weight moved between two trees, a negative weight, a scale, all
    weight on the deepest tree) or the cell values (mass moved between two
    points at the same density, halved, or one value set below 0 or above
    1)."""
    out = [(value, z, w), (value + F(rng.choice((-1, 1)), 64), z, w)]
    deepest = depths.index(max(depths))
    out.append((value, z, tuple(F(t == deepest) for t in range(len(w)))))
    i, j = rng.randrange(len(w)), rng.randrange(len(w))
    for shift in (w[i] * F(rng.randint(1, 4), 4), w[i] + F(1, 8)):
        moved = list(w)
        moved[i] -= shift
        moved[j] += shift
        out.append((value, z, tuple(moved)))
    out.append((value, z, tuple(2 * v for v in w)))
    support = mu.support()
    x, y = rng.choice(support), rng.choice(support)
    eps = F(rng.randint(1, 8), 64) * mu.weights[x] * mu.weights[y]
    values = list(z)
    values[x] -= eps / mu.weights[x]
    values[y] += eps / mu.weights[y]
    if all(0 <= v <= 1 for v in values):
        out.append((value, tuple(values), w))
    for lower in (True, False):  # density below or above half_density
        out.append((value, tuple((v + (not lower)) / 2 for v in z), w))
    for stray in (F(-1, 8), F(9, 8)):  # one value out of [0,1]
        out.append((value, z[:x] + (stray,) + z[x + 1:], w))
    return out


def _verdict(game, value, z, w):
    """None if _check_saddle_point accepts, else its KernelFault's message."""
    try:
        hardcore._check_saddle_point(game, value, z, w)
    except KernelFault as exc:
        return str(exc)
    return None


def test_saddle_point_checks_refuse_as_the_fraction_checks():
    # The int checks accept the game's answer and refuse each tampered copy
    # with the message the former Fraction checks give.
    rng = random.Random(1902)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(1, 5))
        half = F(rng.randint(1, 7), 8)
        game = _game(f, mu, half, budget, trees)
        answer = hardcore._restricted_game(game)
        args = _oracle_args(f, mu, half, game)
        for value, z, w in _tampered(rng, mu, args[-1], *answer):
            want = _oracle_saddle_point(*args, value, z, w)
            got = _verdict(game, value, z, w)
            assert got == want, (got, want)
            seen[next((p for p in SADDLE_POINT_FAULTS if p in (want or "")), want)] += 1
    assert set(seen) == {None, *SADDLE_POINT_FAULTS} and min(seen.values()) >= 20, seen


def test_saddle_point_checks_read_the_game_data_alone():
    # The re-checks share one object with the kernel's state but never read
    # it: with the rows, basis and slacks emptied they accept and refuse the
    # same answers, each with the same message.
    rng = random.Random(3101)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_function(rng, n)
        mu, trees, budget = _random_pool(rng, n, rng.randint(1, 5))
        game = _game(f, mu, F(rng.randint(1, 7), 8), budget, trees)
        answers = _tampered(rng, mu, [d for _, _, d in game.pool],
                            *hardcore._restricted_game(game))
        verdicts = [_verdict(game, *answer) for answer in answers]
        for state in (game.rows, game.basis, game.slacks):
            assert state
            state.clear()
        assert [_verdict(game, *answer) for answer in answers] == verdicts
        seen.update(v is None for v in verdicts)
    assert seen[True] >= 60 and seen[False] >= 60, seen


def test_a_solve_scales_mu_once(monkeypatch):
    # One _Game per solve, built from mu's weights scaled once, however many
    # games it plays: 64 over the n=3 sweep's 164 games (mu was scaled twice
    # per game, 328 times, when each game and each re-check scaled it again).
    calls = Counter()
    build, solve = hardcore._Game, hardcore._restricted_game

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hardcore, "_Game", counted("built", build))
    monkeypatch.setattr(hardcore, "_restricted_game", counted("games", solve))
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
    assert calls == {"built": 64, "games": 164}


@pytest.mark.parametrize("at, row, slot, fault", [
    (3, -1, None, "not reproduced by greedy minimum"),
    (1, -2, -2, "misses the density"),
], ids=["reduced-cost", "density-rhs"])
def test_a_corrupted_pivot_raises_a_kernel_fault(monkeypatch, at, row, slot, fault):
    # The first game's third pivot is its first by _dual_bland, with the
    # reduced costs in the last row (slot None: the first nonzero one); its
    # first pivot leaves the density row just above the reduced costs, slot
    # -2 its right-hand side.  The kernel then brings every H within its
    # bounds, as it brings any basic variable, so the density is what moves.
    # A kernel bug is no fault of the input: no ValueError, so CLI exit 5.
    pivot, calls = hardcore._pivot, []

    def corrupted(tab, r, c):
        pivot(tab, r, c)
        calls.append((r, c))
        if len(calls) == at:
            hit = tab[row]
            j = next(j for j, v in enumerate(hit[:-2]) if v) if slot is None else slot
            hit[j] += hit[-1]

    monkeypatch.setattr(hardcore, "_pivot", corrupted)
    rng = random.Random(9000)
    f = random_function(rng, 3)
    mu = random_distribution(rng, 3, allow_zeros=False)
    with pytest.raises(KernelFault, match=re.escape(fault)) as caught:
        hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert not isinstance(caught.value, ValueError)


SADDLE_POINT_FAULTS = ("not a distribution", "exceeds the depth budget", "leaves [0,1]",
                       "misses the density", "greedy minimum", "envelope maximum")


# --- best responses


def test_best_response_at_zero_budget_is_best_constant():
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, F(1, 2))
    advantage, _ = best_response(f, mu, h, F(0))
    # parity is balanced, so no constant guess has any advantage
    assert advantage == 0


def test_best_response_full_budget_reads_off_density():
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, F(1, 8))
    advantage, witness = best_response(f, mu, h, F(2))
    assert advantage == density(h, mu)
    assert sum(w for w, _ in witness) == 1


def test_best_response_dominates_handcrafted_trees():
    f = dictator(2, 1)
    mu = Distribution(2, (F(1, 8), F(1, 8), F(3, 8), F(3, 8)))
    h = constant_measure(2, F(1, 2))
    advantage, _ = best_response(f, mu, h, F(1, 2))
    hand = DecisionTree(2, 1, Leaf((1,)))
    hand_adv = sum(mu.weights[x] * f.table[x] * h.values[x] * evaluate(hand, x)[0]
                   for x in range(4))
    assert advantage >= hand_adv


def test_best_response_refuses_a_negative_budget():
    # No frontier tree has a negative expected depth, so no mixture is
    # within the budget.
    with pytest.raises(Infeasible, match="no frontier point within the depth budget"):
        best_response(parity(2), uniform(2), constant_measure(2, F(1, 2)), F(-1, 8))


# --- full pipeline on parity, frozen values


def test_parity2_certificate_values_sweep():
    f, mu = parity(2), uniform(2)
    for budget, adv in ((F(0), F(0)), (F(1, 2), F(1, 32)), (F(1), F(1, 16))):
        cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
        assert isinstance(cert, HardcoreCertificate)
        assert cert.best_response_advantage == adv
        assert density(cert.measure, mu) == F(1, 8)
        assert verify_certificate(cert)["ok"]


def test_parity2_committee_above_threshold():
    f, mu = parity(2), uniform(2)
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
    assert isinstance(com, Committee)
    assert com.r == committee_size(F(1, 4), F(1, 2)) == 45
    err, cost = committee_metrics(com, f, mu)
    assert err <= F(1, 4)
    assert cost <= com.r * 2


def test_committee_metrics_measures_each_distinct_member_once(monkeypatch):
    f, mu = parity(2), Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    x0 = DecisionTree(2, 1, Query(0, Leaf((-1,)), Leaf((1,))))
    x1 = DecisionTree(2, 1, Query(1, Leaf((1,)), Leaf((-1,))))
    const = DecisionTree(2, 1, Leaf((-1,)))
    trees = (x0, x1, x0, const, x0, x1, const)
    votes = [sum(evaluate(t, x)[0] for t in trees) for x in range(4)]
    err = sum((mu.weights[x] for x in range(4) if (1 if votes[x] > 0 else -1) != f.table[x]),
              F(0))
    cost = sum(hardcore.expected_depth(t, mu) for t in trees)
    calls = {"expected_depth": 0, "evaluate": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(hardcore, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(hardcore, name, counted)
    committee = Committee(f, mu, trees, F(1, 4), F(1, 2), F(1), 0, 1)
    assert committee_metrics(committee, f, mu) == (err, cost)
    assert calls == {"expected_depth": 3, "evaluate": 3 * 4}
    # Seats are counted by object identity: equal trees that are distinct
    # objects, as a committee read from JSON may hold, are measured apart.
    copies = tuple(DecisionTree(t.n, t.k, t.root) for t in trees)
    twins = Committee(f, mu, copies, F(1, 4), F(1, 2), F(1), 0, 1)
    assert committee_metrics(twins, f, mu) == (err, cost)


def test_certificate_advantage_monotone_in_budget():
    f, mu = parity(2), uniform(2)
    budgets = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    advs = []
    for b in budgets:
        cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), b)
        advs.append(cert.best_response_advantage)
    assert advs == sorted(advs)


def test_tampered_certificate_is_rejected():
    cert = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(1))
    wrong_density = HardcoreCertificate(
        cert.f, cert.mu, constant_measure(2, F(1, 2)), cert.delta, cert.gamma,
        cert.depth_budget, cert.best_response_advantage, cert.witness,
        cert.iterations)
    report = verify_certificate(wrong_density)
    assert not report["ok"]
    assert not report["density_is_half_delta"]
    understated = HardcoreCertificate(
        cert.f, cert.mu, cert.measure, cert.delta, cert.gamma,
        cert.depth_budget, F(0), cert.witness, cert.iterations)
    report = verify_certificate(understated)
    assert not report["ok"]
    assert not report["fresh_best_response_matches"]


def test_committee_sizes_are_odd_and_match_formula():
    assert committee_size(F(1, 4), F(1, 2)) == 45
    assert committee_size(F(1, 8), F(1, 2)) == 67
    for d, g in ((F(1, 2), F(1, 2)), (F(1, 16), F(1, 4))):
        assert committee_size(d, g) % 2 == 1


def _passes(r, delta, gamma):
    # Oracle: r * gamma^2 / BOOST_CONSTANT >= ln(1/delta) in 60-digit decimal
    # arithmetic, the exact inequality e^{r gamma^2 / BOOST_CONSTANT} >= 1/delta.
    e = r * gamma ** 2 / hardcore.BOOST_CONSTANT
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(e.numerator) / e.denominator
                >= (Decimal(delta.denominator) / delta.numerator).ln())


def test_committee_size_is_the_smallest_odd_r_passing_the_exact_inequality():
    passes = _passes
    deltas = (F(1, 2), F(1, 3), F(1, 4), F(1, 8), F(1, 10), F(1, 100), F(3, 4), F(9, 10))
    gammas = (F(1), F(1, 2), F(1, 3), F(1, 4), F(3, 5), F(1, 10))
    for delta in deltas:
        for gamma in gammas:
            r = committee_size(delta, gamma)
            assert r % 2 == 1
            assert passes(r, delta, gamma), (delta, gamma, r)
            assert r == 1 or not passes(r - 2, delta, gamma), (delta, gamma, r)
    with pytest.raises(InvalidValue):
        committee_size(F(1, 4), F(0))


def test_committee_size_refuses_delta_and_gamma_outside_the_solver_domain():
    # refused before any candidate, with the solver's own messages: gamma = 3
    # would ask e^x past MAX_EXP_BITS, and a delta >= 1 would get r = 1
    for gamma in (F(2), F(3)):
        with pytest.raises(InvalidValue, match=re.escape(f"gamma must lie in (0,1], got {gamma}")):
            committee_size(F(1, 4), gamma)
    for delta in (F(0), F(1), F(2)):
        with pytest.raises(InvalidValue, match=re.escape(f"delta must lie in (0,1), got {delta}")):
            committee_size(delta, F(1, 2))
    assert committee_size(F(1, 4), F(1)) == 13


def test_committee_size_survives_float_underflow():
    # float(delta) is 0 here: the search must stay on exact values.
    tiny, gamma = F(1, 10**400), F(1, 2)
    r = committee_size(tiny, gamma)
    assert r == 29475
    assert _passes(r, tiny, gamma) and not _passes(r - 2, tiny, gamma)
    committee = hardcore_solve(parity(2), uniform(2), tiny, gamma, F(2))
    assert isinstance(committee, Committee) and committee.r == r
    # float(gamma) ** 2 is 0 here; r is near 2**1333, far past the seat
    # limit, so it is refused with a typed error.
    with pytest.raises(GuardExceeded):
        committee_size(F(1, 4), F(1, 10**200))


def test_committee_size_refuses_more_seats_than_its_limit():
    # About 2**43.5 seats, which no run could sample: refused at once.
    with pytest.raises(GuardExceeded, match="65535 seats"):
        committee_size(F(1, 4), F(1, 2**20))
    # The exact boundary at gamma = 1, where r passes iff e^{r/8} >= 1/delta:
    # N <= e^{65534/8} makes r = 65535 the least, M >= e^{65536/8} passes no
    # r within the limit.
    assert hardcore.MAX_COMMITTEE_SIZE == 65535
    lo, _ = exp_bounds(F(65534, 8))
    n = lo.numerator // lo.denominator
    assert committee_size(F(1, n), F(1)) == 65535
    assert _passes(65535, F(1, n), F(1)) and not _passes(65533, F(1, n), F(1))
    _, hi = exp_bounds(F(65536, 8))
    m = -(-hi.numerator // hi.denominator)
    assert not _passes(65535, F(1, m), F(1))
    with pytest.raises(GuardExceeded):
        committee_size(F(1, m), F(1))


def test_committee_size_on_a_seeded_grid_straddling_the_seat_limit():
    # Each delta puts ln(1/delta) near r * gamma^2 / BOOST_CONSTANT for an r
    # drawn from both sides of the limit: the answer is the least odd r the
    # Decimal oracle passes, or GuardExceeded exactly when the limit fails.
    limit = hardcore.MAX_COMMITTEE_SIZE
    rng = random.Random(2727)
    refused = 0
    for _ in range(24):
        gamma = F(rng.randint(1, 64), 64)
        e = rng.randint(limit - 3000, limit + 3000) * gamma ** 2 / hardcore.BOOST_CONSTANT
        with localcontext() as ctx:
            ctx.prec = 60
            inverse = int((Decimal(e.numerator) / e.denominator).exp())
        delta = F(rng.randint(1, 9), inverse)
        if _passes(limit, delta, gamma):
            r = committee_size(delta, gamma)
            assert r % 2 == 1 and _passes(r, delta, gamma), (delta, gamma, r)
            assert not _passes(r - 2, delta, gamma), (delta, gamma, r)
        else:
            refused += 1
            with pytest.raises(GuardExceeded):
                committee_size(delta, gamma)
    assert 0 < refused < 24


def test_maj_boost_is_seed_deterministic():
    f, mu = parity(2), uniform(2)
    a = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=9)
    b = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=9)
    c = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=10)
    assert isinstance(a, Committee) and a.trees == b.trees
    assert isinstance(c, Committee)  # different seed may or may not differ


def test_committee_single_tree_when_one_member_suffices():
    # dictator under uniform: the depth-1 tree is exact, so every sampled
    # member computes f and the majority has zero error
    f, mu = dictator(1, 0), uniform(1)
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert isinstance(com, Committee)
    err, cost = committee_metrics(com, f, mu)
    assert err == 0
    assert cost <= com.r


def _game_cost(pool: int, n: int) -> int:
    """The guard's estimate of a restricted game: its tableau's rows times
    its columns times the 2^n points."""
    npts = 1 << n
    return (pool + npts + 2) * (pool + 2 * npts + 5) * npts


def _state(game):
    """A copy of a game's kernel state: its rows, basis and pool slacks."""
    return [row[:] for row in game.rows], game.basis[:], game.slacks[:]


@pytest.mark.parametrize("slack, refused", [(-1, 2), (0, 3)], ids=["below", "at"])
def test_game_cost_guard_refuses_before_the_game_is_built(monkeypatch, slack, refused):
    # This skewed instance plays 4 restricted games before it certifies.  A
    # limit just below its second game's estimate refuses that game before
    # it admits a row; a limit equal to it lets the game be built and
    # refuses the third.
    f = parity(2)
    mu = Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    real, built, kept = hardcore._restricted_game, [], []

    def spy(game):
        before = _state(game)
        try:
            answer = real(game)
        except GuardExceeded:
            kept.append(_state(game) == before)
            raise
        built.append((len(game.pool), _game_cost(len(game.pool), f.n)))
        return answer

    monkeypatch.setattr(hardcore, "_restricted_game", spy)
    assert hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1)).iterations == 4
    games, limit = built[:], built[1][1] + slack
    costs = [cost for _, cost in games]
    assert costs == sorted(set(costs))  # each game adds a row
    built.clear()
    monkeypatch.setattr(hardcore, "MAX_GAME_COST", limit)
    pool, cost = games[refused - 1]
    with pytest.raises(GuardExceeded, match=f"pool of {pool} trees costs {cost:,} "
                                            f".* limit {limit:,}$"):
        hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert built == games[:refused - 1] and max(costs[:refused - 1]) <= limit
    assert kept == [True]


def test_game_cost_guard_refuses_n7_before_any_game(monkeypatch):
    # The smallest n=7 game, a pool of one tree, is over the limit.  This
    # solve's first game, on two trees, is refused before it admits a row.
    real, states = hardcore._restricted_game, []

    def spy(game):
        try:
            return real(game)
        finally:
            states.append(_state(game))

    monkeypatch.setattr(hardcore, "_restricted_game", spy)
    assert _game_cost(1, 7) > hardcore.MAX_GAME_COST
    rng = random.Random(9000)
    f = random_function(rng, 7)
    mu = random_distribution(rng, 7, allow_zeros=False)
    with pytest.raises(GuardExceeded, match=f"pool of 2 trees costs {_game_cost(2, 7):,} "):
        hardcore_solve(f, mu, F(1, 4), F(1, 2), F(3))
    assert states == [([], [], [])]


def test_an_over_limit_game_refuses_itself_and_stays_as_it_was(monkeypatch):
    # _restricted_game checks its own estimate before it admits a row: a
    # played game whose next pool is over the limit, and a first game over
    # it, raise GuardExceeded with their rows, basis and slacks unchanged.
    # At the limit the same game is played.
    f, mu = parity(2), Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    trees = [DecisionTree(2, 1, Query(0, Leaf((-1,)), Leaf((1,)))),
             DecisionTree(2, 1, Query(1, Leaf((1,)), Leaf((-1,))))]
    game = _game(f, mu, F(1, 8), F(1), trees[:1])
    hardcore._restricted_game(game)
    game.pool.append(_pool_entry(f, mu, trees[1]))
    cost = _game_cost(2, f.n)
    monkeypatch.setattr(hardcore, "MAX_GAME_COST", cost - 1)
    for played in (game, _game(f, mu, F(1, 8), F(1), trees)):
        before = _state(played)
        with pytest.raises(GuardExceeded, match=f"^restricted game on a pool of 2 trees costs "
                                                f"{cost:,} .* limit {cost - 1:,}$"):
            hardcore._restricted_game(played)
        assert _state(played) == before
    assert before == ([], [], [])
    monkeypatch.setattr(hardcore, "MAX_GAME_COST", cost)
    hardcore._restricted_game(game)
    assert len(game.slacks) == 2


def _majority(n: int) -> BooleanFunction:
    return BooleanFunction(n, tuple(1 if 2 * bin(x).count("1") > n else -1
                                    for x in range(1 << n)))


@pytest.mark.parametrize("scale, games", [(F(1), 65), (F(99, 100), 56)],
                         ids=["certifies", "boosts"])
def test_majority5_decides_at_its_exact_threshold(scale, games):
    # gamma* = 16/65 is majority(5)'s least certifiable gamma under uniform
    # at delta = 1/4, budget 1, from the game on Hamming-weight classes.  At
    # gamma* the solve certifies, after 65 restricted games; just below it
    # the tree players win.
    f, mu = _majority(5), uniform(5)
    out = hardcore_solve(f, mu, F(1, 4), scale * F(16, 65), F(1))
    assert out.iterations == games
    if scale == 1:
        assert isinstance(out, HardcoreCertificate) and verify_certificate(out)["ok"]
    else:
        assert isinstance(out, Committee)
        err, cost = committee_metrics(out, f, mu)
        assert err <= out.delta and cost <= out.r * out.depth_budget


def test_boost_failure_names_the_retry_cap():
    # a single constant tree is wrong on half of parity(2), so every
    # committee sampled from it has majority error 1/2 > delta
    stump = DecisionTree(2, 1, Leaf((1,)))
    with pytest.raises(BoostFailure,
                       match=f"within {hardcore.BOOST_RETRY_CAP} samples"):
        maj_boost([(F(1), stump)], parity(2), uniform(2), F(1, 4), F(1, 2), F(0))


@pytest.mark.parametrize("weights", [[F(1, 2)], [F(1, 2), F(1, 3)],
                                     [F(3, 2), F(-1, 2)], []])
def test_maj_boost_refuses_weights_that_are_not_a_distribution(weights):
    # a short mixture would leave the sampler to fall back on some tree
    stump = DecisionTree(2, 1, Leaf((1,)))
    with pytest.raises(InvalidValue, match="nonnegative and sum to 1"):
        maj_boost([(w, stump) for w in weights], parity(2), uniform(2),
                  F(1, 4), F(1, 2), F(2))


def test_maj_boost_draws_pick_as_the_fraction_bisect():
    # rng.random() is k / 2**53.  The int comparison must pick the index a
    # bisect over the Fraction cumulative weights picks, also for draws on
    # a cumulative boundary, which dyadic weights make exact.
    rng = random.Random(1901)
    seen = Counter()
    for mixture in range(50):
        total = 1 << rng.randint(0, 6) if mixture % 2 else rng.randint(1, 40)
        cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 5)))
        weights = [F(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]
        pick = hardcore._picker(*hardcore._scale(weights))
        cumulative = list(itertools.accumulate(weights))
        draws = [rng.random() for _ in range(200)]
        boundaries = [float(c) for c in cumulative if c < 1 and F(float(c)) == c]
        for u in draws + boundaries:
            assert pick(u) == bisect.bisect_right(cumulative, F(u)), (weights, u)
            seen["on a boundary"] += F(u) in cumulative
        seen["draws"] += len(draws)
    assert seen["draws"] == 10_000 and seen["on a boundary"] >= 50, seen


def test_committee_odd_size_enforced():
    f, mu = dictator(1, 0), uniform(1)
    t = DecisionTree(1, 1, Query(0, Leaf((-1,)), Leaf((1,))))
    with pytest.raises(InvalidValue):
        Committee(f, mu, (t, t), F(1, 4), F(1, 2), F(1), 0, 1)


def test_committee_refuses_an_even_size_before_a_mis_shaped_tree():
    f, mu = dictator(1, 0), uniform(1)
    wide = DecisionTree(2, 1, Query(1, Leaf((-1,)), Leaf((1,))))
    with pytest.raises(InvalidValue, match="committee size must be odd"):
        Committee(f, mu, (wide, wide), F(1, 4), F(1, 2), F(1), 0, 1)
    with pytest.raises(DimensionMismatch, match="k=1 trees on f's variables"):
        Committee(f, mu, (wide,), F(1, 4), F(1, 2), F(1), 0, 1)


# (delta, gamma, depth budget, mu's size) out of the solver's domain, each
# with the refusal hardcore_solve gives.
OUT_OF_DOMAIN = [
    ((F(0), F(1, 2), F(1), 2), "delta must lie in (0,1), got 0"),
    ((F(1), F(1, 2), F(1), 2), "delta must lie in (0,1), got 1"),
    ((F(3, 2), F(1, 2), F(1), 2), "delta must lie in (0,1), got 3/2"),
    ((F(1, 4), F(0), F(1), 2), "gamma must lie in (0,1], got 0"),
    ((F(1, 4), F(-1, 2), F(1), 2), "gamma must lie in (0,1], got -1/2"),
    ((F(1, 4), F(3, 2), F(1), 2), "gamma must lie in (0,1], got 3/2"),
    ((F(1, 4), F(100000), F(1), 2), "gamma must lie in (0,1], got 100000"),
    ((F(1, 4), F(1, 2), F(-1, 8), 2), "depth budget must be nonnegative"),
    ((F(1, 4), F(1, 2), F(1), 3), "function and distribution sizes differ"),
]


@pytest.mark.parametrize("args, message", OUT_OF_DOMAIN, ids=[
    "delta-0", "delta-1", "delta-3/2", "gamma-0", "gamma--1/2", "gamma-3/2", "gamma-1e5",
    "budget--1/8", "mu-size"])
def test_artifacts_refuse_what_hardcore_solve_refuses(args, message):
    # A certificate or committee is refused when built, as the solve would
    # refuse its game; the boundary values gamma = 1 and budget 0 are kept.
    delta, gamma, budget, m = args
    f, mu, t = parity(2), uniform(m), DecisionTree(2, 1, Leaf((1,)))
    cert = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0))
    builds = [lambda: hardcore_solve(f, mu, delta, gamma, budget),
              lambda: HardcoreCertificate(f, mu, cert.measure, delta, gamma, budget,
                                          F(0), cert.witness, 0),
              lambda: Committee(f, mu, (t,), delta, gamma, budget, 0, 0)]
    kind = DimensionMismatch if m != 2 else InvalidValue
    for build in builds:
        with pytest.raises(kind) as caught:
            build()
        assert str(caught.value) == message
    HardcoreCertificate(f, uniform(2), cert.measure, F(1, 4), F(1), F(0), F(0), cert.witness, 0)
    Committee(f, uniform(2), (t,), F(1, 4), F(1), F(0), 0, 0)


def test_serialization_round_trips():
    f, mu = parity(2), uniform(2)
    cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert certificate_from_json(certificate_to_json(cert)) == cert
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
    assert committee_from_json(committee_to_json(com)) == com


@pytest.mark.parametrize("kind", ["certificate", "committee"])
def test_artifact_readers_refuse_a_deep_tree_chain(kind):
    # Each reads its trees by tree_from_json, which stops 24 queries down a
    # 5,000-deep chain instead of recursing to its bottom.
    root = {"leaf": [1]}
    for i in range(5000):
        root = {"q": i % 2, "neg": {"leaf": [1]}, "pos": root}
    tree = {"n": 2, "k": 1, "root": root}
    f, mu = parity(2), uniform(2)
    if kind == "certificate":
        art = certificate_to_json(hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1)))
        art["witness"] = [{"w": "1", "tree": tree}]
        read = certificate_from_json
    else:
        art = committee_to_json(hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2)))
        art["trees"] = [tree] * len(art["trees"])
        read = committee_from_json
    with pytest.raises(InvalidValue, match="more than 24 queries on one path"):
        read(art)


def test_committee_json_writes_a_repeated_tree_once():
    # maj_boost repeats one tree object; its dict is shared, not copied
    com = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(2))
    assert len(com.trees) > 1 and len({id(t) for t in com.trees}) == 1
    obj = committee_to_json(com)
    assert len({id(t) for t in obj["trees"]}) == 1
    assert committee_from_json(obj) == com
    # a committee of distinct but equal trees serializes to the same text
    t = com.trees[0]
    twin = Committee(com.f, com.mu, tuple(DecisionTree(t.n, t.k, t.root) for _ in com.trees),
                     com.delta, com.gamma, com.depth_budget, com.seed, com.iterations)
    assert json.dumps(committee_to_json(twin)) == json.dumps(obj)
    assert committee_from_json(committee_to_json(twin)) == com
