"""Hardcore-measure game: certificates of low advantage, or boosted committees.

The game pits measures H (0 <= H <= 1 pointwise, density exactly delta/2
under mu) against randomized decision trees of expected depth at most d; the
payoff is E_mu[f * T * H].  If the value is at most gamma*delta/2 the optimal
H is a hardcore measure and we emit a certificate whose best response is
re-derived exactly.  Otherwise the optimal tree mixture correlates with f on
all but a delta/2 fraction of inputs, and an odd majority committee sampled
from it computes f with error at most delta.

Solved by column generation: keep a finite pool of deterministic trees, solve
the restricted game exactly, and grow the pool with exact best responses from
the advantage-frontier envelope.  Each restricted game is one LP, the row
player's, solved by a dense two-phase simplex with Bland's rule, which
terminates by construction; pivots carry the objective rows and the ratio
test reads constraint rows only.  The tableau is exact but integer: each row
is ints over one common denominator (integer-preserving pivoting, as in
Edmonds 1967), and only what is read turns back into Fractions.  Its optimal
tableau gives both players' strategies: H as the primal solution, the tree
mixture w as the reduced costs of the pool rows' slacks.  The pair is then
certified as a saddle point without trusting the kernel, in Fractions: both
strategies are checked for feasibility, and the greedy closed-form minimum
against w and the envelope maximum against H must both equal the LP value.
A wrong LP answer therefore cannot escape the solver.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoostFailure,
    DimensionMismatch,
    GuardExceeded,
    Infeasible,
    InvalidValue,
    IterationBudget,
)
from .exactexp import ExpSum, _int, fraction_from_str, fraction_to_str
from .functions import (
    BooleanFunction,
    Distribution,
    Measure,
    _scale,
    constant_measure,
    density,
    function_from_json,
    function_to_json,
    distribution_from_json,
    distribution_to_json,
    measure_from_json,
    measure_to_json,
)
from .synth import mixture_optimum, opt_objective_witness, pareto_frontier
from .trees import (
    DecisionTree,
    RandomizedTree,
    _trees_to_json,
    correlation,
    evaluate,
    expected_depth,
    randomized_tree_from_json,
    randomized_tree_to_json,
    tree_from_json,
)

_ZERO = Fraction(0)

MAX_ITERATIONS = 64
BOOST_CONSTANT = 8
BOOST_RETRY_CAP = 16
MAX_COMMITTEE_BITS = 128


@dataclass(frozen=True)
class HardcoreCertificate:
    """A measure no depth-budgeted tree mixture correlates with beyond gamma*delta/2."""

    f: BooleanFunction
    mu: Distribution
    measure: Measure
    delta: Fraction
    gamma: Fraction
    depth_budget: Fraction
    best_response_advantage: Fraction
    witness: RandomizedTree
    iterations: int


@dataclass(frozen=True)
class Committee:
    """Odd-size sample of trees whose pointwise majority computes f well."""

    f: BooleanFunction
    mu: Distribution
    trees: tuple[DecisionTree, ...]
    delta: Fraction
    gamma: Fraction
    depth_budget: Fraction
    seed: int
    iterations: int

    def __post_init__(self):
        if len(self.trees) % 2 != 1:
            raise InvalidValue("committee size must be odd")
        if any((t.n, t.k) != (self.f.n, 1) for t in self.trees):
            raise DimensionMismatch("committee trees must be k=1 trees on f's variables")

    @property
    def r(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# exact simplex kernel


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _eliminate(row: list[int], unit: list[int], c: int, nonzero) -> list[int]:
    """row - row[c] * unit, for a unit row (unit[c] == unit[-1]) whose
    nonzero numerators are at the indices `nonzero`."""
    g = math.gcd(unit[-1], row[c])
    a, m = unit[-1] // g, row[c] // g
    out = [a * v for v in row]
    for j in nonzero:
        out[j] -= m * unit[j]
    return _reduced(out)


def _pivot(tab, r: int, c: int) -> None:
    """Make column c the unit vector e_r by row operations on every row.

    A row is a list of ints [a_0, ..., a_{m-1}, b, D]: the column entries
    and right-hand side of one rational row, all over the positive common
    denominator D in the last slot, and gcd-reduced, so each rational row has
    one representation.  Row r over its entry in column c keeps its
    numerators and takes that entry, sign-fixed, as its denominator; every
    other row subtracts a multiple of it by int multiply-subtract and one gcd.
    """
    p = tab[r]
    unit = p[:-1] + [p[c]]  # row r divided by its entry in column c
    unit = tab[r] = _reduced(unit if p[c] > 0 else [-v for v in unit])
    nonzero = [j for j, v in enumerate(unit[:-1]) if v]
    for i, other in enumerate(tab):
        if i != r and other[c]:
            tab[i] = _eliminate(other, unit, c, nonzero)


def _bland(tab, basis: list[int], ncols: int) -> None:
    """Minimise the objective whose reduced costs are the last row of tab.

    Rows tab[:len(basis)], the only ones ratio-tested, are [A | b] in
    canonical form for `basis`; objective rows follow.  Bland's rule (lowest
    entering column below ncols, ratio ties broken on the lowest basic index)
    never revisits a basis, so the loop ends without an iteration cap.
    Signs and ratios are invariant under a positive row scale, so reading
    numerators only (see _pivot for the row layout) picks the pivots the
    rational tableau would: a reduced cost is negative when its numerator
    is, and b_i / a_ic is the ratio of row i's numerators, its denominator
    cancelling; rows are compared by cross-multiplying, as a_ic > 0.
    """
    while True:
        costs = tab[-1]
        c = next((j for j in range(ncols) if costs[j] < 0), None)
        if c is None:
            return
        r = None
        for i, row in enumerate(tab[:len(basis)]):
            a = row[c]
            if a > 0 and (r is None
                          or (row[-2] * tab[r][c], basis[i]) < (tab[r][-2] * a, basis[r])):
                r = i
        if r is None:
            raise InvalidValue("unbounded LP")
        _pivot(tab, r, c)
        basis[r] = c


def _simplex(tab, basis: list[int], cost: list[int], nreal: int) -> Fraction:
    """Exact min of cost*x over {x >= 0 : A x = b}; returns the value.

    tab holds the int rows [A | b | D] of _pivot with b >= 0, and basis[i]
    names a unit column of row i; cost is an int row of the same layout, its
    right-hand side 0.  Columns from nreal on are artificials, driven out by
    phase 1.  The phase-2 row, then the phase-1 row (cost 1 on each
    artificial) if any, are priced once for the starting basis, by clearing
    each basic column with the same row operation a pivot uses, and appended;
    _pivot keeps them canonical.  On return tab[:-1] and basis are optimal
    and tab[-1] holds the reduced costs; a slack's is minus its row's dual
    value.  Only the value turns back into a Fraction.
    """
    width = len(tab[0])

    def priced(row):  # reduced costs of the current basis: clear its columns
        for i, b in enumerate(basis):
            if row[b]:
                row = _eliminate(row, tab[i], b, [j for j, v in enumerate(tab[i][:-1]) if v])
        return row

    tab.append(priced(cost))
    if any(b >= nreal for b in basis):
        tab.append(priced([0] * nreal + [1] * (width - 2 - nreal) + [0, 1]))
        _bland(tab, basis, nreal)
        if tab.pop()[-2] != 0:
            raise Infeasible("LP has no feasible point")
        for i, b in enumerate(basis):
            if b >= nreal:
                # Basic at zero: pivot it out.  A row with no real entry is
                # redundant and never changes again.
                c = next((j for j in range(nreal) if tab[i][j]), None)
                if c is not None:
                    _pivot(tab, i, c)
                    basis[i] = c
    _bland(tab, basis, nreal)
    return Fraction(-tab[-1][-2], tab[-1][-1])


def _payoff_vector(f: BooleanFunction, mu: Distribution, tree: DecisionTree):
    """c_T(x) = mu(x) f(x) T(x), so payoff(H, T) = sum_x c_T(x) H(x)."""
    return tuple(
        mu.weights[x] * f.table[x] * evaluate(tree, x)[0] for x in range(1 << f.n))


def _greedy_min_measure(mu, half_density, scores):
    """Exact min of sum_x mu(x) score(x) H(x) over measures of given density.

    Classic fractional fill: put H = 1 on the lowest scores first."""
    order = sorted(mu.support(), key=lambda x: (scores[x], x))
    remaining = half_density
    value = _ZERO
    for x in order:
        if remaining == 0:
            break
        take = min(mu.weights[x], remaining)
        value += take * scores[x]
        remaining -= take
    if remaining != 0:
        raise InvalidValue("density exceeds total distribution mass")
    return value


def _restricted_game(f, mu, half_density, budget, pool, payoffs, depths):
    """Exact value and both optimal strategies of the pool-restricted game.

    Returns (value, H, w).  One simplex solve of the row player's LP

        min s + budget*y  s.t.  payoff(H, T) <= s + depth_T * y  for T in pool,
                                mu . H = half_density,  0 <= H <= 1,  y >= 0,

    yields H as its primal solution and the column player's mixture w as
    the final reduced costs of the pool rows' slacks.  Both are then checked
    for feasibility and re-verified by independent evaluations (greedy inner
    minimum for w, envelope inner maximum for H), which together certify a
    saddle point whatever the kernel did.  The tableau's rows are built as
    ints, each scaled by the lcm of its denominators; as the unit column of
    its starting basic variable then holds that lcm, each row starts
    gcd-reduced.
    """
    npts = 1 << f.n
    nt = len(pool)
    # Columns: H, s+, s-, y, pool slacks, box slacks, density artificial.
    slack0 = npts + 3
    box0 = slack0 + nt
    art = box0 + npts
    width = art + 3

    def row(entries, rhs, den):
        r = [0] * width
        for j, v in entries:
            r[j] = v
        r[-2], r[-1] = rhs, den
        return r

    tab = []
    for t in range(nt):
        d, p = _scale(payoffs[t] + (depths[t],))
        tab.append(row([*enumerate(p[:npts]), (npts, -d), (npts + 1, d), (npts + 2, -p[npts]),
                        (slack0 + t, d)], 0, d))
    tab += [row([(x, 1), (box0 + x, 1)], 1, 1) for x in range(npts)]
    d, p = _scale(mu.weights + (half_density,))
    tab.append(row([*enumerate(p[:npts]), (art, d)], p[npts], d))
    basis = [slack0 + t for t in range(nt)] + [box0 + x for x in range(npts)] + [art]
    d, p = _scale((1, -1, budget))
    value = _simplex(tab, basis, row(zip((npts, npts + 1, npts + 2), p), 0, d), art)

    z = [_ZERO] * npts
    for i, b in enumerate(basis):
        if b < npts:
            z[b] = Fraction(tab[i][-2], tab[i][-1])
    h_r = Measure(f.n, tuple(z))
    costs = tab[-1]
    w = tuple(Fraction(v, costs[-1]) for v in costs[slack0:box0])

    # Feasibility of both strategies; Measure already checks 0 <= H <= 1.
    if any(v < 0 for v in w) or sum(w, _ZERO) != 1:
        raise InvalidValue(f"mixture {w} is not a distribution (LP kernel bug)")
    if sum((v * d for v, d in zip(w, depths)), _ZERO) > budget:
        raise InvalidValue(f"mixture {w} exceeds the depth budget (LP kernel bug)")
    if density(h_r, mu) != half_density:
        raise InvalidValue(f"measure {h_r.values} misses the density (LP kernel bug)")

    # Independent check 1: greedy minimum against the returned mixture,
    # whose zero-weight trees add nothing to any score.
    live = [t for t in range(nt) if w[t]]
    scores = [f.table[x] * sum((w[t] * evaluate(pool[t], x)[0] for t in live), _ZERO)
              for x in range(npts)]
    g_value = _greedy_min_measure(mu, half_density, scores)
    if g_value != value:
        raise InvalidValue(
            f"restricted value {value} not reproduced by greedy minimum {g_value}")

    # Independent check 2: envelope maximum against the returned measure.
    pairs = []
    for t in range(nt):
        pay = sum((payoffs[t][x] * h_r.values[x] for x in range(npts)), _ZERO)
        pairs.append((depths[t], pay, t))
    e_value, _ = mixture_optimum(pairs, budget, minimize=False)
    if e_value != value:
        raise InvalidValue(
            f"restricted value {value} not reproduced by envelope maximum {e_value}")

    return value, h_r, w


# ---------------------------------------------------------------------------
# public operations


def best_response(f: BooleanFunction, mu: Distribution, h: Measure,
                  depth_budget: Fraction):
    """(advantage, witness components): the exact max of E[f*T*H] over tree
    mixtures of expected depth <= budget, and a mixture attaining it.

    Computed from the advantage frontier; the witness is one frontier tree or
    a two-point mixture when the optimum sits inside an envelope segment.
    """
    return opt_objective_witness(pareto_frontier(f, mu, h=h), depth_budget)


def committee_size(delta: Fraction, gamma: Fraction) -> int:
    """Smallest odd r with e^{r * gamma^2 / BOOST_CONSTANT} >= 1/delta, each
    candidate decided by a certified ExpSum sign.  A float log of delta's
    numerator and denominator (no float division to underflow) only picks
    where a galloping search starts.  Sizes past 2**MAX_COMMITTEE_BITS raise
    GuardExceeded: no sampler could draw such a committee."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    if delta <= 0 or gamma <= 0:
        raise InvalidValue("committee_size needs positive delta and gamma")
    rate = gamma ** 2 / BOOST_CONSTANT

    def passes(j: int) -> bool:  # the odd candidate r = 2j + 1
        return (ExpSum.exp((2 * j + 1) * rate) - 1 / delta).sign() >= 0

    log_inv = Fraction(math.log(delta.denominator) - math.log(delta.numerator))
    start = max(1, math.ceil(log_inv / rate))
    if start.bit_length() > MAX_COMMITTEE_BITS:
        raise GuardExceeded(
            f"committee size near 2**{start.bit_length()} exceeds 2**{MAX_COMMITTEE_BITS}")
    # Gallop to lo < hi with passes(hi) and lo == -1 or not passes(lo); bisect.
    lo, hi, step = start // 2 - 1, start // 2, 1
    while lo >= 0 and passes(lo):
        hi, lo, step = lo, max(lo - 2 * step, -1), 2 * step
    while not passes(hi):
        lo, hi, step = hi, hi + 2 * step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return 2 * hi + 1


def committee_metrics(committee: Committee, f: BooleanFunction,
                      mu: Distribution) -> tuple[Fraction, Fraction]:
    """(exact pointwise majority error, summed expected depth of all members)."""
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")
    members = Counter(committee.trees).items()  # each distinct tree, measured once
    err = _ZERO
    for x in mu.support():
        votes = sum(m * evaluate(t, x)[0] for t, m in members)
        maj = 1 if votes > 0 else -1
        if maj != f.table[x]:
            err += mu.weights[x]
    cost = sum((m * expected_depth(t, mu) for t, m in members), _ZERO)
    return err, cost


def maj_boost(weighted_trees, f: BooleanFunction, mu: Distribution,
              delta: Fraction, gamma: Fraction, depth_budget: Fraction, *,
              seed: int = 0, iterations: int = 0) -> Committee:
    """Sample an odd committee i.i.d. from the dual mixture and keep the first
    sample whose exact error is <= delta and whose summed expected depth is
    <= r * depth_budget; raise BoostFailure after BOOST_RETRY_CAP samples.
    The weights must be nonnegative and sum to exactly 1."""
    items = [(Fraction(w), t) for w, t in weighted_trees]
    if any(w < 0 for w, _ in items) or sum(w for w, _ in items) != 1:
        raise InvalidValue("tree mixture weights must be nonnegative and sum to 1")
    cumulative = list(itertools.accumulate(w for w, _ in items))
    r = committee_size(delta, gamma)
    rng = random.Random(seed)

    def draw():
        # the first tree whose cumulative weight exceeds u < 1 = cumulative[-1]
        return items[bisect.bisect_right(cumulative, Fraction(rng.random()))][1]

    budget = r * Fraction(depth_budget)
    for _ in range(BOOST_RETRY_CAP):
        trees = tuple(draw() for _ in range(r))
        committee = Committee(f, mu, trees, Fraction(delta), Fraction(gamma),
                              Fraction(depth_budget), seed, iterations)
        err, cost = committee_metrics(committee, f, mu)
        if err <= delta and cost <= budget:
            return committee
    raise BoostFailure(
        f"no committee with error <= {delta} and cost <= {budget} "
        f"within {BOOST_RETRY_CAP} samples at seed {seed}")


def hardcore_solve(f: BooleanFunction, mu: Distribution, delta: Fraction,
                   gamma: Fraction, depth_budget: Fraction, *, seed: int = 0):
    """Decide the game at threshold gamma*delta/2.

    One loop, starting from the constant measure delta/2: take the exact
    best response to the current H; certify H if its advantage is at most
    the threshold, else admit its trees as new columns, solve the restricted
    game and, when that value already exceeds the threshold, boost the
    optimal mixture into a Committee (the tree players win; `seed` drives
    its sampling).  A HardcoreCertificate's measure has density exactly
    delta/2.  Never returns a wrong answer: a best response with no new
    column, or more than MAX_ITERATIONS restricted games, raises
    IterationBudget instead.
    """
    delta = Fraction(delta)
    gamma = Fraction(gamma)
    depth_budget = Fraction(depth_budget)
    if not 0 < delta < 1:
        raise InvalidValue(f"delta must lie in (0,1), got {delta}")
    if not 0 < gamma <= 1:
        raise InvalidValue(f"gamma must lie in (0,1], got {gamma}")
    if depth_budget < 0:
        raise InvalidValue("depth budget must be nonnegative")
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")

    half = delta / 2
    threshold = gamma * half
    pool: list[DecisionTree] = []
    payoffs: list[tuple] = []
    depths: list[Fraction] = []
    h = constant_measure(f.n, half)
    iteration = 0
    while True:
        advantage, witness = best_response(f, mu, h, depth_budget)
        if advantage <= threshold:
            return HardcoreCertificate(f, mu, h, delta, gamma, depth_budget,
                                       advantage, RandomizedTree(witness), iteration)
        admitted = len(pool)
        for _, t in witness:
            if t not in pool:
                pool.append(t)
                payoffs.append(_payoff_vector(f, mu, t))
                depths.append(expected_depth(t, mu))
        if len(pool) == admitted:
            raise IterationBudget(
                "best response exceeded the restricted value without new columns")
        if iteration == MAX_ITERATIONS:
            raise IterationBudget(f"no decision within {MAX_ITERATIONS} iterations")
        iteration += 1
        value, h, w = _restricted_game(f, mu, half, depth_budget, pool, payoffs, depths)
        if value > threshold:
            return maj_boost(list(zip(w, pool)), f, mu, delta, gamma, depth_budget,
                             seed=seed, iterations=iteration)


def verify_certificate(cert: HardcoreCertificate) -> dict:
    """Re-derive everything a certificate claims; returns a flat report dict."""
    dens = density(cert.measure, cert.mu)
    advantage, _ = best_response(cert.f, cert.mu, cert.measure, cert.depth_budget)
    witness_adv = correlation(cert.witness, cert.f, cert.mu, cert.measure)
    threshold = cert.gamma * cert.delta / 2
    checks = {
        "density_is_half_delta": dens == cert.delta / 2,
        "advantage_at_most_threshold": cert.best_response_advantage <= threshold,
        "fresh_best_response_matches": advantage == cert.best_response_advantage,
        # The witness must be a legal play: within the depth budget.
        "witness_attains_advantage": (
            witness_adv == cert.best_response_advantage
            and expected_depth(cert.witness, cert.mu) <= cert.depth_budget),
    }
    checks["ok"] = all(checks.values())
    return checks


# ---------------------------------------------------------------------------
# serialization


def _iterations(obj: dict) -> int:
    iterations = _int(obj["iterations"], "iterations")
    if iterations < 0:
        raise InvalidValue(f"iterations must be nonnegative, got {iterations}")
    return iterations


def certificate_to_json(cert: HardcoreCertificate) -> dict:
    return {
        "kind": "hardcore_certificate",
        "f": function_to_json(cert.f),
        "mu": distribution_to_json(cert.mu),
        "measure": measure_to_json(cert.measure),
        "delta": fraction_to_str(cert.delta),
        "gamma": fraction_to_str(cert.gamma),
        "depth_budget": fraction_to_str(cert.depth_budget),
        "best_response_advantage": fraction_to_str(cert.best_response_advantage),
        "witness": randomized_tree_to_json(cert.witness),
        "iterations": cert.iterations,
    }


def certificate_from_json(obj: dict) -> HardcoreCertificate:
    return HardcoreCertificate(
        function_from_json(obj["f"]),
        distribution_from_json(obj["mu"]),
        measure_from_json(obj["measure"]),
        fraction_from_str(obj["delta"]),
        fraction_from_str(obj["gamma"]),
        fraction_from_str(obj["depth_budget"]),
        fraction_from_str(obj["best_response_advantage"]),
        randomized_tree_from_json(obj["witness"]),
        _iterations(obj),
    )


def committee_to_json(committee: Committee) -> dict:
    """The committee as JSON, read-only: a repeated member, or a node its
    trees share, is one shared dict."""
    return {
        "kind": "committee",
        "f": function_to_json(committee.f),
        "mu": distribution_to_json(committee.mu),
        "delta": fraction_to_str(committee.delta),
        "gamma": fraction_to_str(committee.gamma),
        "depth_budget": fraction_to_str(committee.depth_budget),
        "seed": committee.seed,
        "iterations": committee.iterations,
        "trees": _trees_to_json(committee.trees),
    }


def committee_from_json(obj: dict) -> Committee:
    return Committee(
        function_from_json(obj["f"]),
        distribution_from_json(obj["mu"]),
        tuple(tree_from_json(t) for t in obj["trees"]),
        fraction_from_str(obj["delta"]),
        fraction_from_str(obj["gamma"]),
        fraction_from_str(obj["depth_budget"]),
        _int(obj["seed"], "seed"),
        _iterations(obj),
    )
