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
player's, in which each pool tree is a constraint row, and every game runs
one kernel, a dense dual simplex (Lemke 1954).  A solve's first game starts
from a seed basis, reached in two pivots, whose duals are those of the
mixture on the first pool tree within the budget: it is dual feasible.
Each later game resumes from the last optimal tableau (Kelley's cutting
planes, seen from the row player): an admitted tree is a new row whose
zero-cost slack is basic, so the basis stays dual feasible.  The dual simplex
restores primal feasibility.  Its pivot rule is Bland's in dual form, which is
Bland's rule applied to the dual LP, so it never revisits a basis and the loop
ends (Bland 1977).  The tableau is exact but integer: each row is ints over
one common denominator (integer-preserving pivoting, as in Edmonds 1967), and
only what is read turns back into Fractions.  Its optimal tableau gives both
players' strategies: H as the primal solution, the tree mixture w as the
reduced costs of the pool rows' slacks.  The pair is then certified as a
saddle point without trusting the kernel, on ints from the pool trees' output
tables: both strategies are checked for feasibility, and the greedy
closed-form minimum against w and the envelope maximum against H must both
equal the LP value.  A wrong LP answer therefore cannot escape the solver.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BoostFailure,
    DimensionMismatch,
    GuardExceeded,
    Infeasible,
    InvalidValue,
    IterationBudget,
    KernelFault,
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
from .records import Record
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
MAX_COMMITTEE_SIZE = 65535  # odd: the largest committee_size returns


class HardcoreCertificate(Record):
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


class Committee(Record):
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


def _dual_bland(tab, basis: list[int]) -> None:
    """Restore b >= 0 from a dual feasible tableau, keeping it dual feasible.

    Rows tab[:len(basis)] are [A | b] in canonical form for `basis` (see
    _pivot for the int row layout), and tab[-1] holds reduced costs, all >= 0,
    but some b_i may be negative.  The leaving row is the one with b_i < 0
    of lowest basic index; the entering column is, among that row's negative
    entries a_rj, one of least ratio cost_j / |a_rj|, ties going to the
    lowest column, so every reduced cost stays >= 0.  Ratios are compared by
    cross-multiplying numerators: within one row the denominators cancel.
    No negative entry means no x >= 0 meets the row: Infeasible.

    Termination: the dual simplex on this tableau is the primal simplex on
    the dual LP, whose variables are named by the same column indices.  The
    leaving basic variable here is the dual's entering variable, and the
    ratio test here is the dual's ratio test.  So lowest index among the
    eligible leaving rows, and lowest column among ratio ties, is Bland's
    rule on the dual, which never revisits a basis (Bland 1977): there are
    finitely many bases, so the loop ends without an iteration cap.
    """
    rows = range(len(basis))
    while True:
        r = min((i for i in rows if tab[i][-2] < 0), key=basis.__getitem__, default=None)
        if r is None:
            return
        row, costs = tab[r], tab[-1]
        c = None
        for j in range(len(row) - 2):
            a = row[j]
            if a < 0 and (c is None or costs[j] * row[c] > costs[c] * a):
                c = j
        if c is None:
            raise Infeasible("LP has no feasible point")
        _pivot(tab, r, c)
        basis[r] = c


def _priced(row: list[int], tab, basis: list[int]) -> list[int]:
    """row with the basic columns cleared: each basic row, a unit row, is
    subtracted by the row operation a pivot uses.  For a cost row these are
    the reduced costs of the basis; for a new constraint row, the row in the
    basis' canonical form."""
    for i, b in enumerate(basis):
        if row[b]:
            row = _eliminate(row, tab[i], b, [j for j, v in enumerate(tab[i][:-1]) if v])
    return row


class _Tableau:
    """One solve's restricted game, kept from game to game: the last optimal
    int rows (constraint rows, then the reduced costs), their basis, and the
    slack column of each pool tree's row, in admission order."""

    __slots__ = ("rows", "basis", "slacks")

    def __init__(self):
        self.rows, self.basis, self.slacks = [], [], []


def _restricted_game(f, mu, half_density, budget, tables, depths, game):
    """Exact value and both optimal strategies of the pool-restricted game.

    Returns (value, H, w).  The pool is given by each tree's +-1 output
    table and expected depth, in admission order.  The row player's LP

        min s + budget*y  s.t.  payoff(H, T) <= s + depth_T * y  for T in pool,
                                mu . H = half_density,  0 <= H <= 1,  y >= 0,

    with payoff(H, T) = sum_x mu(x) f(x) T(x) H(x), yields H as its primal
    solution and the column player's mixture w as the final reduced costs
    of the pool rows' slacks.  Each row is built as ints, scaled by the lcm
    of its denominators and gcd-reduced.

    `game` keeps the tableau between the games of one solve.  While it is
    empty, the first pool's tree rows, box rows and density row are built
    and put on a seed basis that plays t0, the first pool tree within the
    budget, alone: s+ on t0's row, every other tree's slack, every box
    slack, and on the density row H at x0, the first point of positive mass
    where f*T_t0 is least.  Two pivots reach it, H_x0 then s+.  Its duals
    are those of the mixture on t0, so its reduced costs are mass_x *
    (f*T_t0(x) - f*T_t0(x0)) on H_x, budget - depth_t0 on y, 0 on s- and 1
    on t0's slack, all >= 0: the basis is dual feasible.  With no tree
    within the budget, s + budget*y falls without bound along y, and the
    game raises Infeasible.  Each tree admitted since the last game adds a
    slack column before the right-hand side and its own row, put in the
    basis' canonical form by _priced, with its slack basic.  That slack's reduced cost is 0,
    so the basis stays dual feasible.  Either way _dual_bland, which ends by
    Bland's rule in dual form, makes the basis primal feasible.  A warm
    game reaches the value a first game on the same pool would, possibly at
    another optimal vertex.

    _check_saddle_point then certifies the pair whatever the kernel did.
    """
    npts = 1 << f.n
    den, mass = _masses(mu, half_density)

    def tree_row(t, slack, width):
        depth = depths[t]
        d = math.lcm(den, depth.denominator)
        a = d // den
        r = [a * mass[x] * f.table[x] * v for x, v in enumerate(tables[t])]
        r += [-d, d, -depth.numerator * (d // depth.denominator)] + [0] * (width - npts - 3)
        r[slack] = r[-1] = d
        return _reduced(r)

    basis, slacks = game.basis, game.slacks
    if not slacks:
        t0 = next((t for t, depth in enumerate(depths) if depth <= budget), None)
        if t0 is None:
            raise Infeasible("no pool tree within the depth budget: the game is unbounded")
        nt = len(tables)
        # Columns: H, s+, s-, y, pool slacks, box slacks.
        slack0 = npts + 3
        box0 = slack0 + nt
        width = box0 + npts + 2

        def row(entries, rhs, d):
            r = [0] * width
            for j, v in entries:
                r[j] = v
            r[-2], r[-1] = rhs, d
            return r

        game.rows = tab = [tree_row(t, slack0 + t, width) for t in range(nt)]
        tab += [row([(x, 1), (box0 + x, 1)], 1, 1) for x in range(npts)]
        tab.append(row(enumerate(mass[:npts]), mass[npts], den))
        x0 = min((x for x in range(npts) if mass[x]), key=lambda x: f.table[x] * tables[t0][x])
        _pivot(tab, len(tab) - 1, x0)
        _pivot(tab, t0, npts)
        basis += [slack0 + t for t in range(nt)] + [box0 + x for x in range(npts)] + [x0]
        basis[t0] = npts
        slacks += range(slack0, box0)
        d, p = _scale((1, -1, budget))
        tab.append(_priced(row(zip((npts, npts + 1, npts + 2), p), 0, d), tab, basis))
    else:
        tab = game.rows
        for t in range(len(slacks), len(tables)):
            for r in tab:
                r.insert(-2, 0)
            col = len(tab[0]) - 3
            tab.insert(len(basis), _priced(tree_row(t, col, col + 3), tab, basis))
            basis.append(col)
            slacks.append(col)
    _dual_bland(tab, basis)

    costs = tab[-1]
    value = Fraction(-costs[-2], costs[-1])
    z = [_ZERO] * npts
    for i, b in enumerate(basis):
        if b < npts:
            z[b] = Fraction(tab[i][-2], tab[i][-1])
    if not all(0 <= v <= 1 for v in z):
        raise KernelFault(f"measure {z} leaves [0,1] (LP kernel bug)")
    h_r = Measure(f.n, tuple(z))
    w = tuple(Fraction(costs[j], costs[-1]) for j in slacks)
    _check_saddle_point(f, mu, half_density, budget, tables, depths, value, h_r, w)
    return value, h_r, w


def _masses(mu: Distribution, half_density: Fraction) -> tuple[int, list[int]]:
    """(den, mass): mu's weights, then half_density, as ints over their least
    common denominator den, which is mu.scaled's times one lcm."""
    d, weights = mu.scaled
    den = math.lcm(d, half_density.denominator)
    a, b = den // d, den // half_density.denominator
    return den, [a * w for w in weights] + [b * half_density.numerator]


def _check_saddle_point(f, mu, half_density, budget, tables, depths, value, h, w):
    """Raise KernelFault unless measure h and pool mixture w are feasible
    and both attain `value`, which makes (h, w) a saddle point of the
    restricted game: no measure does better against w, and no mixture of
    the pool does better against h.  A failure is a bug in the LP kernel,
    never a fault of the input, so it is a RuntimeError (CLI exit 5).

    Derived from the game's data alone, not from any tableau, on ints: the
    greedy inner minimum against w scores each point over w's common
    denominator, the envelope inner maximum against h takes each tree's
    payoff over mu's and h's, and only the results turn into Fractions.
    """
    npts = 1 << f.n
    den, mass = _masses(mu, half_density)
    dw, wn = _scale(w)

    # Feasibility of both strategies; Measure already checks 0 <= H <= 1.
    if any(v < 0 for v in wn) or sum(wn) != dw:
        raise KernelFault(f"mixture {w} is not a distribution (LP kernel bug)")
    dd, dn = _scale(depths)
    if sum(v * d for v, d in zip(wn, dn)) * budget.denominator > budget.numerator * dw * dd:
        raise KernelFault(f"mixture {w} exceeds the depth budget (LP kernel bug)")
    dh, hn = h.scaled
    if sum(m * v for m, v in zip(mass[:npts], hn)) != mass[npts] * dh:
        raise KernelFault(f"measure {h.values} misses the density (LP kernel bug)")

    # Greedy minimum against w: the fractional fill that puts H = 1 on the
    # lowest scores first.  Zero-weight trees add nothing to any score.
    live = [(v, tables[t]) for t, v in enumerate(wn) if v]
    scores = [f.table[x] * sum(v * table[x] for v, table in live) for x in range(npts)]
    remaining, g_num = mass[npts], 0
    for x in sorted((x for x in range(npts) if mass[x]), key=lambda x: (scores[x], x)):
        take = min(mass[x], remaining)
        g_num += take * scores[x]
        remaining -= take
    if remaining != 0:
        raise KernelFault("density exceeds total distribution mass")
    g_value = Fraction(g_num, den * dw)
    if g_value != value:
        raise KernelFault(
            f"restricted value {value} not reproduced by greedy minimum {g_value}")

    # Envelope maximum against h.
    terms = [(x, mass[x] * f.table[x] * v) for x, v in enumerate(hn) if v]
    pairs = [(depths[t], sum(c * table[x] for x, c in terms), t)
             for t, table in enumerate(tables)]
    e_value, _ = mixture_optimum(pairs, budget, minimize=False)
    e_value = Fraction(e_value, den * dh)
    if e_value != value:
        raise KernelFault(
            f"restricted value {value} not reproduced by envelope maximum {e_value}")


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


@lru_cache
def committee_size(delta: Fraction, gamma: Fraction) -> int:
    """Smallest odd r with e^{r * gamma^2 / BOOST_CONSTANT} >= 1/delta, each
    candidate decided by a certified ExpSum sign, found by one bisection over
    the odd r <= MAX_COMMITTEE_SIZE (the test is monotone in r); past that,
    GuardExceeded.  Memoized: a run's solves repeat a few (delta, gamma)."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    if delta <= 0 or gamma <= 0:
        raise InvalidValue("committee_size needs positive delta and gamma")
    rate = gamma ** 2 / BOOST_CONSTANT

    def passes(j: int) -> bool:  # the odd candidate r = 2j + 1
        return (ExpSum.exp((2 * j + 1) * rate) - 1 / delta).sign() >= 0

    lo, hi = -1, MAX_COMMITTEE_SIZE // 2  # passes(hi); lo == -1 or not passes(lo)
    if not passes(hi):
        raise GuardExceeded(f"committee size exceeds {MAX_COMMITTEE_SIZE} seats "
                            f"at delta={delta}, gamma={gamma}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return 2 * hi + 1


def committee_metrics(committee: Committee, f: BooleanFunction,
                      mu: Distribution) -> tuple[Fraction, Fraction]:
    """(exact pointwise majority error, summed expected depth of all members)."""
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")
    # Each seated tree object, measured once.  Seats are counted by identity:
    # hashing a tree walks it, and maj_boost seats its pool's objects.
    seats = Counter(map(id, committee.trees))
    members = [(t, seats[i]) for i, t in {id(t): t for t in committee.trees}.items()]
    scale, weights = mu.scaled
    err = 0  # over scale
    for x, w in enumerate(weights):
        if w:
            votes = sum(m * evaluate(t, x)[0] for t, m in members)
            if (1 if votes > 0 else -1) != f.table[x]:
                err += w
    cost = sum((m * expected_depth(t, mu) for t, m in members), _ZERO)
    return Fraction(err, scale), cost


def _picker(den: int, weights):
    """index(u) for u = rng.random(): the first index whose cumulative weight
    exceeds u, the weights being ints over den and summing to den.  u is
    exactly k / 2**53, so the first c_i / den > u, for the cumulative sums
    c_i, is the first c_i * 2**53 > k * den, found on ints by bisection."""
    bounds = [c << 53 for c in itertools.accumulate(weights)]
    return lambda u: bisect.bisect_right(bounds, int(u * (1 << 53)) * den)


def maj_boost(weighted_trees, f: BooleanFunction, mu: Distribution,
              delta: Fraction, gamma: Fraction, depth_budget: Fraction, *,
              seed: int = 0, iterations: int = 0) -> Committee:
    """Sample an odd committee i.i.d. from the dual mixture and keep the first
    sample whose exact error is <= delta and whose summed expected depth is
    <= r * depth_budget; raise BoostFailure after BOOST_RETRY_CAP samples.
    The weights must be nonnegative and sum to exactly 1."""
    items = list(weighted_trees)
    trees = [t for _, t in items]
    den, weights = _scale([Fraction(w) for w, _ in items])
    if any(w < 0 for w in weights) or sum(weights) != den:
        raise InvalidValue("tree mixture weights must be nonnegative and sum to 1")
    pick = _picker(den, weights)
    r = committee_size(delta, gamma)
    rng = random.Random(seed)

    budget = r * Fraction(depth_budget)
    for _ in range(BOOST_RETRY_CAP):
        committee = Committee(f, mu, tuple(trees[pick(rng.random())] for _ in range(r)),
                              Fraction(delta), Fraction(gamma),
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
    the threshold, else admit its trees into the pool, solve the restricted
    game (the first from a seed basis, each later one warm from the last
    tableau) and, when that value already exceeds the threshold, boost the
    optimal mixture into a Committee (the tree players win; `seed` drives
    its sampling).  A HardcoreCertificate's measure has density exactly
    delta/2.  Never returns a wrong answer: more than MAX_ITERATIONS games
    raise IterationBudget, and a best response above the threshold with no
    new tree raises KernelFault, since the last game's certified saddle
    point shows no pool mixture beats its value, at most the threshold.
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
    tables: list[tuple[int, ...]] = []  # each pool tree's +-1 outputs
    depths: list[Fraction] = []
    game = _Tableau()
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
                tables.append(tuple(evaluate(t, x)[0] for x in range(1 << f.n)))
                depths.append(expected_depth(t, mu))
        if len(pool) == admitted:
            raise KernelFault("best response adds no tree to the pool (kernel bug)")
        if iteration == MAX_ITERATIONS:
            raise IterationBudget(f"no decision within {MAX_ITERATIONS} iterations")
        iteration += 1
        value, h, w = _restricted_game(f, mu, half, depth_budget, tables, depths, game)
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
