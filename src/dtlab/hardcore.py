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
one kernel, a dense dual simplex (Lemke 1954).  A game holds one int mass
per cell (here a point, weighted by mu), refuses its own tableau over the
cost guard before admitting a row, and returns cell values, from which the
solve builds the next measure.  A solve's first game starts from a seed
basis, reached in two pivots, whose duals are those of the
mixture on the first pool tree within the budget: it is dual feasible.
Each later game resumes from the last optimal tableau (Kelley's cutting
planes, seen from the row player): an admitted tree is a new row whose
zero-cost slack is basic, so the basis stays dual feasible.  Every
inequality row, the first game's too, enters by that one step, `_admit`.
The dual simplex restores primal feasibility.  No bound H <= 1 is a row: an
H at it is held as 1 - H (Dantzig 1955).  The pivot rule, Bland's in dual
form on the column order of the LP with those rows, makes that LP's pivots,
so it never revisits a basis and the loop ends (Bland 1977).  The tableau
is exact but integer: each row is ints over one common denominator
(integer-preserving pivoting, as in Edmonds 1967), and only what is read
turns back into Fractions.  Its optimal tableau gives both players' strategies: H as the
primal solution, the tree mixture w as the reduced costs of the pool rows'
slacks.  The pair is then certified as a saddle point without trusting the
kernel, on ints from the pool trees' payoff rows: both strategies are
checked for feasibility, and the greedy closed-form minimum against w and the
envelope maximum against H must both equal the LP value.  A wrong LP answer
therefore cannot escape the solver.
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
from .synth import mixture_optimum, pareto_frontier
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

_ZERO, _ONE = Fraction(0), Fraction(1)

MAX_GAME_COST = 1 << 22  # tableau entries times cells, checked before each game
BOOST_CONSTANT = 8
BOOST_RETRY_CAP = 16
MAX_COMMITTEE_SIZE = 65535  # odd: the largest committee_size returns


def _check_rates(delta, gamma) -> None:
    """Refuse a delta outside (0,1) or a gamma outside (0,1]."""
    if not 0 < delta < 1:
        raise InvalidValue(f"delta must lie in (0,1), got {delta}")
    if not 0 < gamma <= 1:
        raise InvalidValue(f"gamma must lie in (0,1], got {gamma}")


def _check_domain(f, mu, delta, gamma, depth_budget) -> None:
    """Refuse a game no solve takes: delta, gamma, budget or sizes out of range."""
    _check_rates(delta, gamma)
    if depth_budget < 0:
        raise InvalidValue("depth budget must be nonnegative")
    if f.n != mu.n:
        raise DimensionMismatch("function and distribution sizes differ")


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

    def __init__(self, f: BooleanFunction, mu: Distribution, measure: Measure,
                 delta: Fraction, gamma: Fraction, depth_budget: Fraction,
                 best_response_advantage: Fraction, witness: RandomizedTree, iterations: int):
        _check_domain(f, mu, delta, gamma, depth_budget)
        fields = self.__dict__
        fields["f"], fields["mu"], fields["measure"] = f, mu, measure
        fields["delta"], fields["gamma"], fields["depth_budget"] = delta, gamma, depth_budget
        fields["best_response_advantage"] = best_response_advantage
        fields["witness"], fields["iterations"] = witness, iterations


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

    def __init__(self, f: BooleanFunction, mu: Distribution, trees: tuple[DecisionTree, ...],
                 delta: Fraction, gamma: Fraction, depth_budget: Fraction, seed: int,
                 iterations: int):
        if len(trees) % 2 != 1:
            raise InvalidValue("committee size must be odd")
        if any((t.n, t.k) != (f.n, 1) for t in trees):
            raise DimensionMismatch("committee trees must be k=1 trees on f's variables")
        _check_domain(f, mu, delta, gamma, depth_budget)
        fields = self.__dict__
        fields["f"], fields["mu"], fields["trees"] = f, mu, trees
        fields["delta"], fields["gamma"], fields["depth_budget"] = delta, gamma, depth_budget
        fields["seed"], fields["iterations"] = seed, iterations

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


def _dual_bland(tab, basis: list[int], flip=(), box: int = 0) -> None:
    """Restore b >= 0 from a dual feasible tableau, keeping it dual feasible.

    Rows tab[:len(basis)] are [A | b] in canonical form for `basis` (see
    _pivot for the int row layout), and tab[-1] holds reduced costs, all >= 0,
    but some b_i may be negative.  Columns j < len(flip) are bounded,
    0 <= x_j <= 1, and hold 1 - x_j where flip[j] (Dantzig's upper bounding).
    A column's rank is its index in the explicit LP that writes each bound
    as a row x_j + u_j = 1, the slacks u_j ranked from `box` on: j, or
    box + j for a complemented j, which is u_j; columns from box on follow.
    With no bounded column the rank is the index.

    A basic variable may leave when negative, with its rank, or when bounded
    and above 1, with its complement's rank; the least rank leaves.  One
    above 1 is first complemented in its row (entries negated, rhs D - b,
    flip switched), where it is negative.  The entering column is, among
    that row's negative entries a_rj, one of least ratio cost_j / |a_rj|,
    ties going to the least rank, so every reduced cost stays >= 0.  Ratios
    are compared by cross-multiplying numerators: within one row the
    denominators cancel.  No negative entry means no x meets the row:
    Infeasible.

    Termination: each pivot is the one the dual simplex makes on the
    explicit LP, whose box rows and their basic slacks the tableau leaves
    out.  That is the primal simplex on the dual LP, whose variables are
    named by the same ranks: the leaving basic variable is the dual's
    entering one, and the ratio test the dual's.  So least rank among the
    eligible leaving variables, and among ratio ties, is Bland's rule on the
    dual, which never revisits a basis (Bland 1977): there are finitely many
    bases, so the loop ends without an iteration cap.
    """
    k = len(flip)

    def rank(j: int, up: bool) -> int:  # as u_j if up
        return (box + j if up else j) if j < k else j + k if j >= box else j

    while True:
        eligible = [(rank(b, (b < k and flip[b]) != (v > 0)), i) for i, b in enumerate(basis)
                    if (v := tab[i][-2]) < 0 or b < k and v > tab[i][-1]]
        if not eligible:
            return
        r = min(eligible)[1]
        row, costs, b = tab[r], tab[-1], basis[r]
        if row[-2] > 0:  # above 1: complement it
            d = row[-1]
            row = tab[r] = [-v for v in row[:-2]] + [d - row[-2], d]
            row[b], flip[b] = d, not flip[b]
        c = None
        for j in ([j for j in range(k) if not flip[j]] + [*range(k, box)]
                  + [j for j in range(k) if flip[j]] + [*range(box, len(row) - 2)]):
            a = row[j]
            if a < 0 and (c is None or costs[j] * row[c] > costs[c] * a):
                c = j
        if c is None:
            raise Infeasible("LP has no feasible point")
        _pivot(tab, r, c)
        basis[r] = c


def _admit(tab, basis: list[int], entries, rhs: int, d: int) -> None:
    """Admit the constraint row sum_j entries[j] * x_j + s = rhs, all over
    d, with s a new slack column, basic.  The column goes in before every
    row's right-hand side; the row, gcd-reduced, is put in the basis'
    canonical form, each basic row (a unit row) subtracted by the row
    operation a pivot uses, and inserted after the basic rows, so the
    reduced costs stay last.  s has reduced cost 0: a dual feasible basis
    stays dual feasible."""
    for r in tab:
        r.insert(-2, 0)
    row = [0] * len(tab[0])
    for j, v in entries:
        row[j] = v
    row[-3:] = d, rhs, d
    row = _reduced(row)
    for i, b in enumerate(basis):
        if row[b]:
            row = _eliminate(row, tab[i], b, [j for j, v in enumerate(tab[i][:-1]) if v])
    tab.insert(len(basis), row)
    basis.append(len(row) - 3)


class _Game:
    """One solve's restricted game.  Data: `mass`, one int per cell (mu's
    weight at a point) then the half density, over `den`; the budget; `pool`,
    one (tree, payoff row f*T in +-1 ints, expected depth) per tree, in
    admission order.  State: the last optimal int rows, basis, pool slacks,
    each cell's complement flag and the first box slack's rank (_dual_bland)."""

    __slots__ = ("den", "mass", "budget", "pool", "rows", "basis", "slacks", "flip", "box")

    def __init__(self, den: int, mass, budget: Fraction):
        self.den, self.mass = den, mass
        self.budget, self.pool = budget, []
        self.rows, self.basis, self.slacks = [], [], []
        self.flip, self.box = [False] * (len(mass) - 1), 0


def _restricted_game(game: _Game):
    """Exact value and both optimal strategies of the pool-restricted game.

    Returns (value, z, w), z the tuple of H's cell values.  The row player's LP

        min s + budget*y  s.t.  payoff(H, T) <= s + depth_T * y  for T in pool,
                                mass . H = half_density,  0 <= H <= 1,  y >= 0,

    with payoff(H, T) = sum_x mass(x) f(x) T(x) H(x) over the cells x, yields
    H as its primal solution and the column player's mixture w as the final
    reduced costs of the pool rows' slacks.

    Guard: before any row is admitted, rows (pool + cells + 2) times columns
    (pool + 2*cells + 5) times cells (pivots grow with them) must be at most
    MAX_GAME_COST, else GuardExceeded, the game unchanged.  Each game of a
    solve adds a row, so this bounds its games too.  It counts the explicit
    LP's box rows and slacks, which the tableau leaves out: an over-estimate.

    `game` keeps the tableau between the games of one solve, and every
    inequality row enters it by one step, _admit: a new basic slack column
    and the row in the basis' canonical form, 1 - H_x put in for each
    complemented H_x.  While it is empty, the cost row over H, s+, s-, y is
    laid down and the first pool's tree rows are admitted.  No bound
    H_x <= 1 is a row: each is a complement flag (see _dual_bland), ranked
    as the explicit LP's box slack u_x in H_x + u_x = 1, after the first
    pool's slacks.  This order fixes a solve's pivots and with them its
    certificates and committees.  The density row, the one equality, comes
    last, with H at x0 basic, x0 the first cell of positive mass where
    f*T_t0 is least and t0 the first pool tree within the budget.  Two
    pivots, H_x0 on the density row and then s+ on t0's row, carry the cost
    row to the reduced costs of a seed basis that plays t0 alone.  Its duals
    are those of the mixture on t0, so its reduced costs are mass_x *
    (f*T_t0(x) - f*T_t0(x0)) on H_x, budget - depth_t0 on y, 0 on s- and 1
    on t0's slack, all >= 0: the basis is dual feasible.  With no tree
    within the budget, s + budget*y falls without bound along y, and the
    game raises Infeasible before it builds any row.  A later game admits
    the trees added since the last; each new slack's reduced cost is 0, so
    the basis stays dual feasible.  Either way _dual_bland, Bland's rule in
    dual form replayed on the explicit LP, ends and makes the basis primal
    feasible.  A warm game reaches the value a first game on the same pool
    would, possibly at another optimal vertex.

    _check_saddle_point then certifies the pair whatever the kernel did.
    """
    den, mass, budget, pool = game.den, game.mass, game.budget, game.pool
    tab, basis, slacks, flip = game.rows, game.basis, game.slacks, game.flip
    cells, trees = len(mass) - 1, len(pool)
    cost = (trees + cells + 2) * (trees + 2 * cells + 5) * cells
    if cost > MAX_GAME_COST:
        raise GuardExceeded(f"restricted game on a pool of {trees} trees costs {cost:,} "
                            f"tableau entries times cells, over the limit {MAX_GAME_COST:,}")
    first = not slacks
    if first:
        t0 = next((t for t, (_, _, depth) in enumerate(pool) if depth <= budget), None)
        if t0 is None:
            raise Infeasible("no pool tree within the depth budget: the game is unbounded")
        d, p = _scale((1, -1, budget))
        tab.append([0] * cells + [*p, 0, d])  # costs of H, s+, s-, y; rhs; D
        game.box = cells + 3 + trees
    for _, payoff, depth in pool[len(slacks):]:
        d = math.lcm(den, depth.denominator)
        a, y = d // den, depth.numerator * (d // depth.denominator)
        entries = [(x, -e if up else e) for x, (e, up) in
                   enumerate(zip([a * m * v for m, v in zip(mass, payoff)], flip))]
        _admit(tab, basis, entries + [(cells, -d), (cells + 1, d), (cells + 2, -y)],
               sum(e for (_, e), up in zip(entries, flip) if up), d)
        slacks.append(basis[-1])
    if first:
        tab.insert(len(basis), [*mass[:cells]] + [0] * (len(tab[0]) - cells - 2)
                   + [mass[cells], den])
        x0 = min((x for x in range(cells) if mass[x]), key=pool[t0][1].__getitem__)
        _pivot(tab, len(basis), x0)
        basis.append(x0)
        _pivot(tab, t0, cells)
        basis[t0] = cells
    _dual_bland(tab, basis, flip, game.box)

    costs = tab[-1]
    value = Fraction(-costs[-2], costs[-1])
    z = [_ONE if up else _ZERO for up in flip]
    for i, b in enumerate(basis):
        if b < cells:
            v, d = tab[i][-2:]
            z[b] = Fraction(d - v if flip[b] else v, d)
    z = tuple(z)
    w = tuple(Fraction(costs[j], costs[-1]) for j in slacks)
    _check_saddle_point(game, value, z, w)
    return value, z, w


def _check_saddle_point(game: _Game, value: Fraction, z, w) -> None:
    """Raise KernelFault unless cell values z and pool mixture w are
    feasible and both attain `value`, which makes (z, w) a saddle point of
    the restricted game: no measure does better against w, and no mixture
    of the pool does better against z.  A failure is a bug in the LP kernel,
    never a fault of the input, so it is a RuntimeError (CLI exit 5).

    Derived from the game's data alone, not from its tableau, on ints: the
    greedy inner minimum against w scores each cell over w's common
    denominator, the envelope inner maximum against z takes each tree's
    payoff over the masses' and z's, and only the results turn into
    Fractions.
    """
    den, mass, budget, pool = game.den, game.mass, game.budget, game.pool
    cells = len(mass) - 1
    dw, wn = _scale(w)

    # Feasibility of both strategies.
    if any(v < 0 for v in wn) or sum(wn) != dw:
        raise KernelFault(f"mixture {w} is not a distribution (LP kernel bug)")
    dd, dn = _scale([depth for _, _, depth in pool])
    if sum(v * d for v, d in zip(wn, dn)) * budget.denominator > budget.numerator * dw * dd:
        raise KernelFault(f"mixture {w} exceeds the depth budget (LP kernel bug)")
    dz, zn = _scale(z)
    if not all(0 <= v <= dz for v in zn):
        raise KernelFault(f"measure {z} leaves [0,1] (LP kernel bug)")
    if sum(m * v for m, v in zip(mass[:cells], zn)) != mass[cells] * dz:
        raise KernelFault(f"measure {z} misses the density (LP kernel bug)")

    # Greedy minimum against w: the fractional fill that puts H = 1 on the
    # lowest scores first; the density check caps its mass by the total, so
    # it places all of it.  Zero-weight trees add nothing to any score.
    live = [(v, payoff) for v, (_, payoff, _) in zip(wn, pool) if v]
    scores = [sum(v * payoff[x] for v, payoff in live) for x in range(cells)]
    remaining, g_num = mass[cells], 0
    for x in sorted((x for x in range(cells) if mass[x]), key=lambda x: (scores[x], x)):
        take = min(mass[x], remaining)
        g_num += take * scores[x]
        remaining -= take
    g_value = Fraction(g_num, den * dw)
    if g_value != value:
        raise KernelFault(
            f"restricted value {value} not reproduced by greedy minimum {g_value}")

    # Envelope maximum against z.
    terms = [(x, mass[x] * v) for x, v in enumerate(zn) if v]
    pairs = [(depth, sum(c * payoff[x] for x, c in terms), t)
             for t, (_, payoff, depth) in enumerate(pool)]
    e_value, _ = mixture_optimum(pairs, budget, minimize=False)
    e_value = Fraction(e_value, den * dz)
    if e_value != value:
        raise KernelFault(
            f"restricted value {value} not reproduced by envelope maximum {e_value}")


# ---------------------------------------------------------------------------
# public operations


def best_response(f: BooleanFunction, mu: Distribution, h: Measure,
                  depth_budget: Fraction):
    """(advantage, witness components): the exact max of E[f*T*H] over tree
    mixtures of expected depth <= budget, and a mixture attaining it, read
    off the advantage frontier's envelope: one frontier tree, or two when the
    optimum sits inside an envelope segment.  Infeasible if no frontier tree
    is within the budget."""
    points = pareto_frontier(f, mu, h=h).points
    best, witness = mixture_optimum([(p.depth, p.value, p.tree) for p in points],
                                    depth_budget, minimize=False)
    if best is None:
        raise Infeasible("no frontier point within the depth budget")
    return best, witness


@lru_cache
def committee_size(delta: Fraction, gamma: Fraction) -> int:
    """Smallest odd r with e^{r * gamma^2 / BOOST_CONSTANT} >= 1/delta, each
    candidate decided by a certified ExpSum sign, found by one bisection over
    the odd r <= MAX_COMMITTEE_SIZE (the test is monotone in r); past that,
    GuardExceeded.  A delta outside (0,1) or a gamma outside (0,1] is refused
    before any candidate.  Memoized: a run's solves repeat a few (delta, gamma)."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    _check_rates(delta, gamma)
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
    game on mu's weights, one cell per point (the first from a seed basis,
    each later one warm from the last tableau), and, when that value
    already exceeds the threshold, boost the optimal mixture into a
    Committee (the tree players win; `seed` drives its sampling); else its
    cell values are the next H.  A HardcoreCertificate's measure has
    density exactly delta/2.  Never returns a wrong answer.  It ends with no
    game count: each game admits a tree not yet in the pool, of finitely
    many, or the solve raises KernelFault (the last game's certified saddle
    point shows no pool mixture beats its value, at most the threshold),
    and Bland's rule ends each game.  The game's cost guard bounds the work
    (see _restricted_game): GuardExceeded before it builds any row.
    """
    delta = Fraction(delta)
    gamma = Fraction(gamma)
    depth_budget = Fraction(depth_budget)
    _check_domain(f, mu, delta, gamma, depth_budget)

    half = delta / 2
    threshold = gamma * half
    game = _Game(*_scale((*mu.weights, half)), depth_budget)
    h = constant_measure(f.n, half)
    iteration = 0
    while True:
        advantage, witness = best_response(f, mu, h, depth_budget)
        if advantage <= threshold:
            return HardcoreCertificate(f, mu, h, delta, gamma, depth_budget,
                                       advantage, RandomizedTree(witness), iteration)
        admitted = len(game.pool)
        for _, t in witness:
            if t not in (tree for tree, _, _ in game.pool):
                payoff = tuple(v * evaluate(t, x)[0] for x, v in enumerate(f.table))
                game.pool.append((t, payoff, expected_depth(t, mu)))
        if len(game.pool) == admitted:
            raise KernelFault("best response adds no tree to the pool (kernel bug)")
        iteration += 1
        value, z, w = _restricted_game(game)
        if value > threshold:
            return maj_boost(zip(w, (tree for tree, _, _ in game.pool)), f, mu, delta, gamma,
                             depth_budget, seed=seed, iterations=iteration)
        h = Measure(f.n, z)


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
