"""Exact depth/quality Pareto frontiers for decision trees, by subcube DP.

For a target function and input distribution, the frontier lists every
nondominated pair (expected depth, objective) achievable by a deterministic
tree, each with a witness tree attached.  The objective is the error
Pr[T(X) != F(X)] against a scalar or vector target F or, given a [0,1]
measure H, the advantage E_mu[f * T * H] of a scalar f.  The two are one:
for the noisy label Y, equal to f(x) with probability (1 + H(x))/2 and to
-f(x) otherwise, E_mu[f * T * H] = 1 - 2 Pr[T(X) != Y] (a hardcore measure
read as label noise, as in Impagliazzo's hardcore lemma), so the DP
minimizes the erring mass in both senses.

The DP works on subcube restrictions with unnormalized (mass-weighted)
contributions: a query node on a cube of mass m costs m plus the children's
contributions, so the root values are the true expected depth and erring
mass.  Restrictions that no tree should distinguish are shared through a
memo table; zero-mass cubes collapse to a canonical leaf at depth 0.  No cube
enumerates its points: its mass and its mass per label are the sums of its
two halves on its lowest free variable, which the DP solves anyway, and a
single point is the base case.  Each of the 3^m cubes then costs one merge,
where enumerating every cube's points cost 4^m point visits in all.

The kernel runs on Python ints.  Every weight is scaled once by D, the least
common denominator of mu's weights, and of the signed weights s = mu*f*H too
in the advantage sense.  There a point of weight w has the label masses
(w + s, w - s) for the labels (+1, -1), out of a mass 2w over a scale 2D.
Cube masses, leaf statistics, depths and erring masses are then integers,
and only the root frontier is divided back out.  A cube's leaf guesses its
label of greatest mass, the first one on ties (the least label, or +1).
Each cube keeps, per depth, the cheapest candidate, the first one found on
ties (children in frontier order, variables low to high), and builds a Query
node only for the candidates that survive the Pareto filter.  That is the
candidate a stable sort by (depth, cost) followed by the filter would keep.

Randomized optima are exactly the envelope of the deterministic frontier:
a mixture's (depth, objective) is the convex combination of its components',
and optimizing a linear functional over mixtures of finitely many points is
attained on a support of size at most two.  The envelope routines therefore
compare the best single point within the bound against the best two-point
mixture that sits exactly on it, which is read off the lower convex hull of
the points (see mixture_optimum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DimensionMismatch, GuardExceeded, Infeasible, InvalidValue
from .exactexp import fraction_to_str
from .functions import BooleanFunction, Distribution, Measure, _scale, output_rows
from .trees import DecisionTree, Leaf, Query, _trees_to_json

MAX_DP_VARS = 14
MAX_ENUM_VARS = 3

ERROR = "error"
ADVANTAGE = "advantage"


@dataclass(frozen=True)
class FrontierPoint:
    depth: Fraction
    value: Fraction
    tree: DecisionTree


@dataclass(frozen=True)
class ParetoFrontier:
    sense: str
    n: int
    k: int
    points: tuple[FrontierPoint, ...]


def check_dp_guard(total_vars: int) -> None:
    """Refuse a frontier DP over more than MAX_DP_VARS variables."""
    if total_vars > MAX_DP_VARS:
        raise GuardExceeded(
            f"{total_vars} variables exceeds the DP guard {MAX_DP_VARS}")


def pareto_frontier(target, mu: Distribution, *,
                    h: Measure | None = None) -> ParetoFrontier:
    """Full deterministic frontier with witnesses, depth strictly increasing:
    of the error against target, or of the advantage against h if given."""
    n, k, rows = output_rows(target)
    if h is not None and (not isinstance(target, BooleanFunction) or h.n != n):
        raise InvalidValue("a measure needs a scalar function on its variables")

    m = n * k
    if mu.n != m:
        raise DimensionMismatch(f"distribution on {mu.n} vars vs target on {m}")
    check_dp_guard(m)

    # a cube's leaf statistic: its mass per label
    if h is None:
        scale, weights = _scale(mu.weights)
        labels = sorted(set(rows))
        point_stats = [tuple(w if label == row else 0 for label in labels)
                       for w, row in zip(weights, rows)]
    else:
        # the noisy label is f with probability (1 + H) / 2, -f otherwise
        signed = [w * target.table[p] * h.values[p] for p, w in enumerate(mu.weights)]
        scale, scaled = _scale(list(mu.weights) + signed)
        labels = [(1,), (-1,)]
        point_stats = [(w + s, w - s) for w, s in zip(scaled, scaled[1 << m:])]
        scale, weights = 2 * scale, [2 * w for w in scaled[:1 << m]]

    full = (1 << m) - 1
    zero_leaf = Leaf(tuple([1] * k))
    leaves = [Leaf(label) for label in labels]
    # (mask, vals) -> (mass, leaf statistic, frontier)
    memo: dict[tuple[int, int], tuple] = {}

    def solve(mask: int, vals: int) -> tuple:
        key = (mask, vals)
        got = memo.get(key)
        if got is not None:
            return got
        if mask == full:
            mass, stat = weights[vals], point_stats[vals]
        else:
            # the sum of the two halves on the lowest free variable
            low = ~mask & (mask + 1)
            half_n = solve(mask | low, vals)
            half_p = solve(mask | low, vals | low)
            mass = half_n[0] + half_p[0]
            stat = tuple(map(add, half_n[1], half_p[1]))
        if mass == 0:
            got = memo[key] = (0, stat, [(0, 0, zero_leaf)])
            return got

        top = max(stat)  # the first label of the greatest mass
        leaf_cost, leaf = mass - top, leaves[stat.index(top)]
        # cheapest (cost, var, neg, pos) per depth, first found on ties
        best: dict[int, tuple] = {}
        for v in range(m):
            bit = 1 << v
            if mask & bit:
                continue
            front_n = solve(mask | bit, vals)[2]
            front_p = solve(mask | bit, vals | bit)[2]
            for dn, cn, tn in front_n:
                base = mass + dn
                for dp, cp, tp in front_p:
                    cost = cn + cp
                    if cost >= leaf_cost:  # never beats the leaf at depth 0
                        continue
                    d = base + dp
                    got = best.get(d)
                    if got is None or cost < got[0]:
                        best[d] = (cost, v, tn, tp)
        kept = [(0, leaf_cost, leaf)]
        floor = leaf_cost
        for d in sorted(best):
            cost, v, tn, tp = best[d]
            if cost < floor:
                kept.append((d, cost, Query(v, tn, tp)))
                floor = cost
        got = memo[key] = (mass, stat, kept)
        return got

    points = tuple(
        FrontierPoint(Fraction(d, scale),
                      Fraction(cost if h is None else scale - 2 * cost, scale),
                      DecisionTree(n, k, node))
        for d, cost, node in solve(0, 0)[2])
    return ParetoFrontier(ERROR if h is None else ADVANTAGE, n, k, points)


# ---------------------------------------------------------------------------
# randomized optima: envelopes over the deterministic frontier


def mixture_optimum(pairs, bound, minimize):
    """Exact optimum of a linear value over mixtures of (coord, value, tag)
    points subject to mixture-average coord <= bound: (best, witness), or
    (None, None) when every coord exceeds the bound.  pairs is a sequence of
    rationals in any order; coords may repeat.

    The best single point is the first one of least cost among those with
    coord <= bound, where the cost is the value, negated when maximizing.  A
    two-point mixture with average coord exactly bound mixes one point on
    each side of the bound.  The least such cost lies on the lower convex
    hull (Andrew's monotone chain) of the points with coord != bound, on its
    edge that strictly straddles the bound: no point lies below that edge's
    line, and a pair attains the least cost iff both its points lie on the
    line.  The pair replaces the single only on strict improvement.  Its
    witness is the lexicographically first index pair i < j with one point
    on each side of the bound and both on the line, weighted (lam, 1 - lam)
    so that the average coord is the bound; that is the pair a scan of all
    pairs in index order, replacing only on strict improvement, keeps.
    """
    # exact and order-preserving ints: coords and bound over one common
    # denominator, values over another, negated when maximizing
    _, coords = _scale([c for c, _, _ in pairs] + [bound])
    *coords, b = coords
    _, costs = _scale([v for _, v, _ in pairs])
    if not minimize:
        costs = [-u for u in costs]
    best = None
    for i, c in enumerate(coords):
        if c <= b and (best is None or costs[i] < costs[best]):
            best = i
    hull = []
    for c, u in sorted((c, u) for c, u in zip(coords, costs) if c != b):
        while len(hull) > 1 and _turn(hull[-2], hull[-1], c, u) <= 0:
            hull.pop()
        hull.append((c, u))
    edge = next(((p, q) for p, q in zip(hull, hull[1:]) if p[0] < b < q[0]), None)
    if edge is not None:  # points on both sides, so a single exists
        (ca, ua), (cb, ub) = edge
        # the edge's cost at the bound, times cb - ca, against the single's
        if ua * (cb - ca) + (ub - ua) * (b - ca) < costs[best] * (cb - ca):
            on_line = [i for i, (c, u) in enumerate(zip(coords, costs))
                       if c != b and (u - ua) * (cb - ca) == (ub - ua) * (c - ca)]
            i = on_line[0]
            j = next(j for j in on_line if (coords[j] < b) != (coords[i] < b))
            ci, vi, ti = pairs[i]
            cj, vj, tj = pairs[j]
            lam = (bound - cj) / (ci - cj)
            return lam * vi + (1 - lam) * vj, ((lam, ti), (1 - lam, tj))
    if best is None:
        return None, None
    _, v, tag = pairs[best]
    return v, ((Fraction(1), tag),)


def _turn(o, a, c, u):
    """Twice the signed area of the triangle o, a, (c, u): positive for a
    counterclockwise turn."""
    return (a[0] - o[0]) * (u - o[1]) - (a[1] - o[1]) * (c - o[0])


def opt_depth(frontier: ParetoFrontier, eps: Fraction) -> Fraction | None:
    """Least expected depth of any mixture with error at most eps; None if no
    mixture reaches eps."""
    if frontier.sense != ERROR:
        raise InvalidValue("opt_depth needs an error-sense frontier")
    eps = Fraction(eps)
    pairs = [(p.value, p.depth, p.tree) for p in frontier.points]
    best, _ = mixture_optimum(pairs, eps, minimize=True)
    return best


def opt_objective_witness(frontier: ParetoFrontier, depth_budget: Fraction):
    """(best mixture objective at the depth budget, witness components)."""
    budget = Fraction(depth_budget)
    if budget < 0:
        raise Infeasible("negative depth budget")
    pairs = [(p.depth, p.value, p.tree) for p in frontier.points]
    best, witness = mixture_optimum(pairs, budget, minimize=(frontier.sense == ERROR))
    if best is None:
        raise Infeasible("no frontier point within the depth budget")
    return best, witness


# ---------------------------------------------------------------------------
# exhaustive enumeration (oracle-scale only)


def enumerate_all_trees(n: int) -> list[DecisionTree]:
    """Every scalar tree on n variables, no variable queried twice on a path."""
    if n > MAX_ENUM_VARS:
        raise GuardExceeded(f"{n} variables exceeds the enumeration guard {MAX_ENUM_VARS}")

    def build(avail: tuple[int, ...]):
        nodes = [Leaf((-1,)), Leaf((1,))]
        for v in avail:
            rest = tuple(u for u in avail if u != v)
            subs = build(rest)
            for tn in subs:
                for tp in subs:
                    nodes.append(Query(v, tn, tp))
        return nodes

    return [DecisionTree(n, 1, node) for node in build(tuple(range(n)))]


# ---------------------------------------------------------------------------
# serialization


def frontier_to_json(frontier: ParetoFrontier) -> dict:
    """The frontier as JSON, read-only: the points' tree dicts share
    sub-dicts where their trees share DP nodes."""
    trees = _trees_to_json([p.tree for p in frontier.points])
    return {
        "sense": frontier.sense,
        "n": frontier.n,
        "k": frontier.k,
        "points": [
            {
                "depth": fraction_to_str(p.depth),
                "value": fraction_to_str(p.value),
                "tree": tree,
            }
            for p, tree in zip(frontier.points, trees)
        ],
    }
