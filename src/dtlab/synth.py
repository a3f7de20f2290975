"""Exact depth/quality Pareto frontiers for decision trees, by subcube DP.

For a target function and input distribution, the frontier lists every
nondominated pair (expected depth, objective) achievable by a deterministic
tree, each with a witness tree attached.  Two objectives exist:

  error      minimize Pr[T(X) != F(X)] against a scalar or vector target
  advantage  maximize E_mu[f * T * H] for a scalar f and a [0,1] measure H
             (leaf signs chosen optimally, so the maximum of the signed
             correlation equals the maximum of its absolute value)

The DP works on subcube restrictions with unnormalized (mass-weighted)
contributions: a query node on a cube of mass m costs m plus the children's
contributions, so the root values are the true expected depth and objective.
Restrictions that no tree should distinguish are shared through a memo table;
zero-mass cubes collapse to a canonical leaf at depth 0.

The kernel runs on Python ints.  Every weight is scaled once by D, the least
common denominator of mu's weights; in the advantage sense D is taken over
mu's weights together with the signed weights mu*f*H, whose denominators also
carry H's.  Cube masses, leaf candidates, depths and objectives are then
integers, and only the root frontier is divided back out by D.  Internally an
objective is a cost to minimize: the erring mass, or minus the advantage.
Each cube keeps, per depth, the cheapest candidate, the first one found on
ties (children in frontier order, variables low to high), and builds a Query
node only for the candidates that survive the Pareto filter.  That is the
candidate a stable sort by (depth, cost) followed by the filter would keep.

Randomized optima are exactly the envelope of the deterministic frontier:
a mixture's (depth, objective) is the convex combination of its components',
and optimizing a linear functional over mixtures of finitely many points is
attained on a support of size at most two.  The envelope routines therefore
enumerate singletons and tight two-point combinations, which is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, GuardExceeded, Infeasible, InvalidValue
from .exactexp import fraction_to_str
from .functions import BooleanFunction, Distribution, Measure, output_rows
from .trees import DecisionTree, Leaf, Query, cube_points, tree_to_json

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


def _scale(values) -> tuple[int, tuple[int, ...]]:
    """(D, values * D) for D the least common denominator of the values."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def _leaf_candidate_error(rows, weights, pts):
    """Best constant guess on a cube: (erring mass, leaf)."""
    masses: dict[tuple[int, ...], int] = {}
    total = 0
    for p in pts:
        w = weights[p]
        if w == 0:
            continue
        total += w
        row = rows[p]
        masses[row] = masses.get(row, 0) + w
    best_label = min(masses, key=lambda r: (-masses[r], r))
    return total - masses[best_label], Leaf(best_label)


def _leaf_candidate_advantage(signed, pts):
    """Optimal-sign constant guess: (-|sum of signed mass|, leaf)."""
    s = sum(signed[p] for p in pts)
    if s >= 0:
        return -s, Leaf((1,))
    return s, Leaf((-1,))


def pareto_frontier(target, mu: Distribution, sense: str = ERROR,
                    h: Measure | None = None) -> ParetoFrontier:
    """Full deterministic frontier with witnesses, depth strictly increasing."""
    if sense == ERROR:
        n, k, rows = output_rows(target)
        if h is not None:
            raise InvalidValue("error sense takes no measure")
    elif sense == ADVANTAGE:
        if not isinstance(target, BooleanFunction):
            raise InvalidValue("advantage sense needs a scalar function")
        if h is None or h.n != target.n:
            raise InvalidValue("advantage sense needs a measure on the same variables")
        n, k = target.n, 1
    else:
        raise InvalidValue(f"unknown sense {sense!r}")

    m = n * k
    if mu.n != m:
        raise DimensionMismatch(f"distribution on {mu.n} vars vs target on {m}")
    check_dp_guard(m)

    if sense == ERROR:
        scale, weights = _scale(mu.weights)
    else:
        signed = [w * target.table[p] * h.values[p] for p, w in enumerate(mu.weights)]
        scale, scaled = _scale(list(mu.weights) + signed)
        weights, signed = scaled[:1 << m], scaled[1 << m:]

    zero_leaf = Leaf(tuple([1] * k))
    memo: dict[tuple[int, int], list] = {}

    def solve(mask: int, vals: int) -> list:
        key = (mask, vals)
        got = memo.get(key)
        if got is not None:
            return got
        pts = list(cube_points(m, mask, vals))
        mass = sum(weights[p] for p in pts)
        if mass == 0:
            kept = memo[key] = [(0, 0, zero_leaf)]
            return kept

        if sense == ERROR:
            leaf_cost, leaf = _leaf_candidate_error(rows, weights, pts)
        else:
            leaf_cost, leaf = _leaf_candidate_advantage(signed, pts)
        # cheapest (cost, var, neg, pos) per depth, first found on ties
        best: dict[int, tuple] = {}
        for v in range(m):
            bit = 1 << v
            if mask & bit:
                continue
            front_n = solve(mask | bit, vals)
            front_p = solve(mask | bit, vals | bit)
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
        memo[key] = kept
        return kept

    sign = 1 if sense == ERROR else -1
    points = tuple(
        FrontierPoint(Fraction(d, scale), Fraction(sign * cost, scale),
                      DecisionTree(n, k, node))
        for d, cost, node in solve(0, 0))
    return ParetoFrontier(sense, n, k, points)


# ---------------------------------------------------------------------------
# randomized optima: envelopes over the deterministic frontier


def mixture_optimum(pairs, bound, minimize):
    """Exact optimum of a linear value over mixtures of (coord, value) points
    subject to mixture-average coord <= bound.  pairs must be nonempty."""
    best = None
    witness = None
    for c, v, tag in pairs:
        if c <= bound:
            if best is None or (v < best if minimize else v > best):
                best, witness = v, ((Fraction(1), tag),)
    for i in range(len(pairs)):
        ci, vi, ti = pairs[i]
        for j in range(i + 1, len(pairs)):
            cj, vj, tj = pairs[j]
            if ci == cj:
                continue
            lam = (bound - cj) / (ci - cj)
            if 0 < lam < 1:
                v = lam * vi + (1 - lam) * vj
                if best is None or (v < best if minimize else v > best):
                    best = v
                    witness = ((lam, ti), (1 - lam, tj))
    return best, witness


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
    return {
        "sense": frontier.sense,
        "n": frontier.n,
        "k": frontier.k,
        "points": [
            {
                "depth": fraction_to_str(p.depth),
                "value": fraction_to_str(p.value),
                "tree": tree_to_json(p.tree),
            }
            for p in frontier.points
        ],
    }
