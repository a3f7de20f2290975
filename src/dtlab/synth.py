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

Randomized optima are exactly the envelope of the deterministic frontier:
a mixture's (depth, objective) is the convex combination of its components',
and optimizing a linear functional over mixtures of finitely many points is
attained on a support of size at most two.  The envelope routines therefore
enumerate singletons and tight two-point combinations, which is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DimensionMismatch, GuardExceeded, Infeasible, InvalidValue
from .functions import BooleanFunction, Distribution, Measure, VectorFunction
from .trees import DecisionTree, Leaf, Query, cube_points

MAX_DP_VARS = 14
MAX_ENUM_VARS = 3
MAX_ENUM_TREES = 200_000

_ZERO = Fraction(0)

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


def _leaf_candidate_error(target_rows, weights, pts):
    """Best constant guess on a cube: (erring mass, leaf)."""
    masses: dict[tuple[int, ...], Fraction] = {}
    total = _ZERO
    for p in pts:
        w = weights[p]
        if w == 0:
            continue
        total += w
        row = target_rows(p)
        masses[row] = masses.get(row, _ZERO) + w
    best_label = min(masses, key=lambda r: (-masses[r], r))
    return total - masses[best_label], Leaf(best_label)


def _leaf_candidate_advantage(signed, pts):
    """Optimal-sign constant guess: (|sum of signed mass|, leaf)."""
    s = _ZERO
    for p in pts:
        s += signed[p]
    if s >= 0:
        return s, Leaf((1,))
    return -s, Leaf((-1,))


def pareto_frontier(target, mu: Distribution, sense: str = ERROR,
                    h: Measure | None = None) -> ParetoFrontier:
    """Full deterministic frontier with witnesses, depth strictly increasing."""
    if sense == ERROR:
        if isinstance(target, BooleanFunction):
            n, k = target.n, 1
            rows = lambda p: (target.table[p],)
        elif isinstance(target, VectorFunction):
            n, k = target.n, target.k
            rows = lambda p: target.table[p]
        else:
            raise InvalidValue(f"not a function: {target!r}")
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
    if m > MAX_DP_VARS:
        raise GuardExceeded(f"{m} variables exceeds the DP guard {MAX_DP_VARS}")

    weights = mu.weights
    if sense == ADVANTAGE:
        signed = tuple(weights[p] * target.table[p] * h.values[p] for p in range(1 << m))

    zero_leaf = Leaf(tuple([1] * k))
    memo: dict[tuple[int, int], tuple[Fraction, list]] = {}

    def solve(mask: int, vals: int):
        key = (mask, vals)
        got = memo.get(key)
        if got is not None:
            return got
        pts = list(cube_points(m, mask, vals))
        mass = sum((weights[p] for p in pts), _ZERO)
        if mass == 0:
            result = (mass, [(_ZERO, _ZERO, zero_leaf)])
            memo[key] = result
            return result

        if sense == ERROR:
            leaf_val, leaf = _leaf_candidate_error(rows, weights, pts)
        else:
            leaf_val, leaf = _leaf_candidate_advantage(signed, pts)
        candidates = [(_ZERO, leaf_val, leaf)]
        for v in range(m):
            bit = 1 << v
            if mask & bit:
                continue
            _, front_n = solve(mask | bit, vals)
            _, front_p = solve(mask | bit, vals | bit)
            for dn, vn, tn in front_n:
                for dp, vp, tp in front_p:
                    candidates.append((mass + dn + dp, vn + vp, Query(v, tn, tp)))

        if sense == ERROR:
            candidates.sort(key=lambda c: (c[0], c[1]))
        else:
            candidates.sort(key=lambda c: (c[0], -c[1]))
        kept = []
        best = None
        for d, val, node in candidates:
            good = val if sense == ADVANTAGE else -val
            if best is None or good > best:
                kept.append((d, val, node))
                best = good
        result = (mass, kept)
        memo[key] = result
        return result

    _, front = solve(0, 0)
    points = tuple(
        FrontierPoint(d, val, DecisionTree(n, k, node)) for d, val, node in front)
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
    if min(c for c, _, _ in pairs) > eps:
        return None
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


def opt_objective(frontier: ParetoFrontier, depth_budget: Fraction) -> Fraction:
    """Best mixture objective at an expected-depth budget (min error / max advantage)."""
    return opt_objective_witness(frontier, depth_budget)[0]


# ---------------------------------------------------------------------------
# exhaustive enumeration (oracle-scale only)


def _count_trees(avail: int, labels: int) -> int:
    c = labels
    if avail:
        sub = _count_trees(avail - 1, labels)
        c += avail * sub * sub
    return c


def enumerate_all_trees(n: int, k: int) -> list[DecisionTree]:
    """Every tree that respects the no-repeat path invariant, all labelings."""
    m = n * k
    if m > MAX_ENUM_VARS:
        raise GuardExceeded(f"{m} variables exceeds the enumeration guard {MAX_ENUM_VARS}")
    count = _count_trees(m, 1 << k)
    if count > MAX_ENUM_TREES:
        raise GuardExceeded(f"{count} trees exceeds the enumeration cap {MAX_ENUM_TREES}")
    labels = [tuple(row) for row in product((-1, 1), repeat=k)]

    def build(avail: tuple[int, ...]):
        nodes = [Leaf(lab) for lab in labels]
        for v in avail:
            rest = tuple(u for u in avail if u != v)
            subs = build(rest)
            for tn in subs:
                for tp in subs:
                    nodes.append(Query(v, tn, tp))
        return nodes

    return [DecisionTree(n, k, node) for node in build(tuple(range(m)))]


# ---------------------------------------------------------------------------
# serialization


def frontier_to_json(frontier: ParetoFrontier) -> dict:
    from .exactexp import fraction_to_str
    from .trees import tree_to_json

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
