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
mass.  It is one pass over the 3^m cubes in the order of their base-3 index
c = sum of d_v * 3^v, where the digit d_v is 0 or 1 when v is fixed to that
bit and 2 when v is free.  A cube's halves on a free v, c - 2 * 3^v and
c - 3^v, have smaller indices, so the pass meets them first, and each cube
is solved once, into flat lists indexed by c.  Zero-mass cubes collapse to a
canonical leaf at depth 0.  No cube enumerates its points: its mass and its
mass per label are the sums of its two halves on its lowest free variable,
and a single point is the base case.  Each cube then costs one merge, where
enumerating every cube's points cost 4^m point visits in all.

The kernel runs on Python ints, read off mu.scaled = (D, w) and, in the
advantage sense, h.scaled = (E, v).  In the error sense a point has the mass
w over the scale D.  In the advantage sense the scale is 2*D*E, and a point
has the mass 2*w*E and the label masses w*E + w*f*v and w*E - w*f*v for the
labels (+1, -1); any common positive scale scales every cost and depth
alike, so it gives the same frontier and the same tie-breaks.  Cube masses,
leaf statistics, depths and erring masses are then integers, and only the
root frontier is divided back out.  A cube's leaf statistic is one int, so
its halves merge by one add: with two labels or fewer, the mass of the first
label (the other has the rest); with more, each label's mass in a bit field
that no cube's mass overflows.  A cube's leaf guesses its label of greatest
mass, the first one on ties (the least label, or +1).
Each cube keeps, per depth, the cheapest candidate, the first one found on
ties (children in frontier order, variables low to high).  That is the
candidate a stable sort by (depth, cost) followed by the filter would keep.
A candidate that survives the Pareto filter keeps a spec of its witness, its
variable and its children's specs, and only the root frontier's witnesses
become Query nodes: one per spec, so they share what the DP shares.

Randomized optima are exactly the envelope of the deterministic frontier:
a mixture's (depth, objective) is the convex combination of its components',
and optimizing a linear functional over mixtures of finitely many points is
attained on a support of size at most two.  The envelope routines therefore
compare the best single point within the bound against the best two-point
mixture that sits exactly on it, which is read off the lower convex hull of
the points (see mixture_optimum).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, GuardExceeded, Infeasible, InvalidValue
from .exactexp import fraction_to_str
from .functions import BooleanFunction, Distribution, Measure, _scale, output_rows
from .records import Record
from .trees import DecisionTree, Leaf, Query, _trees_to_json

MAX_DP_VARS = 14
MAX_ENUM_VARS = 3

ERROR = "error"
ADVANTAGE = "advantage"


class FrontierPoint(Record):
    depth: Fraction
    value: Fraction
    tree: DecisionTree

    def __init__(self, depth: Fraction, value: Fraction, tree: DecisionTree):
        fields = self.__dict__
        fields["depth"], fields["value"], fields["tree"] = depth, value, tree


class ParetoFrontier(Record):
    sense: str
    n: int
    k: int
    points: tuple[FrontierPoint, ...]

    def __init__(self, sense: str, n: int, k: int, points: tuple[FrontierPoint, ...]):
        fields = self.__dict__
        fields["sense"], fields["n"], fields["k"], fields["points"] = sense, n, k, points


def check_dp_guard(total_vars: int) -> None:
    """Refuse a frontier DP over more than MAX_DP_VARS variables."""
    if total_vars > MAX_DP_VARS:
        raise GuardExceeded(
            f"{total_vars} variables exceeds the DP guard {MAX_DP_VARS}")


def pareto_frontier(target, mu: Distribution, *,
                    h: Measure | None = None) -> ParetoFrontier:
    """Full deterministic frontier with witnesses, depth strictly increasing:
    of the error against target, or of the advantage against h if given.

    One pass over the cubes in base-3 index order (see the module docstring)
    fills flat 3^m lists of masses, leaf statistics and frontiers, whose
    entries hold witness specs.  The DP guard is checked before any table is
    built, and Query nodes are built only for the root frontier's witnesses."""
    check_dp_guard(mu.n)  # before any table: mu must be on the target's n*k
    n, k, rows = output_rows(target)
    if h is not None and (not isinstance(target, BooleanFunction) or h.n != n):
        raise InvalidValue("a measure needs a scalar function on its variables")

    m = n * k
    if mu.n != m:
        raise DimensionMismatch(f"distribution on {mu.n} vars vs target on {m}")

    # a cube's leaf statistic is one int, so its halves merge by one add:
    # with two labels or fewer, the mass of the first (the other has the
    # rest); with more, every label's mass in a field of `width` bits, which
    # no cube's mass reaches
    width = 0
    if h is None:
        scale, weights = mu.scaled
        labels = sorted(set(rows))
        if len(labels) > 2:
            width = scale.bit_length()
            shift = {label: width * i for i, label in enumerate(labels)}
            point_stats = [w << shift[row] for w, row in zip(weights, rows)]
        else:
            point_stats = [w if row == labels[0] else 0 for w, row in zip(weights, rows)]
    else:
        # the noisy label is f with probability (1 + H) / 2, -f otherwise:
        # over 2*D*E, with (D, w) = mu.scaled and (E, v) = h.scaled, a point
        # has the mass 2*w*E and the label masses w*E + w*f*v and w*E - w*f*v
        (d, ws), (e, vs) = mu.scaled, h.scaled
        labels = [(1,), (-1,)]
        point_stats = [w * (e + y * v) for w, y, v in zip(ws, target.table, vs)]
        scale, weights = 2 * d * e, [2 * e * w for w in ws]
    field, shifts = (1 << width) - 1, [width * i for i in range(len(labels))]

    # cube c = sum of d_v * 3^v: digit 0 or 1 fixes v to that bit, 2 frees it
    free = [0]  # free[c]: the mask of c's free variables
    cubes = [0]  # cubes[p]: the cube of point p
    steps = [()]  # steps[mask]: (v, 3^v, 2 * 3^v) per variable v of mask, low to high
    for v in range(m):
        bit, pos = 1 << v, 3 ** v
        free = free + free + [f | bit for f in free]
        cubes = cubes + [c + pos for c in cubes]
        steps = steps + [s + ((v, pos, 2 * pos),) for s in steps]
    masses = [0] * len(free)
    stats = [None] * len(free)
    fronts = [None] * len(free)
    for c, w, stat in zip(cubes, weights, point_stats):
        masses[c], stats[c] = w, stat

    zero_front = ((0, 0, Leaf(tuple([1] * k))),)
    leaves = [Leaf(label) for label in labels]
    for c, f in enumerate(free):
        todo = steps[f]
        if todo:
            # the sum of the two halves on the lowest free variable
            _, pos, neg = todo[0]
            mass = masses[c] = masses[c - neg] + masses[c - pos]
            stat = stats[c] = stats[c - neg] + stats[c - pos]
        else:
            mass, stat = masses[c], stats[c]
        if mass == 0:
            fronts[c] = zero_front
            continue

        # the leaf guesses the first label of the greatest mass
        if width:
            fields = [stat >> s & field for s in shifts]
            top = max(fields)
            leaf_cost, leaf = mass - top, leaves[fields.index(top)]
        else:
            rest = mass - stat
            leaf_cost, leaf = (rest, leaves[0]) if stat >= rest else (stat, leaves[1])
        # cheapest (cost, var, neg, pos) per depth, first found on ties
        best: dict[int, tuple] = {}
        for v, pos, neg in todo:
            front_p = fronts[c - pos]
            for dn, cn, sn in fronts[c - neg]:
                base = mass + dn
                for dp, cp, sp in front_p:
                    cost = cn + cp
                    if cost >= leaf_cost:  # never beats the leaf at depth 0
                        continue
                    d = base + dp
                    got = best.get(d)
                    if got is None or cost < got[0]:
                        best[d] = (cost, v, sn, sp)
        # a kept candidate's witness is its (cost, var, neg, pos) spec
        kept = [(0, leaf_cost, leaf)]
        floor = leaf_cost
        for d in sorted(best):
            spec = best[d]
            if spec[0] < floor:
                kept.append((d, spec[0], spec))
                floor = spec[0]
        fronts[c] = kept

    memo: dict[int, Query] = {}
    points = tuple(
        FrontierPoint(Fraction(d, scale),
                      Fraction(cost if h is None else scale - 2 * cost, scale),
                      DecisionTree(n, k, _witness(spec, memo)))
        for d, cost, spec in fronts[-1])  # the root: every digit 2
    return ParetoFrontier(ERROR if h is None else ADVANTAGE, n, k, points)


def _witness(spec, memo: dict[int, Query]):
    """The node of a witness spec, a Leaf or a (cost, var, neg, pos) tuple:
    one Query per spec, memoized by identity, so specs that the DP shares
    give shared nodes."""
    if isinstance(spec, Leaf):
        return spec
    node = memo.get(id(spec))
    if node is None:
        _, v, neg, pos = spec
        node = memo[id(spec)] = Query(v, _witness(neg, memo), _witness(pos, memo))
    return node


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
    return [DecisionTree(n, 1, node) for node in _all_nodes(tuple(range(n)))]


def _all_nodes(avail: tuple[int, ...]) -> list:
    """Every scalar node querying only avail: the two leaves, then for each
    v the queries on v over every pair of nodes on the rest."""
    nodes = [Leaf((-1,)), Leaf((1,))]
    for v in avail:
        subs = _all_nodes(tuple(u for u in avail if u != v))
        for tn in subs:
            for tp in subs:
                nodes.append(Query(v, tn, tp))
    return nodes


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
