"""Decision trees over block-structured inputs, with exact leaf statistics.

A DecisionTree(n, k) queries variables in [0, n*k) and outputs a +-1 label of
width k at each leaf; block i owns variables [i*n, (i+1)*n).  Scalar trees are
the k=1 case.  A RandomizedTree is a finite rational mixture of deterministic
trees; every metric extends to mixtures by linearity.

Reaching a leaf fixes a subcube, so under a k-fold product input law the
leaf's conditional law factors across blocks (acceptance c07).  One private
kernel, _cell_sums, uses this for the per-leaf sums: leaf_stats and
relabel_leaves (which serves sign_fix_leaves and product_tree in transforms)
cost O(L*k*2^n) for L leaves instead of walking 2^(nk - depth) points per
leaf, and conditional_blocks_at_leaf filters mu's ints once per block.  Its
sums are ints, over mu's (Distribution.scaled, never rescaled) and each
table's least common denominator (h's is Measure.scaled), which it returns
with them.  A LeafStats row keeps its cell ints and builds its totals on
first read; a factor law keeps its ints and builds its weights so.  What
checks that factorization stays on point enumeration, so no check is
circular: the joint law that bounds.verify_leaf_product sums point by point
over each leaf's cube, and the block_error_law behind the lhs of
bounds.verify_accuracy_bound.

The exact metrics read the same scaled ints.  expected_depth, correlation
(over mu.scaled times h.scaled pointwise when h is given) and block_error_law
are each one int sum over the points, turned into one Fraction at the output.

Trees may share nodes, as reduced decision diagrams do: synth's DP reuses them.
Validity is per node, checked once when the node is built from its children's
stored shapes, so no invalid node exists and the sharing makes it cheap; one
artifact's trees share a node's JSON dict too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .errors import DimensionMismatch, InvalidValue, UnreachedLeaf
from .exactexp import _int, fraction_from_str, fraction_to_str
from .functions import (
    MAX_TABLE_VARS, BooleanFunction, Distribution, Measure, _check_var_count, output_rows)
from .records import Record

_ZERO = Fraction(0)


class Leaf(Record):
    label: tuple[int, ...]

    def __init__(self, label: tuple[int, ...]):
        if any(v not in (-1, 1) for v in label):
            raise InvalidValue("leaf labels must be +-1")
        fields = self.__dict__
        fields["label"], fields["shape"] = label, (0, len(label))


class Query(Record):
    var: int
    neg: "Leaf | Query"
    pos: "Leaf | Query"

    def __init__(self, var: int, neg: "Leaf | Query", pos: "Leaf | Query"):
        """Checked in O(1) from the children's stored shapes, each a pair
        (mask of the variables queried below, label width)."""
        if not 0 <= var < MAX_TABLE_VARS:
            raise InvalidValue(f"query variable {var} out of range [0,{MAX_TABLE_VARS})")
        (below, width), (pos_below, pos_width) = _shape(neg), _shape(pos)
        below |= pos_below
        if below >> var & 1:
            raise InvalidValue(f"variable {var} queried twice on one path")
        if pos_width != width:
            raise InvalidValue(f"leaf label width {pos_width} != {width}")
        fields = self.__dict__
        fields["var"], fields["neg"], fields["pos"] = var, neg, pos
        fields["shape"] = below | 1 << var, width


def _shape(node) -> tuple[int, int]:
    if not isinstance(node, (Leaf, Query)):
        raise InvalidValue(f"not a tree node: {node!r}")
    return node.shape


class DecisionTree(Record):
    n: int
    k: int
    root: "Leaf | Query"

    def __init__(self, n: int, k: int, root: "Leaf | Query"):
        if n < 0 or k < 1:
            raise InvalidValue(f"bad shape n={n}, k={k}")
        _check_var_count(n * k, "DecisionTree")
        below, width = _shape(root)
        if width != k:
            raise InvalidValue(f"leaf label width {width} != k={k}")
        if below >> n * k:
            raise InvalidValue(f"query variable {below.bit_length() - 1} out of range")
        fields = self.__dict__
        fields["n"], fields["k"], fields["root"] = n, k, root

    @property
    def total_vars(self) -> int:
        return self.n * self.k


class RandomizedTree(Record):
    components: tuple[tuple[Fraction, DecisionTree], ...]

    def __init__(self, components: tuple[tuple[Fraction, DecisionTree], ...]):
        if not components:
            raise InvalidValue("a randomized tree needs at least one component")
        if any(w <= 0 for w, _ in components):
            raise InvalidValue("component weights must be positive")
        if sum(w for w, _ in components) != 1:
            raise InvalidValue("component weights must sum to exactly 1")
        if len({(t.n, t.k) for _, t in components}) > 1:
            raise DimensionMismatch("mixture components disagree on (n, k)")
        self.__dict__["components"] = components


# ---------------------------------------------------------------------------
# evaluation and leaf enumeration


def _walk(tree: DecisionTree, point: int) -> tuple[tuple[int, ...], int]:
    """(label, path length) of the leaf the point reaches."""
    node, length = tree.root, 0
    while isinstance(node, Query):
        node = node.pos if (point >> node.var) & 1 else node.neg
        length += 1
    return node.label, length


def evaluate(tree: DecisionTree, point: int) -> tuple[int, ...]:
    return _walk(tree, point)[0]


class LeafRef(Record):
    """One leaf plus the subcube of inputs that reach it."""

    label: tuple[int, ...]
    fixed_mask: int
    fixed_vals: int

    def __init__(self, label: tuple[int, ...], fixed_mask: int, fixed_vals: int):
        fields = self.__dict__
        fields["label"], fields["fixed_mask"], fields["fixed_vals"] = label, fixed_mask, fixed_vals


def leaves(tree: DecisionTree) -> list[LeafRef]:
    """Every leaf in preorder, negative child first."""
    out: list[LeafRef] = []
    todo = [(tree.root, 0, 0)]  # popped last in, so the negative child goes on top
    while todo:
        node, mask, vals = todo.pop()
        if isinstance(node, Leaf):
            out.append(LeafRef(node.label, mask, vals))
        else:
            bit = 1 << node.var
            todo += (node.pos, mask | bit, vals | bit), (node.neg, mask | bit, vals)
    return out


def cube_points(total_vars: int, fixed_mask: int, fixed_vals: int):
    """All packed points of the subcube, free variables enumerated low-to-high."""
    free = [j for j in range(total_vars) if not (fixed_mask >> j) & 1]
    for assign in range(1 << len(free)):
        p = fixed_vals
        for idx, j in enumerate(free):
            if (assign >> idx) & 1:
                p |= 1 << j
        yield p


# ---------------------------------------------------------------------------
# exact metrics (all accept deterministic trees or mixtures)


def _mix(metric, rt, *args):
    return sum((w * metric(t, *args) for w, t in rt.components), _ZERO)


def expected_depth(tree, mu: Distribution) -> Fraction:
    """E_mu[path length], one int sum over mu.scaled."""
    if isinstance(tree, RandomizedTree):
        return _mix(expected_depth, tree, mu)
    if mu.n != tree.total_vars:
        raise DimensionMismatch(f"distribution on {mu.n} vars vs tree on {tree.total_vars}")
    scale, weights = mu.scaled
    return Fraction(sum(w * _walk(tree, x)[1] for x, w in enumerate(weights) if w), scale)


def _target_rows(tree, target, mu: Distribution):
    """The target's output rows, once its shape and mu's match the tree."""
    n, k, rows = output_rows(target)
    if (n, k) != (tree.n, tree.k):
        raise DimensionMismatch(
            f"target on {k} blocks of {n} vars vs tree on {tree.k} of {tree.n}")
    if mu.n != tree.total_vars:
        raise DimensionMismatch("distribution size mismatch")
    return rows


def error(tree, target, mu: Distribution) -> Fraction:
    """Probability that the full output tuple differs from the target."""
    return 1 - block_error_law(tree, target, mu)[0]


def correlation(tree, f: BooleanFunction, mu: Distribution,
                h: Measure | None = None) -> Fraction:
    """E_mu[f * T * H] for scalar trees, H = 1 when h is None: one int sum
    over mu.scaled, times h.scaled pointwise when h is given."""
    if isinstance(tree, RandomizedTree):
        return _mix(correlation, tree, f, mu, h)
    _target_rows(tree, f, mu)
    scale, weights = mu.scaled
    if h is not None:
        if h.n != mu.n:
            raise DimensionMismatch("measure and distribution sizes differ")
        e, values = h.scaled
        scale, weights = scale * e, map(mul, weights, values)
    return Fraction(sum(w * f.table[x] * evaluate(tree, x)[0]
                        for x, w in enumerate(weights) if w), scale)


def block_error_law(tree, target, mu: Distribution) -> tuple[Fraction, ...]:
    """Entry j: the mass of the points where exactly j of the k output
    coordinates differ from the target, by point enumeration."""
    if isinstance(tree, RandomizedTree):
        laws = [[w * v for v in block_error_law(t, target, mu)] for w, t in tree.components]
        return tuple(sum(col, _ZERO) for col in zip(*laws))
    rows = _target_rows(tree, target, mu)
    scale, weights = mu.scaled
    law = [0] * (tree.k + 1)
    for x, w in enumerate(weights):
        if w:
            law[sum(a != b for a, b in zip(evaluate(tree, x), rows[x]))] += w
    return tuple(Fraction(v, scale) for v in law)


# ---------------------------------------------------------------------------
# per-leaf hardcore statistics


class LeafStats(Record):
    """Exact conditional statistics of one positive-mass leaf against
    (f, H, mu^k), kept as ints: cells[i] = (S, H, G) are block i's cell sums
    of mu, mu*h and mu*f*h, over D, D*E and D*E for D mu's scale and E =
    scale, h's.  Block i's density is H/(S*E), its advantage |G|/(S*E) and
    its p = (H - |G|)/(2*S*E)."""

    reach: Fraction
    cells: tuple[tuple[int, int, int], ...]
    scale: int

    def __init__(self, reach: Fraction, cells: tuple[tuple[int, int, int], ...], scale: int):
        fields = self.__dict__
        fields["reach"], fields["cells"], fields["scale"] = reach, cells, scale

    def _p_ints(self) -> list[tuple[int, int]]:
        """Each block's p as an int pair (H - |G|, 2*S*E): no Fraction."""
        return [(h - abs(g), 2 * s * self.scale) for s, h, g in self.cells]

    @cached_property
    def dens_total(self) -> Fraction:
        return self._total(1)

    @cached_property
    def adv_total(self) -> Fraction:
        return self._total(2)

    def _total(self, j: int) -> Fraction:
        """sum_i |c_i| * (R/S_i) over E*R, for c_i cell i's H (j=1) or G (j=2)
        and R = prod S_i: the sum of the cells' |c_i|/(S_i*E) as one Fraction."""
        cells = self.cells
        r = prod(c[0] for c in cells)
        return Fraction(sum(abs(c[j]) * (r // c[0]) for c in cells), self.scale * r)


def _cell_sums(refs, n: int, k: int, mu: Distribution, tables
               ) -> tuple[tuple[int, ...], list[list[tuple[int, ...]]]]:
    """(scales, cells): per leaf, per block i, ints (S, T_1, ...) over the
    leaf's block-i cell {x : x & bm == bv}, bm and bv being block i's slices
    of fixed_mask and fixed_vals.  Each table is given scaled, as a pair
    (E_j, ints) whose ints over E_j are a single-block t_j.  For scales =
    (D, E_1, ...), D from mu.scaled, S/D is the cell's sum of mu and
    T_j/(D*E_j) its sum of mu*t_j.  mu-zero points are skipped, and each
    distinct cell is summed once."""
    mask = (1 << n) - 1
    scale, weights = mu.scaled
    rows = [(x, (w,) + tuple(w * t[x] for _, t in tables))
            for x, w in enumerate(weights) if w]
    zeros = (0,) * (1 + len(tables))
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    cells = []
    for ref in refs:
        cells.append(row := [])
        for i in range(k):
            bm, bv = (ref.fixed_mask >> (i * n)) & mask, (ref.fixed_vals >> (i * n)) & mask
            if (bm, bv) not in memo:
                memo[bm, bv] = tuple(map(sum, zip(zeros, *(r for x, r in rows if x & bm == bv))))
            row.append(memo[bm, bv])
    return (scale,) + tuple(e for e, _ in tables), cells


def relabel_leaves(tree: DecisionTree, n: int, k: int, mu: Distribution,
                   tables, label) -> DecisionTree:
    """tree's query structure read as k blocks of n variables, each leaf
    relabelled label(old label, cells), cells being the leaf's per-block
    _cell_sums against mu and the scaled tables.  The sums are scaled by
    positive ints, so their signs and zeros are the true sums'."""
    refs = leaves(tree)
    new = iter([label(ref.label, cells)
                for ref, cells in zip(refs, _cell_sums(refs, n, k, mu, tables)[1])])
    return DecisionTree(n, k, _relabelled(tree.root, new))


def _relabelled(node, new):
    """node rebuilt with the next label of the iterator `new` at each leaf,
    in preorder."""
    if isinstance(node, Leaf):
        return Leaf(next(new))
    return Query(node.var, _relabelled(node.neg, new), _relabelled(node.pos, new))


def leaf_stats(tree: DecisionTree, f: BooleanFunction, h: Measure,
               mu: Distribution) -> list[LeafStats]:
    """Per-block density, advantage and p = (dens-adv)/2 at every reached leaf.

    mu and h live on a single block (n variables); inputs are drawn from the
    k-fold product of mu.  dens is the conditional mass of h on a block, and
    adv the absolute conditional correlation of the leaf's label with f on
    that block.  One row per positive-mass leaf, in preorder; zero-mass
    leaves are left out.

    The leaf law factors across blocks, so with S, H, G the block cell's
    sums of mu, mu*h and mu*f*h: reach = prod S, dens = H/S and adv = |G|/S.
    reach is built here; each row keeps its cells' ints (LeafStats.cells)
    and builds dens_total and adv_total from them on first read.  Cost
    O(L*k*2^n) for L leaves.
    """
    n, k = tree.n, tree.k
    if f.n != n or h.n != n or mu.n != n:
        raise DimensionMismatch("leaf_stats expects single-block f, h, mu")
    eh, hs = h.scaled  # f*h has h's scale
    (scale, _, _), per_leaf = _cell_sums(
        leaves(tree), n, k, mu, ((eh, hs), (eh, tuple(map(mul, f.table, hs)))))
    reach_den = scale ** k
    out: list[LeafStats] = []
    for cells in per_leaf:
        reach = prod(c[0] for c in cells)
        if reach:
            out.append(LeafStats(Fraction(reach, reach_den), tuple(cells), eh))
    return out


def conditional_blocks_at_leaf(tree: DecisionTree, mu: Distribution,
                               ref: LeafRef) -> tuple[Distribution, ...]:
    """Per-block conditional input laws at a leaf, under the product of mu.

    Because the source is a product distribution and reaching a leaf fixes a
    subcube, the conditional law factors across blocks; this returns the k
    factors (mu renormalized on each block cell) at cost O(k*2^n).  ref is
    the leaf's LeafRef from leaves(tree).  Requesting the factors at a
    zero-mass leaf raises UnreachedLeaf.
    """
    n, k = tree.n, tree.k
    if mu.n != n:
        raise DimensionMismatch("conditional_blocks_at_leaf expects single-block mu")
    mask = (1 << n) - 1
    weights = mu.scaled[1]
    factors = []
    for i in range(k):
        bm, bv = (ref.fixed_mask >> (i * n)) & mask, (ref.fixed_vals >> (i * n)) & mask
        ints = tuple(w if x & bm == bv else 0 for x, w in enumerate(weights))
        total = sum(ints)
        if total == 0:
            raise UnreachedLeaf(f"leaf on subcube {ref.fixed_mask:#x}/{ref.fixed_vals:#x} "
                                "has zero reach probability")
        factors.append(Distribution._of_ints(n, total, ints))
    return tuple(factors)


# ---------------------------------------------------------------------------
# serialization


def _trees_to_json(trees) -> list[dict]:
    """One JSON dict per tree, memoized by object identity across them all,
    so a node or tree met again yields the same dict.  (A structural hash
    of a frozen node walks its whole subtree.)"""
    memo: dict[int, dict] = {}
    return [_to_json(t, memo) for t in trees]


def _to_json(x, memo: dict[int, dict]) -> dict:
    d = memo.get(id(x))
    if d is None:
        if isinstance(x, Leaf):
            d = {"leaf": list(x.label)}
        elif isinstance(x, Query):
            d = {"q": x.var, "neg": _to_json(x.neg, memo), "pos": _to_json(x.pos, memo)}
        else:
            d = {"n": x.n, "k": x.k, "root": _to_json(x.root, memo)}
        memo[id(x)] = d
    return d


def _node_from_json(obj, depth: int = 0):
    """The node of a dict with `depth` queries above it.  A path of more than
    MAX_TABLE_VARS queries repeats a variable, so a deep crafted chain is
    refused at that depth instead of read down to its bottom."""
    if "leaf" in obj:
        return Leaf(tuple(_int(v, "leaf label") for v in obj["leaf"]))
    if depth == MAX_TABLE_VARS:
        raise InvalidValue(f"more than {MAX_TABLE_VARS} queries on one path: "
                           "a variable is queried twice on one path")
    return Query(_int(obj["q"], "q"), _node_from_json(obj["neg"], depth + 1),
                 _node_from_json(obj["pos"], depth + 1))


def tree_from_json(obj: dict) -> DecisionTree:
    return DecisionTree(_int(obj["n"], "n"), _int(obj["k"], "k"),
                        _node_from_json(obj["root"]))


def randomized_tree_to_json(rt: RandomizedTree) -> list:
    dicts = _trees_to_json([t for _, t in rt.components])
    return [{"w": fraction_to_str(w), "tree": d} for (w, _), d in zip(rt.components, dicts)]


def randomized_tree_from_json(items) -> RandomizedTree:
    comps = tuple((fraction_from_str(c["w"]), tree_from_json(c["tree"])) for c in items)
    return RandomizedTree(comps)
