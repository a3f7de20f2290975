"""Structure-level tree transforms between single-block and k-block views.

Points over n*k variables are read as k blocks of n bits each; block i
occupies bits i*n .. i*n+n-1.  Every transform here preserves exact rational
semantics: nothing here samples.  The two leaf relabelings, sign_fix_leaves
and product_tree, only choose labels; trees.relabel_leaves supplies each
leaf's block-cell sums and rebuilds the tree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, GuardExceeded, InvalidValue
from .functions import BooleanFunction, Distribution, Measure
from .trees import DecisionTree, Leaf, Query, RandomizedTree, relabel_leaves

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Exact embedding enumerates mu-support^(k-1) fillers per block choice.
MAX_EMBED_VARS = 14


def sign_fix_leaves(tree: DecisionTree, f: BooleanFunction, h: Measure,
                    mu: Distribution) -> DecisionTree:
    """Flip leaf labels per block wherever the signed conditional correlation
    of the label with f, weighted by h, is negative under the k-fold product
    of mu.

    Absolute advantage statistics are unchanged, every per-block signed
    advantage of the result is nonnegative, and labels whose signed
    correlation is zero are kept, so already-fixed trees are fixpoints.
    """
    n, k = f.n, tree.k
    if tree.n != n or h.n != n or mu.n != n:
        raise DimensionMismatch("sign_fix_leaves expects single-block f, h, mu")
    # The signed correlation on block i is the product of the other blocks'
    # cell masses times block i's cell sum of mu*f*h, so it has that sum's
    # sign when the leaf is reached and is 0 (keep the label) when it is not.
    e, hs = h.scaled
    fh = (e, tuple(map(mul, f.table, hs)))  # f*h has h's scale

    def fixed(label, cells):
        reached = all(s != 0 for s, _ in cells)
        return tuple(-lab if reached and lab * g < 0 else lab
                     for lab, (_, g) in zip(label, cells))

    return relabel_leaves(tree, n, k, mu, (fh,), fixed)


def _induced_tree(node, filler: int, i: int, n: int):
    """Collapse a k-block node to block i, answering other blocks from filler."""
    if isinstance(node, Leaf):
        return Leaf((node.label[i],))
    block, j = divmod(node.var, n)
    if block == i:
        return Query(j, _induced_tree(node.neg, filler, i, n),
                     _induced_tree(node.pos, filler, i, n))
    child = node.pos if (filler >> node.var) & 1 else node.neg
    return _induced_tree(child, filler, i, n)


def embed_block_reduction(tree: DecisionTree, mu: Distribution) -> RandomizedTree:
    """The single-block randomized tree that embeds its input into a uniformly
    random block and fills the remaining blocks from mu.

    Enumerates every (block, filler) pair with positive weight and merges
    identical induced trees; the expected depth under mu is exactly 1/k of
    the source tree's under the k-fold product, and on sign-fixed source
    trees the h-weighted correlation with f is exactly 1/k of the expected
    total leaf advantage.
    """
    n, k = tree.n, tree.k
    if mu.n != n:
        raise DimensionMismatch("mu must live on a single block")

    if tree.total_vars > MAX_EMBED_VARS:
        raise GuardExceeded(
            f"{tree.total_vars} variables exceeds the embedding guard {MAX_EMBED_VARS}")
    components: dict[DecisionTree, Fraction] = {}
    share = Fraction(1, k)
    support = mu.support()
    for i in range(k):
        others = [j for j in range(k) if j != i]
        for combo in itertools.product(support, repeat=k - 1):
            w = share
            filler = 0
            for j, b in zip(others, combo):
                w *= mu.weights[b]
                filler |= b << (j * n)
            small = DecisionTree(n, 1, _induced_tree(tree.root, filler, i, n))
            components[small] = components.get(small, _ZERO) + w
    return RandomizedTree(tuple((w, t) for t, w in components.items()))


def product_tree(t_xor: DecisionTree, f: BooleanFunction, mu: Distribution,
                 k: int) -> DecisionTree:
    """Vector-label the leaves of a scalar k-block tree by per-block signs.

    The query structure is kept; each leaf's label entry i becomes the sign
    (ties resolved to +1) of the conditional mean of f on block i given the
    leaf's cube, under the k-fold product of mu.  Leaves unreachable under
    that product get the all-ones label.
    """
    if t_xor.k != 1:
        raise InvalidValue("product_tree expects scalar leaves")
    n = f.n
    if t_xor.n != n * k or mu.n != n:
        raise DimensionMismatch("tree must span k blocks of f's variables")

    def signs(_label, cells):
        if any(s == 0 for s, _ in cells):
            return (1,) * k
        return tuple(1 if g >= 0 else -1 for _, g in cells)

    return relabel_leaves(t_xor, n, k, mu, ((1, f.table),), signs)


# ---------------------------------------------------------------------------
# parity constructions


def full_parity_product_tree(n: int, k: int) -> DecisionTree:
    """Query all k*n variables; leaf labels are the k per-block parities."""
    return DecisionTree(n, k, _parity_node(0, (1,) * k, n, k))


def _parity_node(var: int, accs: tuple[int, ...], n: int, k: int):
    """The full parity subtree from variable var on, accs holding the block
    parities of the variables above it."""
    if var == n * k:
        return Leaf(accs)
    b = var // n
    flipped = accs[:b] + (-accs[b],) + accs[b + 1:]
    return Query(var, _parity_node(var + 1, flipped, n, k), _parity_node(var + 1, accs, n, k))


def parity_mixture(n: int, k: int, gamma) -> RandomizedTree:
    """With probability gamma query everything and answer every block parity
    exactly; otherwise answer the all-ones vector without looking."""
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise InvalidValue(f"gamma must lie in (0,1], got {gamma}")
    full = full_parity_product_tree(n, k)
    if gamma == 1:
        return RandomizedTree(((_ONE, full),))
    lazy = DecisionTree(n, k, Leaf((1,) * k))
    return RandomizedTree(((gamma, full), (_ONE - gamma, lazy)))
