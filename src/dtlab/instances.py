"""Seeded random instances for the verification suites.

Everything is driven by an explicit random.Random so a seed pins the entire
instance stream; scenario reports stay byte-identical across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidValue
from .functions import BooleanFunction, Distribution, Measure
from .trees import DecisionTree, Leaf, Query
from .transforms import sign_fix_leaves

_DENOMS = (2, 3, 4, 5, 8)


def random_function(rng: random.Random, n: int) -> BooleanFunction:
    return BooleanFunction(
        n, tuple(rng.choice((1, -1)) for _ in range(1 << n)))


def random_distribution(rng: random.Random, n: int, *,
                        allow_zeros: bool = True) -> Distribution:
    lo = 0 if allow_zeros else 1
    raw = [rng.randrange(lo, 7) for _ in range(1 << n)]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return Distribution(n, tuple(Fraction(v, total) for v in raw))


def random_measure(rng: random.Random, n: int) -> Measure:
    den = rng.choice(_DENOMS)
    return Measure(
        n, tuple(Fraction(rng.randrange(0, den + 1), den) for _ in range(1 << n)))


def random_tree(rng: random.Random, n: int, k: int) -> DecisionTree:
    """A random tree over k blocks of n variables with k-wide leaf labels.

    Each node is a leaf with chance 0.35, so depth profiles vary; the root
    is re-rolled a few times to avoid a bare-leaf bias at small sizes.
    """
    root = _random_node(rng, list(range(n * k)), k)
    for _ in range(3):
        if isinstance(root, Query):
            break
        root = _random_node(rng, list(range(n * k)), k)
    return DecisionTree(n, k, root)


def _random_node(rng: random.Random, avail: list[int], k: int):
    """A random subtree querying only avail, its negative child drawn first."""
    if not avail or rng.random() < 0.35:
        return Leaf(tuple(rng.choice((1, -1)) for _ in range(k)))
    var = avail[rng.randrange(len(avail))]
    rest = [v for v in avail if v != var]
    return Query(var, _random_node(rng, rest, k), _random_node(rng, rest, k))


@lru_cache(maxsize=1)
def standard_verification_instances(seed: int, count: int):
    """The shared (tree, measure, distribution) stream for the leaf-statistics
    suites: n <= 3, k <= 3, all rational, reproducible from the seed.

    A tuple of (tree, f, h, mu) tuples; f is drawn alongside even though the
    density checks ignore it, so the same seed serves every criterion.  The
    last stream built is kept and shared, so that two scenarios on one seed
    build it once: its records are immutable, and a miss that two threads
    compute at once gives equal values.  run_config drops it once its
    scenarios have run.
    """
    if count < 1:
        raise InvalidValue("need a positive instance count")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        tree = random_tree(rng, n, k)
        f = random_function(rng, n)
        h = random_measure(rng, n)
        mu = random_distribution(rng, n)
        out.append((tree, f, h, mu))
    return tuple(out)


def sign_fixed_instances(seed: int, count: int):
    """(tree, f, h, mu) with the tree already sign-fixed, sized so the exact
    block embedding stays cheap."""
    rng = random.Random(seed)
    shapes = ((1, 2), (2, 2), (1, 3), (2, 3), (3, 2))
    out = []
    for _ in range(count):
        n, k = shapes[rng.randrange(len(shapes))]
        f = random_function(rng, n)
        h = random_measure(rng, n)
        mu = random_distribution(rng, n)
        tree = sign_fix_leaves(random_tree(rng, n, k), f, h, mu)
        out.append((tree, f, h, mu))
    return out


def leaf_product_instances(seed: int, count: int):
    """(tree, mu) pairs over at most 10 total variables."""
    rng = random.Random(seed)
    shapes = ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (2, 4), (2, 5))
    out = []
    for _ in range(count):
        n, k = shapes[rng.randrange(len(shapes))]
        out.append((random_tree(rng, n, k), random_distribution(rng, n)))
    return out


def xor_tree_instances(seed: int, count: int):
    """(tree, f, mu, k) with scalar trees spanning k blocks, for the
    product-tree inequality; shapes cycle through (1,2), (2,2), (1,3)."""
    rng = random.Random(seed)
    shapes = ((1, 2), (2, 2), (1, 3))
    out = []
    for i in range(count):
        n, k = shapes[i % len(shapes)]
        f = random_function(rng, n)
        mu = random_distribution(rng, n)
        tree = random_tree(rng, n * k, 1)
        out.append((tree, f, mu, k))
    return out
