"""Sign fixing, block embedding, product trees, and parity constructions."""

import random
from fractions import Fraction

import pytest

from dtlab.errors import DimensionMismatch, GuardExceeded, InvalidValue
from dtlab.functions import (
    Distribution,
    constant_measure,
    dictator,
    direct_product,
    parity,
    product_power,
    uniform,
    xor_power,
)
from dtlab.instances import (
    random_distribution,
    random_function,
    random_measure,
    random_tree,
)
from dtlab.transforms import (
    embed_block_reduction,
    full_parity_product_tree,
    parity_mixture,
    product_tree,
    sign_fix_leaves,
)
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Query,
    _walk,
    correlation,
    cube_points,
    error,
    evaluate,
    expected_depth,
    leaves,
)

F = Fraction


def _weighted_corr(tree, f, h, mu, k):
    # sum over blocks of E[f(block) * label_block * H(block)] on the product
    prod = product_power(mu, k)
    total = F(0)
    for x in prod.support():
        lab = evaluate(tree, x)
        for i in range(k):
            b = (x >> (i * tree.n)) & ((1 << tree.n) - 1)
            total += prod.weights[x] * f.table[b] * lab[i] * h.values[b]
    return total


def test_sign_fix_is_idempotent_and_never_hurts():
    rng = random.Random(42)
    for _ in range(15):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        t = random_tree(rng, n, k)
        f = random_function(rng, n)
        h = random_measure(rng, n)
        mu = random_distribution(rng, n)
        fixed = sign_fix_leaves(t, f, h, mu)
        assert sign_fix_leaves(fixed, f, h, mu) == fixed
        assert _weighted_corr(fixed, f, h, mu, k) >= _weighted_corr(t, f, h, mu, k)


def test_sign_fix_flips_an_anti_correlated_label():
    t = DecisionTree(1, 1, Leaf((-1,)))
    f = dictator(1, 0)
    # balanced signed mass: already a fixpoint, nothing flips
    fixed = sign_fix_leaves(t, f, constant_measure(1, F(1)), uniform(1))
    assert fixed == DecisionTree(1, 1, Leaf((-1,)))
    skew = Distribution(1, (F(1, 4), F(3, 4)))
    fixed2 = sign_fix_leaves(t, f, constant_measure(1, F(1)), skew)
    assert fixed2 == DecisionTree(1, 1, Leaf((1,)))


def test_embedding_depth_identity():
    rng = random.Random(17)
    for _ in range(10):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        t = random_tree(rng, n, k)
        mu = random_distribution(rng, n)
        rt = embed_block_reduction(t, mu)
        assert sum(w for w, _ in rt.components) == 1
        prod = product_power(mu, k)
        assert k * expected_depth(rt, mu) == expected_depth(t, prod)


def test_embedding_of_single_block_is_identity():
    rng = random.Random(23)
    t = random_tree(rng, 3, 1)
    mu = random_distribution(rng, 3)
    rt = embed_block_reduction(t, mu)
    assert rt.components == ((F(1), t),)


def test_embedding_guard():
    t = full_parity_product_tree(4, 4)  # 16 variables
    with pytest.raises(GuardExceeded):
        embed_block_reduction(t, uniform(4))


# ---------------------------------------------------------------------------
# point-enumeration references for the factored leaf kernel

SWEEP_SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)] + [(2, 4), (2, 5)]


def _with_labels(tree, labels, n, k):
    """tree's query structure over k blocks of n vars, leaf labels in preorder."""
    new = iter(labels)

    def walk(node):
        if isinstance(node, Leaf):
            return Leaf(next(new))
        return Query(node.var, walk(node.neg), walk(node.pos))

    return DecisionTree(n, k, walk(tree.root))


def _ref_sign_fix(tree, f, h, mu):
    n, k = tree.n, tree.k
    mask_n = (1 << n) - 1
    labels = []
    for ref in leaves(tree):
        signed = [F(0)] * k
        for point in cube_points(tree.total_vars, ref.fixed_mask, ref.fixed_vals):
            blocks = [(point >> (i * n)) & mask_n for i in range(k)]
            w = F(1)
            for b in blocks:
                w *= mu.weights[b]
            for i, b in enumerate(blocks):
                signed[i] += w * f.table[b] * h.values[b]
        labels.append(tuple(-lab if lab * s < 0 else lab
                            for lab, s in zip(ref.label, signed)))
    return _with_labels(tree, labels, n, k)


def _block_matches(ref, i, n, x):
    for j in range(n):
        g = i * n + j
        if (ref.fixed_mask >> g) & 1 and ((ref.fixed_vals >> g) & 1) != ((x >> j) & 1):
            return False
    return True


def _ref_product_tree(t_xor, f, mu, k):
    n = f.n
    labels = []
    for ref in leaves(t_xor):
        label = []
        for i in range(k):
            cell = [x for x in range(1 << n) if _block_matches(ref, i, n, x)]
            mass = sum((mu.weights[x] for x in cell), F(0))
            if mass == 0:
                label = [1] * k
                break
            signed = sum((mu.weights[x] * f.table[x] for x in cell), F(0))
            label.append(1 if signed >= 0 else -1)
        labels.append(tuple(label))
    return _with_labels(t_xor, labels, n, k)


def test_sign_fix_and_product_tree_match_point_enumeration():
    flipped = unreached = 0
    for seed in range(6):
        rng = random.Random(5000 + seed)
        for n, k in SWEEP_SHAPES:
            f = random_function(rng, n)
            h = random_measure(rng, n)
            mu = random_distribution(rng, n)  # zero weights allowed
            t = random_tree(rng, n, k)
            want = _ref_sign_fix(t, f, h, mu)
            got = sign_fix_leaves(t, f, h, mu)
            assert [r.label for r in leaves(got)] == [r.label for r in leaves(want)]
            assert got == want
            flipped += want != t

            t_xor = random_tree(rng, n * k, 1)
            want = _ref_product_tree(t_xor, f, mu, k)
            got = product_tree(t_xor, f, mu, k)
            assert [r.label for r in leaves(got)] == [r.label for r in leaves(want)]
            assert got == want
            prod = product_power(mu, k)
            unreached += sum(
                1 for ref in leaves(t_xor)
                if all(prod.weights[p] == 0 for p in cube_points(
                    t_xor.total_vars, ref.fixed_mask, ref.fixed_vals)))
    assert flipped > 0 and unreached > 0


def test_product_tree_keeps_structure_and_beats_xor_success():
    rng = random.Random(31)
    for _ in range(15):
        n, k = rng.choice(((1, 2), (2, 2), (1, 3)))
        f = random_function(rng, n)
        mu = random_distribution(rng, n)
        t_xor = random_tree(rng, n * k, 1)
        built = product_tree(t_xor, f, mu, k)
        assert built.n == n and built.k == k
        prod = product_power(mu, k)
        for x in prod.support():
            assert _walk(built, x)[1] == _walk(t_xor, x)[1]
        succ = 1 - error(built, direct_product(f, k), prod)
        xor_corr = correlation(t_xor, xor_power(f, k), prod)
        assert succ >= xor_corr


def test_product_tree_labels_are_locally_optimal():
    rng = random.Random(59)
    n, k = 2, 2
    f = random_function(rng, n)
    mu = random_distribution(rng, n, allow_zeros=False)
    t_xor = random_tree(rng, n * k, 1)
    built = product_tree(t_xor, f, mu, k)
    prod = product_power(mu, k)
    target = direct_product(f, k)
    base = 1 - error(built, target, prod)
    labels = [ref.label for ref in leaves(built)]
    for li, lab in enumerate(labels):
        for blk in range(k):
            flipped = list(labels)
            flipped[li] = tuple(-v if i == blk else v for i, v in enumerate(lab))
            other = _with_labels(built, flipped, n, k)
            assert 1 - error(other, target, prod) <= base


def test_full_parity_tree_is_exact():
    for m in (1, 2, 3):
        t = full_parity_product_tree(m, 1)
        f = parity(m)
        for x in range(1 << m):
            assert evaluate(t, x) == (f.table[x],)
            assert _walk(t, x)[1] == m


def test_full_parity_product_tree_is_exact():
    t = full_parity_product_tree(2, 2)
    g = direct_product(parity(2), 2)
    for x in range(16):
        assert evaluate(t, x) == g.table[x]
        assert _walk(t, x)[1] == 4


def test_parity_mixture_exact_depth_and_error():
    n, k, gamma = 2, 2, F(1, 4)
    rt = parity_mixture(n, k, gamma)
    prod = product_power(uniform(n), k)
    g = direct_product(parity(n), k)
    assert expected_depth(rt, prod) == gamma * k * n
    assert error(rt, g, prod) == (1 - gamma) * (1 - F(1, 2 ** k))


def test_parity_mixture_gamma_one_is_deterministic():
    rt = parity_mixture(2, 2, 1)
    assert len(rt.components) == 1
    assert rt.components[0][0] == 1


def test_parity_mixture_rejects_bad_gamma():
    with pytest.raises(InvalidValue):
        parity_mixture(2, 2, 0)
    with pytest.raises(InvalidValue):
        parity_mixture(2, 2, F(3, 2))


def test_product_tree_block_width_validation():
    t = full_parity_product_tree(3, 1)
    with pytest.raises(DimensionMismatch):
        product_tree(t, parity(2), uniform(2), 2)  # 3 vars is not 2*2


@pytest.mark.parametrize("call, error, message", [
    (lambda: sign_fix_leaves(DecisionTree(3, 1, Leaf((1,))), parity(2),
                             constant_measure(2, F(1)), uniform(2)),
     DimensionMismatch, "sign_fix_leaves expects single-block f, h, mu"),
    (lambda: embed_block_reduction(DecisionTree(2, 2, Leaf((1, 1))), uniform(3)),
     DimensionMismatch, "mu must live on a single block"),
    (lambda: product_tree(DecisionTree(2, 2, Leaf((1, 1))), parity(2), uniform(2), 2),
     InvalidValue, "product_tree expects scalar leaves"),
], ids=["sign-fix-tree-width", "embed-multi-block-mu", "product-tree-vector-leaves"])
def test_transform_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message
