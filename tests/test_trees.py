"""Tree structure, evaluation semantics, exact metrics, and leaf statistics."""

import gc
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab.errors import DimensionMismatch, InvalidValue, UnreachedLeaf
from dtlab.functions import (
    Distribution,
    VectorFunction,
    constant_measure,
    dictator,
    direct_product,
    parity,
    product_power,
    uniform,
)
from dtlab.instances import (
    random_distribution,
    random_function,
    random_measure,
    random_tree,
)
from dtlab.synth import enumerate_all_trees, pareto_frontier
from dtlab.transforms import full_parity_product_tree, product_tree, sign_fix_leaves
from dtlab.trees import (
    DecisionTree,
    Leaf,
    LeafRef,
    LeafStats,
    Query,
    RandomizedTree,
    _walk,
    block_error_law,
    conditional_blocks_at_leaf,
    correlation,
    cube_points,
    error,
    evaluate,
    expected_depth,
    leaf_stats,
    leaves,
    randomized_tree_from_json,
    randomized_tree_to_json,
    tree_from_json,
    tree_to_json,
)

import random


def _leaf_reach(tree, mu):
    """Reach probability of every leaf in preorder by point enumeration,
    zero-mass leaves included."""
    return [sum((mu.weights[p] for p in cube_points(
                tree.total_vars, ref.fixed_mask, ref.fixed_vals)), Fraction(0))
            for ref in leaves(tree)]


def _hand_correlation(tree, f, mu, h):
    return sum(mu.weights[x] * f.table[x] * evaluate(tree, x)[0] * h.values[x]
               for x in range(1 << f.n))


def _xor_tree():
    # queries x0 then x1, leaf labels the exact parity
    def leaf(v):
        return Leaf((v,))
    return DecisionTree(2, 1, Query(0,
        Query(1, leaf(1), leaf(-1)),
        Query(1, leaf(-1), leaf(1))))


def test_evaluate_follows_set_bit_to_pos_child():
    t = DecisionTree(1, 1, Query(0, Leaf((-1,)), Leaf((1,))))
    assert evaluate(t, 0b1) == (1,)
    assert evaluate(t, 0b0) == (-1,)


def test_xor_tree_computes_parity():
    t = _xor_tree()
    f = parity(2)
    for x in range(4):
        assert evaluate(t, x) == (f.table[x],)
        assert _walk(t, x)[1] == 2


def test_repeated_query_on_a_path_is_rejected():
    with pytest.raises(InvalidValue):
        DecisionTree(2, 1, Query(0, Query(0, Leaf((1,)), Leaf((1,))), Leaf((1,))))


def test_label_width_must_match_k():
    with pytest.raises(InvalidValue):
        DecisionTree(1, 2, Leaf((1,)))


def test_out_of_range_variable_rejected():
    with pytest.raises(InvalidValue):
        DecisionTree(1, 1, Query(3, Leaf((1,)), Leaf((1,))))


def _spec(node):
    """The node as a plain tuple spec: ("leaf", label) or ("q", var, neg, pos)."""
    if isinstance(node, Leaf):
        return ("leaf", node.label)
    return ("q", node.var, _spec(node.neg), _spec(node.pos))


def _build(spec):
    """The nodes of a spec, built bottom-up; ("raw", x) stands for x itself."""
    if spec[0] == "leaf":
        return Leaf(spec[1])
    if spec[0] == "q":
        return Query(spec[1], _build(spec[2]), _build(spec[3]))
    return spec[1]


def _validate(spec, total_vars: int, k: int, used: int) -> None:
    # Reference check on a spec, independent of trees.py: a top-down walk
    # that carries the mask of the variables queried above the node.
    if spec[0] == "leaf":
        if len(spec[1]) != k:
            raise InvalidValue(f"leaf label width {len(spec[1])} != k={k}")
        if any(v not in (-1, 1) for v in spec[1]):
            raise InvalidValue("leaf labels must be +-1")
        return
    if spec[0] != "q":
        raise InvalidValue(f"not a tree node: {spec[1]!r}")
    _, var, neg, pos = spec
    if not 0 <= var < total_vars:
        raise InvalidValue(f"query variable {var} out of range [0,{total_vars})")
    bit = 1 << var
    if used & bit:
        raise InvalidValue(f"variable {var} queried twice on one path")
    _validate(neg, total_vars, k, used | bit)
    _validate(pos, total_vars, k, used | bit)


def _raised(check):
    try:
        check()
    except Exception as exc:
        return type(exc)
    return None


def _leaf_paths(spec, path=()):
    """(path, variables queried above) for every leaf of a spec, a path being
    the spec indices 2 (neg) and 3 (pos) of its steps."""
    if spec[0] == "leaf":
        return [(path, ())]
    return [(p, (spec[1],) + above) for side in (2, 3)
            for p, above in _leaf_paths(spec[side], path + (side,))]


def _replace_at(spec, path, new):
    if not path:
        return new
    side, rest = path[0], path[1:]
    return spec[:side] + (_replace_at(spec[side], rest, new),) + spec[side + 1:]


def _mutations(rng, root, n, k):
    """One invalid copy of spec root per kind of fault, each planted at a
    random leaf."""
    path, above = rng.choice(_leaf_paths(root))
    leaf = ("leaf", tuple(rng.choice((1, -1)) for _ in range(k)))
    repeat = rng.choice(above) if above else 0
    planted = {
        "repeat": ("q", repeat, leaf, leaf),
        "past-n*k": ("q", n * k + rng.choice((0, 1, 30, 10**12)), leaf, leaf),
        "negative": ("q", -rng.randrange(1, 4), leaf, leaf),
        "mixed-width": ("leaf", leaf[1] + (1,)),
        "label-0": ("leaf", (0,) + leaf[1][1:]),
        "not-a-node": ("raw", rng.choice(
            (None, (1,) * k, 1, DecisionTree(n, k, Leaf(leaf[1]))))),
    }
    out = {kind: _replace_at(root, path, spec) for kind, spec in planted.items()}
    if not above:  # a bare leaf has no variable above it to repeat
        out["repeat"] = ("q", 0, ("q", 0, leaf, leaf), leaf)
    return out


def test_node_shapes_accept_and_reject_as_the_top_down_walk():
    # No invalid node can be built, so each fault is planted in a spec, and
    # the spec's nodes are built bottom-up under the check.
    rng = random.Random(20260)
    shapes = [(n, k) for n in range(1, 6) for k in range(1, 4) if n * k <= 10]
    for _ in range(2000):
        n, k = rng.choice(shapes)
        root = _spec(random_tree(rng, n, k).root)
        cases = {"valid": root, **_mutations(rng, root, n, k)}
        for kind, spec in cases.items():
            expected = _raised(lambda: _validate(spec, n * k, k, 0))
            assert expected is (None if kind == "valid" else InvalidValue), kind
            assert _raised(lambda: DecisionTree(n, k, _build(spec))) is expected, (kind, spec)


def test_error_messages_name_the_fault():
    leaf = Leaf((1,))
    for build, phrase in [
            (lambda: Query(0, Query(0, leaf, leaf), leaf), "queried twice on one path"),
            (lambda: Query(2, leaf, leaf), "out of range"),
            (lambda: Query(-1, leaf, leaf), "out of range"),
            (lambda: Query(0, leaf, Leaf((1, 1))), "leaf label width"),
            (lambda: Leaf((1, 1)), "leaf label width"),
            (lambda: Query(0, leaf, "leaf"), "not a tree node"),
            (lambda: Leaf((0,)), "+-1")]:
        with pytest.raises(InvalidValue, match=re.escape(phrase)):
            DecisionTree(2, 1, build())


def _chain(variables):
    node = Leaf((1,))
    for v in variables:
        node = Query(v, Leaf((1,)), node)
    return node


@pytest.mark.parametrize("length", [300, 400, 2000])
def test_a_long_query_chain_is_refused_without_recursing_down_it(length):
    # No path has more than MAX_TABLE_VARS = 24 queries without a repeat, and
    # each node is checked as it is built, so the chain stops at its 25th.
    with pytest.raises(InvalidValue, match="queried twice on one path"):
        DecisionTree(24, 1, _chain(i % 24 for i in range(length)))
    DecisionTree(24, 1, _chain(range(24)))


def test_shape_checks_in_threads_keep_their_own_depth():
    # 24-query chains built side by side, switching often, must not add up
    # to a refusal: each node is checked from its own children's stored
    # shapes, so no check state is shared between threads.
    errors = []

    def check():
        try:
            for _ in range(100):
                DecisionTree(24, 1, _chain(range(24)))
        except InvalidValue as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


def _node_ids(roots):
    """The ids of the distinct nodes below the roots."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Query):
                stack += [node.neg, node.pos]
    return seen


def test_a_shared_node_is_checked_once(monkeypatch):
    computed = []  # (node, constructor arguments) per check
    for cls in (Leaf, Query):
        def counted(node, *args, check=cls.__init__):
            computed.append((node, args))
            check(node, *args)
        monkeypatch.setattr(cls, "__init__", counted)

    front = pareto_frontier(parity(7), uniform(7))
    roots = [p.tree.root for p in front.points]
    checked = {id(node) for node, _ in computed}
    assert 0 < len(computed) == len(checked)
    assert _node_ids(roots) <= checked
    computed.clear()
    for root in roots:
        DecisionTree(7, 1, root)
    assert computed == []
    leaf = Leaf((1,))
    inner = Query(0, leaf, leaf)
    computed.clear()
    for builds in (1, 2):
        with pytest.raises(InvalidValue, match="queried twice"):
            Query(0, inner, leaf)
        assert len(computed) == builds and computed[-1][1][1] is inner  # (var, neg, pos)


def test_leaves_are_preorder_negative_child_first():
    t = _xor_tree()
    refs = leaves(t)
    assert [r.label for r in refs] == [(1,), (-1,), (-1,), (1,)]
    # first leaf: both bits clear
    assert refs[0].fixed_mask == 0b11 and refs[0].fixed_vals == 0b00
    assert refs[3].fixed_mask == 0b11 and refs[3].fixed_vals == 0b11
    assert all(r.fixed_mask == 0b11 for r in refs)


def test_tree_walks_and_builders_leave_no_cyclic_garbage():
    # no recursive closure: nothing a call leaves behind waits for the
    # cyclic collector to be freed
    full = full_parity_product_tree(5, 1)
    f, mu, h = parity(5), uniform(5), constant_measure(5, Fraction(1, 3))
    calls = [
        lambda: leaves(full),
        lambda: sign_fix_leaves(full, f, h, mu),
        lambda: product_tree(full_parity_product_tree(4, 1), parity(2), uniform(2), 2),
        lambda: full_parity_product_tree(3, 2),
        lambda: random_tree(random.Random(5), 3, 2),
        lambda: enumerate_all_trees(2),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(10):
                call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_cube_points_enumerates_the_subcube():
    pts = list(cube_points(3, 0b101, 0b100))
    assert sorted(pts) == [0b100, 0b110]


def test_expected_depth_and_error_match_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 3)
        t = random_tree(rng, n, 1)
        f = random_function(rng, n)
        mu = random_distribution(rng, n)
        h = random_measure(rng, n)
        depth = sum(mu.weights[x] * _walk(t, x)[1] for x in range(1 << n))
        err = sum(mu.weights[x] for x in range(1 << n)
                  if evaluate(t, x)[0] != f.table[x])
        assert expected_depth(t, mu) == depth
        assert error(t, f, mu) == err
        assert correlation(t, f, mu) == 1 - 2 * err
        corr_h = _hand_correlation(t, f, mu, h)
        assert correlation(t, f, mu, h) == corr_h
        # a mixture's h-weighted correlation averages its components'
        other = random_tree(rng, n, 1)
        w = Fraction(rng.randint(1, 9), 10)
        rt = RandomizedTree(((w, t), (1 - w, other)))
        assert correlation(rt, f, mu, h) == (
            w * corr_h + (1 - w) * _hand_correlation(other, f, mu, h))
        assert correlation(rt, f, mu) == w * (1 - 2 * err) + (1 - w) * (
            1 - 2 * error(other, f, mu))


def _wrong_blocks_mass(tree, rows, mu, j):
    """Mass of the points where exactly j output coordinates are wrong."""
    return sum((mu.weights[x] for x in range(1 << tree.total_vars)
                if sum(a != b for a, b in zip(evaluate(tree, x), rows[x])) == j),
               Fraction(0))


def test_block_error_law_counts_block_mistakes():
    n, k = 1, 3
    t = DecisionTree(n, k, Query(0, Leaf((-1, 1, 1)), Leaf((1, 1, -1))))
    mu = product_power(uniform(1), k)
    vf = direct_product(dictator(1, 0), 3)
    law = block_error_law(t, vf, mu)
    assert law == tuple(_wrong_blocks_mass(t, vf.table, mu, j) for j in range(k + 1))
    assert law == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), Fraction(0))


def test_block_error_law_matches_point_enumeration_on_seeded_instances():
    rng = random.Random(1313)
    for n, k in ((1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (1, 5)):
        for _ in range(8):
            tree, other = random_tree(rng, n, k), random_tree(rng, n, k)
            target = VectorFunction(n, k, tuple(
                tuple(rng.choice((1, -1)) for _ in range(k)) for _ in range(1 << (n * k))))
            mu = random_distribution(rng, n * k, allow_zeros=True)
            law = block_error_law(tree, target, mu)
            assert len(law) == k + 1 and sum(law) == 1
            assert law == tuple(_wrong_blocks_mass(tree, target.table, mu, j)
                                for j in range(k + 1))
            # a mixture's law averages its components'; error is 1 - law[0]
            w = Fraction(rng.randint(1, 9), 10)
            rt = RandomizedTree(((w, tree), (1 - w, other)))
            mixed = tuple(w * a + (1 - w) * _wrong_blocks_mass(other, target.table, mu, j)
                          for j, a in enumerate(law))
            assert block_error_law(rt, target, mu) == mixed
            assert error(tree, target, mu) == 1 - law[0]
            assert error(rt, target, mu) == 1 - mixed[0]


def test_mixture_metrics_average_components():
    t1 = DecisionTree(2, 1, Leaf((1,)))
    t2 = _xor_tree()
    rt = RandomizedTree(((Fraction(1, 3), t1), (Fraction(2, 3), t2)))
    mu = uniform(2)
    f = parity(2)
    assert expected_depth(rt, mu) == Fraction(2, 3) * 2
    assert error(rt, f, mu) == Fraction(1, 3) * error(t1, f, mu)


def test_mixture_weights_must_sum_to_one():
    t = DecisionTree(1, 1, Leaf((1,)))
    with pytest.raises(InvalidValue):
        RandomizedTree(((Fraction(1, 2), t),))


def test_leaf_distribution_sums_to_one():
    rng = random.Random(3)
    for _ in range(10):
        t = random_tree(rng, 2, 2)
        mu = product_power(random_distribution(rng, 2), 2)
        dist = _leaf_reach(t, mu)
        assert sum(dist) == 1
        assert all(w >= 0 for w in dist)


def test_leaf_stats_identities():
    rng = random.Random(11)
    for _ in range(15):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        t = random_tree(rng, n, k)
        f = random_function(rng, n)
        h = random_measure(rng, n)
        mu = random_distribution(rng, n)
        stats = leaf_stats(t, f, h, mu)
        reach = sum(s.reach for s in stats)
        assert reach == 1
        for s in stats:
            assert s.reach > 0
            for i in range(k):
                assert 0 <= s.dens[i] <= 1
                assert 0 <= s.adv[i] <= s.dens[i]
                assert s.p[i] == (s.dens[i] - s.adv[i]) / 2
            assert s.dens_total == sum(s.dens)
            assert s.adv_total == sum(s.adv)


def test_leaf_stats_on_exact_parity_tree():
    t = _xor_tree()
    f = parity(2)
    h = constant_measure(2, Fraction(1, 2))
    mu = uniform(2)
    for s in leaf_stats(t, f, h, mu):
        assert s.reach == Fraction(1, 4)
        assert s.dens == (Fraction(1, 2),)
        # the leaf label equals f on the whole cell, so adv == dens
        assert s.adv == (Fraction(1, 2),)


def test_conditional_blocks_factorize():
    rng = random.Random(5)
    for _ in range(10):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        t = random_tree(rng, n, k)
        mu = random_distribution(rng, n, allow_zeros=False)
        prod = product_power(mu, k)
        for ref, reach in zip(leaves(t), _leaf_reach(t, prod)):
            if reach == 0:
                continue
            factors = conditional_blocks_at_leaf(t, mu, ref)
            cell = [p for p in cube_points(t.total_vars, ref.fixed_mask, ref.fixed_vals)]
            mass = sum(prod.weights[p] for p in cell)
            for p in cell:
                joint = prod.weights[p] / mass
                split = Fraction(1)
                for i in range(k):
                    split *= factors[i].weights[(p >> (i * n)) & ((1 << n) - 1)]
                assert joint == split


def test_conditional_blocks_raise_on_unreached_leaf():
    t = DecisionTree(1, 1, Query(0, Leaf((1,)), Leaf((-1,))))
    mu = Distribution(1, (Fraction(1), Fraction(0)))
    with pytest.raises(UnreachedLeaf):
        conditional_blocks_at_leaf(t, mu, leaves(t)[1])


# ---------------------------------------------------------------------------
# point-enumeration references for the factored leaf kernel: these walk every
# point of every leaf subcube, so the kernel is never checked against itself

SWEEP_SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)] + [(2, 4), (2, 5)]


def _ref_leaf_stats(tree, f, h, mu):
    n, k = tree.n, tree.k
    mask_n = (1 << n) - 1
    out = []
    for ref in leaves(tree):
        mass = Fraction(0)
        sum_h = [Fraction(0)] * k
        sum_fyh = [Fraction(0)] * k
        for point in cube_points(tree.total_vars, ref.fixed_mask, ref.fixed_vals):
            w = Fraction(1)
            blocks = [(point >> (i * n)) & mask_n for i in range(k)]
            for b in blocks:
                w *= mu.weights[b]
            if w == 0:
                continue
            mass += w
            for i, b in enumerate(blocks):
                sum_h[i] += w * h.values[b]
                sum_fyh[i] += w * f.table[b] * ref.label[i] * h.values[b]
        if mass == 0:
            continue
        dens = tuple(s / mass for s in sum_h)
        adv = tuple(abs(s) / mass for s in sum_fyh)
        p = tuple((d - a) / 2 for d, a in zip(dens, adv))
        out.append(LeafStats(mass, dens, adv, p))
    return out


def _ref_conditional_blocks(tree, mu, ref):
    """The k conditional block laws at a leaf, or None when it is unreached."""
    n, k = tree.n, tree.k
    factors = []
    for i in range(k):
        marg = []
        for x in range(1 << n):
            ok = all(
                not (ref.fixed_mask >> (i * n + j)) & 1
                or ((ref.fixed_vals >> (i * n + j)) & 1) == ((x >> j) & 1)
                for j in range(n))
            marg.append(mu.weights[x] if ok else Fraction(0))
        total = sum(marg, Fraction(0))
        if total == 0:
            return None
        factors.append(Distribution(n, tuple(m / total for m in marg)))
    return tuple(factors)


def test_leaf_kernel_matches_point_enumeration():
    unreached = reached = 0
    for seed in range(6):
        rng = random.Random(4000 + seed)
        for n, k in SWEEP_SHAPES:
            t = random_tree(rng, n, k)
            f = random_function(rng, n)
            h = random_measure(rng, n)
            mu = random_distribution(rng, n)  # zero weights allowed
            got, want = leaf_stats(t, f, h, mu), _ref_leaf_stats(t, f, h, mu)
            assert len(got) == len(want)
            for row, (g, w) in enumerate(zip(got, want)):
                for name in LeafStats._fields:
                    assert getattr(g, name) == getattr(w, name), (seed, n, k, row, name)
            for ref in leaves(t):
                factors = _ref_conditional_blocks(t, mu, ref)
                if factors is None:
                    unreached += 1
                    with pytest.raises(UnreachedLeaf):
                        conditional_blocks_at_leaf(t, mu, ref)
                    continue
                reached += 1
                assert conditional_blocks_at_leaf(t, mu, ref) == factors
    assert unreached > 0 and reached > 0


def test_leaf_stats_rows_are_the_reached_leaves_in_preorder():
    assert list(LeafStats._fields) == ["reach", "dens", "adv", "p"]
    assert list(LeafRef._fields) == [
        "label", "fixed_mask", "fixed_vals"]
    unreached = 0
    for seed in range(6):
        rng = random.Random(4100 + seed)
        for n, k in SWEEP_SHAPES:
            t = random_tree(rng, n, k)
            mu = random_distribution(rng, n)  # zero weights allowed
            reach = _leaf_reach(t, product_power(mu, k))
            stats = leaf_stats(t, random_function(rng, n), random_measure(rng, n), mu)
            assert [s.reach for s in stats] == [r for r in reach if r > 0]
            assert sum(s.reach for s in stats) == 1
            unreached += reach.count(0)
    assert unreached > 0


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_tree_json_round_trip(seed):
    rng = random.Random(seed)
    n, k = rng.randint(1, 3), rng.randint(1, 2)
    t = random_tree(rng, n, k)
    assert tree_from_json(tree_to_json(t)) == t


def test_randomized_tree_json_round_trip():
    t1 = DecisionTree(2, 1, Leaf((1,)))
    t2 = _xor_tree()
    rt = RandomizedTree(((Fraction(1, 4), t1), (Fraction(3, 4), t2)))
    assert randomized_tree_from_json(randomized_tree_to_json(rt)) == rt


def test_tree_json_shares_dicts_where_nodes_are_shared():
    # a DAG: both children of the root are one node, whose leaves are one
    leaf = Leaf((1,))
    shared = Query(1, leaf, leaf)
    t = DecisionTree(2, 1, Query(0, shared, shared))
    obj = tree_to_json(t)
    assert obj["root"]["neg"] is obj["root"]["pos"]
    assert obj["root"]["neg"]["neg"] is obj["root"]["neg"]["pos"]
    assert tree_from_json(obj) == t
    # a tree repeated in a mixture is one dict; an equal but distinct tree
    # gets its own
    twin = DecisionTree(2, 1, Query(0, shared, shared))
    rt = RandomizedTree(((Fraction(1, 4), t), (Fraction(1, 4), twin),
                         (Fraction(1, 2), t)))
    items = randomized_tree_to_json(rt)
    assert items[0]["tree"] is items[2]["tree"]
    assert items[1]["tree"] is not items[0]["tree"]
    assert items[1]["tree"]["root"] is not items[0]["tree"]["root"]
    assert items[1]["tree"]["root"]["neg"] is items[0]["tree"]["root"]["neg"]
    assert randomized_tree_from_json(items) == rt


def _call_with_frames_left(frames, call):
    """call() run about `frames` frames short of the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n):
        return down(n - 1) if n else call()
    return down(sys.getrecursionlimit() - depth - frames)


def _json_chain(variables):
    root = {"leaf": [1]}
    for v in variables:
        root = {"q": v, "neg": {"leaf": [1]}, "pos": root}
    return root


def test_a_deep_json_chain_is_refused_without_reading_down_it():
    # A path of more than MAX_TABLE_VARS = 24 queries repeats a variable, so
    # the reader stops 24 queries down instead of recursing 5,000 deep: with
    # 100 frames left, a guard placed 10 times deeper would run out of stack.
    chain = {"n": 2, "k": 1, "root": _json_chain(i % 2 for i in range(5000))}
    with pytest.raises(InvalidValue, match="more than 24 queries on one path"):
        _call_with_frames_left(100, lambda: tree_from_json(chain))
    longest = {"n": 24, "k": 1, "root": _json_chain(range(24))}
    assert _call_with_frames_left(100, lambda: tree_from_json(longest)) == DecisionTree(
        24, 1, _chain(range(24)))


def test_metric_dimension_checks():
    t = _xor_tree()
    with pytest.raises(DimensionMismatch):
        expected_depth(t, uniform(3))
    with pytest.raises(DimensionMismatch):
        error(t, parity(3), uniform(2))
    # a distribution on fewer variables than the tree is refused, not summed
    wide = DecisionTree(3, 1, Query(2, Leaf((1,)), Leaf((-1,))))
    for metric in (error, correlation, block_error_law):
        with pytest.raises(DimensionMismatch):
            metric(wide, parity(3), uniform(2))
    with pytest.raises(DimensionMismatch):
        correlation(t, parity(2), uniform(2), constant_measure(1, Fraction(1, 2)))
