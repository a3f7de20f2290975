"""Frontier DP against brute-force enumeration, and mixture envelopes."""

import random
from fractions import Fraction

import pytest

from dtlab import synth
from dtlab.errors import GuardExceeded, Infeasible, InvalidValue
from dtlab.functions import (
    BooleanFunction,
    Distribution,
    VectorFunction,
    constant_measure,
    dictator,
    direct_product,
    parity,
    product_power,
    uniform,
)
from dtlab.instances import random_distribution, random_function, random_measure
from dtlab.synth import (
    ADVANTAGE,
    ERROR,
    enumerate_all_trees,
    frontier_to_json,
    mixture_optimum,
    opt_depth,
    opt_objective_witness,
    pareto_frontier,
)
from dtlab.trees import Leaf, Query, cube_points, error, evaluate, expected_depth


def _pareto_reduce(pairs, bigger_is_better):
    best = []
    cur = None
    for d, v in sorted(set(pairs), key=lambda c: (c[0], -c[1] if bigger_is_better else c[1])):
        if cur is None or (v > cur if bigger_is_better else v < cur):
            best.append((d, v))
            cur = v
    return best


def test_error_frontier_matches_enumeration():
    rng = random.Random(123)
    trees = enumerate_all_trees(2)
    for _ in range(12):
        f = random_function(rng, 2)
        mu = random_distribution(rng, 2)
        dp = [(p.depth, p.value) for p in pareto_frontier(f, mu).points]
        brute = _pareto_reduce(
            ((expected_depth(t, mu), error(t, f, mu)) for t in trees),
            bigger_is_better=False)
        assert dp == brute


def test_advantage_frontier_matches_enumeration():
    rng = random.Random(321)
    trees = enumerate_all_trees(2)
    for _ in range(8):
        f = random_function(rng, 2)
        mu = random_distribution(rng, 2)
        h = random_measure(rng, 2)
        dp = [(p.depth, p.value)
              for p in pareto_frontier(f, mu, ADVANTAGE, h).points]

        def signed(t):
            return sum(mu.weights[x] * f.table[x] * h.values[x] * evaluate(t, x)[0]
                       for x in range(4))

        brute = _pareto_reduce(
            ((expected_depth(t, mu), signed(t)) for t in trees),
            bigger_is_better=True)
        assert dp == brute


def test_frontier_witnesses_reproduce_their_points():
    rng = random.Random(77)
    for _ in range(8):
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3)
        front = pareto_frontier(f, mu)
        prev_d = prev_v = None
        for p in front.points:
            assert expected_depth(p.tree, mu) == p.depth
            assert error(p.tree, f, mu) == p.value
            if prev_d is not None:
                assert p.depth > prev_d and p.value < prev_v
            prev_d, prev_v = p.depth, p.value


def test_vector_frontier_counts_any_block_mistake():
    g = direct_product(dictator(1, 0), 2)
    mu = product_power(uniform(1), 2)
    front = pareto_frontier(g, mu)
    assert front.points[0].depth == 0
    assert front.points[0].value == Fraction(3, 4)
    assert front.points[-1].value == 0
    assert front.points[-1].depth == 2


def test_parity_frontier_and_opt_depth():
    front = pareto_frontier(parity(2), uniform(2))
    # the middle point is the lopsided tree: full path on one half-cube only
    assert [(p.depth, p.value) for p in front.points] == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 4)),
        (Fraction(2), Fraction(0))]
    # mixing (0, 1/2) with (2, 0) beats the deterministic middle point
    assert opt_depth(front, Fraction(1, 4)) == 1
    assert opt_depth(front, Fraction(1, 2)) == 0
    assert opt_depth(front, Fraction(0)) == 2
    # the frontier ends at error 0, so no mixture reaches a negative eps
    for eps in (Fraction(-1), Fraction(-1, 4)):
        assert opt_depth(front, eps) is None


def test_mixture_optimum_interpolates_two_points():
    pairs = [(Fraction(1, 2), Fraction(0), "a"), (Fraction(0), Fraction(2), "b")]
    best, witness = mixture_optimum(pairs, Fraction(1, 4), minimize=True)
    assert best == 1
    weights = sorted(w for w, _ in witness)
    assert weights == [Fraction(1, 2), Fraction(1, 2)]


def test_opt_objective_witness_is_faithful():
    f = parity(2)
    mu = uniform(2)
    front = pareto_frontier(f, mu)
    val, witness = opt_objective_witness(front, Fraction(1))
    assert val == Fraction(1, 4)
    assert sum(w for w, _ in witness) == 1
    mixed = sum(w * error(t, f, mu) for w, t in witness)
    depth = sum(w * expected_depth(t, mu) for w, t in witness)
    assert mixed == val and depth <= 1
    assert opt_objective_witness(front, Fraction(10))[0] == 0
    with pytest.raises(Infeasible):
        opt_objective_witness(front, Fraction(-1))


def test_advantage_envelope_concavity_in_budget():
    # the optimal advantage as a function of the budget is a concave
    # piecewise-linear envelope, so midpoints never beat the average
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, Fraction(1, 2))
    front = pareto_frontier(f, mu, ADVANTAGE, h)
    vals = [opt_objective_witness(front, Fraction(i, 2))[0] for i in range(5)]
    for i in range(1, 4):
        assert 2 * vals[i] >= vals[i - 1] + vals[i + 1]
        assert vals[i] >= vals[i - 1]


def test_enumeration_counts_and_validity():
    for n, count in enumerate((2, 6, 74, 16_430)):
        trees = enumerate_all_trees(n)
        assert len(trees) == len(set(trees)) == count
        assert all((t.n, t.k) == (n, 1) for t in trees)


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_all_trees(4)


def test_sense_validation():
    f = parity(2)
    mu = uniform(2)
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, "weird")
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, ADVANTAGE)  # missing measure
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, ERROR, constant_measure(2, Fraction(1, 2)))


def test_frontier_serialization_shapes():
    front = pareto_frontier(parity(2), uniform(2))
    blob = frontier_to_json(front)
    assert blob["sense"] == ERROR
    assert len(blob["points"]) == 3
    assert blob["points"][0]["depth"] == "0/1"


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction reference DP


def _reference_frontier(target, mu, sense=ERROR, h=None):
    """The subcube DP on Fractions, with a Query per candidate and a stable
    sort: (depth, value, root) triples, kept here as an independent oracle."""
    if isinstance(target, BooleanFunction):
        n, k = target.n, 1
        rows = lambda p: (target.table[p],)
    else:
        n, k = target.n, target.k
        rows = lambda p: target.table[p]
    m = n * k
    weights = mu.weights
    if sense == ADVANTAGE:
        signed = tuple(weights[p] * target.table[p] * h.values[p] for p in range(1 << m))
    zero = Fraction(0)
    zero_leaf = Leaf(tuple([1] * k))
    memo = {}

    def leaf_error(pts):
        masses = {}
        total = zero
        for p in pts:
            w = weights[p]
            if w == 0:
                continue
            total += w
            masses[rows(p)] = masses.get(rows(p), zero) + w
        best_label = min(masses, key=lambda r: (-masses[r], r))
        return total - masses[best_label], Leaf(best_label)

    def leaf_advantage(pts):
        s = sum((signed[p] for p in pts), zero)
        return (s, Leaf((1,))) if s >= 0 else (-s, Leaf((-1,)))

    def solve(mask, vals):
        key = (mask, vals)
        if key in memo:
            return memo[key]
        pts = list(cube_points(m, mask, vals))
        mass = sum((weights[p] for p in pts), zero)
        if mass == 0:
            memo[key] = [(zero, zero, zero_leaf)]
            return memo[key]
        leaf_val, leaf = leaf_error(pts) if sense == ERROR else leaf_advantage(pts)
        candidates = [(zero, leaf_val, leaf)]
        for v in range(m):
            bit = 1 << v
            if mask & bit:
                continue
            for dn, vn, tn in solve(mask | bit, vals):
                for dp, vp, tp in solve(mask | bit, vals | bit):
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
        memo[key] = kept
        return kept

    return solve(0, 0)


def _assert_matches_reference(target, mu, sense=ERROR, h=None):
    got = pareto_frontier(target, mu, sense, h).points
    want = _reference_frontier(target, mu, sense, h)
    assert [(p.depth, p.value, p.tree.root) for p in got] == want
    for p in got:
        assert type(p.depth) is Fraction and type(p.value) is Fraction


def _sparse_distribution(rng, m):
    """Zero weight on about half the points, so zero-mass cubes occur at
    every level."""
    raw = [rng.randrange(1, 5) if rng.random() < 0.5 else 0 for _ in range(1 << m)]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    return Distribution(m, tuple(Fraction(v, sum(raw)) for v in raw))


def _coprime_distribution(m):
    """Weights 1/p for distinct primes p, the rest on the last point: the
    common denominator is the product of all the primes."""
    primes = []
    q = 101
    while len(primes) < (1 << m) - 1:
        if all(q % r for r in range(2, int(q ** 0.5) + 1)):
            primes.append(q)
        q += 2
    head = [Fraction(1, p) for p in primes]
    return Distribution(m, tuple(head + [1 - sum(head)]))


def _random_vector_function(rng, n, k):
    return VectorFunction(n, k, tuple(
        tuple(rng.choice((1, -1)) for _ in range(k)) for _ in range(1 << (n * k))))


def test_integer_kernel_matches_fraction_reference_error_sense():
    rng = random.Random(4040)
    for _ in range(40):
        n = rng.randrange(1, 5)
        f = random_function(rng, n)
        for mu in (random_distribution(rng, n), _sparse_distribution(rng, n)):
            _assert_matches_reference(f, mu)
    for n, k in ((1, 2), (2, 2), (1, 3), (1, 4)):
        for _ in range(8):
            g = _random_vector_function(rng, n, k)
            for mu in (random_distribution(rng, n * k),
                       _sparse_distribution(rng, n * k),
                       product_power(random_distribution(rng, n), k)):
                _assert_matches_reference(g, mu)
            _assert_matches_reference(direct_product(random_function(rng, n), k),
                                      product_power(random_distribution(rng, n), k))


def test_integer_kernel_matches_fraction_reference_advantage_sense():
    rng = random.Random(5050)
    for _ in range(40):
        n = rng.randrange(1, 5)
        f = random_function(rng, n)
        h = random_measure(rng, n)
        for mu in (random_distribution(rng, n), _sparse_distribution(rng, n)):
            _assert_matches_reference(f, mu, ADVANTAGE, h)


def test_integer_kernel_with_large_coprime_denominators():
    rng = random.Random(6060)
    for m in (2, 3, 4):
        mu = _coprime_distribution(m)
        assert max(w.denominator for w in mu.weights) > 100
        f = random_function(rng, m)
        _assert_matches_reference(f, mu)
        _assert_matches_reference(f, mu, ADVANTAGE, random_measure(rng, m))
        if m % 2 == 0:
            _assert_matches_reference(_random_vector_function(rng, m // 2, 2), mu)


def test_frontier_guard_refuses_above_max_dp_vars(monkeypatch):
    # a lowered cap keeps the DP small should the guard ever stop firing
    monkeypatch.setattr(synth, "MAX_DP_VARS", 3)
    assert pareto_frontier(parity(3), uniform(3)).points[-1].depth == 3
    with pytest.raises(GuardExceeded, match="4 variables exceeds the DP guard 3"):
        pareto_frontier(parity(4), uniform(4))
