"""Frontier DP against brute-force enumeration, and mixture envelopes."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dtlab import hardcore, synth
from dtlab.errors import DimensionMismatch, GuardExceeded, InvalidValue
from dtlab.functions import (
    BooleanFunction,
    Distribution,
    Measure,
    VectorFunction,
    constant_measure,
    dictator,
    direct_product,
    no_error_reduction_function,
    parity,
    product_power,
    uniform,
)
from dtlab.hardcore import HardcoreCertificate, best_response, hardcore_solve, verify_certificate
from dtlab.instances import random_distribution, random_function, random_measure
from dtlab.scenarios import report_to_bytes
from dtlab.synth import (
    ADVANTAGE,
    ERROR,
    MAX_DP_VARS,
    FrontierPoint,
    ParetoFrontier,
    enumerate_all_trees,
    frontier_to_json,
    mixture_optimum,
    opt_depth,
    pareto_frontier,
)
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Query,
    cube_points,
    error,
    evaluate,
    expected_depth,
    tree_from_json,
)


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
              for p in pareto_frontier(f, mu, h=h).points]

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


def _pair_scan(pairs, bound, minimize):
    """mixture_optimum by brute force, kept as its oracle: every single point,
    then every two-point mixture at average coord exactly bound, in index
    order, each replacing the best only on strict improvement."""
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


def _random_envelope_case(rng):
    """Few points on a small integer grid, so that coordinates repeat and
    points fall on common lines, often with the bound on a point; the bound
    is a Fraction, so every mixing weight is one too."""
    size = rng.randrange(1, 7)
    coords = [rng.randrange(7) for _ in range(size)]
    if rng.random() < 0.5:  # many points on one line, the rest above it
        a, b = rng.randrange(-3, 4), rng.randrange(-2, 3)
        values = [a + b * c + rng.choice((0, 0, 0, 1, 2)) for c in coords]
    else:
        values = [rng.randrange(-4, 5) for _ in coords]
    if rng.random() < 0.5:
        values = [-v for v in values]
    pairs = [(c, v, f"t{i}") for i, (c, v) in enumerate(zip(coords, values))]
    lo, hi = min(coords), max(coords)
    inside = Fraction(rng.randrange(4 * lo, 4 * hi + 1), 4)
    bound = Fraction(rng.choice((lo - 1, lo, hi, hi + 1, rng.choice(coords),
                                 Fraction(lo + hi, 2), inside, inside)))
    return pairs, bound


def _best_pair_value(pairs, bound, minimize):
    """The best two-point value at average coord exactly bound, or None."""
    values = [((bound - cj) * vi + (ci - bound) * vj) / (ci - cj)
              for ci, vi, _ in pairs if ci < bound
              for cj, vj, _ in pairs if cj > bound]
    if not values:
        return None
    return min(values) if minimize else max(values)


def test_hull_walk_matches_the_pair_scan():
    rng = random.Random(1979)
    seen = dict.fromkeys(("below", "at-edge", "above", "repeat", "unordered",
                          "pair", "tie", "three-on-line"), 0)
    for _ in range(20_000):
        pairs, bound = _random_envelope_case(rng)
        coords = [c for c, _, _ in pairs]
        seen["below"] += bound < min(coords)
        seen["above"] += bound > max(coords)
        seen["at-edge"] += bound in (min(coords), max(coords))
        seen["repeat"] += len(set(coords)) < len(coords)
        seen["unordered"] += coords != sorted(coords)
        for minimize in (True, False):
            want = _pair_scan(pairs, bound, minimize)
            assert mixture_optimum(pairs, bound, minimize) == want, (pairs, bound, minimize)
            best, witness = want
            if witness is None:
                continue
            if len(witness) == 1:
                seen["tie"] += _best_pair_value(pairs, bound, minimize) == best
                continue
            seen["pair"] += 1
            (_, ta), (_, tb) = witness
            (ca, va), (cb, vb) = ((c, v) for c, v, t in pairs if t in (ta, tb))
            on_line = [t for c, v, t in pairs
                       if c != bound and (v - va) * (cb - ca) == (vb - va) * (c - ca)]
            seen["three-on-line"] += len(on_line) >= 3
    assert min(seen.values()) >= 500, seen


def _check_envelopes(monkeypatch):
    """Check every mixture_optimum call against the pair scan; returns the
    calling module of each call."""
    callers = []

    def spy(caller):
        def checked(pairs, bound, minimize):
            got = mixture_optimum(pairs, bound, minimize)
            assert got == _pair_scan(pairs, bound, minimize), (pairs, bound, minimize)
            callers.append(caller)
            return got
        return checked

    monkeypatch.setattr(synth, "mixture_optimum", spy("synth"))
    monkeypatch.setattr(hardcore, "mixture_optimum", spy("hardcore"))
    return callers


def test_sweep_envelopes_match_the_pair_scan(monkeypatch):
    # the n=3 hardcore sweep: 210 best responses and 164 restricted-game
    # re-checks, all read by hardcore
    callers = _check_envelopes(monkeypatch)
    for s in range(16):
        rng = random.Random(9000 + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            out = hardcore_solve(f, mu, Fraction(1, 4), Fraction(1, 2), budget)
            if isinstance(out, HardcoreCertificate):
                assert verify_certificate(out)["ok"]
    assert (callers.count("synth"), callers.count("hardcore")) == (0, 210 + 164)


def test_opt_depth_envelopes_match_the_pair_scan(monkeypatch):
    # the parity-claim and no-boosting frontiers of the frontier workload
    callers = _check_envelopes(monkeypatch)
    for n in (6, 7):
        for f in (parity(n), no_error_reduction_function(n)):
            front = pareto_frontier(f, uniform(n))
            for i in range(-1, 18):
                opt_depth(front, Fraction(i, 32))
    assert len(callers) == 4 * 19


def test_mixture_optimum_is_faithful_on_an_error_frontier():
    f = parity(2)
    mu = uniform(2)
    pairs = [(p.depth, p.value, p.tree) for p in pareto_frontier(f, mu).points]
    val, witness = mixture_optimum(pairs, Fraction(1), minimize=True)
    assert val == Fraction(1, 4)
    assert sum(w for w, _ in witness) == 1
    mixed = sum(w * error(t, f, mu) for w, t in witness)
    depth = sum(w * expected_depth(t, mu) for w, t in witness)
    assert mixed == val and depth <= 1
    assert mixture_optimum(pairs, Fraction(10), minimize=True)[0] == 0
    assert mixture_optimum(pairs, Fraction(-1), minimize=True) == (None, None)


def test_advantage_envelope_concavity_in_budget():
    # the optimal advantage as a function of the budget is a concave
    # piecewise-linear envelope, so midpoints never beat the average
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, Fraction(1, 2))
    vals = [best_response(f, mu, h, Fraction(i, 2))[0] for i in range(5)]
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
    h = constant_measure(2, Fraction(1, 2))
    with pytest.raises(InvalidValue):
        pareto_frontier(direct_product(f, 1), mu, h=h)  # not a scalar target
    with pytest.raises(InvalidValue):
        pareto_frontier(f, mu, h=constant_measure(3, Fraction(1, 2)))
    with pytest.raises(TypeError):
        pareto_frontier(f, mu, ERROR)  # the sense is no longer an argument
    assert pareto_frontier(f, mu).sense == ERROR
    assert pareto_frontier(f, mu, h=h).sense == ADVANTAGE


def test_advantage_frontier_is_the_error_frontier_under_full_measure():
    # E[f*T*H] = 1 - 2 Pr[T != Y] for the noisy label Y: under H = 1 the
    # label is f itself, and under H = 0 every tree has advantage 0
    rng = random.Random(2727)
    for case in range(400):
        n = rng.randrange(1, 5)
        f = random_function(rng, n)
        mu = (random_distribution(rng, n) if case % 2
              else _sparse_distribution(rng, n))
        err = pareto_frontier(f, mu).points
        adv = pareto_frontier(f, mu, h=constant_measure(n, 1)).points
        assert ([(p.depth, p.value) for p in adv]
                == [(p.depth, 1 - 2 * p.value) for p in err])
        flat = pareto_frontier(f, mu, h=constant_measure(n, 0)).points
        assert [(p.depth, p.value) for p in flat] == [(0, 0)]


def test_frontier_serialization_shapes():
    front = pareto_frontier(parity(2), uniform(2))
    blob = frontier_to_json(front)
    assert blob["sense"] == ERROR
    assert len(blob["points"]) == 3
    assert blob["points"][0]["depth"] == "0/1"


def _distinct(roots, children) -> int:
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            stack.extend(children(x))
    return len(seen)


def test_frontier_json_shares_what_the_dp_shares():
    # The DP's witnesses are DAGs: parity(7)'s 65 points hold 450 distinct
    # nodes in 8,641 node visits.  The dicts must share as the nodes do,
    # not expand every tree.
    front = pareto_frontier(parity(7), uniform(7))
    blob = frontier_to_json(front)
    nodes = _distinct((p.tree.root for p in front.points),
                      lambda x: (x.neg, x.pos) if isinstance(x, Query) else ())
    dicts = _distinct((pt["tree"]["root"] for pt in blob["points"]),
                      lambda d: (d["neg"], d["pos"]) if "q" in d else ())
    size = lambda x: 1 + size(x.neg) + size(x.pos) if isinstance(x, Query) else 1
    visits = sum(size(p.tree.root) for p in front.points)
    assert 10 * nodes < visits
    assert dicts <= nodes
    for p, pt in zip(front.points, blob["points"]):
        assert tree_from_json(pt["tree"]) == p.tree


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


def _assert_matches_reference(target, mu, h=None):
    sense = ERROR if h is None else ADVANTAGE
    front = pareto_frontier(target, mu, h=h)
    got = front.points
    want = _reference_frontier(target, mu, sense, h)
    assert [(p.depth, p.value, p.tree.root) for p in got] == want
    for p in got:
        assert type(p.depth) is Fraction and type(p.value) is Fraction
    # the report bytes too, which the kernel's shared witnesses must not move
    n, k = (target.n, 1) if isinstance(target, BooleanFunction) else (target.n, target.k)
    oracle = ParetoFrontier(sense, n, k, tuple(
        FrontierPoint(d, v, DecisionTree(n, k, root)) for d, v, root in want))
    assert (report_to_bytes(frontier_to_json(front))
            == report_to_bytes(frontier_to_json(oracle)))


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
            _assert_matches_reference(f, mu, h=h)


def test_advantage_kernel_with_sparse_mu_and_zeros_in_h():
    # the scale is 2*D*E from mu.scaled and h.scaled: E coprime to D, or
    # sharing factors with it, and zero-mass and zero-signed cubes alike
    rng = random.Random(5151)
    shared = 0
    for i in range(60):
        n = 1 + i % 4
        f = random_function(rng, n)
        den = rng.choice((2, 3, 5, 6, 7, 12))
        h = Measure(n, tuple(Fraction(rng.randrange(0, den + 1), den) if rng.random() < 0.5
                             else Fraction(0) for _ in range(1 << n)))
        mu = _sparse_distribution(rng, n) if i % 3 else _coprime_distribution(n)
        shared += math.gcd(mu.scaled[0], h.scaled[0]) > 1
        _assert_matches_reference(f, mu, h=h)
    assert 10 <= shared <= 50


def test_label_fields_hold_a_whole_mass():
    # more than two labels pack into fields of width D.bit_length(), and a
    # cube whose whole mass has one label fills its field up to D
    rng = random.Random(5252)
    for n, k in ((1, 2), (1, 3), (2, 2)):
        g = _random_vector_function(rng, n, k)
        assert len(set(g.table)) > 2
        keep = g.table[0]
        for dense in (False, True):
            raw = [rng.randrange(1, 9) if dense or row == keep else 0 for row in g.table]
            mu = Distribution(n * k, tuple(Fraction(v, sum(raw)) for v in raw))
            _assert_matches_reference(g, mu)


def test_integer_kernel_with_large_coprime_denominators():
    rng = random.Random(6060)
    for m in (2, 3, 4):
        mu = _coprime_distribution(m)
        assert max(w.denominator for w in mu.weights) > 100
        f = random_function(rng, m)
        _assert_matches_reference(f, mu)
        _assert_matches_reference(f, mu, h=random_measure(rng, m))
        if m % 2 == 0:
            _assert_matches_reference(_random_vector_function(rng, m // 2, 2), mu)


def _weight_classes(rng, n, values):
    """One value per Hamming weight, drawn from `values`: a table that every
    permutation of the n variables leaves fixed."""
    per_weight = [rng.choice(values) for _ in range(n + 1)]
    return tuple(per_weight[bin(x).count("1")] for x in range(1 << n))


def _exchangeable_distribution(rng, m):
    raw = _weight_classes(rng, m, range(1, 9))
    return Distribution(m, tuple(Fraction(v, sum(raw)) for v in raw))


def _majority(n):
    return BooleanFunction(n, tuple(1 if 2 * bin(x).count("1") > n else -1
                                    for x in range(1 << n)))


def _symmetric_in_two(table):
    """The table with each point's value copied to the point with bits 0 and
    1 swapped: a function symmetric in its first two variables."""
    return tuple(table[x ^ 3] if x & 3 == 2 else table[x] for x in range(len(table)))


def test_integer_kernel_matches_fraction_reference_on_symmetric_inputs():
    # in a cube of a symmetric target several variables split it into the
    # same pair of child frontiers, and the kernel combines such a pair once
    rng = random.Random(7070)
    scalars = [parity(n) for n in range(1, 5)]
    scalars += [no_error_reduction_function(n) for n in range(2, 5)]
    scalars += [_majority(3)]
    scalars += [BooleanFunction(n, _symmetric_in_two(random_function(rng, n).table))
                for n in (2, 3, 4, 4)]
    for f in scalars:
        n = f.n
        for mu in (uniform(n), _exchangeable_distribution(rng, n),
                   product_power(random_distribution(rng, 1), n)):
            _assert_matches_reference(f, mu)
            for h in (constant_measure(n, Fraction(1)),
                      constant_measure(n, Fraction(rng.randrange(1, 4), 4)),
                      Measure(n, _weight_classes(rng, n, [Fraction(i, 4) for i in range(5)]))):
                _assert_matches_reference(f, mu, h=h)
    # vector targets too: their leaves pick among many labels, so a cube's
    # children hold more varied frontiers than a scalar target's
    vectors = [direct_product(parity(2), 2), direct_product(parity(1), 3)]
    vectors += [VectorFunction(n, k, _symmetric_in_two(_random_vector_function(rng, n, k).table))
                for _ in range(4) for n, k in ((1, 3), (1, 4), (2, 2))]
    for g in vectors:
        n, k = g.n, g.k
        for mu in (uniform(n * k), _exchangeable_distribution(rng, n * k),
                   product_power(random_distribution(rng, n), k)):
            _assert_matches_reference(g, mu)


def test_frontier_guard_refuses_above_max_dp_vars(monkeypatch):
    # a lowered cap keeps the DP small should the guard ever stop firing
    monkeypatch.setattr(synth, "MAX_DP_VARS", 3)
    assert pareto_frontier(parity(3), uniform(3)).points[-1].depth == 3
    with pytest.raises(GuardExceeded, match="4 variables exceeds the DP guard 3"):
        pareto_frontier(parity(4), uniform(4))


def test_frontier_guard_refuses_before_any_table():
    # parity and uniform on 15 variables hold 2^15 weights; refusing must
    # not build the 3^15-cube tables, nor even the target's output rows
    m = MAX_DP_VARS + 1
    f, mu = parity(m), uniform(m)
    for h in (None, constant_measure(m, Fraction(1, 2))):
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded, match=f"{m} variables exceeds the DP guard"):
                pareto_frontier(f, mu, h=h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_frontier_and_its_json_leave_no_cyclic_garbage():
    # nothing in a frontier call or its serialization is a reference cycle,
    # so nothing waits for the cyclic collector to be freed
    f, mu = parity(5), uniform(5)
    gc.collect()
    gc.disable()
    try:
        front = pareto_frontier(f, mu)
        assert gc.collect() == 0
        frontier_to_json(front)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("call, error, message", [
    (lambda: pareto_frontier(parity(2), uniform(3)),
     DimensionMismatch, "distribution on 3 vars vs target on 2"),
    (lambda: opt_depth(pareto_frontier(parity(2), uniform(2),
                                       h=constant_measure(2, Fraction(1))), Fraction(0)),
     InvalidValue, "opt_depth needs an error-sense frontier"),
], ids=["frontier-mu-width", "opt-depth-advantage-sense"])
def test_synth_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message
