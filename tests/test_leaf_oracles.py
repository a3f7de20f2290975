"""The Fraction forms of the leaf-statistics kernels, the batch verifiers and
the exact metrics, kept as oracles for their int versions.

Each oracle below does its arithmetic in Fractions, point by point or term
by term, as the kernels did before they were moved onto ints.  They are
compared on a seeded sweep of (tree, f, h, mu) with n <= 3 and k <= 4: mu
with zero weights, and h with values of mixed denominators from
{2, 3, 4, 5, 8}, 0 and 1 among them.  The metrics have a sweep of their own,
of scalar trees and their mixtures on up to 5 variables.
"""

import itertools
import pickle
import random
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd

import pytest

from dtlab import bounds
from dtlab.bounds import (
    ber_sum,
    ber_sum_cdf,
    binomial,
    g_func,
    lipschitz_check,
    verify_accuracy_bound,
    verify_error_no_advantage,
    verify_leaf_product,
    verify_resilience,
)
from dtlab.errors import InvalidValue, UnreachedLeaf
from dtlab.exactexp import ExpSum
from dtlab.functions import (
    Distribution,
    Measure,
    VectorFunction,
    _scale,
    constant_function,
    density,
    direct_product,
    product_power,
)
from dtlab.hardcore import Committee, committee_metrics
from dtlab.instances import random_distribution, random_function, random_tree
from dtlab.trees import (
    LeafStats,
    RandomizedTree,
    _cell_sums,
    _walk,
    block_error_law,
    conditional_blocks_at_leaf,
    correlation,
    cube_points,
    evaluate,
    expected_depth,
    leaf_stats,
    leaves,
)
from test_exactexp import _FormerExpSum, _pairs

F = Fraction
_ZERO = F(0)
SWEEP_SIZE = 300
# every shape with n <= 3 and k <= 4; the 4,096-point (3, 4) once in 45
SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4) if n * k < 12] * 4 + [(3, 4)]


# ---------------------------------------------------------------------------
# the Fraction oracles


def _frac_cell_sums(refs, n, k, mu, tables=()):
    mask = (1 << n) - 1
    rows = [(x, (w,) + tuple(w * t[x] for t in tables))
            for x, w in enumerate(mu.weights) if w != 0]
    zeros = (_ZERO,) * (1 + len(tables))

    @lru_cache(maxsize=None)
    def cell(bm, bv):
        return tuple(map(sum, zip(zeros, *(r for x, r in rows if x & bm == bv))))

    return [[cell((ref.fixed_mask >> (i * n)) & mask, (ref.fixed_vals >> (i * n)) & mask)
             for i in range(k)] for ref in refs]


def _frac_leaf_stats(tree, f, h, mu):
    fh = tuple(a * b for a, b in zip(f.table, h.values))
    out = []
    for cells in _frac_cell_sums(leaves(tree), tree.n, tree.k, mu, (h.values, fh)):
        reach = F(1)
        for c in cells:
            reach *= c[0]
        if reach == 0:
            continue
        dens = tuple(hs / s for s, hs, _ in cells)
        adv = tuple(abs(g) / s for s, _, g in cells)
        p = tuple((d - a) / 2 for d, a in zip(dens, adv))
        out.append((reach, dens, adv, p))
    return out


def _leaf_fields(s):
    """(reach, dens, adv, p) of a LeafStats row: block i's density, advantage
    and p from its cell ints (S, H, G) over S*E, E being the row's scale."""
    e = s.scale
    return (s.reach, tuple(F(h, c * e) for c, h, _ in s.cells),
            tuple(F(abs(g), c * e) for c, _, g in s.cells),
            tuple(F(h - abs(g), 2 * c * e) for c, h, g in s.cells))


def _frac_conditional_blocks(tree, mu, ref):
    """The k factors at a leaf, or None when a block cell has no mass."""
    n, mask = tree.n, (1 << tree.n) - 1
    factors = []
    for i, (total,) in enumerate(_frac_cell_sums([ref], n, tree.k, mu)[0]):
        if total == 0:
            return None
        bm = (ref.fixed_mask >> (i * n)) & mask
        bv = (ref.fixed_vals >> (i * n)) & mask
        factors.append(Distribution(n, tuple(
            w / total if x & bm == bv else _ZERO for x, w in enumerate(mu.weights))))
    return tuple(factors)


def _frac_product_power(mu, k):
    weights = mu.weights
    for _ in range(k - 1):
        weights = tuple(b * a for b in mu.weights for a in weights)
    return Distribution(mu.n * k, weights)


def _frac_block_error_law(tree, target, mu):
    law = [_ZERO] * (tree.k + 1)
    for x in mu.support():
        law[sum(a != b for a, b in zip(evaluate(tree, x), target.table[x]))] += mu.weights[x]
    return tuple(law)


def _frac_ber_sum(p):
    pmf = [F(1)]
    for v in map(F, p):
        nxt = [_ZERO] * (len(pmf) + 1)
        for z, w in enumerate(pmf):
            nxt[z] += w * (1 - v)
            nxt[z + 1] += w * v
        pmf = nxt
    return tuple(pmf)


def _frac_leaf_product_deviation(tree, mu, factors_at):
    """Sum over reached leaves and their cubes' points of
    |mu^k(p)/reach - prod_i factor_i(p_i)|, mu^k from the Fraction oracle."""
    n, mask = tree.n, (1 << tree.n) - 1
    mu_k = _frac_product_power(mu, tree.k)
    deviation = _ZERO
    for ref in leaves(tree):
        cube = [(p, mu_k.weights[p])
                for p in cube_points(tree.total_vars, ref.fixed_mask, ref.fixed_vals)]
        reach = sum((w for _, w in cube), _ZERO)
        if reach == 0:
            continue
        factors = factors_at(tree, mu, ref)
        for p, w in cube:
            split = F(1)
            for i, fac in enumerate(factors):
                split *= fac.weights[(p >> (i * n)) & mask]
            deviation += abs(w / reach - split)
    return deviation


def _frac_accuracy_rhs(rows, t):
    """The rhs at t from (reach, dens, adv, p) rows."""
    return sum((reach * ber_sum_cdf(_frac_ber_sum(p), t) for reach, *_, p in rows), _ZERO)


def _frac_expected_depth(tree, mu):
    if isinstance(tree, RandomizedTree):
        return sum((w * _frac_expected_depth(t, mu) for w, t in tree.components), _ZERO)
    return sum((mu.weights[x] * _walk(tree, x)[1] for x in mu.support()), _ZERO)


def _frac_correlation(tree, f, mu, h=None):
    if isinstance(tree, RandomizedTree):
        return sum((w * _frac_correlation(t, f, mu, h) for w, t in tree.components), _ZERO)
    weights = mu.weights if h is None else [w * v for w, v in zip(mu.weights, h.values)]
    return sum((weights[x] * f.table[x] * evaluate(tree, x)[0] for x in mu.support()), _ZERO)


def _frac_density(h, mu):
    return sum((mu.weights[x] * h.values[x] for x in range(1 << h.n)), _ZERO)


def _frac_committee_error(trees, f, mu):
    """The mass where the members' majority vote, one vote per seat, misses f."""
    err = _ZERO
    for x in mu.support():
        votes = sum(evaluate(t, x)[0] for t in trees)
        if (1 if votes > 0 else -1) != f.table[x]:
            err += mu.weights[x]
    return err


# ---------------------------------------------------------------------------
# the seeded sweep


def _mixed_measure(rng, n):
    """Each value draws its own denominator from {2, 3, 4, 5, 8}; one point
    is 0 and one is 1 whenever there are two points."""
    values = []
    for _ in range(1 << n):
        den = rng.choice((2, 3, 4, 5, 8))
        values.append(F(rng.randrange(0, den + 1), den))
    points = rng.sample(range(1 << n), 2)
    values[points[0]], values[points[1]] = _ZERO, F(1)
    return Measure(n, tuple(values))


@cache
def _sweep():
    rng = random.Random(2100)
    out = []
    for i in range(SWEEP_SIZE):
        n, k = SHAPES[i % len(SHAPES)]
        mu = random_distribution(rng, n)  # zero weights allowed
        if i % 5 == 0:  # at least one zero weight on every fifth instance
            weights = list(mu.weights)
            weights[rng.randrange(1 << n)] = _ZERO
            if any(weights):
                mu = Distribution(n, tuple(w / sum(weights) for w in weights))
        out.append((random_tree(rng, n, k), random_function(rng, n), _mixed_measure(rng, n), mu))
    return out


def test_the_sweep_covers_its_cases():
    sweep = _sweep()
    assert len(sweep) >= 300
    assert {(t.n, t.k) for t, *_ in sweep} == {(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)}
    assert sum(1 for *_, mu in sweep if 0 in mu.weights) >= 100
    dens = [{v.denominator for v in h.values} for _, _, h, _ in sweep]
    assert sum(1 for d in dens if len(d) >= 3) >= 100
    assert all(0 in h.values and 1 in h.values for _, _, h, _ in sweep)


def test_cell_sums_are_the_fraction_sums_over_their_scales():
    for tree, f, h, mu in _sweep():
        fh = tuple(a * b for a, b in zip(f.table, h.values))
        refs = leaves(tree)
        for tables in ((), (f.table,), (h.values, fh)):
            scales, cells = _cell_sums(refs, tree.n, tree.k, mu, [_scale(t) for t in tables])
            want = _frac_cell_sums(refs, tree.n, tree.k, mu, tables)
            for got_leaf, want_leaf in zip(cells, want, strict=True):
                for got, sums in zip(got_leaf, want_leaf, strict=True):
                    assert all(type(v) is int for v in got)
                    assert F(got[0], scales[0]) == sums[0]
                    assert [F(v, scales[0] * e) for v, e in zip(got[1:], scales[1:])] == list(
                        sums[1:])


def test_leaf_stats_and_conditional_blocks_match_the_fraction_forms():
    unreached = 0
    for tree, f, h, mu in _sweep():
        got, want = leaf_stats(tree, f, h, mu), _frac_leaf_stats(tree, f, h, mu)
        assert [_leaf_fields(g) for g in got] == want
        for ref in leaves(tree):
            want = _frac_conditional_blocks(tree, mu, ref)
            if want is None:
                unreached += 1
            else:
                assert conditional_blocks_at_leaf(tree, mu, ref) == want
    assert unreached > 0


def test_product_power_and_block_error_law_match_the_fraction_forms():
    for tree, f, _h, mu in _sweep():
        mu_k = product_power(mu, tree.k)
        assert mu_k == _frac_product_power(mu, tree.k)
        target = direct_product(f, tree.k)
        assert block_error_law(tree, target, mu_k) == _frac_block_error_law(tree, target, mu_k)


def test_int_built_laws_keep_their_weights_scaled_form():
    built = 0
    for tree, _f, _h, mu in _sweep():
        laws = [product_power(mu, tree.k)]
        for ref in leaves(tree):
            try:
                laws += conditional_blocks_at_leaf(tree, mu, ref)
            except UnreachedLeaf:
                pass
        for law in laws:
            assert law.scaled == _scale(law.weights)
            assert law == Distribution(law.n, law.weights)
        built += len(laws)
    assert built >= 1000


def _former_direct_product(f, k):
    """direct_product's table by bit-slicing, block 0 in the low bits."""
    mask = (1 << f.n) - 1
    return tuple(tuple(f.table[(point >> (i * f.n)) & mask] for i in range(k))
                 for point in range(1 << (f.n * k)))


def _former_product_power(mu, k):
    """product_power's (scale, ints) by the Kronecker loop on mu's ints."""
    scale, base = _scale(mu.weights)
    weights = base
    for _ in range(k - 1):
        weights = [b * a for b in base for a in weights]
    return scale ** k, weights


def test_direct_product_and_product_power_match_the_former_loops():
    rng = random.Random(2102)
    shapes = [(n, k) for n in range(1, 11) for k in range(1, 11) if n * k <= 10]
    assert len(shapes) == 27 and (10, 1) in shapes and (1, 10) in shapes
    for n, k in shapes:
        f, mu = random_function(rng, n), random_distribution(rng, n)
        got = direct_product(f, k)
        assert got.table == _former_direct_product(f, k)
        assert got == VectorFunction(n, k, _former_direct_product(f, k))
        scale, ints = _former_product_power(mu, k)
        law = product_power(mu, k)
        assert law == Distribution(n * k, tuple(F(w, scale) for w in ints))
        assert law.scaled == _scale(law.weights)


def _same_record(lazy, eager, unread):
    """lazy, whose attributes in unread are built on first read, behaves as
    eager: a law built from a kernel's ints as one built by the public
    constructor, a leaf row with unread totals as one whose totals are read."""
    assert not lazy.__dict__.keys() & unread
    copy = pickle.loads(pickle.dumps(lazy))
    assert not copy.__dict__.keys() & unread
    assert hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert lazy == eager and eager == lazy and lazy.__dict__.keys() >= set(lazy._fields)
    assert copy == eager and hash(copy) == hash(eager) and repr(copy) == repr(eager)
    assert pickle.loads(pickle.dumps(lazy)) == eager


def test_int_built_records_behave_as_public_built_ones():
    laws = rows = 0
    for tree, f, h, mu in _sweep():
        _same_record(product_power(mu, tree.k), _frac_product_power(mu, tree.k), {"weights"})
        laws += 1
        for ref in leaves(tree):
            want = _frac_conditional_blocks(tree, mu, ref)
            for got, eager in zip(conditional_blocks_at_leaf(tree, mu, ref) if want else (),
                                  want or (), strict=True):
                _same_record(got, eager, {"weights"})
                laws += 1
        # a row hashes by its tuple of cells
        for read in leaf_stats(tree, f, h, mu):
            fresh = LeafStats(read.reach, read.cells, read.scale)
            assert (read.dens_total, read.adv_total) == (fresh._total(1), fresh._total(2))
            _same_record(fresh, read, {"dens_total", "adv_total"})
            rows += 1
    assert laws >= 1000 and rows >= 1000


def test_leaf_totals_are_the_fraction_sums_of_the_oracle_fields():
    """dens_total and adv_total, one Fraction each of the cells' ints, are
    the Fraction sums of the oracle's per-block dens and adv."""
    multi = 0
    for tree, f, h, mu in _sweep():
        for got, (_, dens, adv, _) in zip(leaf_stats(tree, f, h, mu),
                                          _frac_leaf_stats(tree, f, h, mu), strict=True):
            _same(got.dens_total, sum(dens, _ZERO))
            _same(got.adv_total, sum(adv, _ZERO))
            multi += len({s for s, _, _ in got.cells}) > 1
    assert multi >= 300


def _same_sum(got: ExpSum, want: ExpSum) -> None:
    assert got == want and hash(got) == hash(want)
    assert _pairs(got) == _pairs(want)


def test_grouped_exp_sums_equal_their_canonicalized_totals():
    """Each leaf average of exponentials that bounds builds from grouped
    leaves equals the canonicalizing ExpSum over one term per leaf or
    binomial point."""
    for tree, f, h, mu in _sweep():
        k = tree.k
        stats = leaf_stats(tree, f, h, mu)
        for t, rep in enumerate(verify_accuracy_bound(tree, f, h, mu)):
            _same_sum(dict(rep.related)["g_form"], ExpSum(
                (s.reach, min(t - (s.dens_total - s.adv_total) / 4, 0)) for s in stats))
        pairs = [(s.reach, s.dens_total)
                 for s in leaf_stats(tree, constant_function(tree.n, 1), h, mu)]
        delta = density(h, mu)
        bino = list(enumerate(binomial(k, delta)))
        neg, pos = verify_resilience(tree, h, mu)[:2]
        assert (neg.context, pos.context) == ("resilience-exp-neg-z4", "resilience-exp-pos-z")
        _same_sum(neg.lhs, ExpSum((r, -d / 4) for r, d in pairs))
        _same_sum(neg.rhs, ExpSum((w, F(-z, 4)) for z, w in bino))
        _same_sum(pos.lhs, ExpSum((r, d) for r, d in pairs))
        _same_sum(pos.rhs, ExpSum((w, z) for z, w in bino))
        t = delta * k / 10
        _same_sum(verify_error_no_advantage(tree, h, mu).lhs,
                  ExpSum((r, min(t - d / 4, 0)) for r, d in pairs))


def _frac_lipschitz(t, z, delta, form):
    """Oracle: lipschitz_check's two sides as bounds built them on Fractions,
    as former ExpSums, or the message of the InvalidValue it raised."""
    t, z, delta = F(t), F(z), F(delta)
    if t < 0 or z < 0 or delta < 0:
        return "lipschitz_check needs nonnegative t, z, delta"
    if form == "plain":
        step = delta / 4
    elif form == "scaled":
        if t == 0 or z < 5 * t:
            return f"scaled form needs z >= 5t with t > 0, got t={t}, z={z}"
        step = delta / t
    else:
        return f"unknown form {form!r}"
    return _frac_g(t, z - delta), _frac_g(t, z) + step


def _frac_g(t, z) -> _FormerExpSum:
    return _FormerExpSum.exp(min(F(t) - F(z) / 4, 0))


def test_g_func_and_lipschitz_check_match_the_fraction_forms():
    """The int helper against the Fraction sides on the closed-forms
    scenario's grid (where z - delta is negative too), on str, float and
    int inputs, with every refusal's message."""
    grid = [(F(i, 4), F(j), F(m, 2)) for i, j, m in itertools.product(range(10), repeat=3)]
    mixed = [("1/2", 3, 0.25), (0.5, "7", 1), (2, 0.5, "3/2"), ("3", 15, 0), (1, 1, 3),
             (-1, 1, 1), (1, -0.5, 1), (1, 1, "-1/2"), (0, 1, 1), ("1/2", 2, 1), (0.75, 3, 0)]
    shown = {"sides": 0, "refused": 0, "negative": 0}
    for t, z, d in grid + mixed:
        for form in ("plain", "scaled", "fancy"):
            want = _frac_lipschitz(t, z, d, form)
            if isinstance(want, str):
                with pytest.raises(InvalidValue) as exc:
                    lipschitz_check(t, z, d, form)
                assert str(exc.value) == want
                shown["refused"] += 1
                continue
            rep = lipschitz_check(t, z, d, form)
            lhs, rhs = want
            assert (_pairs(rep.lhs), _pairs(rep.rhs)) == (lhs.terms, rhs.terms), (t, z, d)
            assert rep.holds == ((rhs - lhs).sign() >= 0)
            shown["sides"] += 1
            shown["negative"] += F(z) < F(d)
        for x in (z, F(z) - F(d)):
            assert _pairs(g_func(t, x)) == _frac_g(t, x).terms
    assert shown["sides"] >= 1320 and shown["refused"] >= 1700 and shown["negative"] >= 250


def test_ber_sum_matches_the_fraction_convolution():
    rng = random.Random(2101)
    for tree, f, h, mu in _sweep():
        for s in leaf_stats(tree, f, h, mu):
            p = _leaf_fields(s)[3]
            assert ber_sum(p) == _frac_ber_sum(p)
        delta = F(rng.randrange(0, 9), rng.choice((1, 2, 3, 5, 8)))
        if delta <= 1:
            assert binomial(tree.k, delta) == _frac_ber_sum((delta,) * tree.k)
    assert ber_sum(()) == (1,)
    assert ber_sum((0, 1, True, F(1, 3), 0.5)) == _frac_ber_sum((0, 1, 1, F(1, 3), F(1, 2)))


def test_accuracy_bound_matches_the_fraction_rhs_and_lhs():
    for tree, f, h, mu in _sweep():
        stats = _frac_leaf_stats(tree, f, h, mu)
        law = _frac_block_error_law(tree, direct_product(f, tree.k),
                                    _frac_product_power(mu, tree.k))
        for t, rep in enumerate(verify_accuracy_bound(tree, f, h, mu)):
            assert rep.holds
            assert rep.rhs.as_rational() == _frac_accuracy_rhs(stats, t)
            assert rep.lhs.as_rational() == ber_sum_cdf(law, t)


# ---------------------------------------------------------------------------
# the exact metrics


# h's denominators: coprime to each other and to mu's, or sharing factors
_METRIC_DENOMS = (2, 3, 4, 5, 6, 7, 9, 12)


@cache
def _metric_sweep():
    """(trees, f, h, mu): three scalar trees on 1 to 5 variables, mu with
    zero weights on every third instance at least, h with 0 and 1 among its
    values and each value's denominator drawn from _METRIC_DENOMS."""
    rng = random.Random(2400)
    out = []
    for i in range(SWEEP_SIZE):
        n = 1 + i % 5
        mu = random_distribution(rng, n)
        if i % 3 == 0 and n > 1:
            weights = list(mu.weights)
            weights[rng.randrange(1 << n)] = _ZERO
            if any(weights):
                mu = Distribution(n, tuple(w / sum(weights) for w in weights))
        values = [F(rng.randrange(0, d + 1), d)
                  for d in (rng.choice(_METRIC_DENOMS) for _ in range(1 << n))]
        if n > 1:
            zero, one = rng.sample(range(1 << n), 2)
            values[zero], values[one] = _ZERO, F(1)
        trees = tuple(random_tree(rng, n, 1) for _ in range(3))
        out.append((trees, random_function(rng, n), Measure(n, tuple(values)), mu))
    return out


def test_the_metric_sweep_covers_its_cases():
    sweep = _metric_sweep()
    assert len(sweep) >= 300
    assert sum(1 for *_, mu in sweep if 0 in mu.weights) >= 100
    coprime = sum(1 for *_, h, mu in sweep if gcd(h.scaled[0], mu.scaled[0]) == 1)
    assert 50 <= coprime <= len(sweep) - 50  # and as many whose D*E is unreduced
    assert sum(1 for *_, h, _mu in sweep if 0 in h.values and 1 in h.values) >= 200


def _mixture(rng, trees):
    cut = F(rng.randrange(1, 12), 12)
    rest = (1 - cut) * F(rng.randrange(1, 7), 7)
    return RandomizedTree(((cut, trees[0]), (rest, trees[1]), (1 - cut - rest, trees[2])))


def _same(got, want):
    assert got == want and type(got) is Fraction


def test_expected_depth_correlation_and_density_match_the_fraction_forms():
    rng = random.Random(2401)
    for trees, f, h, mu in _metric_sweep():
        _same(density(h, mu), _frac_density(h, mu))
        for tree in trees + (_mixture(rng, trees),):
            _same(expected_depth(tree, mu), _frac_expected_depth(tree, mu))
            _same(correlation(tree, f, mu), _frac_correlation(tree, f, mu))
            _same(correlation(tree, f, mu, h), _frac_correlation(tree, f, mu, h))
    # block-structured trees under product laws, on the leaf-statistics sweep
    for tree, _f, h, mu in _sweep():
        mu_k = product_power(mu, tree.k)
        _same(expected_depth(tree, mu_k), _frac_expected_depth(tree, mu_k))
        _same(density(h, mu), _frac_density(h, mu))


def test_committee_metrics_match_the_fraction_forms():
    rng = random.Random(2403)
    for trees, f, _h, mu in _metric_sweep():
        # repeated members, so a tree met again is counted once per seat
        members = tuple(rng.choice(trees) for _ in range(rng.choice((1, 3, 5, 7))))
        committee = Committee(f, mu, members, F(1, 4), F(1, 2), F(1), 0, 0)
        err, cost = committee_metrics(committee, f, mu)
        _same(err, _frac_committee_error(members, f, mu))
        _same(cost, sum((_frac_expected_depth(t, mu) for t in members), _ZERO))


# ---------------------------------------------------------------------------
# wrong inputs must fail, by the amount the oracles give


def test_leaf_product_deviation_matches_the_fraction_sum(monkeypatch):
    """The true factors give deviation 0; the unconditioned mu in their
    place gives the positive deviation that the oracle sums."""
    def unconditioned(tree, mu, _ref):
        return (mu,) * tree.k

    failed = 0
    for tree, _f, _h, mu in _sweep():
        rep = verify_leaf_product(tree, mu)
        assert rep.holds and rep.lhs.as_rational() == 0
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "conditional_blocks_at_leaf", unconditioned)
            rep = verify_leaf_product(tree, mu)
        want = _frac_leaf_product_deviation(tree, mu, unconditioned)
        assert rep.lhs.as_rational() == want
        assert rep.holds == (want == 0)
        failed += want > 0
    assert failed >= 100


def _at_double_scale(q: int):
    """leaf_stats with each row's scale E doubled and 2*q*S*E added to each
    cell's H: each p = (H - |G|)/(2*S*E) becomes (q + p)/2."""
    def doctored(tree, f, h, mu):
        return [LeafStats(s.reach, tuple((c, hs + 2 * q * c * s.scale, g) for c, hs, g in s.cells),
                          2 * s.scale)
                for s in leaf_stats(tree, f, h, mu)]
    return doctored


def test_accuracy_rhs_follows_the_leaf_p(monkeypatch):
    # a smaller p makes each leaf's Bernoulli sum smaller, so its cdf and the
    # rhs grow; a larger p than the leaf's true error rate breaks the bound
    failed = 0
    for q, must_hold in ((0, True), (1, False)):
        monkeypatch.setattr(bounds, "leaf_stats", _at_double_scale(q))
        for tree, f, h, mu in _sweep()[:60]:
            rows = [(reach, dens, adv, tuple((q + v) / 2 for v in p))
                    for reach, dens, adv, p in _frac_leaf_stats(tree, f, h, mu)]
            reports = verify_accuracy_bound(tree, f, h, mu)
            for t, rep in enumerate(reports):
                want = _frac_accuracy_rhs(rows, t)
                assert rep.rhs.as_rational() == want
                assert rep.holds == (want >= rep.lhs.as_rational())
            if must_hold:
                assert all(rep.holds for rep in reports)
            else:
                failed += not all(rep.holds for rep in reports)
    assert failed >= 30
