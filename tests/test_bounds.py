"""Closed-form tail bounds and the leaf-statistics inequality verifiers."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import bounds
from dtlab.bounds import (
    PHI_IDS,
    ber_sum,
    ber_sum_cdf,
    binomial,
    bound_report_to_json,
    chernoff_lower,
    chernoff_upper2x,
    constant_chain_reports,
    g_func,
    lipschitz_check,
    parity_counterexample,
    verify_accuracy_bound,
    verify_bounds_from_hardcore,
    verify_density_conservation,
    verify_embedding,
    verify_error_no_advantage,
    verify_leaf_product,
    verify_parity_leaf_error,
    verify_product_tree,
    verify_resilience,
    xor_vs_product_gap,
)
from dtlab.errors import DimensionMismatch, InvalidValue
from dtlab.exactexp import DEFAULT_PRECISION_BITS, ExpSum
from dtlab.functions import (
    constant_measure,
    density,
    dictator,
    direct_product,
    parity,
    product_power,
    uniform,
)
from dtlab.hardcore import HardcoreCertificate, hardcore_solve
from dtlab.instances import (
    leaf_product_instances,
    sign_fixed_instances,
    standard_verification_instances,
    xor_tree_instances,
)
from dtlab.scenarios import run_config
from dtlab.transforms import full_parity_product_tree
from dtlab.trees import DecisionTree, Leaf, evaluate

F = Fraction

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=16)


@given(st.lists(probabilities, min_size=1, max_size=10))
@settings(deadline=None, max_examples=40)
def test_ber_sum_matches_outcome_enumeration(probs):
    pmf = ber_sum(probs)
    k = len(probs)
    truth = [F(0)] * (k + 1)
    for outcome in itertools.product((0, 1), repeat=k):
        w = F(1)
        for p, o in zip(probs, outcome):
            w *= p if o else 1 - p
        truth[sum(outcome)] += w
    assert list(pmf) == truth
    assert sum(pmf) == 1


def test_binomial_matches_comb_formula():
    d = F(1, 3)
    for z, w in enumerate(binomial(4, d)):
        assert w == comb(4, z) * d**z * (1 - d) ** (4 - z)


def test_ber_sum_cdf_floors_the_threshold():
    pmf = ber_sum((F(1, 2), F(1, 2)))
    assert pmf == (F(1, 4), F(1, 2), F(1, 4))
    assert ber_sum_cdf(pmf, 0) == F(1, 4)
    assert ber_sum_cdf(pmf, F(3, 2)) == F(3, 4)
    assert ber_sum_cdf(pmf, 5) == 1
    assert ber_sum_cdf(pmf, F(-1, 2)) == 0


def test_ber_sum_rejects_bad_probabilities():
    with pytest.raises(InvalidValue):
        ber_sum((F(3, 2),))


def test_chernoff_hand_values():
    assert chernoff_lower(8, 4) == ExpSum.exp(-1)
    assert chernoff_lower(8, 9) == ExpSum.of(1)
    assert chernoff_lower(0, 0) == ExpSum.of(1)
    assert chernoff_upper2x(6) == ExpSum.exp(-2)
    with pytest.raises(InvalidValue):
        chernoff_lower(-1, 0)


def test_g_func_branches():
    assert g_func(0, 0) == ExpSum.of(1)
    assert g_func(F(1, 2), 2) == ExpSum.of(1)
    assert g_func(0, 4) == ExpSum.exp(-1)
    # decreasing in z once in the exponential branch
    assert (g_func(0, 4) - g_func(0, 5)).sign() == 1


def test_lipschitz_forms_and_hypotheses():
    assert lipschitz_check(F(1, 2), F(3), F(1, 4), "plain").holds
    assert lipschitz_check(F(1, 2), F(4), F(2), "scaled").holds
    with pytest.raises(InvalidValue):
        lipschitz_check(0, 1, F(1, 4), "scaled")
    with pytest.raises(InvalidValue):
        lipschitz_check(F(1, 2), F(2), F(1, 4), "scaled")  # z < 5t
    with pytest.raises(InvalidValue):
        lipschitz_check(1, 1, 1, "fancy")


def _spellings(v):
    """A Fraction argument as a Fraction, a "p/q" string and, when whole, an int."""
    if not isinstance(v, Fraction):
        return [v]
    return [v, str(v)] + ([int(v)] if v.denominator == 1 else [])


def test_closed_forms_read_ints_and_strings_as_their_fractions():
    pmf = ber_sum((F(1, 3), F(1, 2), F(1)))
    cases = [
        (g_func, (F(1, 2), F(3))), (g_func, (F(0), F(4))),
        (lipschitz_check, (F(1, 2), F(3), F(1, 4), "plain")),
        (lipschitz_check, (F(1, 2), F(4), F(2), "scaled")),
        (ber_sum_cdf, (pmf, F(3, 2))), (ber_sum_cdf, (pmf, F(2))),
        (chernoff_lower, (F(8), F(4))), (chernoff_lower, (F(5, 2), F(1, 3))),
        (chernoff_upper2x, (F(6),)), (chernoff_upper2x, (F(7, 3),)),
    ]
    for fn, args in cases:
        want = fn(*args)
        for spelled in itertools.product(*map(_spellings, args)):
            assert fn(*spelled) == want
    for p in itertools.product(*map(_spellings, (F(1, 3), F(1, 2), F(1), F(0)))):
        assert bounds.ber_sum(p) == bounds.ber_sum((F(1, 3), F(1, 2), F(1), F(0)))


def test_constant_chain():
    reports = constant_chain_reports()
    assert [r.context for r in reports] == [
        "exp-quarter-upper", "exp-rate-constant"]
    assert all(r.holds for r in reports)


INSTANCES = standard_verification_instances(seed=1234, count=25)


def test_the_instance_stream_is_built_once_and_shared_as_a_tuple():
    """Each (seed, count) stream is built once, also when four threads ask
    for it together, and no caller can change the shared stream."""
    first = standard_verification_instances(404, 100)
    assert type(first) is tuple and standard_verification_instances(404, 100) is first
    fresh = standard_verification_instances.__wrapped__(404, 100)
    assert fresh == first and fresh is not first
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave inside the miss
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            streams = list(pool.map(standard_verification_instances, [405] * 8, [30] * 8))
    finally:
        sys.setswitchinterval(switch)
    assert all(s == standard_verification_instances.__wrapped__(405, 30) for s in streams)
    assert any(s is standard_verification_instances(405, 30) for s in streams)
    with pytest.raises(InvalidValue, match="positive instance count"):
        standard_verification_instances(404, 0)
    # a run drops the stream its scenarios shared before it builds the report
    run_config({"scenarios": [{"name": "density-conservation", "params": {"count": 2}}]})
    assert standard_verification_instances.cache_info().currsize == 0


def test_density_conservation_on_random_instances():
    for tree, _f, h, mu in INSTANCES:
        rep = verify_density_conservation(tree, h, mu)
        assert rep.holds
        assert rep.slack.as_rational() == 0


@pytest.mark.parametrize("phi", PHI_IDS)
def test_resilience_on_random_instances(phi):
    for tree, _f, h, mu in INSTANCES[:15]:
        reports = verify_resilience(tree, h, mu)
        assert len(reports) == len(PHI_IDS)
        rep = reports[PHI_IDS.index(phi)]
        assert rep.context == f"resilience-{phi}" and rep.holds


def test_resilience_ceilings_are_the_binomial_law_canonically():
    """The exp-neg-z4 and exp-pos-z ceilings, read off the int Bernoulli
    polynomial, equal the canonical sums of binomial(k, delta)'s weights."""
    for tree, _f, h, mu in INSTANCES:
        k, delta = tree.k, density(h, mu)
        law = [(w, z) for z, w in enumerate(binomial(k, delta)) if w]
        sides = {r.context: r.rhs for r in verify_resilience(tree, h, mu)}
        assert sides["resilience-exp-pos-z"] == ExpSum(law)
        assert sides["resilience-exp-neg-z4"] == ExpSum((w, F(-z, 4)) for w, z in law)
    # delta = 1/2 at k = 2: the weights 1/4, 1/2, 1/4 come reduced from 1, 2, 1 over 4
    rhs = verify_resilience(DecisionTree(1, 2, Leaf((1, 1))), constant_measure(1, F(1, 2)),
                            uniform(1))[1].rhs
    assert rhs.terms == ((1, 4, 2, 1), (1, 2, 1, 1), (1, 4, 0, 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: chernoff_upper2x(-1), InvalidValue, "chernoff_upper2x needs a nonnegative mean"),
    (lambda: verify_bounds_from_hardcore(
        DecisionTree(3, 1, Leaf((1,))),
        hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0))),
     DimensionMismatch, "tree blocks must match the certificate's function"),
    (lambda: verify_leaf_product(DecisionTree(2, 2, Leaf((1, 1))), uniform(3)),
     DimensionMismatch, "verify_leaf_product expects single-block mu"),
], ids=["chernoff-upper2x-negative-mean", "bounds-from-hardcore-width",
        "leaf-product-multi-block-mu"])
def test_bound_refusals_name_their_fault(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message


@pytest.mark.parametrize("verify", [verify_density_conservation, verify_resilience,
                                    verify_error_no_advantage])
def test_density_verifiers_refuse_other_than_single_block(verify):
    n, half = 2, F(1, 2)
    tree, h, mu = DecisionTree(n, 2, Leaf((1, -1))), constant_measure(n, half), uniform(n)
    for args in ((tree, constant_measure(n + 1, half), mu),
                 (tree, h, uniform(n + 1)),
                 (DecisionTree(n + 1, 2, Leaf((1, -1))), h, mu)):
        with pytest.raises(DimensionMismatch):
            verify(*args)


def _at_most_wrong_blocks(tree, f, mu, t):
    """P[at most t of the k blocks wrong] under mu^k, by point enumeration."""
    target, mu_k = direct_product(f, tree.k), product_power(mu, tree.k)
    return sum((mu_k.weights[x] for x in range(1 << tree.total_vars)
                if sum(a != b for a, b in zip(evaluate(tree, x), target.table[x])) <= t),
               F(0))


def test_accuracy_bound_all_thresholds_and_independent_lhs():
    for tree, f, h, mu in INSTANCES[:12]:
        reports = verify_accuracy_bound(tree, f, h, mu)
        assert len(reports) == tree.k + 1
        for t, rep in enumerate(reports):
            assert rep.holds
            assert rep.lhs.as_rational() == _at_most_wrong_blocks(tree, f, mu, t)
            assert dict(rep.related)["g_form_dominates"]


def test_each_verifier_builds_its_leaf_statistics_once(monkeypatch):
    calls = dict.fromkeys(("leaf_stats", "product_power", "direct_product",
                           "block_error_law"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(bounds, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)

    for tree, _f, h, mu in INSTANCES[:4]:
        verify_resilience(tree, h, mu)
    assert calls == {"leaf_stats": 4, "product_power": 0, "direct_product": 0,
                     "block_error_law": 0}
    # one block-error law per call serves the lhs at every threshold
    for tree, f, h, mu in INSTANCES[:4]:
        verify_accuracy_bound(tree, f, h, mu)
    assert calls == {"leaf_stats": 8, "product_power": 4, "direct_product": 4,
                     "block_error_law": 4}
    # the leaf-product joint is enumerated point by point, never read off mu^k
    for tree, mu in leaf_product_instances(seed=99, count=4):
        verify_leaf_product(tree, mu)
    assert calls == {"leaf_stats": 8, "product_power": 4, "direct_product": 4,
                     "block_error_law": 4}


def test_each_report_encloses_its_slack_once(monkeypatch):
    calls = []
    real = ExpSum.enclosure

    def counted(self, prec_bits=DEFAULT_PRECISION_BITS):
        calls.append((self, prec_bits))
        return real(self, prec_bits)

    monkeypatch.setattr(ExpSum, "enclosure", counted)
    batches = [lambda: [lipschitz_check(0, 4, F(1, 2), "plain")],
               lambda: [lipschitz_check(1, 7, F(1, 3), "scaled")]]
    batches += [lambda inst=inst: verify_resilience(inst[0], inst[2], inst[3])
                for inst in INSTANCES[:3]]
    checked = 0
    for build in batches:
        calls.clear()
        reports = build()
        blobs = [bound_report_to_json(rep) for rep in reports]
        for rep, blob in zip(reports, blobs):
            if rep.slack.is_rational:
                continue
            assert isinstance(blob["slack"], list)
            # signed in _report, printed from the same enclosure
            assert sum(1 for v, prec in calls
                       if v == rep.slack and prec == DEFAULT_PRECISION_BITS) == 1
            checked += 1
    assert checked >= 8


def test_error_no_advantage_on_random_instances():
    for tree, _f, h, mu in INSTANCES[:15]:
        assert verify_error_no_advantage(tree, h, mu).holds


def test_leaf_product_on_random_instances():
    for tree, mu in leaf_product_instances(seed=99, count=15):
        rep = verify_leaf_product(tree, mu)
        assert rep.holds
        assert rep.lhs.as_rational() == 0


def test_embedding_identities_on_sign_fixed_instances():
    for tree, f, h, mu in sign_fixed_instances(seed=55, count=12):
        for rep in verify_embedding(tree, f, h, mu):
            assert rep.holds
            assert rep.slack.as_rational() == 0


def test_product_tree_inequality_on_random_instances():
    for t_xor, f, mu, k in xor_tree_instances(seed=77, count=20):
        assert verify_product_tree(t_xor, f, mu, k).holds


def test_bounds_from_hardcore_flags_hypothesis():
    cert = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(1))
    deep = full_parity_product_tree(2, 2)  # expected depth 4 > k*budget = 2
    rep = verify_bounds_from_hardcore(deep, cert)
    assert not rep.hypothesis_ok
    zero_budget = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0))
    const = DecisionTree(2, 2, Leaf((1, 1)))
    rep2 = verify_bounds_from_hardcore(const, zero_budget)
    assert rep2.hypothesis_ok
    assert rep2.holds  # gamma = 1/2 makes the rhs vacuous
    assert dict(rep2.related)["gamma_vacuous"]


def test_bounds_from_hardcore_non_vacuous_instance():
    # gamma = 1/40 and 7 blocks put e^{-delta*k/10} + 10*gamma below 1.
    cert = hardcore_solve(parity(2), uniform(2), F(99, 100), F(1, 40), F(1, 40))
    assert isinstance(cert, HardcoreCertificate)
    const = DecisionTree(2, 7, Leaf((1,) * 7))
    rep = verify_bounds_from_hardcore(const, cert)
    assert rep.hypothesis_ok and rep.holds
    assert not dict(rep.related)["gamma_vacuous"]
    assert rep.lhs == ExpSum.of(F(1, 128))
    assert rep.rhs == ExpSum.exp(F(-693, 2000)) + F(1, 4)
    assert (1 - rep.rhs).sign() == 1


def test_parity_counterexample_exact():
    rt, rep = parity_counterexample(2, 2, F(1, 4))
    assert rep.holds
    rel = dict(rep.related)
    assert rel["expected_depth"] == F(1)  # gamma*k*n = 1/4 * 4
    assert rel["shallow_leaf_law"] is True
    assert sum(w for w, _ in rt.components) == 1


def test_parity_leaf_error_is_half_on_shallow_pairs():
    rt, _rep = parity_counterexample(2, 2, F(1, 2))
    for _w, comp in rt.components:
        rep = verify_parity_leaf_error(comp)
        assert rep.holds


def test_xor_vs_product_gap_frozen_values():
    rep = xor_vs_product_gap(dictator(1, 0), uniform(1), 2, F(1, 4))
    assert rep.holds
    assert rep.lhs.as_rational() == F(4, 3)
    assert rep.rhs.as_rational() == F(3, 2)
    rep2 = xor_vs_product_gap(parity(2), uniform(2), 2, F(1, 4))
    assert rep2.holds
    assert rep2.lhs.as_rational() == F(8, 3)
    assert rep2.rhs.as_rational() == F(3)


def test_bound_report_serialization_forms():
    rep = lipschitz_check(0, 4, F(1, 2), "plain")
    blob = bound_report_to_json(rep)
    assert blob["context"] == "lipschitz-plain"
    assert blob["holds"] is True
    assert isinstance(blob["lhs"], list) and len(blob["lhs"]) == 2
    eq = verify_density_conservation(*[(t, h, m) for t, _f, h, m in INSTANCES[:1]][0])
    blob2 = bound_report_to_json(eq)
    assert isinstance(blob2["lhs"], str) and "/" in blob2["lhs"]
