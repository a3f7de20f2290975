"""Hardcore-measure game: LP kernel, certificates, and boosted committees."""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from dtlab.errors import InvalidValue, IterationBudget
from dtlab.functions import (
    Distribution,
    constant_measure,
    density,
    dictator,
    parity,
    uniform,
)
from dtlab.hardcore import (
    Committee,
    HardcoreCertificate,
    _solve_lp,
    best_response,
    certificate_from_json,
    certificate_to_json,
    committee_from_json,
    committee_metrics,
    committee_size,
    committee_to_json,
    hardcore_solve,
    maj_boost,
    verify_certificate,
)
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Query,
    error,
    evaluate,
    expected_depth,
)

F = Fraction


# --- LP kernel regressions; sympy's own bounds handling clamps free and
# negative variables to zero, which is exactly what _solve_lp must avoid.


def test_lp_free_variable_goes_negative():
    val, xs = _solve_lp([F(1)], [[F(-1)]], [F(5)], [], [], [(None, None)])
    assert (val, xs) == (F(-5), [F(-5)])


def test_lp_negative_box():
    val, xs = _solve_lp([F(1)], [], [], [], [], [(F(-3), F(-1))])
    assert (val, xs) == (F(-3), [F(-3)])


def test_lp_upper_bound_only():
    # max x with x <= 7 is min -x
    val, xs = _solve_lp([F(-1)], [], [], [], [], [(None, F(7))])
    assert (val, xs) == (F(-7), [F(7)])


def test_lp_shifted_lower_bound_with_equality():
    # min x + y  s.t.  x + y = 5, x >= 2, 0 <= y <= 1  -> x = 4, y = 1
    val, xs = _solve_lp([F(1), F(1)], [], [], [[F(1), F(1)]], [F(5)],
                        [(F(2), None), (F(0), F(1))])
    assert val == F(5)
    assert xs[0] + xs[1] == F(5)
    assert xs[0] >= 2 and 0 <= xs[1] <= 1


def test_lp_orthant_only_branch():
    val, xs = _solve_lp([F(3), F(2)], [], [], [], [], [(F(0), None), (F(1), F(2))])
    assert val == F(2)
    assert xs == [F(0), F(1)]
    with pytest.raises(InvalidValue):
        _solve_lp([F(-1)], [], [], [], [], [(F(0), None)])


# --- best responses


def test_best_response_at_zero_budget_is_best_constant():
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, F(1, 2))
    br = best_response(f, mu, h, F(0))
    # parity is balanced, so no constant guess has any advantage
    assert br.advantage == 0


def test_best_response_full_budget_reads_off_density():
    f = parity(2)
    mu = uniform(2)
    h = constant_measure(2, F(1, 8))
    br = best_response(f, mu, h, F(2))
    assert br.advantage == density(h, mu)
    assert sum(w for w, _ in br.components) == 1


def test_best_response_dominates_handcrafted_trees():
    f = dictator(2, 1)
    mu = Distribution(2, (F(1, 8), F(1, 8), F(3, 8), F(3, 8)))
    h = constant_measure(2, F(1, 2))
    br = best_response(f, mu, h, F(1, 2))
    hand = DecisionTree(2, 1, Leaf((1,)))
    hand_adv = sum(mu.weight(x) * f.value(x) * h.value(x) * evaluate(hand, x)[0]
                   for x in range(4))
    assert br.advantage >= hand_adv


# --- full pipeline on parity, frozen values


def test_parity2_certificate_values_sweep():
    f, mu = parity(2), uniform(2)
    for budget, adv in ((F(0), F(0)), (F(1, 2), F(1, 32)), (F(1), F(1, 16))):
        cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), budget)
        assert isinstance(cert, HardcoreCertificate)
        assert cert.best_response_advantage == adv
        assert density(cert.measure, mu) == F(1, 8)
        assert verify_certificate(cert)["ok"]


def test_parity2_committee_above_threshold():
    f, mu = parity(2), uniform(2)
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
    assert isinstance(com, Committee)
    assert com.r == committee_size(F(1, 4), F(1, 2)) == 45
    err, cost = committee_metrics(com, f, mu)
    assert err <= F(1, 4)
    assert cost <= com.r * 2


def test_certificate_advantage_monotone_in_budget():
    f, mu = parity(2), uniform(2)
    budgets = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    advs = []
    for b in budgets:
        cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), b)
        advs.append(cert.best_response_advantage)
    assert advs == sorted(advs)


def test_tampered_certificate_is_rejected():
    cert = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(1))
    wrong_density = HardcoreCertificate(
        cert.f, cert.mu, constant_measure(2, F(1, 2)), cert.delta, cert.gamma,
        cert.depth_budget, cert.best_response_advantage, cert.witness,
        cert.iterations)
    report = verify_certificate(wrong_density)
    assert not report["ok"]
    assert not report["density_is_half_delta"]
    understated = HardcoreCertificate(
        cert.f, cert.mu, cert.measure, cert.delta, cert.gamma,
        cert.depth_budget, F(0), cert.witness, cert.iterations)
    report = verify_certificate(understated)
    assert not report["ok"]
    assert not report["fresh_best_response_matches"]


def test_committee_sizes_are_odd_and_match_formula():
    assert committee_size(F(1, 4), F(1, 2)) == 45
    assert committee_size(F(1, 8), F(1, 2)) == 67
    for d, g in ((F(1, 2), F(1, 2)), (F(1, 16), F(1, 4))):
        assert committee_size(d, g) % 2 == 1


def test_committee_size_is_the_smallest_odd_r_passing_the_exact_inequality():
    # Oracle: r * gamma^2 / c >= ln(1/delta) in 60-digit decimal arithmetic,
    # which is the exact inequality e^{r gamma^2 / c} >= 1/delta.
    def passes(r, delta, gamma, c):
        e = r * gamma ** 2 / c
        with localcontext() as ctx:
            ctx.prec = 60
            return (Decimal(e.numerator) / e.denominator
                    >= (Decimal(delta.denominator) / delta.numerator).ln())

    deltas = (F(1, 2), F(1, 3), F(1, 4), F(1, 8), F(1, 10), F(1, 100), F(3, 4), F(9, 10))
    gammas = (F(1), F(1, 2), F(1, 3), F(1, 4), F(3, 5), F(1, 10))
    for delta in deltas:
        for gamma in gammas:
            for c in (1, 8):
                r = committee_size(delta, gamma, c)
                assert r % 2 == 1
                assert passes(r, delta, gamma, c), (delta, gamma, c, r)
                assert r == 1 or not passes(r - 2, delta, gamma, c), (delta, gamma, c, r)
    with pytest.raises(InvalidValue):
        committee_size(F(1, 4), F(0))


def test_maj_boost_is_seed_deterministic():
    f, mu = parity(2), uniform(2)
    a = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=9)
    b = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=9)
    c = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2), seed=10)
    assert isinstance(a, Committee) and a.trees == b.trees
    assert isinstance(c, Committee)  # different seed may or may not differ


def test_committee_single_tree_when_one_member_suffices():
    # dictator under uniform: the depth-1 tree is exact, so every sampled
    # member computes f and the majority has zero error
    f, mu = dictator(1, 0), uniform(1)
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert isinstance(com, Committee)
    err, cost = committee_metrics(com, f, mu)
    assert err == 0
    assert cost <= com.r


def test_iteration_budget_raises():
    # this skewed instance needs 4 column-generation rounds to settle
    f = parity(2)
    mu = Distribution(2, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    assert hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1)).iterations == 4
    with pytest.raises(IterationBudget):
        hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1), max_iterations=1)


def test_committee_odd_size_enforced():
    f, mu = dictator(1, 0), uniform(1)
    t = DecisionTree(1, 1, Query(0, Leaf((-1,)), Leaf((1,))))
    with pytest.raises(InvalidValue):
        Committee(f, mu, (t, t), F(1, 4), F(1, 2), F(1), 0, 1)


def test_serialization_round_trips():
    f, mu = parity(2), uniform(2)
    cert = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(1))
    assert certificate_from_json(certificate_to_json(cert)) == cert
    com = hardcore_solve(f, mu, F(1, 4), F(1, 2), F(2))
    assert committee_from_json(committee_to_json(com)) == com
