"""Acceptance suite: one test per numbered criterion, each printing a verdict.

Every comparison is exact rational arithmetic or a certified interval
comparison at 128 bits; there are no float tolerances anywhere.  Criteria
with runtime gates assert wall-clock limits alongside the values.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from dtlab.bounds import (
    PHI_IDS,
    chernoff_lower,
    lipschitz_check,
    parity_counterexample,
    verify_accuracy_bound,
    verify_density_conservation,
    verify_embedding,
    verify_leaf_product,
    verify_product_tree,
    verify_resilience,
    xor_vs_product_gap,
)
from dtlab.exactexp import ExpSum
from dtlab.functions import (
    BooleanFunction,
    dictator,
    direct_product,
    no_error_reduction_function,
    parity,
    product_power,
    uniform,
)
from dtlab.hardcore import (
    Committee,
    HardcoreCertificate,
    committee_metrics,
    hardcore_solve,
    verify_certificate,
)
from dtlab.instances import (
    leaf_product_instances,
    random_distribution,
    sign_fixed_instances,
    standard_verification_instances,
    xor_tree_instances,
)
from dtlab.scenarios import default_config, report_to_bytes, run_config
from dtlab.synth import enumerate_all_trees, opt_depth, pareto_frontier
from dtlab.trees import error, expected_depth

F = Fraction


def _verdict(tag: str) -> None:
    print(f"ACCEPTANCE {tag}: PASS")


def test_c01_parity_optimum_is_half_n():
    for n in (2, 4, 6):
        t0 = time.monotonic()
        front = pareto_frontier(parity(n), uniform(n))
        assert opt_depth(front, F(1, 4)) == F(n, 2)
        elapsed = time.monotonic() - t0
        if n == 6:
            assert elapsed < 10, f"n=6 took {elapsed:.1f}s"
    _verdict("01 parity-optimum n in {2,4,6}, n=6 under 10s")


def test_c02_no_error_reduction():
    for n in (4, 6):
        front = pareto_frontier(no_error_reduction_function(n), uniform(n))
        assert opt_depth(front, F(1, 4)) == 0
        assert opt_depth(front, F(1, 8)) >= F(n - 1, 4)
    _verdict("02 no-boosting: free at 1/4, depth >= (n-1)/4 at 1/8")


def test_c03_frontier_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20240202)
    trees = enumerate_all_trees(2)
    for labels in itertools.product((1, -1), repeat=4):
        f = BooleanFunction(2, labels)
        for _ in range(5):
            mu = random_distribution(rng, 2)
            dp = [(p.depth, p.value) for p in pareto_frontier(f, mu).points]
            pts = sorted(set((expected_depth(t, mu), error(t, f, mu))
                             for t in trees))
            brute, cur = [], None
            for d, e in pts:
                if cur is None or e < cur:
                    brute.append((d, e))
                    cur = e
            assert dp == brute, (labels, mu)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    _verdict("03 DP frontier == enumeration, 16 functions x 5 distributions")


INSTANCES_100 = standard_verification_instances(seed=404, count=100)


def test_c04_density_conservation():
    for tree, _f, h, mu in INSTANCES_100:
        rep = verify_density_conservation(tree, h, mu)
        assert rep.holds and rep.slack.as_rational() == 0
    _verdict("04 density conservation exact on 100 instances")


def test_c05_resilience_all_phi():
    for tree, _f, h, mu in INSTANCES_100:
        reports = verify_resilience(tree, h, mu)
        assert [r.context for r in reports] == [f"resilience-{phi}" for phi in PHI_IDS]
        assert all(r.holds for r in reports)
    _verdict("05 resilience slack >= 0, five Phi variants, same 100 instances")


def test_c06_accuracy_bound_every_threshold():
    for tree, f, h, mu in INSTANCES_100:
        reports = verify_accuracy_bound(tree, f, h, mu)
        assert len(reports) == tree.k + 1
        assert all(r.holds for r in reports)
    _verdict("06 accuracy bound for every t in {0..k} on 100 instances")


def test_c07_leaf_product_law():
    for tree, mu in leaf_product_instances(seed=707, count=50):
        rep = verify_leaf_product(tree, mu)
        assert rep.holds and rep.lhs.as_rational() == 0
    _verdict("07 leaf conditional law factors on 50 trees, nk <= 10")


def test_c08_embedding_identities():
    for tree, f, h, mu in sign_fixed_instances(seed=808, count=50):
        for rep in verify_embedding(tree, f, h, mu):
            assert rep.holds and rep.slack.as_rational() == 0
    _verdict("08 embedding depth and advantage identities, 50 sign-fixed")


def test_c09_hardcore_pipeline():
    for n in (2, 3):
        f, mu = parity(n), uniform(n)
        for delta in (F(1, 4), F(1, 8)):
            t0 = time.monotonic()
            below = hardcore_solve(f, mu, delta, F(1, 2), F(0))
            assert isinstance(below, HardcoreCertificate)
            assert verify_certificate(below)["ok"]
            above = hardcore_solve(f, mu, delta, F(1, 2), F(n))
            assert isinstance(above, Committee)
            err, cost = committee_metrics(above, f, mu)
            assert err <= delta
            assert cost <= above.r * n
            elapsed = time.monotonic() - t0
            assert elapsed < 120, f"hardcore n={n} delta={delta}: {elapsed:.1f}s"
    _verdict("09 hardcore certificates below budget, committees above")


def test_c10_product_tree_inequality():
    shapes = set()
    for t_xor, f, mu, k in xor_tree_instances(seed=1010, count=100):
        shapes.add((t_xor.n // k, k))
        assert verify_product_tree(t_xor, f, mu, k).holds
    assert shapes == {(1, 2), (2, 2), (1, 3)}
    for f, k in ((dictator(1, 0), 2), (parity(2), 2)):
        assert xor_vs_product_gap(f, uniform(f.n), k, F(1, 4)).holds
    _verdict("10 product-tree slack >= 0 on 100 XOR trees + frontier gap")


def test_c11_parity_direct_product_upper_bound():
    n, k, gamma = 2, 2, F(1, 4)
    rt, rep = parity_counterexample(n, k, gamma)
    assert rep.holds
    rel = dict(rep.related)
    assert rel["expected_depth"] == gamma * k * n
    front = pareto_frontier(direct_product(parity(n), k),
                            product_power(uniform(n), k))
    assert opt_depth(front, 1 - gamma) <= gamma * k * n
    _verdict("11 parity mixture exact at (2,2,1/4) + frontier cross-check")


def test_c12_lipschitz_grid_and_chernoff_hand_value():
    for i in range(10):
        for j in range(10):
            for m in range(10):
                t, z, d = F(i, 4), F(j), F(m, 2)
                assert lipschitz_check(t, z, d, "plain").holds
                if t > 0 and z >= 5 * t:
                    assert lipschitz_check(t, z, d, "scaled").holds
    assert chernoff_lower(8, 4) == ExpSum.exp(-1)
    _verdict("12 lipschitz 10x10x10 grid both forms + chernoff e^-1 at (8,4)")


def test_c13_suite_determinism():
    cfg = default_config()
    r1, _ = run_config(cfg, jobs=1)
    r2, _ = run_config(cfg, jobs=4)
    assert r1["summary"]["ok"] and r2["summary"]["ok"]
    assert report_to_bytes(r1) == report_to_bytes(r2)
    assert hashlib.sha256(report_to_bytes(r1)).hexdigest() == (
        "d3d8e403cf05451358c8de3e1f537b5d4e61ba88e9cf0b7caf098b3ab7efc4f0")
    _verdict("13 full suite byte-identical across two runs")
