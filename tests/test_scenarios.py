"""Scenario registry behavior and run-report determinism."""

import argparse
import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction

import pytest

from dtlab import bounds, cli, exactexp, scenarios
from dtlab.errors import GuardExceeded, InvalidValue
from dtlab.exactexp import ExpSum
from dtlab.functions import BooleanFunction
from dtlab.instances import random_distribution
from dtlab.scenarios import (
    SCENARIOS,
    default_config,
    list_scenarios,
    report_to_bytes,
    run_config,
    run_scenario,
)
from dtlab.synth import ParetoFrontier, enumerate_all_trees
from dtlab.trees import _walk, error, expected_depth

SMALL_PARAMS = {
    "parity-claim": {"n": 2},
    "no-boosting": {"n": 4},
    "frontier-oracle": {"distributions": 1},
    "density-conservation": {"count": 4},
    "resilience": {"count": 3},
    "accuracy-bound": {"count": 3},
    "leaf-product": {"count": 4},
    "embedding-identities": {"count": 4},
    "hardcore-pipeline": {},
    "product-tree": {"count": 4},
    "parity-direct-product": {},
    "closed-forms": {},
}


def _small_config():
    return {"scenarios": [{"name": name, "params": dict(params)}
                          for name, params in sorted(SMALL_PARAMS.items())]}


def test_catalog_lists_every_scenario():
    entries = list_scenarios()
    names = [e["name"] for e in entries]
    assert names == sorted(SCENARIOS)
    assert "parity-claim" in names and "no-boosting" in names
    assert all(e["description"] for e in entries)


def test_default_config_covers_the_registry():
    cfg = default_config()
    assert [e["name"] for e in cfg["scenarios"]] == sorted(SCENARIOS)


def test_unknown_scenario_rejected():
    with pytest.raises(InvalidValue):
        run_scenario("nonesuch")


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidValue):
        run_scenario("parity-claim", {"m": 3})


def test_out_of_range_parameter_rejected():
    with pytest.raises(InvalidValue):
        run_scenario("parity-claim", {"n": 99})
    with pytest.raises(InvalidValue):
        run_scenario("parity-claim", {"eps": "2/3"})


def test_direct_product_guard_refuses_before_building(monkeypatch):
    def building(*args):
        raise AssertionError("the counterexample was built before the guard")

    monkeypatch.setattr(scenarios, "parity_counterexample", building)
    with pytest.raises(GuardExceeded):
        run_scenario("parity-direct-product", {"n": 4, "k": 4})


def test_parameters_accept_fraction_strings():
    res = run_scenario("parity-claim", {"n": 2, "eps": "1/2"})
    assert res.params["eps"] == "1/2"
    assert all(c.report.holds for c in res.checks)


def test_every_scenario_passes_at_small_scale():
    for name, params in SMALL_PARAMS.items():
        res = run_scenario(name, params)
        assert res.scenario == name
        assert res.checks, name
        assert all(c.report.holds for c in res.checks), name


def test_empty_scenario_list_is_a_passing_report():
    report, timings = run_config({"scenarios": []})
    assert report["summary"] == {
        "checks": 0, "failed": 0, "passed": 0, "ok": True}
    assert report["scenarios"] == [] and timings == []


def test_report_is_byte_identical_across_jobs():
    cfg = _small_config()
    r1, _ = run_config(cfg, jobs=1)
    r2, _ = run_config(cfg, jobs=4)
    assert report_to_bytes(r1) == report_to_bytes(r2)


def test_report_scenarios_are_sorted_regardless_of_config_order():
    cfg = {"scenarios": [
        {"name": "no-boosting", "params": {"n": 4}},
        {"name": "closed-forms"},
        {"name": "parity-claim", "params": {"n": 2}},
    ]}
    report, _ = run_config(cfg)
    assert [s["scenario"] for s in report["scenarios"]] == [
        "closed-forms", "no-boosting", "parity-claim"]
    assert [s["name"] for s in report["config"]["scenarios"]] == [
        "closed-forms", "no-boosting", "parity-claim"]


def test_config_echo_includes_resolved_defaults():
    report, _ = run_config({"scenarios": [{"name": "parity-claim"}]})
    echoed = report["config"]["scenarios"][0]["params"]
    assert echoed == {"eps": "1/4", "n": 4}


def test_config_validation():
    with pytest.raises(InvalidValue):
        run_config({"scenario": []})
    with pytest.raises(InvalidValue):
        run_config({"scenarios": {}})
    with pytest.raises(InvalidValue):
        run_config({"scenarios": [{"params": {}}]})
    with pytest.raises(InvalidValue):
        run_config({"scenarios": [{"name": "closed-forms", "extra": 1}]})
    # the printed precision is fixed at 128 bits, which the report echoes; a
    # config may state a floor that it meets, never a wider one
    for bits in (4, 7, 129, 256, 8192, 1 << 20):
        with pytest.raises(InvalidValue, match=rf"precision_bits must lie in \[8,128\], got {bits}"):
            run_config({"precision_bits": bits, "scenarios": []})
    for stated in ({"precision_bits": 8}, {"precision_bits": 128}, {}):
        report, _ = run_config({**stated, "scenarios": [{"name": "closed-forms"}]})
        assert report["summary"]["ok"] and report["config"]["precision_bits"] == 128
    with pytest.raises(TypeError):
        run_config({"scenarios": []}, precision_bits=128)


def test_check_payloads_are_json_clean():
    report, _ = run_config({"scenarios": [{"name": "hardcore-pipeline"}]})
    # every artifact must be a JSON-serializable dict with a kind tag
    for tag, art in report["scenarios"][0]["artifacts"].items():
        assert art["kind"] in ("hardcore_certificate", "committee"), tag
    json.dumps(report)


def _taking_precision(module):
    return sorted(name for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and fn.__module__ == module.__name__
                  and any("prec" in p for p in inspect.signature(fn).parameters))


def test_a_scenario_is_a_function_of_its_params():
    # no verdict and no printed value takes a precision: there is no setting
    for fn, _defaults, _desc in SCENARIOS.values():
        assert list(inspect.signature(fn).parameters) == ["params"]
    assert {m.__name__: _taking_precision(m) for m in (bounds, scenarios, cli)} == {
        "dtlab.bounds": [], "dtlab.scenarios": [], "dtlab.cli": []}
    for fn in (exactexp.value_json, exactexp.decimal_interval):
        assert list(inspect.signature(fn).parameters) == ["value"]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [s for p in sub.choices.values() for a in p._actions for s in a.option_strings]
    assert "--config" in options and not any("prec" in s for s in options)
    assert list(inspect.signature(ExpSum.sign).parameters) == ["self"]


def test_stating_a_precision_changes_no_byte():
    report, _ = run_config(_small_config())
    # some slack involves e^x and is printed as an interval
    assert any(isinstance(c["slack"], list) for s in report["scenarios"] for c in s["checks"])
    unstated = report_to_bytes(report)
    for bits in (8, 128):
        stated = {"precision_bits": bits, **_small_config()}
        assert report_to_bytes(run_config(stated)[0]) == unstated, bits


def test_frontier_report_is_pinned():
    # the frontier workload's large DPs, with eps and gamma fixed
    config = {"scenarios": [
        {"name": "parity-claim", "params": {"n": 6, "eps": "1/4"}},
        {"name": "parity-claim", "params": {"n": 7, "eps": "1/4"}},
        {"name": "no-boosting", "params": {"n": 6}},
        {"name": "no-boosting", "params": {"n": 7}},
        {"name": "parity-direct-product", "params": {"n": 2, "k": 3, "gamma": "1/2"}},
        {"name": "parity-direct-product", "params": {"n": 3, "k": 2, "gamma": "1/2"}},
    ]}
    data = report_to_bytes(run_config(config)[0])
    assert len(data) == 2_974_605
    assert hashlib.sha256(data).hexdigest() == (
        "a4071dc28a558d1ad85e83eeff308127d61db074cc2a954e51c0bbc242be04c6")


def test_frontier_oracle_table_matches_the_per_tree_sums(monkeypatch):
    trees = enumerate_all_trees(2)
    walks = [[_walk(t, x) for x in range(4)] for t in trees]
    rng = random.Random(157)
    for labels in itertools.product((1, -1), repeat=4):
        f = BooleanFunction(2, labels)
        for _ in range(4):
            mu = random_distribution(rng, 2)
            best = []
            for d, e in sorted({(expected_depth(t, mu), error(t, f, mu)) for t in trees}):
                if not best or e < best[-1][1]:
                    best.append((d, e))
            assert scenarios._brute_frontier(walks, f, mu) == best
    # and the scenario still tells a wrong DP frontier from the enumeration
    real = scenarios.pareto_frontier

    def shifted(f, mu):
        front = real(f, mu)
        return ParetoFrontier(front.sense, front.n, front.k, front.points[1:])

    monkeypatch.setattr(scenarios, "pareto_frontier", shifted)
    result = run_scenario("frontier-oracle", {"distributions": 1})
    assert not any(c.report.holds for c in result.checks)


_SCALARS = (0.1, -0.0, 1e300, 5e-324, -2.5e-07, 1e16, float("nan"), float("inf"),
            float("-inf"), None, True, False, 0, -1, 2**64 + 1, -(2**200), "",
            "plain", "na\u00efve \u2603 \U0001d11e", "\t\n\x00\x1f\x7f \" \\ /",
            "\ud800 lone", "\u2028\u2029")


def _random_text(rng):
    return "".join(chr(rng.choice((rng.randrange(32, 127), rng.randrange(32),
                                   rng.randrange(0x110000))))
                   for _ in range(rng.randrange(6)))


def _random_document(rng, depth=0):
    roll = rng.random()
    if depth >= 6 or roll < 0.35:
        pick = rng.randrange(4)
        return (rng.choice(_SCALARS) if pick == 0 else
                rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-30, 30) if pick == 1 else
                rng.getrandbits(100) - 2**99 if pick == 2 else _random_text(rng))
    width = rng.randrange(4)
    if roll < 0.65:
        return [_random_document(rng, depth + 1) for _ in range(width)]
    return {_random_text(rng): _random_document(rng, depth + 1) for _ in range(width)}


def _random_shared_document(rng, pool, depth=0):
    """Like _random_document, but a container may be one made before for the
    same document, at any depth, so objects recur at equal and other indents
    and shared containers nest in shared containers."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    roll = rng.random()
    if depth >= 5 or roll < 0.3:
        return _random_document(rng, 6)
    items = [_random_shared_document(rng, pool, depth + 1) for _ in range(rng.randrange(4))]
    doc = (items if roll < 0.55 else tuple(items) if roll < 0.65 else
           {_random_text(rng): v for v in items})
    pool.append(doc)
    return doc


def _shared_documents():
    leaf = {"leaf": [1, -1]}
    node = {"q": 0, "neg": leaf, "pos": leaf}
    empty_dict, empty_list, pair = {}, [], (1, ("x", ()))
    tree = {"n": 2, "k": 1, "root": {"q": 1, "neg": node, "pos": leaf}}
    return [
        {"a": leaf, "b": leaf, "c": [leaf, {"d": leaf}]},       # equal and other indents
        [node, [node, leaf], {"x": [node]}, tree, [tree]],      # shared in shared
        [empty_dict, empty_list, {"e": empty_dict, "l": empty_list},
         [empty_list, [empty_dict]], empty_dict],              # shared empties
        {"kind": "committee", "trees": [tree] * 67},            # one member repeated
        [pair, pair, {"p": pair}, [pair, [pair]]],              # shared tuples
    ]


def test_report_writer_matches_json_dumps():
    # every type json.load yields, as `dtlab export --format json` passes
    # user files through the writer; tuples and non-string keys as json treats them
    rng = random.Random(4471)
    docs = [_random_document(rng) for _ in range(300)]
    docs += [list(_SCALARS), {}, [], [[]], {"a": {}, "b": [{}]}, (1, ("x", ())),
             {2: "two", -1: None}, {0.5: 1, 1.5: 2}, {True: 1, False: 0}, {None: 0}]
    # containers met more than once, which the writer writes again from text
    docs += _shared_documents()
    shared_rng = random.Random(4472)
    docs += [_random_shared_document(shared_rng, []) for _ in range(300)]
    for doc in docs:
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert report_to_bytes(doc) == expected.encode("utf-8"), doc


def test_report_writer_refuses_what_json_refuses():
    for bad in ({"v": Fraction(1, 2)}, [object()], {(1, 2): 0}, {"a": 1, 2: 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            report_to_bytes(bad)


@pytest.mark.parametrize("config", [[], "{}", None], ids=["list", "string", "null"])
def test_run_config_refuses_a_config_that_is_not_an_object(config):
    with pytest.raises(InvalidValue) as got:
        run_config(config)
    assert str(got.value) == "config must be a JSON object"
