"""Tests for the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import dtlab  # noqa: E402
import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_CONFIG = {
    "precision_bits": 64,
    "scenarios": [
        {"name": "parity-claim", "params": {"n": 3, "eps": "1/8"}},
        {"name": "accuracy-bound", "params": {"seed": 1, "count": 3}},
        {"name": "resilience", "params": {"seed": 2, "count": 2}},
        {"name": "hardcore-pipeline", "params": {}},
    ],
}


def _config_pass(config, tmp_path, expect=None):
    inputs = workloads.build_config_run(config, str(tmp_path))
    return workloads.check_config_run(inputs, workloads.execute_config_run(inputs),
                                      expect)


def _pass_record(outcome, wall=1.0, traced=False):
    return {"traced": traced, "setup_s": 0.3, "wall_s": wall, "cpu_s": wall,
            "ref": {"wall": [reference.REF_NOMINAL_S], "cpu": [reference.REF_NOMINAL_S]},
            "peak_rss_mib": 60.0, "threads": 1, "attempted": outcome.attempted,
            "failed": outcome.failed, "digest": outcome.digest,
            "problems": outcome.problems, "extra": outcome.extra,
            "exp_bounds": {"hits": 0, "misses": 0}}


def test_every_end_to_end_metric_prints_with_its_unit(tmp_path):
    outcome = _config_pass(TINY_CONFIG, tmp_path)
    assert outcome.problems == []
    passes = [_pass_record(outcome, wall) for wall in (1.0, 3.0, 2.0)]
    nominal = reference.REF_NOMINAL_S
    setups = [{"setup_s": 0.3, "ref": {"wall": [nominal / 2, nominal * 1.5],
                                       "cpu": [nominal]}}]
    line = run.result_line(passes, setups, trace=False, correct=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 3 * outcome.attempted and line["failed"] == 0
    for name, unit, _better in run.END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)
    assert line["metrics"]["wall_s"]["value"] == 2.0
    assert line["metrics"]["setup_s"]["value"] == pytest.approx(0.3)
    assert line["metrics"]["ops_ok_frac"]["value"] == 1.0
    json.dumps(line)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_corrupted_digest_fails_the_gate(tmp_path):
    outcome = _config_pass(TINY_CONFIG, tmp_path, expect="0" * 64)
    assert any("pinned" in p for p in outcome.problems)
    with pytest.raises(run.GateFailure):
        run.gate_passes([_pass_record(outcome)])

    good = _config_pass(TINY_CONFIG, tmp_path)
    corrupt = dict(_pass_record(good), digest="f" * 64)
    with pytest.raises(run.GateFailure, match="digest"):
        run.gate_passes([_pass_record(good), corrupt])

    record = str(tmp_path / "digests.json")
    run.check_recorded_digest("suite", 1, good.digest, record)
    run.check_recorded_digest("suite", 1, good.digest, record)
    with pytest.raises(run.GateFailure, match="earlier run"):
        run.check_recorded_digest("suite", 1, "f" * 64, record)


def test_solve_past_its_deadline_counts_as_failed():
    # Instance 9006 at budget 3/2 is the known sympy hang.
    sweep = workloads.build_sweep(0, deadline_s=0.2, instances=7, skip=())
    sweep.solves = [solve for solve in sweep.solves
                    if solve[0] == 6 and solve[3] >= Fraction(3, 2)]
    raw = workloads.execute_sweep(sweep)
    assert raw[0][1] < 5
    outcome = workloads.check_sweep(sweep, raw)
    assert outcome.attempted == 2
    assert outcome.extra["kinds"]["deadline"] == 1
    assert outcome.failed == 1
    metrics = run.end_to_end_metrics([_pass_record(outcome)], [])
    assert metrics["ops_ok_frac"] == 0.5


def test_sweep_without_deadline_pressure_decides_and_rechecks():
    sweep = workloads.build_sweep(0, instances=1)
    assert [solve[3] for solve in sweep.solves] == [
        Fraction(1, 2), Fraction(3, 2), Fraction(2)]
    outcome = workloads.check_sweep(sweep, workloads.execute_sweep(sweep))
    kinds = outcome.extra["kinds"]
    assert kinds["certificate"] + kinds["committee"] == 3
    assert outcome.failed == 0


def test_full_sweep_leaves_out_exactly_the_known_failures():
    sweep = workloads.build_sweep(0)
    assert len(sweep.solves) == 64 - len(workloads.SWEEP_KNOWN_FAILURES) == 59
    kept = {(s, budget) for s, _f, _mu, budget in sweep.solves}
    assert not kept & workloads.SWEEP_KNOWN_FAILURES


def test_traced_then_untraced_reports_are_byte_identical(tmp_path):
    originals = (dtlab.cli.main, dtlab.scenarios.run_config, dtlab.trees.leaf_stats,
                 dtlab.exactexp.ExpSum.sign)
    counts = []
    digests = []
    for _ in range(2):
        tracer = layertrace.LayerTracer().install()
        assert dtlab.cli.main is not originals[0]
        try:
            outcome = _config_pass(TINY_CONFIG, tmp_path)
        finally:
            tracer.remove()
        counts.append((dict(tracer.calls), dict(tracer.counts)))
        digests.append(outcome.digest)
        assert tracer.calls["trees.leaf_stats"] > 0
        assert tracer.calls["exactexp.ExpSum.sign"] > 0
        assert "exactexp.exp_bounds" not in tracer.calls
        assert all(span is not None for span in tracer.spans)
    assert counts[0] == counts[1]
    assert (dtlab.cli.main, dtlab.scenarios.run_config, dtlab.trees.leaf_stats,
            dtlab.exactexp.ExpSum.sign) == originals
    untraced = _config_pass(TINY_CONFIG, tmp_path)
    assert digests == [untraced.digest, untraced.digest]


def test_self_time_excludes_children(tmp_path):
    tracer = layertrace.LayerTracer().install()
    try:
        _config_pass(TINY_CONFIG, tmp_path)
    finally:
        tracer.remove()
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    roots = [s for s in spans if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["cli.main"]
    total_self = sum(tracer.self_s.values())
    root_span = roots[0]["end"] - roots[0]["start"]
    assert total_self == pytest.approx(root_span, rel=1e-6)


def test_times_scale_by_the_reference_loop_on_their_own_clock():
    nominal = reference.REF_NOMINAL_S
    record = {"wall_s": 6.0, "cpu_s": 6.0,
              "ref": {"wall": [2 * nominal], "cpu": [3 * nominal]}}
    assert run.scaled(record, "wall_s") == pytest.approx(3.0)
    assert run.scaled(record, "cpu_s") == pytest.approx(2.0)
    times = reference.reference_times(2)
    assert len(times["wall"]) == len(times["cpu"]) == 2
    assert reference.slowdown(times["cpu"]) > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(64))) == (84, 53)
    assert run.tail_percentile(list(range(128)))[0] == 92
    assert run.tail_percentile([1.0] * 5) == (0, 0.0)
