"""dtlab benchmark: one command, one workload, every correctness gate.

    python3 benchmarks/run.py --workload {suite,frontier,hardcore-sweep}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the benchmark measures the dtlab under `src/` next to
this directory.  It starts one fresh single-threaded process per pass
(`bench_pass.py`), so every pass pays `import dtlab` and starts with cold
caches, as a `dtlab run` does.  Passes repeat until `--seconds` have gone
by (at least MIN_PASSES).  With `--trace 0` it prints the end-to-end
metrics, medians over the passes; with `--trace 1` it alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; times are in nominal seconds (see reference.py).  A failed gate
prints `correct: false` and exits 1; a checkout without `src/dtlab` or a
pass that crashes exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DIGESTS = os.path.join(OUT_DIR, "digests.json")

WORKLOADS = ("suite", "frontier", "hardcore-sweep")
DEFAULT_SEED = 9000
MIN_PASSES = 3          # untraced passes in an end-to-end run
MIN_TRACE_PAIRS = 2     # untraced/traced pairs in a traced run
SETUP_SAMPLES = 3       # import-only processes per run, besides the passes
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 160       # no pass may be expected to end later; runs end within 180 s

LAYERS = ("functions", "trees", "synth", "hardcore", "transforms", "bounds",
          "exactexp", "instances", "scenarios", "cli")
SCENARIOS = ("accuracy-bound", "closed-forms", "density-conservation",
             "embedding-identities", "frontier-oracle", "hardcore-pipeline",
             "leaf-product", "no-boosting", "parity-claim",
             "parity-direct-product", "product-tree", "resilience")

# (name, unit, better) -- BENCHMARK.json repeats these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ops_ok_frac", "ratio", "higher"),
)

# Counts must repeat exactly across traced passes.
_CALLS = ("trees.leaf_stats", "functions.product_power", "exactexp.ExpSum.sign",
          "exactexp.ExpSum.enclosure", "synth.pareto_frontier",
          "hardcore.hardcore_solve", "hardcore.best_response")
_SELF = ("trees.leaf_stats", "exactexp.ExpSum.enclosure", "synth.pareto_frontier",
         "synth.mixture_optimum", "hardcore.hardcore_solve",
         "scenarios.report_to_bytes")
PER_LAYER = (
    tuple((f"{name}.calls", "count", "lower") for name in _CALLS)
    + (("trees.leaf_stats.leaves", "count", "lower"),
       ("synth.frontier_points", "count", "lower"),
       ("scenarios.report_bytes", "bytes", "lower"),
       ("exactexp.exp_bounds.hits", "count", "higher"),
       ("exactexp.exp_bounds.misses", "count", "lower"),
       ("exactexp.exp_bounds.hit_ratio", "ratio", "higher"),
       ("hardcore.iterations", "count", "lower"),
       ("hardcore.certificates", "count", "higher"),
       ("hardcore.committees", "count", "higher"),
       ("hardcore.failed.deadline", "count", "lower"),
       ("hardcore.failed.error", "count", "lower"),
       ("hardcore.failed.recheck", "count", "lower"),
       ("hardcore.solve_p50_ms", "ms", "lower"),
       ("hardcore.solve_tail_ms", "ms", "lower"),
       ("hardcore.solve_tail_pct", "percent", "higher"),
       ("hardcore.solves_timed", "count", "higher"))
    + tuple((f"{name}.self_s", "s", "lower") for name in _SELF)
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + tuple((f"scenario.{name}.s", "s", "lower") for name in SCENARIOS)
    + (("trace.spans", "count", "lower"),
       ("trace.overhead_frac", "ratio", "lower"))
)


class GateFailure(Exception):
    """A correctness gate failed; the run reports correct: false."""


class PassCrashed(Exception):
    """A pass process failed; the run prints no result."""


# ---------------------------------------------------------------------------
# passes


def _bench_pass(*args: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassCrashed(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassCrashed(f"pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one_pass(workload: str, seed: int, traced: bool) -> dict:
    return _bench_pass("--workload", workload, "--seed", str(seed),
                       "--trace", "1" if traced else "0", "--out-dir", OUT_DIR)


def setup_samples() -> list[dict]:
    """Set-up and reference times of import-only processes.  The first one
    is dropped: it compiles bytecode, which users pay once, not per run."""
    return [_bench_pass("--setup-only") for _ in range(SETUP_SAMPLES + 1)][1:]


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced passes (alternating with traced ones under --trace 1) until
    `seconds` have gone by and the minimum count is met."""
    passes: list[dict] = []
    start = time.monotonic()

    def enough() -> bool:
        plain = sum(1 for p in passes if not p["traced"])
        if trace:
            return min(plain, len(passes) - plain) >= MIN_TRACE_PAIRS
        return plain >= MIN_PASSES

    longest = 0.0
    while not (enough() and time.monotonic() - start >= seconds):
        if time.monotonic() - start + longest > RUN_LIMIT_S:
            raise PassCrashed(f"only {len(passes)} passes within {RUN_LIMIT_S} s")
        t0 = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_one_pass(workload, seed, traced))
        longest = max(longest, time.monotonic() - t0)
    return passes


# ---------------------------------------------------------------------------
# gates


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources; keys the digest record."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "dtlab"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def check_recorded_digest(workload: str, seed: int, digest: str,
                          path: str = DIGESTS) -> None:
    """Every run of the same sources, workload and seed must give one digest.

    The first run records it under benchmarks/out; later runs compare."""
    key = f"{source_fingerprint()}:{workload}:{seed}"
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    known = record.get(key)
    if known is not None and known != digest:
        raise GateFailure(f"digest {digest} differs from an earlier run's {known}")
    if known is None:
        record[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def gate_passes(passes: list[dict]) -> None:
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in p["problems"]]
        if p["threads"] != 1:
            problems.append(f"pass {i}: {p['threads']} threads alive")
    for key in ("digest", "attempted", "failed", "exp_bounds"):
        values = {json.dumps(p[key], sort_keys=True) for p in passes}
        if len(values) != 1:
            problems.append(f"passes disagree on {key}: {sorted(values)}")
    traced = [p["trace"] for p in passes if p["traced"]]
    for key in ("calls", "counts", "spans"):
        values = {json.dumps(t[key], sort_keys=True) for t in traced}
        if len(values) > 1:
            problems.append(f"traced passes disagree on {key}")
    if problems:
        raise GateFailure("; ".join(problems))


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(samples: list[float], beyond: int = 10):
    """(p, value): the highest whole percentile with at least `beyond`
    samples above it (nearest rank), or (0, 0.0) when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return 0, 0.0


def scaled(record: dict, key: str) -> float:
    """record[key] in nominal seconds, by the reference-loop times that the
    same process took next to it on the same clock."""
    clock = "cpu" if key == "cpu_s" else "wall"
    return record[key] / reference.slowdown(record["ref"][clock])


def end_to_end_metrics(passes: list[dict], setups: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    first = plain[0]
    med = lambda key, records=plain: statistics.median(scaled(r, key) for r in records)
    return {
        "setup_s": med("setup_s", setups + passes),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        "ops_ok_frac": 1 - first["failed"] / first["attempted"],
    }


def per_layer_metrics(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p["trace"] for p in passes if p["traced"]]
    first = traced[0]
    calls, counts = first["calls"], first["counts"]
    med_self = lambda name: statistics.median(t["self_s"].get(name, 0.0) for t in traced)
    out = {f"{name}.calls": calls.get(name, 0) for name in _CALLS}
    out["trees.leaf_stats.leaves"] = counts.get("trees.leaf_stats.leaves", 0)
    out["synth.frontier_points"] = counts.get("synth.frontier_points", 0)
    out["scenarios.report_bytes"] = counts.get("scenarios.report_bytes", 0)
    cache = plain[0]["exp_bounds"]
    looked_up = cache["hits"] + cache["misses"]
    out["exactexp.exp_bounds.hits"] = cache["hits"]
    out["exactexp.exp_bounds.misses"] = cache["misses"]
    out["exactexp.exp_bounds.hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    extra = plain[0]["extra"]
    kinds = extra.get("kinds", {})
    out["hardcore.iterations"] = extra.get("iterations", 0)
    out["hardcore.certificates"] = kinds.get("certificate", 0)
    out["hardcore.committees"] = kinds.get("committee", 0)
    out["hardcore.failed.deadline"] = kinds.get("deadline", 0)
    out["hardcore.failed.error"] = kinds.get("error", 0)
    out["hardcore.failed.recheck"] = kinds.get("recheck", 0)
    solve_s = [s for p in plain for s in p["extra"].get("solve_s", [])]
    pct, tail = tail_percentile(solve_s)
    out["hardcore.solve_p50_ms"] = 1000 * statistics.median(solve_s) if solve_s else 0.0
    out["hardcore.solve_tail_ms"] = 1000 * tail
    out["hardcore.solve_tail_pct"] = pct
    out["hardcore.solves_timed"] = len(solve_s)
    for name in _SELF:
        out[f"{name}.self_s"] = med_self(name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(t["layer_self_s"][layer] for t in traced)
    for name in SCENARIOS:
        out[f"scenario.{name}.s"] = statistics.median(
            t["scenario_s"].get(name, 0.0) for t in traced)
    out["trace.spans"] = first["spans"]
    out["trace.overhead_frac"] = (
        statistics.median(scaled(p, "wall_s") for p in passes if p["traced"])
        / statistics.median(scaled(p, "wall_s") for p in plain) - 1)
    return out


def result_line(passes: list[dict], setups: list[dict], trace: bool,
                correct: bool) -> dict:
    table = PER_LAYER if trace else END_TO_END
    values = per_layer_metrics(passes) if trace else end_to_end_metrics(passes, setups)
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dtlab", "__init__.py")):
        print(f"error: no dtlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = [] if args.trace else setup_samples()
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassCrashed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT_DIR, f"passes-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    correct = True
    try:
        gate_passes(passes)
        check_recorded_digest(args.workload, args.seed, passes[0]["digest"])
    except GateFailure as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        correct = False
    line = result_line(passes, setups, bool(args.trace), correct)
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    walls = " ".join(f"{p['wall_s']:.2f}{'t' if p['traced'] else ''}" for p in passes)
    loops = " ".join(f"{1000 * statistics.fmean(p['ref']['wall']):.0f}" for p in passes)
    print(f"{len(passes)} passes, measured wall {walls} s, reference loop {loops} ms,"
          f" digest {passes[0]['digest'][:16]}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
