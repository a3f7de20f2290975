"""One benchmark pass in a fresh process; run.py starts one per pass.

    python3 benchmarks/bench_pass.py --workload NAME --seed N --trace 0|1
        --out-dir DIR
    python3 benchmarks/bench_pass.py --setup-only

Times `import dtlab` (set-up), builds the workload's inputs, times the
workload between two rounds of a reference loop, re-checks the workload's
outputs and prints one JSON object on stdout.  With `--trace 1` the layer
tracer wraps dtlab for the timed span only and the spans go to DIR as
JSONL.  `--setup-only` prints the set-up and reference times alone.  The
first lines import as little as possible so the set-up time is that of
`import dtlab` alone.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import dtlab  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    """Process CPU time, children included, at full clock resolution."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(name: str, seed: int, trace: bool, out_dir: str) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, out_dir)
    ref = reference.reference_times()
    slowdown = reference.slowdown(ref["cpu"])
    tracer = None
    if trace:
        import layertrace  # end-to-end passes never load the wrappers
        tracer = layertrace.LayerTracer().install()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        raw = workload.execute(inputs, slowdown)
    finally:
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.remove()
    for clock, times in reference.reference_times().items():
        ref[clock] += times
    cache = dtlab.exp_bounds.cache_info()
    outcome = workload.check(inputs, raw)
    record = {
        "workload": name, "seed": seed, "traced": trace,
        "setup_s": SETUP_S, "wall_s": wall, "cpu_s": cpu, "ref": ref,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "digest": outcome.digest, "problems": outcome.problems,
        "extra": outcome.extra,
        "exp_bounds": {"hits": cache.hits, "misses": cache.misses},
    }
    if tracer is not None:
        record["trace"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "scenario_s": dict(tracer.scenario_s),
            "layer_self_s": {layer: tracer.layer_self_s(layer)
                             for layer in layertrace.LAYERS},
            "spans": len(tracer.spans),
        }
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(dtlab.__file__).startswith(src + os.sep):
        print(f"dtlab imported from {dtlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S, "ref": reference.reference_times()}))
        return 0
    if args.workload is None or args.seed is None or args.out_dir is None:
        parser.error("--workload, --seed and --out-dir are required")
    record = run_pass(args.workload, args.seed, bool(args.trace), args.out_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
