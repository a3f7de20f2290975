"""The three benchmark workloads, each driven through dtlab's public entry
points.  Import this module only after `dtlab` is importable: it imports
dtlab at module load.

Every workload is a function of the seed alone.  `build(seed, scratch_dir)`
makes the inputs outside the timed span; `execute(inputs, slowdown)` is the
timed span and returns raw results; `check(inputs, raw)` re-checks them
outside the timed span and returns an `Outcome`.  `slowdown` says how many
times slower than nominal the host runs, in CPU time (see reference.py).  Calls into dtlab go through module
attributes at call time, so the layer tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

import dtlab
from dtlab import cli, scenarios
from dtlab.instances import random_distribution, random_function

# report_to_bytes(run_config(default_config())[0]): 822,541 bytes.
SUITE_SHA256 = "d3d8e403cf05451358c8de3e1f537b5d4e61ba88e9cf0b7caf098b3ab7efc4f0"

# frontier: the seed picks eps and gamma from these grids.
FRONTIER_EPS = ("0", "1/8", "1/4", "3/8", "1/2")
FRONTIER_GAMMA = ("1/8", "1/4", "1/2", "3/4", "1")

# hardcore-sweep: the ROADMAP's seeded n=3 sweep.
SWEEP_BASE_SEED = 9000
SWEEP_INSTANCES = 16
SWEEP_DELTA = Fraction(1, 4)
SWEEP_GAMMA = Fraction(1, 2)
SWEEP_BUDGETS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
# (instance, budget) of the solves that fail at every committee seed: the
# sympy LP hangs on 6 at 3/2, raises InfeasibleLPError on 6 at 1, and the
# self-checks raise InvalidValue on 0 at 1, 9 at 1/2 and 14 at 3/2.  The
# sweep leaves them out, so every solve it runs decides (59 of the 64).
SWEEP_KNOWN_FAILURES = frozenset({
    (0, Fraction(1)), (6, Fraction(1)), (6, Fraction(3, 2)),
    (9, Fraction(1, 2)), (14, Fraction(3, 2))})
# Nominal process-CPU seconds per solve; the timer gets this times the
# host's slowdown.  The slowest solve takes about 0.7 nominal seconds, so
# only a solve that hangs or slows down many times over reaches it.
SOLVE_DEADLINE_S = 10.0


@dataclass
class Outcome:
    """What a pass produced, reduced to what the gates and metrics need."""

    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# config workloads: `dtlab run` through cli.main


def suite_config(seed: int) -> dict:
    """default_config() with its scenario entries in a seed-chosen order.

    The report sorts scenarios, so every seed must reproduce SUITE_SHA256.
    """
    config = scenarios.default_config()
    random.Random(seed).shuffle(config["scenarios"])
    return config


def frontier_config(seed: int) -> dict:
    """Distinct large DPs; the seed picks eps and gamma, not the DP sizes."""
    rng = random.Random(seed)
    eps = rng.choice(FRONTIER_EPS)
    gamma = rng.choice(FRONTIER_GAMMA)
    return {
        "precision_bits": dtlab.DEFAULT_PRECISION_BITS,
        "scenarios": [
            {"name": "parity-claim", "params": {"n": 7, "eps": eps}},
            {"name": "parity-claim", "params": {"n": 6, "eps": eps}},
            {"name": "no-boosting", "params": {"n": 7}},
            {"name": "no-boosting", "params": {"n": 6}},
            {"name": "parity-direct-product",
             "params": {"n": 2, "k": 3, "gamma": gamma}},
            {"name": "parity-direct-product",
             "params": {"n": 3, "k": 2, "gamma": gamma}},
        ],
    }


def build_config_run(config: dict, scratch_dir: str) -> str:
    """A fresh directory holding config.json; the report lands there too."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_dir)
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return workdir


def execute_config_run(workdir: str) -> int:
    argv = ["run", "--config", os.path.join(workdir, "config.json"),
            "--jobs", "1", "--out", workdir]
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def check_config_run(workdir: str, exit_code: int,
                     expect_sha256: str | None = None) -> Outcome:
    try:
        with open(os.path.join(workdir, "report.json"), "rb") as fh:
            data = fh.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(data)
    summary = report["summary"]
    digest = _sha256(data)
    problems = []
    if exit_code != cli.EXIT_OK:
        problems.append(f"dtlab run exited {exit_code}")
    if not summary["ok"]:
        problems.append(f"summary.ok is false ({summary['failed']} checks failed)")
    if expect_sha256 is not None and digest != expect_sha256:
        problems.append(f"report sha256 {digest} != pinned {expect_sha256}")
    return Outcome(summary["checks"], summary["failed"], digest, problems)


# ---------------------------------------------------------------------------
# hardcore-sweep: hardcore_solve on the seeded n=3 sweep


class SolveDeadline(BaseException):
    """Raised from SIGPROF; a BaseException so no `except Exception` in the
    solver or sympy can swallow it."""


def _on_deadline(signum, frame):
    raise SolveDeadline()


@dataclass
class SweepRun:
    seed: int
    solves: list  # (instance index, f, mu, budget)
    deadline_s: float


def build_sweep(seed: int, deadline_s: float = SOLVE_DEADLINE_S,
                instances: int = SWEEP_INSTANCES,
                skip=SWEEP_KNOWN_FAILURES) -> SweepRun:
    """The 16 (f, mu) pairs of random.Random(9000 + s) at four budgets,
    less the (instance, budget) pairs in `skip`.

    The instances are fixed so every seed runs the same solves; the seed is
    hardcore_solve's committee-sampling seed.
    """
    solves = []
    for s in range(instances):
        rng = random.Random(SWEEP_BASE_SEED + s)
        f = random_function(rng, 3)
        mu = random_distribution(rng, 3, allow_zeros=False)
        for budget in SWEEP_BUDGETS:
            if (s, budget) not in skip:
                solves.append((s, f, mu, budget))
    return SweepRun(seed, solves, deadline_s)


def execute_sweep(run: SweepRun, slowdown: float = 1.0) -> list:
    """Each solve under a process-CPU deadline; returns (result, seconds)."""
    deadline = run.deadline_s * slowdown
    previous = signal.signal(signal.SIGPROF, _on_deadline)
    results = []
    try:
        for _s, f, mu, budget in run.solves:
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_PROF, deadline)
                try:
                    result = dtlab.hardcore_solve(
                        f, mu, SWEEP_DELTA, SWEEP_GAMMA, budget, seed=run.seed)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            except SolveDeadline:
                result = SolveDeadline()
            except Exception as exc:  # a failed solve is a measured outcome
                result = exc
            results.append((result, time.perf_counter() - t0))
    finally:
        signal.signal(signal.SIGPROF, previous)
    return results


def _recheck(result, f, mu) -> tuple[str, bool, str]:
    """(kind, re-check passed, artifact digest) for a decided solve."""
    if isinstance(result, dtlab.HardcoreCertificate):
        ok = dtlab.verify_certificate(result)["ok"]
        artifact = dtlab.certificate_to_json(result)
        return "certificate", ok, _sha256(json.dumps(artifact, sort_keys=True).encode())
    err, cost = dtlab.committee_metrics(result, f, mu)
    ok = err <= result.delta and cost <= result.r * result.depth_budget
    artifact = dtlab.committee_to_json(result)
    return "committee", ok, _sha256(json.dumps(artifact, sort_keys=True).encode())


def check_sweep(run: SweepRun, raw: list) -> Outcome:
    records = []
    kinds = {"certificate": 0, "committee": 0, "deadline": 0, "error": 0,
             "recheck": 0}
    iterations = 0
    for (s, f, mu, budget), (result, _seconds) in zip(run.solves, raw):
        rec = {"instance": s, "budget": dtlab.fraction_to_str(budget)}
        if isinstance(result, SolveDeadline):
            rec["kind"] = "deadline"
        elif isinstance(result, BaseException):
            rec["kind"] = "error"
            rec["error"] = type(result).__name__
        else:
            kind, ok, digest = _recheck(result, f, mu)
            rec.update(kind=kind if ok else "recheck", iterations=result.iterations,
                       artifact=digest)
            iterations += result.iterations
        kinds[rec["kind"]] += 1
        records.append(rec)
    failed = kinds["deadline"] + kinds["error"] + kinds["recheck"]
    digest = _sha256(json.dumps(records, sort_keys=True).encode())
    extra = {"iterations": iterations, "kinds": kinds,
             "solve_s": [seconds for _r, seconds in raw]}
    return Outcome(len(records), failed, digest, [], extra)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    build: object     # (seed, scratch_dir) -> inputs
    execute: object   # (inputs, slowdown) -> raw results (the timed span)
    check: object     # (inputs, raw) -> Outcome


WORKLOADS = {
    "suite": Workload(
        lambda seed, scratch: build_config_run(suite_config(seed), scratch),
        lambda workdir, _slowdown: execute_config_run(workdir),
        lambda workdir, code: check_config_run(workdir, code, SUITE_SHA256)),
    "frontier": Workload(
        lambda seed, scratch: build_config_run(frontier_config(seed), scratch),
        lambda workdir, _slowdown: execute_config_run(workdir),
        check_config_run),
    "hardcore-sweep": Workload(
        lambda seed, scratch: build_sweep(seed),
        execute_sweep,
        check_sweep),
}
