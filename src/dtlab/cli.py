"""Command line front end.

Subcommands: run a scenario config, list the registry, export a report
to JSON or CSV, and re-check a serialized certificate or committee.

Exit codes: 0 all checks pass, 1 some check failed, 2 invalid config,
scenario, format, or output path, 3 size guard exceeded, 4 comparison
undecided at the maximum precision, 5 a solver ran out of its iteration
or retry budget, a solver's answer failed its re-check (KernelFault), or
another internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import tempfile
from itertools import accumulate

from .errors import GuardExceeded, InvalidValue, UndecidedComparison
from .exactexp import fraction_to_str
from .hardcore import (
    certificate_from_json,
    committee_from_json,
    committee_metrics,
    verify_certificate,
)
from .scenarios import list_scenarios, report_to_bytes, run_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_UNDECIDED = 4
EXIT_INTERNAL = 5

# Deepest nesting a loaded JSON file may have, checked before parsing: the
# files dtlab writes nest under 50 deep, and parsing at 256 leaves most of the
# default 1,000-frame recursion limit to the caller, so the file alone decides.
MAX_JSON_DEPTH = 256
# strings and other text; left are brackets and any quote that opens no string
_NOT_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[^"\[\]{}]+')
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1, '"': 0}


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dtlab-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidValue(f"cannot write {path}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        steps = map(_STEP.get, _NOT_BRACKETS.sub("", text))
        if max(accumulate(steps), default=0) > MAX_JSON_DEPTH:
            raise InvalidValue(f"{path} nests deeper than MAX_JSON_DEPTH = "
                               f"{MAX_JSON_DEPTH} levels")
        return json.loads(text)
    except OSError as exc:
        raise InvalidValue(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidValue(f"{path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    report, timings = run_config(config, jobs=args.jobs)
    for scenario in report["scenarios"]:
        for check in scenario["checks"]:
            mark = "PASS" if check["holds"] else "FAIL"
            hyp = "" if check["hypothesis_ok"] else " [hypothesis not met]"
            print(f"[{mark}] {scenario['scenario']} :: {check['name']}"
                  f" ({check['context']}){hyp}")
    for name, seconds in timings:
        print(f"# timing {name}: {seconds:.3f}s", file=sys.stderr)
    out_path = os.path.join(args.out, "report.json")
    _atomic_write(out_path, report_to_bytes(report))
    s = report["summary"]
    print(f"{s['passed']}/{s['checks']} checks passed; report at {out_path}")
    return EXIT_OK if s["ok"] else EXIT_CHECK_FAILED


def _cmd_list(_args) -> int:
    for entry in list_scenarios():
        defaults = json.dumps(entry["defaults"], sort_keys=True)
        print(f"{entry['name']}\n    {entry['description']}\n"
              f"    defaults: {defaults}")
    return EXIT_OK


def _csv_cell(value) -> str:
    if isinstance(value, list):
        if len(value) != 2:
            raise InvalidValue(f"expected a rational or a [lo, hi] pair, got {value!r}")
        return f"[{value[0]},{value[1]}]"
    return str(value)


def _cmd_export(args) -> int:
    report = _load_json(args.report)
    if not isinstance(report, dict) or "scenarios" not in report:
        raise InvalidValue(f"{args.report} does not look like a run report")
    if args.format == "json":
        data = report_to_bytes(report)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("scenario", "check", "context", "lhs", "rhs",
                         "slack", "holds"))
        for scenario in report["scenarios"]:
            for check in scenario["checks"]:
                writer.writerow((scenario["scenario"], check["name"],
                                 check["context"], _csv_cell(check["lhs"]),
                                 _csv_cell(check["rhs"]),
                                 _csv_cell(check["slack"]),
                                 str(check["holds"]).lower()))
        data = buf.getvalue().encode("utf-8")
    if args.out:
        _atomic_write(args.out, data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


def _cmd_verify(args) -> int:
    obj = _load_json(args.artifact)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "hardcore_certificate":
        cert = certificate_from_json(obj)
        checks = verify_certificate(cert)
        for name, ok in checks.items():
            if name != "ok":
                print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        return EXIT_OK if checks["ok"] else EXIT_CHECK_FAILED
    if kind == "committee":
        committee = committee_from_json(obj)
        err, cost = committee_metrics(committee, committee.f, committee.mu)
        cap = committee.r * committee.depth_budget
        err_ok = err <= committee.delta
        cost_ok = cost <= cap
        print(f"[{'PASS' if err_ok else 'FAIL'}] majority error "
              f"{fraction_to_str(err)} <= {fraction_to_str(committee.delta)}")
        print(f"[{'PASS' if cost_ok else 'FAIL'}] total cost "
              f"{fraction_to_str(cost)} <= {fraction_to_str(cap)}")
        return EXIT_OK if err_ok and cost_ok else EXIT_CHECK_FAILED
    raise InvalidValue(f"unknown artifact kind {kind!r}; expected "
                       "'hardcore_certificate' or 'committee'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtlab",
        description="Exact decision-tree laboratory: run scenario suites, "
                    "export reports, re-check artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a JSON config")
    p_run.add_argument("--config", required=True, help="config JSON file")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="scenario-level parallelism")
    p_run.add_argument("--out", default=".", metavar="DIR",
                       help="directory for report.json")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.set_defaults(fn=_cmd_list)

    p_export = sub.add_parser("export", help="export a report file")
    p_export.add_argument("report", help="report.json produced by run")
    p_export.add_argument("--format", required=True, choices=("json", "csv"))
    p_export.add_argument("--out", default=None, metavar="FILE",
                          help="output path (default: stdout)")
    p_export.set_defaults(fn=_cmd_export)

    p_verify = sub.add_parser(
        "verify", help="re-check a serialized certificate or committee")
    p_verify.add_argument("artifact", help="artifact JSON file")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except UndecidedComparison as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # IterationBudget, BoostFailure, KernelFault, or a bug.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
