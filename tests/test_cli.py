"""Exit codes, atomic report writing, export formats, and artifact re-checks."""

import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from dtlab import cli
from dtlab.errors import BoostFailure, InvalidValue, KernelFault, UndecidedComparison
from dtlab.functions import BooleanFunction, Distribution, parity, uniform
from dtlab.hardcore import Committee, certificate_to_json, committee_to_json, hardcore_solve
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    _trees_to_json,
    randomized_tree_to_json,
)
from dtlab.scenarios import SCENARIOS, report_to_bytes


def _write_config(path, scenarios):
    path.write_text(json.dumps({"scenarios": scenarios}))
    return str(path)


SMALL = [
    {"name": "parity-claim", "params": {"n": 2}},
    {"name": "closed-forms"},
    {"name": "hardcore-pipeline"},
]


def test_run_writes_canonical_report_and_exits_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json", SMALL)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    data = (tmp_path / "a" / "report.json").read_bytes()
    report = json.loads(data)
    assert report["summary"]["ok"]
    assert data == report_to_bytes(report)


def test_two_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "config.json", SMALL)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", cfg, "--jobs", "3",
                     "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


def test_timing_goes_to_stderr_not_report(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "closed-forms"}])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "# timing" in captured.err
    assert "timing" not in (tmp_path / "report.json").read_text()


def test_unknown_scenario_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "config.json", [{"name": "mystery"}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2


def test_run_out_naming_a_file_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", "--config", cfg, "--out", str(taken)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["-1", "2"])
def test_product_tree_eps_out_of_range_exits_2(tmp_path, capsys, eps):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "product-tree", "params": {"eps": eps, "count": 1}}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "eps must lie in [0,1/2]" in capsys.readouterr().err


def test_bad_precision_exits_2(tmp_path, capsys):
    # every report is printed at 128 bits; no stated precision prints wider
    path = tmp_path / "config.json"
    for bits in (4, 7, 129, 8192):
        path.write_text(json.dumps({"precision_bits": bits,
                                    "scenarios": [{"name": "closed-forms"}]}))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        out = capsys.readouterr()
        assert f"precision_bits must lie in [8,128], got {bits}" in out.err
        # refused before any scenario ran: no check line and no timing line
        assert out.out == "" and "# timing" not in out.err
        assert not (tmp_path / "report.json").exists()


def test_precision_flag_is_a_usage_error(tmp_path, capsys):
    # the printed precision is not a setting
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", cfg, "--precision", "128", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision 128" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("params", [[["n", 3]], False, 0, [], "nn"])
def test_params_that_are_not_an_object_exit_2(tmp_path, capsys, params):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "parity-claim", "params": params}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "scenario 'parity-claim': params must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_null_params_run_the_defaults(tmp_path):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "no-boosting", "params": None}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["scenarios"][0]["params"] == {"n": 4}


@pytest.mark.parametrize("entry", [
    {"name": "parity-claim", "params": {"n": 2, "eps": "1/0"}},
    {"name": "parity-direct-product", "params": {"gamma": "1/0"}},
    {"name": "hardcore-pipeline", "params": {"gamma": "-1/0"}},
    {"name": "product-tree", "params": {"eps": "1/0"}},
    {"name": "parity-claim", "params": {"n": 2, "eps": "one half"}},
])
def test_malformed_rational_param_exits_2(tmp_path, capsys, entry):
    cfg = _write_config(tmp_path / "config.json", [entry])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "not a rational" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"scenarios": [{"name": "parity-claim", "params": {"n": 3.9}}]},
    {"scenarios": [{"name": "frontier-oracle", "params": {"distributions": 1.5}}]},
    {"scenarios": [{"name": "density-conservation",
                    "params": {"seed": True, "count": 1}}]},
    {"precision_bits": 64.9, "scenarios": [{"name": "closed-forms"}]},
])
def test_non_integer_int_param_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    assert cli.main(["run", "--config", cfg, "--jobs", jobs,
                     "--out", str(tmp_path)]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_guard_violation_exits_3(tmp_path):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "parity-direct-product",
                          "params": {"n": 4, "k": 4}}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_committee_past_the_seat_limit_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path / "config.json",
                        [{"name": "hardcore-pipeline", "params": {"gamma": "1/1048576"}}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "65535 seats" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_undecided_comparison_exits_4(tmp_path, monkeypatch):
    def raiser(params):
        raise UndecidedComparison("stuck")

    monkeypatch.setitem(SCENARIOS, "closed-forms",
                        (raiser, {}, "patched to raise"))
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("exc", [BoostFailure("retry cap"),
                                 KernelFault("not reproduced (LP kernel bug)"),
                                 ZeroDivisionError("a bug")])
def test_solver_budget_and_internal_errors_exit_5(tmp_path, monkeypatch, capsys, exc):
    def raiser(params):
        raise exc

    monkeypatch.setitem(SCENARIOS, "closed-forms",
                        (raiser, {}, "patched to raise"))
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 5
    assert str(exc) in capsys.readouterr().err


def test_list_names_every_scenario(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def _run_small(tmp_path):
    cfg = _write_config(tmp_path / "config.json", SMALL)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    return tmp_path / "report.json"


def test_export_json_round_trips(tmp_path, capsys):
    report_path = _run_small(tmp_path)
    capsys.readouterr()
    assert cli.main(["export", str(report_path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(report_path.read_text())


def test_export_csv_row_count_matches_checks(tmp_path):
    report_path = _run_small(tmp_path)
    out_csv = tmp_path / "report.csv"
    assert cli.main(["export", str(report_path), "--format", "csv",
                     "--out", str(out_csv)]) == 0
    rows = list(csv.reader(out_csv.open()))
    report = json.loads(report_path.read_text())
    assert rows[0] == ["scenario", "check", "context", "lhs", "rhs",
                       "slack", "holds"]
    assert len(rows) - 1 == report["summary"]["checks"]
    assert all(row[6] == "true" for row in rows[1:])


def test_export_out_into_unwritable_path_exits_2(tmp_path, capsys):
    report_path = _run_small(tmp_path)
    # A regular file cannot hold a directory, whatever the permissions.
    out = report_path / "report.csv"
    assert cli.main(["export", str(report_path), "--format", "csv",
                     "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_export_csv_refuses_a_malformed_interval_exits_2(tmp_path, capsys):
    report = json.loads(_run_small(tmp_path).read_text())
    report["scenarios"][0]["checks"][0]["lhs"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    assert cli.main(["export", str(path), "--format", "csv"]) == 2
    assert "[lo, hi] pair" in capsys.readouterr().err


def test_export_unknown_format_exits_2(tmp_path):
    report_path = _run_small(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", str(report_path), "--format", "yaml"])
    assert exc.value.code == 2


def test_export_rejects_non_report_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    assert cli.main(["export", str(path), "--format", "json"]) == 2


def _fresh_python(code, *args):
    # a fresh interpreter has the shallow stack a `dtlab export` starts with
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, timeout=60)


def _nested(path, depth):
    """A report-shaped document whose containers nest depth deep; its
    innermost string holds brackets and an escaped quote."""
    lists = depth - 2  # lists between the top and the innermost object
    path.write_text('{"scenarios": ' + "[" * lists + r'{"x": "[{\"["}'
                    + "]" * lists + "}")
    return path


def test_export_json_of_deep_documents(tmp_path):
    # a document at MAX_JSON_DEPTH is written back byte for byte as
    # json.dumps would; one level deeper is refused before parsing
    for depth, code in ((cli.MAX_JSON_DEPTH, 0), (cli.MAX_JSON_DEPTH + 1, 2)):
        doc = _nested(tmp_path / f"deep{depth}.json", depth)
        out = tmp_path / f"out{depth}.json"
        done = _fresh_python("import sys; from dtlab.cli import main; sys.exit(main())",
                             "export", doc, "--format", "json", "--out", out)
        assert done.returncode == code, done.stderr
        if code == 0:
            oracle = _fresh_python(
                "import json, sys; sys.stdout.write(json.dumps("
                "json.load(open(sys.argv[1])), sort_keys=True, indent=2) + '\\n')", doc)
            assert oracle.returncode == 0 and out.read_bytes() == oracle.stdout
        else:
            assert b"nests deeper than MAX_JSON_DEPTH = 256" in done.stderr
            assert not out.exists()


@pytest.mark.parametrize("command, at_limit", [
    ("export", ""),
    ("run", "scenario entry needs a 'name'"),
    ("verify", "unknown artifact kind"),
])
def test_json_nesting_limit_does_not_depend_on_the_callers_stack(
        tmp_path, capsys, command, at_limit):
    def main(doc, frames):
        # cli.main called `frames` frames deeper than this test
        if frames:
            return main(doc, frames - 1)
        argv = {"export": ["export", doc, "--format", "json",
                           "--out", tmp_path / "out.json"],
                "run": ["run", "--config", doc, "--out", tmp_path],
                "verify": ["verify", doc]}[command]
        return cli.main([str(a) for a in argv])

    ok = _nested(tmp_path / "ok.json", cli.MAX_JSON_DEPTH)
    deep = _nested(tmp_path / "deep.json", cli.MAX_JSON_DEPTH + 1)
    for frames in (0, 400):
        assert main(ok, frames) == (2 if at_limit else 0)
        err = capsys.readouterr().err
        assert at_limit in err and "nests deeper" not in err
        assert main(deep, frames) == 2
        assert (f"nests deeper than MAX_JSON_DEPTH = {cli.MAX_JSON_DEPTH}"
                in capsys.readouterr().err)


def _artifacts(tmp_path):
    report_path = _run_small(tmp_path)
    report = json.loads(report_path.read_text())
    arts = next(s for s in report["scenarios"]
                if s["scenario"] == "hardcore-pipeline")["artifacts"]
    by_kind = {}
    for art in arts.values():
        by_kind.setdefault(art["kind"], art)
    return by_kind


def test_verify_accepts_solver_artifacts(tmp_path, capsys):
    by_kind = _artifacts(tmp_path)
    assert set(by_kind) == {"hardcore_certificate", "committee"}
    for kind, art in by_kind.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(art))
        assert cli.main(["verify", str(path)]) == 0, kind
        assert "[FAIL]" not in capsys.readouterr().out


def test_verify_rejects_tampered_certificate(tmp_path):
    art = _artifacts(tmp_path)["hardcore_certificate"]
    art = dict(art)
    art["delta"] = "1/2"  # measure density no longer matches delta/2
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 1


@pytest.mark.parametrize("field, value, broken", [
    ("delta", "1/32", "majority error"),  # the majority errs on mass 1/16
    ("depth_budget", "2/5", "total cost"),  # cost/r is 65/132, over 2/5
], ids=["delta-below-the-error", "budget-below-cost-per-member"])
def test_verify_rejects_a_tampered_committee(tmp_path, capsys, field, value, broken):
    f = BooleanFunction(2, (-1, 1, -1, -1))
    mu = Distribution(2, (F(3, 16), F(1, 16), F(3, 8), F(3, 8)))
    committee = hardcore_solve(f, mu, F(3, 8), F(1, 2), F(1, 2))
    assert isinstance(committee, Committee)
    art = committee_to_json(committee)
    path = tmp_path / "committee.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    art[field] = value
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1 and f"[FAIL] {broken} " in out


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch,
                                                                   capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    target = tmp_path / "out" / "report.json"
    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(InvalidValue) as got:
        cli._atomic_write(str(target), b"{}")
    assert str(got.value) == f"cannot write {target}: [Errno 13] Permission denied"
    assert list((tmp_path / "out").iterdir()) == []
    # through the CLI, the same refusal exits 2 and leaves no file
    cfg = _write_config(tmp_path / "config.json", [{"name": "closed-forms"}])
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_verify_rejects_witness_over_the_depth_budget(tmp_path, capsys):
    # At budget 0 the best response on parity is 0; a depth-1 tree with equal
    # leaves attains that advantage too, but is not a legal play.
    cert = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0))
    deep = DecisionTree(2, 1, Query(0, Leaf((1,)), Leaf((1,))))
    art = certificate_to_json(cert)
    art["witness"] = randomized_tree_to_json(RandomizedTree(((F(1), deep),)))
    path = tmp_path / "over-budget.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] witness_attains_advantage" in out
    assert out.count("[FAIL]") == 1


@pytest.mark.parametrize("path, value", [
    (("iterations",), 2.5),
    (("iterations",), -7),
    (("f", "n"), 2.7),
    (("f", "table_hex"), "f9"),  # parity(2) is "9"; "f" sets bits past its table
    (("witness", 0, "tree", "n"), 2.0),
    # a JSON object iterates over its keys, which read as the weights
    (("mu",), {"1/4": 0, " 1/4": 1, "1/4 ": 2, "2/8": 3}),
    (("measure",), {"1/8": 0, " 1/8": 1, "1/8 ": 2, "2/16": 3}),
    (("f", "table_hex"), " 0x9 "),  # int(..., 16) reads this as 9
], ids=["iterations", "iterations-negative", "f.n", "f.table_hex",
        "witness.tree.n", "mu-object", "measure-object", "f.table_hex-0x"])
def test_verify_refuses_malformed_certificate_fields(tmp_path, path, value):
    art = certificate_to_json(
        hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0)))
    node = art
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(art))
    assert cli.main(["verify", str(out)]) == 2


@pytest.mark.parametrize("where", ["config-param", "certificate-field"])
def test_oversized_decimal_exponent_exits_2_at_once(tmp_path, capsys, where):
    # Fraction("1e-3000000") would compute 10**3000000 first.
    if where == "config-param":
        args = ["run", "--config", _write_config(
            tmp_path / "config.json",
            [{"name": "parity-claim", "params": {"eps": "1e-3000000"}}]),
            "--out", str(tmp_path)]
    else:
        art = certificate_to_json(
            hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0)))
        art["delta"] = "1e-3000000"
        (tmp_path / "cert.json").write_text(json.dumps(art))
        args = ["verify", str(tmp_path / "cert.json")]
    start = time.monotonic()
    assert cli.main(args) == 2
    assert time.monotonic() - start < 1
    assert "not a rational of at most 4300 digits" in capsys.readouterr().err


# Fields no solve can write, each refused as hardcore_solve refuses it: on a
# parity(3) certificate and a parity(2) committee, the ones that verified
# (exit 0) or failed a check (exit 1) before the records checked them.
DOMAIN_FIELDS = [("delta", "0"), ("delta", "1"), ("delta", "3/2"), ("gamma", "0"),
                 ("gamma", "-1/2"), ("gamma", "3/2"), ("gamma", "1e5"),
                 ("depth_budget", "-1"), ("mu", ["1/16"] * 16)]


@pytest.mark.parametrize("kind", ["certificate", "committee"])
@pytest.mark.parametrize("field, value", DOMAIN_FIELDS,
                         ids=[f"{k}={v if isinstance(v, str) else len(v)}"
                              for k, v in DOMAIN_FIELDS])
def test_verify_refuses_an_out_of_domain_field(tmp_path, capsys, kind, field, value):
    if kind == "certificate":
        art = certificate_to_json(
            hardcore_solve(parity(3), uniform(3), F(1, 4), F(1, 2), F(0)))
    else:
        art = committee_to_json(
            hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(2)))
    art[field] = value
    path = tmp_path / "out-of-domain.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 2
    message = {"delta": "delta must lie in (0,1)", "gamma": "gamma must lie in (0,1]",
               "depth_budget": "depth budget must be nonnegative",
               "mu": "function and distribution sizes differ"}[field]
    assert message in capsys.readouterr().err


def test_verify_refuses_negative_committee_iterations(tmp_path):
    art = _artifacts(tmp_path)["committee"]
    art["iterations"] = -7
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 2


def test_verify_refuses_committee_of_mis_shaped_trees(tmp_path, capsys):
    # A two-block tree on one variable per block reads the same two input
    # bits as a scalar tree on parity(2), so only a shape check refuses it.
    committee = hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(2))
    art = committee_to_json(committee)
    tree = DecisionTree(1, 2, Query(0, Query(1, Leaf((1, 1)), Leaf((-1, 1))),
                                    Query(1, Leaf((-1, 1)), Leaf((1, 1)))))
    vector = _trees_to_json((tree,))[0]
    art["trees"] = [vector] * len(art["trees"])
    path = tmp_path / "mis-shaped.json"
    path.write_text(json.dumps(art))
    assert cli.main(["verify", str(path)]) == 2
    assert "committee trees" in capsys.readouterr().err


def test_verify_refuses_deeply_nested_witness(tmp_path):
    # json.load itself gives up on this nesting with RecursionError.
    art = certificate_to_json(
        hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0)))
    # replace, not edit: the artifact's tree dicts may be shared
    (item,) = art["witness"]
    art["witness"] = [{**item, "tree": {**item["tree"], "root": "ROOT"}}]
    leaf = '{"leaf": [1]}'
    root = '{"q": 0, "pos": ' + leaf + ', "neg": '
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(art).replace(
        '"ROOT"', root * 5000 + leaf + "}" * 5000))
    assert cli.main(["verify", str(path)]) == 2


def _certificate_with_witness_tree(**fields):
    art = certificate_to_json(
        hardcore_solve(parity(2), uniform(2), F(1, 4), F(1, 2), F(0)))
    # replace, not edit: the artifact's tree dicts may be shared
    (item,) = art["witness"]
    art["witness"] = [{**item, "tree": {**item["tree"], **fields}}]
    return art


@pytest.mark.parametrize("fields, code, message", [
    ({"n": 10**12}, 3, "exceeds the table guard"),
    ({"n": 3, "root": {"q": 10**12, "neg": {"leaf": [1]}, "pos": {"leaf": [-1]}}},
     2, "out of range"),
], ids=["n", "q"])
def test_verify_refuses_a_huge_witness_tree_at_once(tmp_path, capsys, fields, code, message):
    # 1 << q alone would take q/8 bytes.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_certificate_with_witness_tree(**fields)))
    start = time.monotonic()
    assert cli.main(["verify", str(path)]) == code
    assert time.monotonic() - start < 1
    assert message in capsys.readouterr().err


def test_verify_refuses_a_long_query_chain_called_deep_in_the_stack(tmp_path, capsys):
    # As deep as the nesting limit allows (the artifact's wrapping takes 5
    # levels), called 400 frames down: a check that recursed down the whole
    # chain on top of the caller's stack would run out of it.
    root = {"leaf": [1]}
    for i in range(cli.MAX_JSON_DEPTH - 6):
        root = {"q": i % 2, "neg": {"leaf": [1]}, "pos": root}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_certificate_with_witness_tree(root=root)))

    def main(frames):
        return main(frames - 1) if frames else cli.main(["verify", str(path)])

    assert main(400) == 2
    assert "queried twice on one path" in capsys.readouterr().err


def test_verify_unknown_kind_exits_2(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "sonnet"}))
    assert cli.main(["verify", str(path)]) == 2
