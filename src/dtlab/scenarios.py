"""Registered verification scenarios and deterministic run reports.

A scenario is a pure function of its params to a list of checks, each
carrying a BoundReport.  run_scenario parses every param once by the type of
its default (an int default takes a JSON integer, a string default a
rational), so a scenario body only checks ranges.  Verdicts are certified and
take no precision: the config's precision_bits only sets how wide the
serialized intervals are.
Reports contain no timing or environment data: identical config must
serialize to byte-identical JSON.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bounds import (
    BoundReport,
    _equality_report,
    _report,
    bound_report_to_json,
    chernoff_lower,
    constant_chain_reports,
    lipschitz_check,
    parity_counterexample,
    verify_accuracy_bound,
    verify_density_conservation,
    verify_embedding,
    verify_leaf_product,
    verify_product_tree,
    verify_resilience,
    xor_vs_product_gap,
    PHI_IDS,
)
from .errors import InvalidValue
from .exactexp import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    ExpSum,
    _int,
    fraction_from_str,
    fraction_to_str,
)
from .functions import (
    BooleanFunction,
    dictator,
    direct_product,
    no_error_reduction_function,
    parity,
    product_power,
    uniform,
)
from .hardcore import (
    HardcoreCertificate,
    certificate_to_json,
    committee_metrics,
    committee_to_json,
    hardcore_solve,
    verify_certificate,
)
from .instances import (
    leaf_product_instances,
    random_distribution,
    sign_fixed_instances,
    standard_verification_instances,
    xor_tree_instances,
)
from .records import Record
from .synth import (
    check_dp_guard,
    enumerate_all_trees,
    frontier_to_json,
    opt_depth,
    pareto_frontier,
)
from .trees import _walk

_ZERO = Fraction(0)


class CheckResult(Record):
    name: str
    report: BoundReport


class ScenarioResult(Record):
    scenario: str
    params: dict
    checks: tuple[CheckResult, ...]
    artifacts: dict


# ---------------------------------------------------------------------------
# parameter plumbing


def _in_range(v: int, lo: int, hi: int, what: str) -> int:
    if not lo <= v <= hi:
        raise InvalidValue(f"{what} must lie in [{lo},{hi}], got {v}")
    return v


def _batch(params: dict, generate, limit: int, verify):
    """Checks on the first params["count"] (at most limit) instances that
    generate(seed, count) yields: one per (suffix, report) pair that
    verify(*instance) yields, named instance-NNN plus the suffix."""
    count = _in_range(params["count"], 1, limit, "count")
    return [CheckResult(f"instance-{i:03d}{suffix}", rep)
            for i, instance in enumerate(generate(params["seed"], count))
            for suffix, rep in verify(*instance)], {}


# ---------------------------------------------------------------------------
# scenarios


def _scn_parity_claim(params: dict):
    n = _in_range(params["n"], 1, 8, "n")
    eps = params["eps"]
    if not 0 <= eps <= Fraction(1, 2):
        raise InvalidValue("eps must lie in [0,1/2]")
    frontier = pareto_frontier(parity(n), uniform(n))
    depth = opt_depth(frontier, eps)
    target = n * (1 - 2 * eps)
    checks = [CheckResult(
        f"depth-at-eps-{fraction_to_str(eps)}",
        _equality_report("parity-depth", depth, target,
                         related=(("n", n), ("eps", eps))))]
    return checks, {"frontier": frontier_to_json(frontier)}


def _scn_no_boosting(params: dict):
    n = _in_range(params["n"], 2, 8, "n")
    f = no_error_reduction_function(n)
    frontier = pareto_frontier(f, uniform(n))
    quarter = opt_depth(frontier, Fraction(1, 4))
    eighth = opt_depth(frontier, Fraction(1, 8))
    floor_target = Fraction(n - 1, 4)
    checks = [
        CheckResult("depth-at-quarter-is-zero",
                    _equality_report("no-boosting-free-quarter", quarter, _ZERO,
                                     related=(("n", n),))),
        CheckResult("depth-at-eighth-floor",
                    _report("no-boosting-eighth-floor", floor_target, eighth,
                            related=(("n", n),))),
    ]
    return checks, {"frontier": frontier_to_json(frontier)}


def _brute_frontier(walks, f, mu):
    """(depth, error) frontier of the enumerated trees by point enumeration:
    walks holds each tree's (label, path length) at every point, and both
    sides sum on ints over mu's common denominator."""
    scale, nums = mu.scaled
    sides = set()
    for walk in walks:
        depth = err = 0
        for w, ((label,), length), want in zip(nums, walk, f.table):
            depth += w * length
            if label != want:
                err += w
        sides.add((depth, err))
    best = []
    for d, e in sorted(sides):
        if not best or e < best[-1][1]:
            best.append((d, e))
    return [(Fraction(d, scale), Fraction(e, scale)) for d, e in best]


def _scn_frontier_oracle(params: dict):
    per_function = _in_range(params["distributions"], 1, 20, "distributions")
    rng = random.Random(params["seed"])
    walks = [[_walk(t, x) for x in range(4)] for t in enumerate_all_trees(2)]
    checks = []
    for idx, labels in enumerate(itertools.product((1, -1), repeat=4)):
        f = BooleanFunction(2, labels)
        mismatches = 0
        for _ in range(per_function):
            mu = random_distribution(rng, 2)
            dp = [(p.depth, p.value) for p in pareto_frontier(f, mu).points]
            if dp != _brute_frontier(walks, f, mu):
                mismatches += 1
        checks.append(CheckResult(
            f"table-{idx:02d}",
            _equality_report("frontier-matches-enumeration", int(mismatches == 0), 1,
                             related=(("distributions", per_function),))))
    return checks, {}


def _scn_density_conservation(params: dict):
    return _batch(params, standard_verification_instances, 1000,
                  lambda tree, _f, h, mu: [("", verify_density_conservation(tree, h, mu))])


def _scn_resilience(params: dict):
    return _batch(params, standard_verification_instances, 1000,
                  lambda tree, _f, h, mu: zip((f"-{phi}" for phi in PHI_IDS),
                                              verify_resilience(tree, h, mu)))


def _scn_accuracy_bound(params: dict):
    return _batch(params, standard_verification_instances, 1000,
                  lambda tree, f, h, mu: ((f"-t{t}", rep) for t, rep in
                                          enumerate(verify_accuracy_bound(tree, f, h, mu))))


def _scn_leaf_product(params: dict):
    return _batch(params, leaf_product_instances, 500,
                  lambda tree, mu: [("", verify_leaf_product(tree, mu))])


def _scn_embedding(params: dict):
    return _batch(params, sign_fixed_instances, 500,
                  lambda tree, f, h, mu: ((f"-{rep.context}", rep)
                                          for rep in verify_embedding(tree, f, h, mu)))


def _scn_hardcore_pipeline(params: dict):
    seed, gamma = params["seed"], params["gamma"]
    checks = []
    artifacts = {}
    for n in (2, 3):
        f, mu = parity(n), uniform(n)
        for delta in (Fraction(1, 4), Fraction(1, 8)):
            for budget in (Fraction(0), Fraction(n)):
                tag = f"parity{n}-delta-{fraction_to_str(delta)}-d-{fraction_to_str(budget)}"
                result = hardcore_solve(f, mu, delta, gamma, budget, seed=seed)
                if isinstance(result, HardcoreCertificate):
                    recheck = verify_certificate(result)
                    checks.append(CheckResult(
                        f"{tag}-certificate",
                        _equality_report("certificate-recheck", int(recheck["ok"]), 1,
                                         related=tuple(
                                             (k, v) for k, v in recheck.items()
                                             if k != "ok"))))
                    artifacts[tag] = certificate_to_json(result)
                else:
                    err, cost = committee_metrics(result, f, mu)
                    checks.append(CheckResult(
                        f"{tag}-committee-error",
                        _report("committee-error", err, delta,
                                related=(("r", result.r),))))
                    checks.append(CheckResult(
                        f"{tag}-committee-cost",
                        _report("committee-cost", cost, result.r * budget,
                                related=(("r", result.r),))))
                    artifacts[tag] = committee_to_json(result)
    return checks, artifacts


def _scn_product_tree(params: dict):
    checks, _ = _batch(params, xor_tree_instances, 1000,
                       lambda tree, f, mu, k: [("", verify_product_tree(tree, f, mu, k))])
    for f, k, tag in ((dictator(1, 0), 2, "single-bit-k2"),
                      (parity(2), 2, "parity2-k2")):
        checks.append(CheckResult(
            f"xor-vs-product-{tag}",
            xor_vs_product_gap(f, uniform(f.n), k, params["eps"])))
    return checks, {}


def _scn_parity_direct_product(params: dict):
    n = _in_range(params["n"], 1, 4, "n")
    k = _in_range(params["k"], 1, 4, "k")
    gamma = params["gamma"]
    # refuse before the 2^(n*k)-leaf counterexample is built
    check_dp_guard(n * k)
    rt, report = parity_counterexample(n, k, gamma)
    frontier = pareto_frontier(direct_product(parity(n), k),
                               product_power(uniform(n), k))
    depth_at = opt_depth(frontier, 1 - gamma)
    cap = gamma * k * n
    checks = [
        CheckResult("mixture-achieves-claim", report),
        CheckResult("frontier-confirms-upper-bound",
                    _report("direct-product-depth-upper", depth_at, cap,
                            related=(("n", n), ("k", k), ("gamma", gamma)))),
    ]
    return checks, {"frontier": frontier_to_json(frontier)}


def _scn_closed_forms(params: dict):
    checks = []
    grid = [(Fraction(i, 4), Fraction(j), Fraction(m, 2))
            for i, j, m in itertools.product(range(10), repeat=3)]
    for form, cases in (("plain", grid),
                        ("scaled", [(t, z, d) for t, z, d in grid if t > 0 and z >= 5 * t])):
        bad = sum(not lipschitz_check(t, z, d, form).holds for t, z, d in cases)
        checks.append(CheckResult(
            f"lipschitz-{form}-grid",
            _equality_report(f"lipschitz-{form}-grid", int(bad == 0), 1,
                             related=(("cases", len(cases)), ("failures", bad)))))
    checks.append(CheckResult(
        "chernoff-hand-value",
        _equality_report("chernoff-lower-8-4-is-exp-minus-1",
                         int(chernoff_lower(8, 4) == ExpSum.exp(-1)), 1)))
    for rep in constant_chain_reports():
        checks.append(CheckResult(rep.context, rep))
    return checks, {}


SCENARIOS = {
    "parity-claim": (
        _scn_parity_claim, {"n": 4, "eps": "1/4"},
        "Expected-depth optimum of parity at a given error budget."),
    "no-boosting": (
        _scn_no_boosting, {"n": 4},
        "Free at error 1/4 yet depth >= (n-1)/4 at error 1/8."),
    "frontier-oracle": (
        _scn_frontier_oracle, {"seed": 202, "distributions": 5},
        "DP frontier equals brute-force enumeration on every n=2 function."),
    "density-conservation": (
        _scn_density_conservation, {"seed": 404, "count": 100},
        "Reach-weighted total leaf density equals delta*k exactly."),
    "resilience": (
        _scn_resilience, {"seed": 404, "count": 100},
        "Leaf density dominated by its binomial ceiling, five Phi variants."),
    "accuracy-bound": (
        _scn_accuracy_bound, {"seed": 606, "count": 100},
        "Blockwise accuracy against the Bernoulli-sum leaf form, all t."),
    "leaf-product": (
        _scn_leaf_product, {"seed": 707, "count": 50},
        "Conditional law at each leaf factors across blocks."),
    "embedding-identities": (
        _scn_embedding, {"seed": 808, "count": 50},
        "Depth/k and advantage identities of the block embedding."),
    "hardcore-pipeline": (
        _scn_hardcore_pipeline, {"seed": 0, "gamma": "1/2"},
        "Solver emits re-checkable certificates or boosted committees."),
    "product-tree": (
        _scn_product_tree, {"seed": 1010, "count": 100, "eps": "1/4"},
        "XOR correlation never beats product-tree success; frontier gap."),
    "parity-direct-product": (
        _scn_parity_direct_product, {"n": 2, "k": 2, "gamma": "1/4"},
        "Query-all mixture achieves its exact depth/error trade."),
    "closed-forms": (
        _scn_closed_forms, {},
        "Lipschitz grid, Chernoff hand values, and constant chain."),
}


def list_scenarios() -> list[dict]:
    return [
        {"name": name, "defaults": dict(defaults), "description": desc}
        for name, (fn, defaults, desc) in sorted(SCENARIOS.items())
    ]


def run_scenario(name: str, params: dict | None = None) -> ScenarioResult:
    if name not in SCENARIOS:
        raise InvalidValue(f"unknown scenario {name!r}; "
                           f"known: {sorted(SCENARIOS)}")
    fn, defaults, _desc = SCENARIOS[name]
    if params is not None and not isinstance(params, dict):
        raise InvalidValue(f"scenario {name!r}: params must be a JSON object, "
                           f"got {params!r}")
    raw = params or {}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise InvalidValue(f"unknown parameters {sorted(unknown)}; "
                           f"accepted: {sorted(defaults)}")
    merged = {**defaults, **raw}
    # each value is read by its default's type: an int, or else a rational
    checks, artifacts = fn({
        key: _int(v, key) if isinstance(defaults[key], int) else fraction_from_str(v)
        for key, v in merged.items()})
    return ScenarioResult(name, merged, tuple(checks), artifacts)


# ---------------------------------------------------------------------------
# run reports


def default_config() -> dict:
    """Full suite, default parameters: the determinism reference config."""
    return {
        "precision_bits": DEFAULT_PRECISION_BITS,
        "scenarios": [{"name": name, "params": dict(defaults)}
                      for name, (fn, defaults, desc) in sorted(SCENARIOS.items())],
    }


def run_config(config: dict, *, jobs: int = 1):
    """Run every scenario in the config; returns (report dict, timings).

    The report is deterministic for a fixed config; wall-clock timings are
    returned separately so they never reach the serialized output.  The
    config's precision_bits only sets the width of the printed intervals.
    The report is read-only: frontier points and committee members share
    tree sub-dicts, so an edit in place would show in each of them.
    """
    if _int(jobs, "jobs") < 1:
        raise InvalidValue(f"jobs must be at least 1, got {jobs}")
    if not isinstance(config, dict):
        raise InvalidValue("config must be a JSON object")
    unknown = set(config) - {"scenarios", "precision_bits"}
    if unknown:
        raise InvalidValue(f"unknown config keys {sorted(unknown)}")
    prec = _int(config.get("precision_bits", DEFAULT_PRECISION_BITS), "precision_bits")
    # no verdict needs more than ExpSum.sign's escalation ceiling, and finer
    # printed intervals cost time without bound
    _in_range(prec, 8, MAX_PRECISION_BITS, "precision_bits")
    entries = config.get("scenarios", [])
    if not isinstance(entries, list):
        raise InvalidValue("config 'scenarios' must be a list")

    def one(entry):
        if not isinstance(entry, dict) or "name" not in entry:
            raise InvalidValue(f"scenario entry needs a 'name': {entry!r}")
        extra = set(entry) - {"name", "params"}
        if extra:
            raise InvalidValue(f"unknown scenario entry keys {sorted(extra)}")
        t0 = time.monotonic()
        result = run_scenario(entry["name"], entry.get("params"))
        return result, time.monotonic() - t0

    if jobs == 1 or len(entries) <= 1:
        outcomes = [one(e) for e in entries]
    else:
        # imported here: concurrent.futures pulls in logging, which no jobs=1 run needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, entries))

    outcomes.sort(key=lambda o: (o[0].scenario, str(sorted(o[0].params.items()))))
    results = [r for r, _ in outcomes]
    timings = [(r.scenario, s) for r, s in outcomes]

    total = sum(len(r.checks) for r in results)
    failed = sum(1 for r in results for c in r.checks if not c.report.holds)
    bodies = [{"scenario": r.scenario,
               "params": dict(sorted(r.params.items())),
               "checks": [{**bound_report_to_json(c.report, prec), "name": c.name}
                          for c in r.checks],
               "artifacts": r.artifacts} for r in results]
    report = {
        "config": {
            "precision_bits": prec,
            "scenarios": [{"name": b["scenario"], "params": b["params"]}
                          for b in bodies],
        },
        "scenarios": bodies,
        "summary": {"checks": total, "failed": failed,
                    "passed": total - failed, "ok": failed == 0},
    }
    return report, timings


_INF = float("inf")


def _json_scalar(o) -> str:
    """json.dumps's text for a value that is not a container."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(o, out: list, head: str, nl: str, seen: dict) -> None:
    """Append o's text to out.  head (separator, newline, indent and key) is
    joined to o's first piece; nl is the newline and indent of o's line.
    seen maps (id, nl) of each container written so far to its span of out,
    or, once the container is met again, to its text without the head."""
    if isinstance(o, (dict, list, tuple)):
        key = (id(o), nl)
        got = seen.get(key)
        if got is not None:
            if type(got) is tuple:
                start, end, skip = got
                got = seen[key] = "".join(out[start:end])[skip:]
            out.append(head + got)
            return
        start = len(out)
        inner = nl + "  "
        if isinstance(o, dict):
            sep, comma = head + "{" + inner, "," + inner
            for k, v in sorted(o.items()):
                name = k if isinstance(k, str) else _json_scalar(k)
                _write_json(v, out, sep + encode_basestring_ascii(name) + ": ", inner, seen)
                sep = comma
            out.append(nl + "}" if o else head + "{}")
        else:
            sep, comma = head + "[" + inner, "," + inner
            for v in o:
                _write_json(v, out, sep, inner, seen)
                sep = comma
            out.append(nl + "]" if o else head + "[]")
        seen[key] = (start, len(out), len(head))
    else:
        out.append(head + _json_scalar(o))


def report_to_bytes(report: dict) -> bytes:
    """Canonical serialization, the byte-determinism contract: exactly
    json.dumps(report, sort_keys=True, indent=2) + "\n" in UTF-8 (so ASCII,
    non-ASCII escaped), written directly rather than by json's pure-Python
    indenting encoder.

    A container met again at the same indent, such as a tree dict shared
    between frontier points or committee members, is written again from its
    first text.  That text depends only on the object and its indent, and
    every container stays reachable from report, so its id names it for the
    whole call.  Only containers met twice keep a string.  A cycle recurses
    at ever deeper indents, so it still ends in RecursionError."""
    out: list[str] = []
    _write_json(report, out, "", "\n", {})
    out.append("\n")
    return "".join(out).encode("utf-8")
