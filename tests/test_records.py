"""Every frozen record type behaves as a frozen dataclass with its fields.

dataclasses is the reference here only: for each record class a twin built
by dataclasses.make_dataclass(frozen=True) on the same fields must agree with
it on equality, hashing, repr, refused assignment and deletion, and a
reduce-based round trip (pickle for the record, deepcopy for the twin, which
is not importable by name).
"""

import ast
import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from dtlab.bounds import BoundReport
from dtlab.exactexp import ExpSum
from dtlab.functions import (
    BooleanFunction,
    Distribution,
    Measure,
    VectorFunction,
    direct_product,
)
from dtlab.hardcore import Committee, HardcoreCertificate
from dtlab.instances import random_distribution, random_function, random_measure, random_tree
from dtlab.records import Record
from dtlab.scenarios import CheckResult, ScenarioResult
from dtlab.synth import FrontierPoint, ParetoFrontier, pareto_frontier
from dtlab.trees import (
    DecisionTree,
    Leaf,
    LeafRef,
    LeafStats,
    Query,
    RandomizedTree,
    leaf_stats,
    leaves,
)

SEEDS = range(6)
PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "dtlab").glob("*.py"))


def _fraction(rng):
    return F(rng.randrange(1, 9), rng.randrange(1, 9))


def _tree(rng, n=2, k=1):
    return random_tree(rng, n, k)


def _leaf(rng, k=1):
    return Leaf(tuple(rng.choice((1, -1)) for _ in range(k)))


def _report(rng):
    lhs, rhs = ExpSum.of(_fraction(rng)), ExpSum.exp(_fraction(rng), _fraction(rng))
    related = (("depth", _fraction(rng)),) if rng.random() < 0.5 else ()
    return BoundReport(f"check-{rng.randrange(100)}", lhs, rhs, rng.random() < 0.5,
                       rng.random() < 0.5, related)


def _domain(rng):
    """(delta, gamma, depth budget) in the solver's domain, which the
    certificate and committee constructors check."""
    return F(rng.randrange(1, 8), 8), F(rng.randrange(1, 9), 8), _fraction(rng)


def _mixture(rng):
    w = F(rng.randrange(1, 8), 8)
    return RandomizedTree(((w, _tree(rng)), (1 - w, _tree(rng))))


# class -> (its fields, in order, and a builder of a seeded instance)
BUILDERS = {
    BooleanFunction: (("n", "table"), lambda rng: random_function(rng, 2)),
    VectorFunction: (("n", "k", "table"),
                     lambda rng: direct_product(random_function(rng, 1), 2)),
    Distribution: (("n", "weights"), lambda rng: random_distribution(rng, 2)),
    Measure: (("n", "values"), lambda rng: random_measure(rng, 2)),
    ExpSum: (("terms",), lambda rng: ExpSum(tuple((_fraction(rng), F(rng.randrange(-3, 3)))
                                                  for _ in range(3)))),
    Leaf: (("label",), lambda rng: _leaf(rng, 2)),
    Query: (("var", "neg", "pos"),
            lambda rng: Query(rng.randrange(4), _leaf(rng), _leaf(rng))),
    DecisionTree: (("n", "k", "root"), lambda rng: _tree(rng, 2, 2)),
    RandomizedTree: (("components",), _mixture),
    LeafRef: (("label", "fixed_mask", "fixed_vals"), lambda rng: leaves(_tree(rng))[0]),
    LeafStats: (("reach", "dens", "adv", "p"),
                lambda rng: leaf_stats(_tree(rng), random_function(rng, 2),
                                       random_measure(rng, 2), random_distribution(rng, 2))[0]),
    FrontierPoint: (("depth", "value", "tree"),
                    lambda rng: rng.choice(pareto_frontier(random_function(rng, 2),
                                                           random_distribution(rng, 2)).points)),
    ParetoFrontier: (("sense", "n", "k", "points"),
                     lambda rng: pareto_frontier(random_function(rng, 2),
                                                 random_distribution(rng, 2))),
    HardcoreCertificate: (
        ("f", "mu", "measure", "delta", "gamma", "depth_budget",
         "best_response_advantage", "witness", "iterations"),
        lambda rng: HardcoreCertificate(
            random_function(rng, 2), random_distribution(rng, 2), random_measure(rng, 2),
            *_domain(rng), _fraction(rng), _mixture(rng),
            rng.randrange(1, 9))),
    Committee: (
        ("f", "mu", "trees", "delta", "gamma", "depth_budget", "seed", "iterations"),
        lambda rng: Committee(
            random_function(rng, 2), random_distribution(rng, 2),
            tuple(_tree(rng) for _ in range(rng.choice((1, 3, 5)))),
            *_domain(rng), rng.randrange(99),
            rng.randrange(1, 9))),
    BoundReport: (("context", "lhs", "rhs", "holds", "hypothesis_ok", "related"), _report),
    CheckResult: (("name", "report"), lambda rng: CheckResult(f"c{rng.randrange(9)}",
                                                              _report(rng))),
    ScenarioResult: (("scenario", "params", "checks", "artifacts"),
                     lambda rng: ScenarioResult(
                         "s", {"seed": rng.randrange(9)},
                         (CheckResult("c", _report(rng)),), {"a": [rng.randrange(9)]})),
}
DEFAULTS = {BoundReport: {"hypothesis_ok": True, "related": ()}}


def _twin_class(cls):
    defaults = DEFAULTS.get(cls, {})
    spec = [(name, object, dataclasses.field(default=defaults[name])) if name in defaults
            else (name, object) for name in BUILDERS[cls][0]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in BUILDERS[type(record)][0])


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


def _raises(action) -> type | None:
    try:
        action()
    except Exception as exc:  # noqa: BLE001 - the kind is the observation
        return type(exc)
    return None


def test_the_oracle_covers_every_record_class():
    def subclasses(cls):
        return {c for s in cls.__subclasses__() for c in {s} | subclasses(s)}
    assert len(BUILDERS) == 18
    assert {c for c in subclasses(Record) if c.__module__.startswith("dtlab.")} == set(BUILDERS)
    for cls, (fields, _) in BUILDERS.items():
        assert cls._fields == fields, cls


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda c: c.__name__)
def test_a_record_agrees_with_its_frozen_dataclass_twin(cls):
    fields, build = BUILDERS[cls]
    twin = _twin_class(cls)
    records = [build(random.Random(7100 + seed)) for seed in SEEDS]
    twins = [twin(*_values(r)) for r in records]
    for rec, tw in zip(records, twins):
        assert type(rec) is cls
        assert repr(rec) == repr(tw)
        assert _hash(rec) == _hash(tw)
        # rebuilt from its values, by position or keyword: an equal record
        values = _values(rec)
        for same in (cls(*values), cls(**dict(zip(fields, values)))):
            assert same is not rec and same == rec and not same != rec
            assert _hash(same) == _hash(rec) and repr(same) == repr(rec)
        # a record never equals another class's value, its twin included
        assert rec != tw and tw != rec and not rec == tw
        assert rec.__eq__(tw) is NotImplemented and rec.__eq__(values) is NotImplemented
        for name in fields + ("extra",):
            for act in (lambda: setattr(rec, name, None), lambda: delattr(rec, name)):
                assert _raises(act) is AttributeError
            assert _raises(lambda: setattr(tw, name, None)) is dataclasses.FrozenInstanceError
            assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
        assert _values(rec) == values  # the refused writes changed nothing
        # reduce-based round trips: equal values of the same class
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls and back == rec and repr(back) == repr(rec)
        assert _hash(back) == _hash(rec)
        assert copy.deepcopy(rec) == rec and copy.deepcopy(tw) == tw
        # a bad argument list is a TypeError for both
        for args, kwargs in (((), {}), (values + (None,), {}),
                             (values, {fields[0]: values[0]}),
                             (values, {"extra": None})):
            assert _raises(lambda: cls(*args, **kwargs)) is TypeError
            assert _raises(lambda: twin(*args, **kwargs)) is TypeError
    for a, ta in zip(records, twins):
        for b, tb in zip(records, twins):
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert len({repr(r) for r in records}) > 1  # the seeds give distinct values


def test_defaults_fill_as_the_twin_does():
    rng = random.Random(7200)
    full = _report(rng)
    twin = _twin_class(BoundReport)
    short = full.context, full.lhs, full.rhs, full.holds
    assert BoundReport(*short) == BoundReport(*short, True, ())
    assert repr(BoundReport(*short)) == repr(twin(*short))
    assert repr(BoundReport(*short, related=full.related)) == repr(
        twin(*short, related=full.related))


def test_every_record_type_builds_through_its_own_init():
    for cls, (fields, _) in BUILDERS.items():
        assert "__init__" in cls.__dict__, cls
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == fields, cls
    assert not {"__init__", "_bind", "_defaults", "__post_init__"} & set(Record.__dict__)
    hooks = [f"{path.name}:{node.name}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(getattr(item, "name", None) == "__post_init__" for item in node.body)]
    assert hooks == []
