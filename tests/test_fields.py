"""Every field, property or cached property of a package record is read
somewhere.

A record is a dataclass, a subclass of dtlab.records.Record, or a plain class
that names its attributes in __slots__.  A record member that no module in
the package or the benchmark harness reads as an attribute is data nobody
uses; the scan matches by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dtlab").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))

RECORDS = {
    "BooleanFunction", "VectorFunction", "Distribution", "Measure",  # functions
    "ExpSum",  # exactexp
    "Leaf", "Query", "DecisionTree", "RandomizedTree", "LeafRef", "LeafStats",  # trees
    "FrontierPoint", "ParetoFrontier",  # synth
    "HardcoreCertificate", "Committee", "_Tableau",  # hardcore
    "BoundReport",  # bounds
    "CheckResult", "ScenarioResult",  # scenarios
}


def _name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _slots(node: ast.ClassDef) -> list[str]:
    """The names in a class-level `__slots__ = (...)`, if any."""
    for item in node.body:
        if (isinstance(item, ast.Assign) and [_name(t) for t in item.targets] == ["__slots__"]
                and isinstance(item.value, (ast.Tuple, ast.List))):
            return [e.value for e in item.value.elts if isinstance(e, ast.Constant)]
    return []


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass, a Record subclass, or a class with named __slots__."""
    return (any(_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
                for dec in node.decorator_list)
            or any(_name(base) == "Record" for base in node.bases)
            or bool(_slots(node)))


def _is_property(dec: ast.expr) -> bool:
    """property, or cached_property bare or as functools.cached_property."""
    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
    return name in ("property", "cached_property")


def _records(source: str) -> list[ast.ClassDef]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and _is_record(node)]


def _members(source: str) -> list[tuple[str, str]]:
    """(class, member) for every field, slot, property and cached property of
    each record."""
    out = []
    for node in _records(source):
        out += [(node.name, slot) for slot in _slots(node)]
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out.append((node.name, item.target.id))
            elif isinstance(item, ast.FunctionDef) and any(
                    map(_is_property, item.decorator_list)):
                out.append((node.name, item.name))
    return out


def _attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_members(definitions: list[str], readers: list[str]) -> list[str]:
    read = set().union(*(_attribute_reads(src) for src in readers))
    return [f"{cls}.{name}" for src in definitions for cls, name in _members(src)
            if name not in read]


def test_every_dataclass_member_is_read():
    sources = {p: p.read_text(encoding="utf-8") for p in READERS}
    found = [node.name for p in PACKAGE for node in _records(sources[p])]
    assert sorted(found) == sorted(RECORDS)  # the scan has every record to scan
    assert _unread_members([sources[p] for p in PACKAGE], list(sources.values())) == []


def test_the_scan_sees_an_unread_field():
    definitions = (
        "import functools\n"
        "from dataclasses import dataclass\n"
        "from functools import cached_property\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int\n"
        "    @property\n"
        "    def z(self):\n"
        "        return self.x\n"
        "    @cached_property\n"
        "    def c(self):\n"
        "        return self.x\n"
        "    @functools.cached_property\n"
        "    def d(self):\n"
        "        return self.x\n"
        "    @cached_property\n"
        "    def e(self):\n"
        "        return self.x\n"
        "@dataclass\n"
        "class B:\n"
        "    w: int\n"
        "class C:\n"
        "    v: int\n")
    reader = "def f(a, b):\n    a.y = 1\n    return b.w + a.e\n"
    assert _unread_members([definitions], [definitions, reader]) == [
        "A.y", "A.z", "A.c", "A.d"]


def test_the_scan_sees_record_and_slots_members():
    definitions = (
        "from dtlab import records\n"
        "from dtlab.records import Record\n"
        "class A(Record):\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class B(records.Record):\n"
        "    w: int\n"
        "class C:\n"
        "    __slots__ = ('u', 'v')\n"
        "class D:\n"
        "    __slots__ = ()\n"
        "    t: int\n")
    reader = "def f(a, b, c):\n    return a.x + b.w + c.v\n"
    assert [node.name for node in _records(definitions)] == ["A", "B", "C"]
    assert _unread_members([definitions], [definitions, reader]) == ["A.y", "C.u"]
