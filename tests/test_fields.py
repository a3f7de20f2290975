"""Every field, property or cached property of a package dataclass is read
somewhere.

A record member that no module in the package or the benchmark harness
reads as an attribute is data nobody uses; the scan matches by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dtlab").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_property(dec: ast.expr) -> bool:
    """property, or cached_property bare or as functools.cached_property."""
    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
    return name in ("property", "cached_property")


def _members(source: str) -> list[tuple[str, str]]:
    """(class, member) for every field, property and cached property of each
    dataclass."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
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
