"""The README's module table names only things the package really has."""

import importlib
import re
from pathlib import Path

import dtlab

README = Path(__file__).resolve().parent.parent / "README.md"


def _box_rows():
    """(module, backticked Python names) per row of the "What is in the box"
    table; math such as `e^x` and the `dtlab` command are not names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## What is in the box", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `dtlab."):
            module, *names = re.findall(r"`([^`]+)`", line)
            rows.append((module, [n for n in names
                                  if n.isidentifier() and n != "dtlab"]))
    return rows


def test_readme_module_table_names_exist():
    rows = _box_rows()
    assert len(rows) >= 9
    for module_name, names in rows:
        importlib.import_module(module_name)
        for name in names:
            assert hasattr(dtlab, name), f"README names dtlab.{name}, which is gone"
            defined_in = getattr(dtlab, name).__module__
            assert defined_in == module_name, (
                f"README puts {name} in {module_name}; it lives in {defined_in}")
