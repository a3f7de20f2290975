"""The README names only things the package really has: its module table
real `dtlab` attributes, its command synopsis the parser's real arguments."""

import argparse
import importlib
import re
from pathlib import Path

import dtlab
from dtlab import cli

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


def _synopsis():
    """{subcommand: (flags, positionals)} from the "Command line" synopsis;
    a positional is written as a file name, `report.json` for `report`."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    out = {}
    for line in block.splitlines():
        if line.startswith("dtlab "):
            _, command, *tokens = line.replace("[", " ").replace("]", " ").split()
            flags = {t for t in tokens if t.startswith("--")}
            positionals = {t.split(".")[0] for t in tokens
                           if re.fullmatch(r"[a-z]\w*\.json", t)}
            out[command] = (flags, positionals)
    return out


def test_readme_synopsis_matches_the_parser():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {}
    for command, parser in sub.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        parsed[command] = ({s for a in actions for s in a.option_strings},
                           {a.dest for a in actions if not a.option_strings})
    assert _synopsis() == parsed
