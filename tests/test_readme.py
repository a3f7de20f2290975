"""The README names only things the package really has: its module table
real `dtlab` attributes, its command synopsis the parser's real arguments."""

import argparse
import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import dtlab
from dtlab import cli, exactexp, functions, hardcore, synth

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


def _package_stdlib_imports() -> set[str]:
    """The modules that the package's modules, less the command line, import
    at module level; relative and __future__ imports left out."""
    found = set()
    for path in sorted((README.parent / "src" / "dtlab").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module)
    return found - {"__future__"}


def test_readme_install_lists_the_stdlib_modules_import_dtlab_loads():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Install", 1)[1].split("\n## ", 1)[0]
    listed = section.split("modules itself:", 1)[1].split("(", 1)[0]
    assert set(re.findall(r"`([^`]+)`", listed)) == _package_stdlib_imports()


def _opening():
    """README's opening paragraph on the package's limits."""
    return next(p for p in README.read_text(encoding="utf-8").split("\n\n")
                if "desk-scale" in p)


def test_readme_guard_limits_are_the_constants():
    """The opening paragraph's "at most" limits, in order, are the guards'
    constants: a guard retuned without its README figure fails here."""
    limits = (functions.MAX_TABLE_VARS, functions.MAX_TABLE_VARS, synth.MAX_DP_VARS,
              synth.MAX_ENUM_VARS, hardcore.MAX_COMMITTEE_SIZE, exactexp.MAX_EXP_BITS)
    assert re.findall(r"at most\s+([\d,^]*\d)", _opening()) == [f"{v:,}" for v in limits]


def test_readme_game_cost_limit_is_max_game_cost():
    """The opening paragraph's limit on a restricted game's cost is the
    solver's MAX_GAME_COST."""
    assert re.findall(r"would\s+exceed\s+([\d,]+)", _opening()) == [
        f"{hardcore.MAX_GAME_COST:,}"]


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


def _library_example():
    """(code, expected stdout lines) of the "Library example" block.  The
    expected output is each print line's trailing comment and the run of
    whole-line comments right below a print line; `# ...` stands for any
    number of lines, written as None."""
    text = README.read_text(encoding="utf-8")
    code = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    expected, printing = [], False
    for line in code.splitlines():
        if line.startswith("#") and printing:
            shown = line[1:].strip()
            expected.append(None if shown == "..." else shown)
            continue
        printing = "print(" in line
        if printing and "  # " in line:
            expected.append(line.split("  # ", 1)[1].strip())
    return code, expected


def test_readme_library_example_prints_what_it_says():
    code, expected = _library_example()
    assert len(expected) >= 5 and None in expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    pattern = "".join(r"(?:.*\n)*?" if line is None else re.escape(line) + r"\n"
                      for line in expected)
    assert re.fullmatch(pattern, out.getvalue()), (expected, out.getvalue())
