"""Every imported name in the package and its tests is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "dtlab").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") == [
        "os (line 1)"]


def test_importing_dtlab_leaves_out_the_thread_pool():
    # only run_config with jobs > 1 imports concurrent.futures (and logging);
    # records need no dataclasses (nor its inspect), hex checks no string
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    absent = ("dataclasses", "inspect", "string", "concurrent.futures")
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, dtlab; print([m for m in {absent!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
