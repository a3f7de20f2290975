"""Replay the recorded mutants in recorded.py: each must be killed.

For each mutant the repository's src/, tests/, benchmarks/*.py, README.md
and pyproject.toml are copied to a fresh temporary directory, the mutant's
old text is replaced by its new text there, and its test, a pytest node
id, runs with `pytest -x` in a subprocess, two mutants at a time.  A failing
run kills the mutant.  A mutant whose old text does not occur exactly once
in its module is stale and is not run.

    python mutants/replay.py        # one line per mutant; exit 1 unless all killed
    python -m pytest mutants/       # the same, as one test
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from recorded import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "README.md", "pyproject.toml")
TIMEOUT_S = 300
WORKERS = 2


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("out", "__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, dest / name)


def replay(mutant) -> str:
    """'killed', 'survived', 'stale' or 'timeout' for one mutant."""
    module, old, new, test = mutant
    source = (ROOT / module).read_text(encoding="utf-8")
    if source.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="dtlab-mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        (work / module).write_text(source.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
                cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    # 1: a test failed; 2: collection failed, e.g. the mutant broke an import
    return {0: "survived", 1: "killed", 2: "killed"}.get(run.returncode,
                                                         f"pytest exit {run.returncode}")


def _timed(mutant) -> tuple[str, float]:
    start = time.monotonic()
    return replay(mutant), time.monotonic() - start


def replay_all(out=None) -> list[tuple[int, str]]:
    """(index, outcome) for every mutant, printing one line each to `out`."""
    outcomes = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for i, (outcome, took) in enumerate(pool.map(_timed, MUTANTS)):
            outcomes.append((i, outcome))
            if out is not None:
                module, old = MUTANTS[i][:2]
                print(f"{i:3d} {outcome:9s} {took:5.1f} s  {module}: "
                      f"{old.strip().splitlines()[0][:60]}", file=out, flush=True)
    return outcomes


def main() -> int:
    start = time.monotonic()
    outcomes = replay_all(sys.stdout)
    bad = [(i, o) for i, o in outcomes if o != "killed"]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} killed "
          f"in {time.monotonic() - start:.0f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
