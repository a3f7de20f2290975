"""Every recorded mutant is killed by its test file, and none is stale.

Outside the tier-1 test paths: run with `python -m pytest mutants/`.
"""

import time

from recorded import MUTANTS
from replay import replay_all


def test_every_mutant_is_killed_and_none_is_stale():
    start = time.monotonic()
    outcomes = replay_all()
    assert [(i, o) for i, o in outcomes if o != "killed"] == []
    assert len(outcomes) == len(MUTANTS) >= 5
    assert time.monotonic() - start < 180
