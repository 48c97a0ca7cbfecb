from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvebounds

DEMOS = Path(__file__).resolve().parents[1] / "demos"

PENNER_WALKTHROUGH = """\
genus 3: curves a1 a2 a3 b1 b2 b3 c1 c2 c3

S_0  = {a3}
S_1  = {a2}   witness a1
S_2  = {a1}   witness a2
S_3  = {a3 b3 c3}   witness a1
S_4  = {a2 b2 c2 c3}   witness a1
S_5  = {a1 b1 b3 c1 c2 c3}   witness a2
S_6  = {a3 b2 b3 c1 c2 c3}   witness a1
S_7  = {a2 b1 b2 b3 c1 c2 c3}
S_8  = {a1 a3 b1 b2 b3 c1 c2 c3}
S_9  = {a2 a3 b1 b2 b3 c1 c2 c3}

best certified iterate: k = 6, bound 2/k = 1/3
closed-form guarantee:  k* = 6
supports saturate after 11 iterates
"""


def run_demo(name: str) -> subprocess.CompletedProcess:
    src = Path(curvebounds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_penner_walkthrough_output_is_pinned():
    assert run_demo("penner_walkthrough.py").stdout == PENNER_WALKTHROUGH
