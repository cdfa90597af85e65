"""Every demo script runs to completion, prints exactly its recorded output and
writes nothing to stderr.

The expected stdout of each demo is kept in ``tests/data/demos/<name>.txt``;
all six demos are deterministic, so a refactor that changes no verdict
changes none of these bytes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "data" / "demos"


def test_the_demos_are_found():
    assert len(DEMOS) == 6
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
    assert result.stderr == b""  # as in CI, where a demo that writes to stderr fails
