"""The benchmark's own smoke test passes against this source tree.

A change to the command line that breaks the benchmark's spans, its
generated documents or its known answers fails here, not only when the
benchmark is next run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "bench/smoke.py"], capture_output=True, text=True, cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
