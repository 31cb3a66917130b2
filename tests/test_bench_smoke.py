"""The benchmark's tiny in-process pass, run as a test.

``bench/run.py --smoke`` renders every benchmark workload at tiny size and
puts each artifact through the benchmark's own checkers, which recompute the
closed forms and reject a corrupted copy.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "smoke: OK" in proc.stdout
