"""The benchmark harness self-check, run as part of the test suite.

``perfbench/tracing.py`` rebinds solver functions by name (``local_search``,
``SolverContext.plan``, ``price_ng_routes``, ...).  Renaming or re-signing
one of them breaks the benchmark; this test makes that fail here as well.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selfcheck passed" in res.stdout
