"""The benchmark's traced pass (``perfbench/tracing.py``) wraps package functions that
it names in ``TARGETS``, and its counters call package helpers.  Renaming or deleting one
of them must fail tier-1, not only a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_tracing_install_finds_every_hooked_function():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    result = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(False)"],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_smoke_run_counts_through_the_package_helpers():
    """``--smoke`` runs one traced repetition of each workload, which calls every counter
    (``imgcore._tile_paths`` and ``_stack_paths`` among them)."""
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0 and "smoke ok" in result.stdout, result.stdout[-4000:]
