"""The benchmark's traced pass (``perfbench/tracing.py``) wraps package functions that
it names in ``TARGETS``, and its counters call package helpers.  Renaming or deleting one
of them must fail tier-1, not only a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

# inference on a tiny float32 model, traced; prints the conv counter and span
INFERENCE_CONVS = """
import numpy as np
import tracing
tracer = tracing.install(False)
from marmopipe import nnseg
net = nnseg.init_unet(2, 4, 1, seed=0).astype(np.float32)
nnseg.sliding_window_predict(net, np.random.default_rng(0).random((40, 40)))
print(tracer.counts["nnseg.conv3x3_flop"], tracer.layer_metrics()["nnseg.conv3x3_forward.s"])
"""


def _traced_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    return subprocess.run([sys.executable, "-c", code],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_tracing_install_finds_every_hooked_function():
    result = _traced_python("import tracing; tracing.install(False)")
    assert result.returncode == 0, result.stderr


def test_inference_convs_reach_the_conv_counter():
    """Inference convs go through the wrapped ``conv3x3_forward``, so a traced pipeline
    counts their flops and time; a conv kernel that bypassed it would read 0."""
    result = _traced_python(INFERENCE_CONVS)
    assert result.returncode == 0, result.stderr
    flop, seconds = (float(v) for v in result.stdout.split())
    assert flop > 0 and seconds > 0, result.stdout


def test_smoke_run_counts_through_the_package_helpers():
    """``--smoke`` runs one traced repetition of each workload, which calls every counter
    (``imgcore._tile_paths`` and ``_stack_paths`` among them)."""
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0 and "smoke ok" in result.stdout, result.stdout[-4000:]
