"""One benchmark operation in a fresh process: a set-up, a repetition or a check.

Usage: python3 perfbench/worker.py '<json job>' where the job names the
``kind`` (setup | repetition | check), ``workload``, ``seed``, ``setup_dir``,
``run_dir``, ``traced`` ("", "spans" or "memory"), ``smoke`` and the ``result`` file to write.  The
parent reads the result file and this process's resource usage.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(job: dict) -> int:
    import tracing
    import workloads

    tracer = tracing.install(memory=job["traced"] == "memory") if job["traced"] else None
    w = workloads.WORKLOADS[job["workload"]]
    result = {}
    status = 0
    try:
        if job["kind"] == "setup":
            result["setup_s"] = workloads.setup(w, job["seed"], Path(job["setup_dir"]), job["smoke"])
        elif job["kind"] == "check":
            result["quality"] = workloads.quality(Path(job["setup_dir"]), Path(job["run_dir"]))
        else:
            result.update(workloads.repetition(w, Path(job["setup_dir"]), Path(job["run_dir"]), job["smoke"]))
    except Exception:  # reported to the parent, which counts the operation as failed
        result["error"] = traceback.format_exc()
        status = 1
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
