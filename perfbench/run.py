"""marmopipe benchmark: seeded phantom workloads run as a closed loop, outputs checked.

    python3 perfbench/run.py --workload classic_3x3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results.json
    python3 perfbench/run.py --smoke

One client, closed loop: each operation runs in a fresh worker process and
starts only after the previous one has ended.  A run sets the workload up
``SETUPS`` times (``setup_s`` is their median) and then repeats it until
``--seconds`` have passed, at least the workload's ``min_reps`` times.
Every operation's output is checked; a failed check counts as a failed
operation.

With ``--trace 0`` the end-to-end metrics come from untraced repetitions.
With ``--trace 1`` repetitions cycle through three kinds: spans only (the
per-layer times and counts), untraced (tracing overhead = spans minus
untraced ``pipeline_s``) and spans with tracemalloc (per-stage peak memory).
The last line of standard output is one JSON object with the metrics that
BENCHMARK.json lists for the mode.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3
DEADLINE_S = 165.0   # per workload, so that a one-workload run ends within 180 s
LOAD_LIMIT = 0.5
# --trace 1 repeats: spans only (layer times), untraced (overhead baseline),
# spans + tracemalloc (stage peaks; its allocation hooks distort the times)
TRACE_CYCLE = ("spans", "", "memory")

E2E_UNITS = {
    "pipeline_s": "s",
    "train_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "tracer_iou": "ratio",
    "cell_f1": "ratio",
    "table_err_max": "ratio",
    "ops_failed": "ratio",
}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def run_worker(job: dict, timeout: float) -> dict:
    """Run one operation in a fresh process; adds its wall time and peak RSS."""
    result_path = Path(job["result"])
    with open(result_path.with_suffix(".log"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    if proc.returncode != 0:
        log_path = result_path.with_suffix(".log")
        result.setdefault("error", f"worker exited with {proc.returncode}; see {log_path}")
    result["wall_s"] = wall
    result["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return result


def timing(values) -> str:
    """Median plus the highest percentile that leaves ten samples beyond it."""
    n = len(values)
    if n >= 20:
        k = int(100 * (1 - 10 / n))
        tail = f"p{k} {statistics.quantiles(values, n=100)[k - 1]:.4f}"
    else:
        tail = f"max {max(values):.4f}"
    return f"median {statistics.median(values):.4f}, {tail}, n={n}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads

    w = workloads.WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    base = WORK / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    env = environment()
    env["load_before"] = os.getloadavg()[0]
    ops = []  # one entry per operation: kind, problems

    def job(kind, index, traced, setup_dir, run_dir=""):
        return dict(kind=kind, workload=name, seed=seed, setup_dir=str(setup_dir), run_dir=str(run_dir),
                    traced=traced, smoke=smoke, result=str(base / f"{kind}{index}.json"))

    setups = []
    for i in range(1 if smoke else SETUPS):
        res = run_worker(job("setup", i, "spans" if trace else "", base / f"setup{i}"),
                         deadline - time.monotonic())
        problems = [res["error"]] if "error" in res else []
        if not problems:
            # run.cfg embeds the set-up's path, the npz its write time
            res["digest"] = workloads.tree_digest(base / f"setup{i}",
                                                  skip=("run.cfg", "tracer_samples.npz"))
            if setups and res["digest"] != setups[0]["digest"]:
                problems.append("set-up output differs from the first set-up of the same seed")
        if i:
            shutil.rmtree(base / f"setup{i}", ignore_errors=True)
        setups.append(res)
        ops.append(dict(kind="setup", problems=problems))
    setup_dir = base / "setup0"

    reps = []
    if not ops[0]["problems"]:
        t_start = time.perf_counter()
        while True:
            last = reps[-1]["wall_s"] if reps else 0.0
            if len(reps) >= w.min_reps and time.perf_counter() - t_start + last > seconds:
                break
            if reps and time.monotonic() + 1.5 * last > deadline:
                break
            i = len(reps)
            traced = TRACE_CYCLE[i % 3] if trace else ""
            run_dir = base / f"run{i}"
            res = run_worker(job("repetition", i, traced, setup_dir, run_dir), deadline - time.monotonic())
            res["traced"] = traced
            res["problems"] = check_repetition(
                w, res, reps, run_dir, smoke=smoke,
                score=lambda: run_worker(job("check", i, "", setup_dir, run_dir),
                                         deadline - time.monotonic()))
            shutil.rmtree(run_dir, ignore_errors=True)
            reps.append(res)
            ops.append(dict(kind="repetition", problems=res["problems"]))
        if len(reps) < w.min_reps:
            ops.append(dict(kind="repetition", problems=[f"deadline reached after {len(reps)} repetitions"]))
    env["load_after"] = os.getloadavg()[0]
    env["load_flag"] = env["load_before"] > LOAD_LIMIT  # load_after includes this run's own work
    env["parent_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for op in ops if op["problems"])
    metrics, lines = summarize(w, setups, reps)
    metrics["ops_failed"] = (failed / len(ops), E2E_UNITS["ops_failed"])

    span_log = {f"setup{i}": s.pop("spans", []) for i, s in enumerate(setups)}
    span_log.update({f"repetition{i}-{r['traced']}": r.pop("spans", [])
                     for i, r in enumerate(reps) if r["traced"]})
    summary = dict(
        workload=name, seed=seed, phantom_seed=workloads.phantom_seed(name, seed), trace=trace,
        smoke=smoke, environment=env, attempted=len(ops), failed=failed,
        problems=[p for op in ops for p in op["problems"]],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        setups=setups,
        repetitions=[{k: v for k, v in r.items() if k != "layers"} for r in reps],
        lines=lines,
    )
    (base / "results.json").write_text(json.dumps(summary, indent=1))
    (base / "spans.json").write_text(json.dumps(
        {"fields": ["id", "name", "start", "end", "parent"], "operations": span_log}))
    shutil.rmtree(setup_dir, ignore_errors=True)
    return summary


def summarize(w, setups: list, reps: list):
    """Metrics ``{name: (value, unit)}`` and timing lines of one workload's operations."""
    metrics, lines = {}, []
    plain = [r for r in reps if not r["traced"] and "pipeline_s" in r]
    spans = [r for r in reps if r["traced"] == "spans" and "layers" in r]
    memory = [r for r in reps if r["traced"] == "memory" and "layers" in r]
    timings = {"setup_s": [s["setup_s"] for s in setups if "setup_s" in s],
               "pipeline_s": [r["pipeline_s"] for r in plain]}
    if w.unet:
        timings["train_s"] = [r["train_s"] for r in plain]
    timings["peak_rss_mib"] = [r["peak_rss_mib"] for r in plain]
    for metric, values in timings.items():
        if values:
            metrics[metric] = (statistics.median(values), E2E_UNITS[metric])
            lines.append(f"{metric}: {timing(values)} {E2E_UNITS[metric]}")
    scored = [r for r in reps if "quality" in r]
    if scored:
        for metric, value in scored[0]["quality"].items():
            metrics[metric] = (value, E2E_UNITS[metric])
    if spans and memory:
        for metric, unit in tracing.LAYER_METRICS.items():
            if metric == "evalsynth.generate_phantom.s":
                source = setups
            elif metric.endswith(".peak_mib"):
                source = memory
            else:
                source = spans
            values = [op["layers"][metric] for op in source if "layers" in op]
            if values:
                metrics[metric] = (statistics.median(values), unit)
        if plain:
            overhead = (statistics.median(r["pipeline_s"] for r in spans)
                        - statistics.median(r["pipeline_s"] for r in plain))
            metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, lines


def check_repetition(w, res, earlier, run_dir, score, smoke) -> list:
    """Problems with one repetition's outputs; an empty list means it passed.

    ``score()`` runs the quality check in a worker of its own: a child's
    ``ru_maxrss`` starts from this process's peak RSS, so this process must
    never load the output stacks itself.
    """
    import workloads

    if "error" in res:
        return [res["error"]]
    problems = []
    stages = res.get("stages", [])
    if len(stages) != 5 or any("status=ok" not in line for line in stages):
        problems.append(f"stages not all ok: {stages}")
    res["digest"] = workloads.tree_digest(run_dir, skip=("report.txt",))  # report.txt holds timings
    first = next((r for r in earlier if "quality" in r), None)
    if first is not None:
        if res["digest"] != first["digest"]:
            problems.append("run-dir digest differs from the first repetition")
        if res.get("train_digest") != first.get("train_digest"):
            problems.append("trained parameters differ from the first repetition")
    if first is not None and not problems:
        res["quality"] = first["quality"]  # identical outputs score identically
    else:
        scored = score()
        if "error" in scored:
            return problems + [f"cannot score outputs: {scored['error']}"]
        res["quality"] = scored["quality"]
    if not smoke:
        q, floors = res["quality"], w.floors
        for metric in ("tracer_iou", "cell_f1"):
            if q[metric] < floors[metric]:
                problems.append(f"{metric}={q[metric]:.4f} below its floor {floors[metric]}")
        if q["table_err_max"] > floors["table_err_max"]:
            problems.append(f"table_err_max={q['table_err_max']:.4f} "
                            f"above its ceiling {floors['table_err_max']}")
    return problems


def print_summary(s: dict) -> None:
    env = s["environment"]
    print(f"workload {s['workload']} seed={s['seed']} phantom_seed={s['phantom_seed']} "
          f"trace={int(s['trace'])}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["load_flag"]:
        print(f"WARNING: load average above {LOAD_LIMIT}; timings may be inflated")
    for line in s["lines"]:
        print(line)
    for name, m in s["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"operations attempted={s['attempted']} failed={s['failed']}")
    for problem in s["problems"]:
        print(f"FAILED: {problem}")


def contract_line(summaries: list, names: list, prefix: bool) -> str:
    metrics = {}
    correct = True
    for s in summaries:
        correct &= s["failed"] == 0
        for name in names:
            key = f"{s['workload']}.{name}" if prefix else name
            if name in s["metrics"]:
                metrics[key] = s["metrics"][name]
            else:
                correct = False
    return json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def smoke(seed: int, bench: dict) -> int:
    """Tiny run of every workload; every metric must be emitted with its unit."""
    import workloads

    missing = []
    for name in workloads.WORKLOADS:
        s = run_workload(name, seed, 0.0, trace=True, smoke=True)
        print_summary(s)
        expected = dict(E2E_UNITS, **tracing.LAYER_METRICS, **{"trace.overhead_s": "s"})
        if not workloads.WORKLOADS[name].unet:
            expected.pop("train_s")
        for m in bench["end_to_end"] + bench["per_layer"]:
            expected[m["name"]] = m["unit"]
        for metric, unit in expected.items():
            got = s["metrics"].get(metric)
            if got is None or got["unit"] != unit:
                missing.append(f"{name}: {metric} [{unit}] -> {got}")
        missing += [f"{name}: {p}" for p in s["problems"]]
    for line in missing:
        print(f"SMOKE FAILED: {line}")
    print("smoke ok" if not missing else f"smoke failed ({len(missing)} problems)")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check that every metric is emitted")
    parser.add_argument("--out", default="", help="also write the full results of all workloads here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "marmopipe" / "__init__.py").is_file():
        print(f"error: no marmopipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    # Workers inherit one BLAS thread unless the caller chose otherwise: on a
    # shared 2-core box two made unet ~10 % faster but doubled its spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(args.seed, bench)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), smoke=False)
        print_summary(summary)
        summaries.append(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summaries, indent=1) + "\n")
    metric_names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(contract_line(summaries, metric_names, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
