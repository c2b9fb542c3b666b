"""Closed-loop benchmark driver: one client, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (imports, input generation, any precomputed table) is repeated in
rounds spread over the run and its median reported as ``setup_s``.  A
disk-oracle check runs before timing.  With ``--trace 0`` the run is untraced and the last stdout line
holds every end-to-end metric of BENCHMARK.json; with ``--trace 1`` half of
the time runs untraced and half traced, and the last line holds every
per-layer metric, tracing overhead included.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import ORACLE_TOL, SYMMETRY_TOL, WORKLOADS, oracle_gap

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("geometry", "transmission", "emt", "disk", "reconstruct", "cli", "materials")
# Set-up is timed in SETUP_ROUNDS rounds: one before the first op and the
# others between equal slices of the op time, so that its median spans the
# run as the op metrics do, rather than the first second of it.  A round
# repeats set-up until SETUP_ROUND_SECONDS are spent, at most
# SETUP_ROUND_MAX_REPS times.
SETUP_ROUNDS, SETUP_ROUND_MAX_REPS, SETUP_ROUND_SECONDS = 5, 5, 0.25
MIN_TABLE_DIGITS = -math.log10(SYMMETRY_TOL)
ROOT = Path(__file__).resolve().parents[1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of ``count`` samples above
    its nearest-rank value (0 when there are 10 samples or fewer)."""
    return max(0, math.floor(100 * (count - 10) / count)) if count > 10 else 0


def nearest_rank(values, pct: int) -> float:
    """Nearest-rank percentile; NaN when there are no values."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def import_api() -> SimpleNamespace:
    """Import emtshape afresh, so each set-up repetition pays for it."""
    for key in [k for k in sys.modules if k == "emtshape" or k.startswith("emtshape.")]:
        del sys.modules[key]
    return SimpleNamespace(**{m: importlib.import_module(f"emtshape.{m}") for m in MODULES})


def set_up(workload, work_dir: Path) -> tuple[SimpleNamespace, list[float]]:
    """One round of fresh imports and set-ups of ``workload``; returns the
    last import and the time of each repetition."""
    times, started = [], perf_counter()
    while not times or (len(times) < SETUP_ROUND_MAX_REPS
                        and perf_counter() - started < SETUP_ROUND_SECONDS):
        t0 = perf_counter()
        api = import_api()
        workload.setup(api, work_dir)
        times.append(perf_counter() - t0)
    return api, times


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(root),
    }


def run_ops(workload, seconds: float, first: int, tracer: Tracer | None = None) -> dict:
    """Closed loop: the next op starts when the previous one is checked."""
    latencies, failed, i = [], 0, first
    end = perf_counter() + seconds
    while perf_counter() < end:
        if tracer is not None:
            tracer.op_id = i
        try:
            latency, output = workload.op(i)
            workload.check(i, output)
            latencies.append(latency)
        except Exception:  # an op that raises is a failed op; keep measuring
            failed += 1
            traceback.print_exc(file=sys.stderr)
        i += 1
    if tracer is not None:
        tracer.op_id = -1
    return {"ops": list(range(first, i)), "latencies": latencies, "failed": failed}


def merge(loops: list[dict]) -> dict:
    return {"ops": [i for loop in loops for i in loop["ops"]],
            "latencies": [t for loop in loops for t in loop["latencies"]],
            "failed": sum(loop["failed"] for loop in loops)}


def throughput(loop: dict) -> float:
    """Ops completed per second of op time; NaN when none completed."""
    lat = loop["latencies"]
    return len(lat) / sum(lat) if lat else math.nan


def end_to_end(loop: dict, setup: list[float], quality: dict) -> tuple[dict, dict]:
    lat = loop["latencies"]
    pct = tail_percentile(len(lat))
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(loop),
        "op_p50_s": statistics.median(lat) if lat else math.nan,
        "op_tail_s": nearest_rank(lat, pct),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    notes = {"op_tail_percentile": pct, "ops_completed": len(lat),
             "setup_samples": setup, "latencies_s": lat}
    return values, notes


def span_of(metric: str) -> str | None:
    """``a.b.stat`` -> span ``a.b``; None for metrics that are not spans."""
    return None if metric.startswith(("trace.", "cli.output_bytes")) else metric.rsplit(".", 1)[0]


def per_layer(names: list[str], workload, tracer: Tracer, untraced: dict,
              traced: dict) -> dict:
    stats = tracer.per_op()
    special = {
        "trace.ops_per_s": throughput(traced),
        "trace.untraced_ops_per_s": throughput(untraced),
        "trace.skipped_names": len(tracer.skipped),
        "cli.output_bytes": float(np.median(getattr(workload, "output_bytes", None) or [0])),
    }
    values = {}
    for name in names:
        span = span_of(name)
        if span is None:
            values[name] = special[name]
            continue
        stat = name.rsplit(".", 1)[1]
        key = stat if stat in ("self_s", "calls") else "size"
        values[name] = float(np.median(
            [stats.get(op, {}).get(span, {}).get(key, 0) for op in traced["ops"]]))
    return values


def main(argv: list[str] | None = None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = root / "src"
    if not (src / "emtshape" / "__init__.py").is_file():
        print(f"perfbench: no emtshape sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    factory = WORKLOADS[args.workload]
    workload = factory(args.seed)
    try:
        api, setup = set_up(workload, work_dir)
        if Path(api.cli.__file__).resolve().parents[1] != src.resolve():
            print(f"perfbench: emtshape imported from {api.cli.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        gap = oracle_gap(api)
        correct = gap <= ORACLE_TOL

        tracer = None
        if args.trace:
            untraced = run_ops(workload, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install([span_of(m["name"]) for m in spec["per_layer"]
                            if span_of(m["name"])])
            try:
                traced = run_ops(workload, args.seconds / 2, len(untraced["ops"]), tracer)
            finally:
                tracer.uninstall()
            loops = [untraced, traced]
        else:
            # later rounds set up fresh instances, so the measured workload
            # keeps its own state; ops keep numbering across the slices
            slices = [run_ops(workload, args.seconds / SETUP_ROUNDS, 0)]
            for k in range(1, SETUP_ROUNDS):
                setup += set_up(factory(args.seed), work_dir / f"setup{k}")[1]
                slices.append(run_ops(workload, args.seconds / SETUP_ROUNDS,
                                      sum(len(done["ops"]) for done in slices)))
            loops = [merge(slices)]
        attempted = sum(len(loop["ops"]) for loop in loops)
        failed = sum(loop["failed"] for loop in loops)
        quality = workload.quality()
        correct = correct and failed == 0 and quality["table_digits"] >= MIN_TABLE_DIGITS

        machine = machine_block(root)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine, "oracle_gap": gap,
                  "attempted": attempted, "failed": failed, "inputs": workload.inputs}
        if args.trace:
            values = per_layer([m["name"] for m in spec["per_layer"]], workload, tracer,
                               untraced, traced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            record["skipped_names"] = tracer.skipped
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.json.gz")
        else:
            values, notes = end_to_end(loops[0], setup, quality)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            record["notes"] = notes
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        record["metrics"] = metrics
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))

        print(f"# machine {json.dumps(machine)}")
        print(f"# workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
              f"{failed} failed (op_failed_ratio {failed / max(attempted, 1):.4g}); "
              f"disk oracle gap {gap:.3e}")
        for key, value in record.get("notes", {}).items():
            if key not in ("setup_samples", "latencies_s"):
                print(f"# {key} {value}")
        if tracer is not None and tracer.skipped:
            print(f"# skipped (not found in emtshape): {', '.join(tracer.skipped)}")
        for name, metric in metrics.items():
            print(f"{args.workload:18s} {name:40s} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({"correct": bool(correct), "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
