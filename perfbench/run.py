"""Benchmark of the nngp-card pipeline: one workload per process.

    python3 perfbench/run.py --workload desk-fit --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics with nothing traced. `--trace 1`
is the traced run: spans around every call into the package's modules,
tracemalloc on, extra probes (kernel depth layers, oracle pool), and the
per-layer metrics; its spans go to `.perfbench_out/trace-<workload>-seed<n>.json`.
`--workload all` runs every workload untraced and traced, each in a fresh
process, and reports the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The run exits with 1 when a
correctness check fails and with 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread and one oracle thread, whatever the caller's environment
# says (workloads.ORACLE_THREADS passes the same count to the library; the CLI
# reads NNGP_CARD_THREADS): on a shared 2-core box the same N=3400 fit took
# 2.0-3.6 s with two BLAS threads and 2.6-2.7 s with one, and 1500 join
# queries took 1.43-2.03 s with two oracle threads and 2.10-2.20 s with one.
THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = THREADS
os.environ["NNGP_CARD_THREADS"] = THREADS

sys.path.insert(0, str(ROOT / "src"))

# workloads.RUNNERS in the same order; named here so that --help and the
# missing-package exit need no import of the package.
WORKLOAD_NAMES = ("desk-fit", "join-pipeline", "active-learn")


def _import_package():
    """Import the checkout's own package, never an installed copy."""
    package_dir = ROOT / "src" / "nngp_card"
    try:
        import nngp_card
    except ImportError as exc:
        print(f"perfbench: cannot import nngp_card from {package_dir}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(nngp_card.__file__).resolve().parent != package_dir.resolve():
        print(f"perfbench: nngp_card came from {nngp_card.__file__}, not {package_dir}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nngp_card").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(THREADS),
        "oracle_threads": int(THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_hash(),
    }


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_one(args) -> int:
    import workloads
    from tracing import NullTracer, Tracer

    env = environment(args)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    t0 = time.perf_counter()
    run = workloads.run_workload(args.workload, args.seed, args.seconds, tracer, OUT_DIR)
    wall_s = time.perf_counter() - t0

    if args.trace:
        units, values = workloads.LAYER_UNITS, run.layers
    else:
        units, values = workloads.E2E_UNITS, run.e2e
    doc = {
        "env": env,
        "wall_s": wall_s,
        "e2e": _metrics(run.e2e, {**workloads.E2E_UNITS, **workloads.E2E_EXTRA_UNITS}),
        "checks": run.checks,
        "accuracy": run.accuracy,
        "model": run.model,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    if args.trace:
        extra = {k: v for k, v in workloads.LAYER_EXTRA_UNITS.items() if k in run.layers}
        doc["layers"] = _metrics(run.layers, {**workloads.LAYER_UNITS, **extra})
        doc["spans"] = tracer.spans
    kind = "trace" if args.trace else "result"
    out_path = OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    print(json.dumps({"env": env}))
    for name, check in run.checks.items():
        status = "PASS" if check["passed"] == check["total"] else "FAIL"
        print(f"[{status}] {name}: {check['passed']}/{check['total']}")
    printed = units if args.trace else {**units, **workloads.E2E_EXTRA_UNITS}
    for name, unit in printed.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed_share {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted}); "
          f"wall {wall_s:.1f} s; details in {os.path.relpath(out_path, ROOT)}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metrics(values, units),
    }), flush=True)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, each in a fresh process (peak RSS is per process)
# ---------------------------------------------------------------------------


def _child(args, workload: str, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            result = _child(args, workload, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        with open(OUT_DIR / f"trace-{workload}-seed{args.seed}.json", encoding="utf-8") as fh:
            traced = json.load(fh)["e2e"]
        for name, unit in workloads.E2E_UNITS.items():
            if unit == "s" or unit == "ms":
                base = combined["metrics"][f"{workload}.{name}"]["value"]
                share = traced[name]["value"] / base - 1.0
                combined["metrics"][f"{workload}.trace_overhead.{name}"] = {"value": share, "unit": "share"}
                print(f"  tracing overhead {name}: {share:+.1%}")
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least length of the rotation of repeated measurements")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    _import_package()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
