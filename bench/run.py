"""Benchmark of paretodescent on three seeded workloads.

    python3 bench/run.py --workload builtin_suite --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round next to an untraced one.  ``--workload all`` runs
every workload in its own process and prints one table.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  bench/README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is imported, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("builtin_suite", "inline_fd", "wide_sweep")
SETUP_PROBES = 5  # set-up is measured in this many fresh processes
CHILD_TIMEOUT_S = 170

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import paretodescent from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import paretodescent

    if SRC.resolve() not in Path(paretodescent.__file__).resolve().parents:
        raise SystemExit(f"error: imported paretodescent from {paretodescent.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to having the inputs ready.

    The child reports time.monotonic() when ready; on Linux that clock is
    CLOCK_MONOTONIC, shared by all processes, so the difference with the
    parent's reading before the spawn covers interpreter start, imports and
    input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - start


def _print_result(res: dict) -> None:
    print(f"env {json.dumps(res['env'])}")
    print(f"workload {res['workload']} seed {res['seed']}: {res['cases']} cases, {res['rounds']} rounds")
    for name, value in res["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {res['units'][name]}")
    if "shares" in res:
        print("  self time share of traced wall: "
              + ", ".join(f"{k} {v:.1%}" for k, v in res["shares"].items()))
    print(f"  failed {res['failed']} of {res['attempted']} cases; causes: "
          + (", ".join(f"{k}={v}" for k, v in res["causes"].items()) or "none"))
    if res["failed_cases"]:
        print("  failed cases: " + ", ".join(f"{k} x{v}" for k, v in res["failed_cases"].items()))
    for msg in res["wrong"]:
        print(f"  WRONG: {msg}")


def _detail_line(res: dict) -> str:
    keys = ("workload", "seed", "cases", "rounds", "correct", "attempted", "failed", "causes", "failed_cases",
            "metrics", "units")
    return "detail " + json.dumps({k: res[k] for k in keys})


def _result_line(res: dict, names) -> str:
    metrics = {k: {"value": res["metrics"][k], "unit": res["units"][k]} for k in names}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    lines = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = proc.stdout.splitlines()
        print("\n".join(line for line in out[:-1] if not line.startswith("detail ")))
        res = json.loads(next(line for line in out if line.startswith("detail "))[len("detail "):])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in json.loads(out[-1])["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        lines.append((name, res))
    print(f"\n{'metric':40s}" + "".join(f"{n:>16s}" for n, _ in lines))
    for k, unit in lines[0][1]["units"].items():
        print(f"{k + ' [' + unit + ']':40s}" + "".join(f"{r['metrics'][k]:>16.6g}" for _, r in lines))
    print(f"{'attempted / failed':40s}"
          + "".join(f"{str(r['attempted']) + ' / ' + str(r['failed']):>16s}" for _, r in lines))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "paretodescent" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/paretodescent not found; run from a repository checkout")
    if args.setup_probe:
        _import_library()
        import workloads

        work = OUT / f"probe-{os.getpid()}"
        try:
            workloads.make_cases(args.workload, args.seed, work)
            ready = time.monotonic()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(repr(ready))
        return 0
    if args.workload == "all":
        return run_all(args)
    setup = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    _import_library()
    import harness

    res = harness.run_workload(args, setup, OUT)
    res["env"] = environment()
    _print_result(res)
    print(_detail_line(res))
    if args.trace:
        print(_result_line(res, res["metrics"]))
    else:
        print("  not gated: " + ", ".join(k for k in res["metrics"] if k not in harness.GATED))
        print(_result_line(res, harness.GATED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
