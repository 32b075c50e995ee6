"""The behaviour ledger: what every benchmark case does, bit for bit.

For seeds 0 and 1 of each benchmark workload, the ledger holds every case's
trajectory digest (its first 16 hex digits), its termination and its
``(f_calls, jacobians, jac_calls)``, plus the workload's totals.  It is
computed through the bench's own ``make_cases``, ``PIPELINES``,
``plain_call``, ``own`` and ``checks.trajectory_digest``, which it only
reads.  ``ledger.json`` holds the ledger of the OpenBLAS kernel it names;
test_ledger.py recomputes it.

    python tests/ledger.py --write    # regenerate tests/ledger.json

Regenerate it in a change that alters trajectories or counts on purpose,
and state the totals before and after; the diff of the file then names
every case that changed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().parent / "ledger.json"
SEEDS = (0, 1)
DIGEST_HEX = 16


def _bench():
    """The bench's checks and workloads modules, imported from bench/."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return checks, workloads


def compute() -> dict:
    """The ledger of this checkout on this machine's kernel."""
    from kernel import _core_name

    checks, workloads = _bench()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in SEEDS:
            for name, pipeline in workloads.PIPELINES.items():
                rows = []
                for case in workloads.make_cases(name, seed, work / "inputs"):
                    run = pipeline(case, str(work / "case"), workloads.plain_call, workloads.own)
                    digest = checks.trajectory_digest(run.report)[:DIGEST_HEX]
                    rows.append([case.label, digest, run.report.termination, *run.tally.as_tuple()])
                totals = {key: sum(row[3 + i] for row in rows)
                          for i, key in enumerate(("f_calls", "jacobians", "jac_calls"))}
                runs.append({"workload": name, "seed": seed, "totals": totals, "cases": rows})
    return {"kernel": _core_name(), "runs": runs}


def dumps(ledger: dict) -> str:
    """JSON with one case a line, so that a diff of the file names the cases."""
    blocks = []
    for run in ledger["runs"]:
        head = json.dumps({k: v for k, v in run.items() if k != "cases"})[:-1]
        rows = ",\n".join("    " + json.dumps(row) for row in run["cases"])
        blocks.append(f'  {head}, "cases": [\n{rows}\n  ]}}')
    runs = ",\n".join(blocks)
    return f'{{"kernel": {json.dumps(ledger["kernel"])}, "runs": [\n{runs}\n]}}\n'


def load() -> dict:
    return json.loads(LEDGER.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--write", action="store_true", help=f"write the ledger to {LEDGER.name}")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    ledger = compute()
    if args.write:
        LEDGER.write_text(dumps(ledger))
    for run in ledger["runs"]:
        totals = "/".join(str(v) for v in run["totals"].values())
        print(f"{run['workload']} seed {run['seed']}: {len(run['cases'])} cases, "
              f"f_calls/jacobians/jac_calls {totals}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
