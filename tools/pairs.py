"""Alternating benchmark pairs of two revisions of this repository.

    python tools/pairs.py PARENT CHANGE --workload builtin_suite --seed 0 --seconds 15 --pairs 10

Each revision is copied with ``git archive`` into a fresh directory, the two
paths of equal length, so that neither side's file paths cost more to
handle than the other's.  Pair i runs ``bench/run.py --workload W --seed S
--seconds T`` in both copies, the parent first in even pairs and the change
first in odd ones, and reads the ``detail`` line of each run.  The summary
gives, per metric, the parent's median and quartiles, the change's median
and in how many pairs the change read lower; the ungated metrics, such as
``wall_s``, ``solve_s`` and ``reference_unit_ms``, are among them.  Uses
the standard library, git and tar only; the copies are deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_detail(stdout: str) -> dict:
    """The JSON object of the ``detail`` line of one ``bench/run.py`` run."""
    line = next(line for line in stdout.splitlines() if line.startswith("detail "))
    return json.loads(line[len("detail "):])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric of the parent's detail lines, pair i being
    (parent[i], change[i]): the parent's median [quartiles], the change's
    median with its relative difference, and the pairs where the change read
    lower; then each side's correct runs and failed cases."""
    lines = []
    for name, unit in parent[0]["units"].items():
        a = [d["metrics"][name] for d in parent]
        b = [d["metrics"][name] for d in change]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = _quartiles(a)
        diff = f" ({mb / ma - 1.0:+.1%})" if ma else ""
        lower = sum(y < x for x, y in zip(a, b))
        lines.append(f"{name} [{unit}]: parent {ma:.6g} [{q1:.6g}, {q3:.6g}] -> change {mb:.6g}{diff}, "
                     f"change lower in {lower}/{len(b)}")
    for side, details in (("parent", parent), ("change", change)):
        correct = sum(d["correct"] for d in details)
        failed = sum(d["failed"] for d in details)
        attempted = sum(d["attempted"] for d in details)
        lines.append(f"{side}: {correct}/{len(details)} runs correct, {failed} of {attempted} cases failed")
    return lines


def _checkout(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="the revision to compare against")
    p.add_argument("change", help="the revision under test")
    p.add_argument("--workload", required=True, choices=("builtin_suite", "inline_fd", "wide_sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    details = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp) / side for side in details}  # "parent" and "change": equal lengths
        for side, rev in (("parent", args.parent), ("change", args.change)):
            _checkout(rev, copies[side])
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds)]
                out = subprocess.run(cmd, cwd=copies[side], capture_output=True, text=True, check=True)
                details[side].append(read_detail(out.stdout))
                print(f"pair {i + 1}/{args.pairs} {side}: solve_ref "
                      f"{details[side][-1]['metrics']['solve_ref']:.6g}", file=sys.stderr, flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s: "
          f"{args.parent} -> {args.change}")
    print("\n".join(summary(details["parent"], details["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
