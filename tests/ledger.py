"""The behaviour ledger: what every benchmark case and CLI command does, bit for bit.

For seeds 0 and 1 of each benchmark workload, ``runs`` holds every case's
trajectory digest (its first 16 hex digits), its termination and its
``(f_calls, jacobians, jac_calls)``, plus the workload's totals.  It is
computed through the bench's own ``make_cases``, ``PIPELINES``,
``plain_call``, ``own`` and ``checks.trajectory_digest``, which it only
reads.  ``commands`` holds, for each command of ``commands()`` run through
``cli.main`` in an empty directory, its exit code, the sha256 of its stdout
and the sha256 of every file it writes.  ``environment`` names the
arithmetic both were computed on (``kernel.environment()``);
test_ledger.py recomputes them.

    python tests/ledger.py --write    # regenerate tests/ledger.json

Regenerate it in a change that alters trajectories, counts or artifacts on
purpose, and state the totals before and after; the diff of the file then
names every case and command that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from kernel import LEDGER, environment

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)
DIGEST_HEX = 16
VERIFY_SEEDS = (0, 7, 42)


def _bench():
    """The bench's checks and workloads modules, imported from bench/."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return checks, workloads


def commands() -> list[list[str]]:
    """Acceptance criterion 9's same-behaviour set: ``solve`` and ``sweep``
    on each builtin, ``solve`` on tests/inline.cfg and ``verify`` on each
    builtin at three seeds.  Each writes under a bare output prefix, its last
    argument, so it is run from the directory that is to hold its files."""
    from paretodescent import list_problems

    names = list_problems()
    return [*(["solve", "--problem", p, "--out", f"solve_{p}"] for p in names),
            *(["sweep", "--problem", p, "--sigmas", "0,0.5,0.9", "--out", f"sweep_{p}"] for p in names),
            ["solve", "--config", str(ROOT / "tests" / "inline.cfg"), "--out", "inline"],
            *(["verify", "--problem", p, "--seed", str(s), "--out", f"verify_{p}_{s}"]
              for p in names for s in VERIFY_SEEDS)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_runs() -> list[dict]:
    """The ``runs`` section of this checkout in this environment."""
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
    return runs


def compute_commands() -> list[list]:
    """The ``commands`` section: ``[prefix, exit code, stdout sha256, {file: sha256}]``
    for each command, run in one temporary directory."""
    from paretodescent import cli

    rows = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for cmd in commands():
                before = set(os.listdir())
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(cmd)
                files = {name: _sha256(Path(name).read_bytes())
                         for name in sorted(set(os.listdir()) - before)}
                rows.append([cmd[-1], code, _sha256(out.getvalue().encode()), files])
        finally:
            os.chdir(home)
    return rows


def compute() -> dict:
    """The ledger of this checkout in this environment."""
    return {"environment": environment(), "runs": compute_runs(), "commands": compute_commands()}


def dumps(ledger: dict) -> str:
    """JSON with one case or command a line, so that a diff of the file names them."""
    blocks = []
    for run in ledger["runs"]:
        head = json.dumps({k: v for k, v in run.items() if k != "cases"})[:-1]
        rows = ",\n".join("    " + json.dumps(row) for row in run["cases"])
        blocks.append(f'  {head}, "cases": [\n{rows}\n  ]}}')
    runs = ",\n".join(blocks)
    cmds = ",\n".join("  " + json.dumps(row) for row in ledger["commands"])
    return (f'{{"environment": {json.dumps(ledger["environment"])}, "runs": [\n{runs}\n],\n'
            f'"commands": [\n{cmds}\n]}}\n')


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
    files = sum(len(row[3]) for row in ledger["commands"])
    print(f"commands: {len(ledger['commands'])}, exit codes "
          f"{sorted({row[1] for row in ledger['commands']})}, {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
