"""tools/pairs.py: the summary of alternating benchmark pairs.

The tool runs in a child interpreter.  hypothesis draws the constants of
every local module loaded when a property runs (see conftest.py), so
importing the tool into the test process would change the examples that
later properties draw.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

UNITS = {"solve_ref": "ref", "solve_s": "s", "reference_unit_ms": "ms", "f_calls": "count"}
PARENT = {"workload": "builtin_suite", "seed": 0, "correct": True, "attempted": 400, "failed": 0,
          "metrics": {"solve_ref": 1000.0, "solve_s": 0.25, "reference_unit_ms": 0.25, "f_calls": 6404},
          "units": UNITS}
CHANGE = {**PARENT, "metrics": {"solve_ref": 800.0, "solve_s": 0.2, "reference_unit_ms": 0.25, "f_calls": 6404}}


def _summary(parent: list[dict], change: list[dict]) -> list[str]:
    """pairs.summary of the detail lines that runs with these results print."""
    code = ("import json, sys; import pairs; "
            "sides = [[pairs.read_detail(text) for text in side] for side in json.load(sys.stdin)]; "
            "print(json.dumps(pairs.summary(*sides)))")
    stdout = [[f"workload builtin_suite seed 0\ndetail {json.dumps(d)}\n{{}}\n" for d in side]
              for side in (parent, change)]
    out = subprocess.run([sys.executable, "-c", code], input=json.dumps(stdout), capture_output=True,
                         text=True, timeout=60, cwd=TOOLS, check=True)
    return json.loads(out.stdout)


def test_a_summary_of_one_pair_gives_each_metric_with_its_unit():
    assert _summary([PARENT], [CHANGE]) == [
        "solve_ref [ref]: parent 1000 [1000, 1000] -> change 800 (-20.0%), change lower in 1/1",
        "solve_s [s]: parent 0.25 [0.25, 0.25] -> change 0.2 (-20.0%), change lower in 1/1",
        "reference_unit_ms [ms]: parent 0.25 [0.25, 0.25] -> change 0.25 (+0.0%), change lower in 0/1",
        "f_calls [count]: parent 6404 [6404, 6404] -> change 6404 (+0.0%), change lower in 0/1",
        "parent: 1/1 runs correct, 0 of 400 cases failed",
        "change: 1/1 runs correct, 0 of 400 cases failed",
    ]


def test_pairs_are_compared_in_order_and_the_parent_has_quartiles():
    def scaled(d, k):
        return {**d, "metrics": {**d["metrics"], "solve_ref": d["metrics"]["solve_ref"] * k}}

    # parent 1000, 1100, 1200, 1300 against change 1050, 800, 1250, 800: two of four lower
    parent = [scaled(PARENT, k) for k in (1.0, 1.1, 1.2, 1.3)]
    change = [scaled(CHANGE, k) for k in (1.3125, 1.0, 1.5625, 1.0)] + [{**CHANGE, "correct": False, "failed": 3}]
    lines = _summary(parent, change[:4])
    assert lines[0] == ("solve_ref [ref]: parent 1150 [1075, 1225] -> change 925 (-19.6%), "
                        "change lower in 2/4")
    assert _summary(parent[:1], change[4:])[-1] == "change: 0/1 runs correct, 3 of 400 cases failed"
