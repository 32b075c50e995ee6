"""Every benchmark case of seeds 0 and 1 against the committed ledger.

On the ledger's kernel every digest, termination and count must equal its
record; a change that alters them on purpose regenerates the ledger with
``python tests/ledger.py --write`` and states the totals before and after.
On another kernel BLAS rounding moves the bits, so only the terminations
are compared.
"""

import ledger
from kernel import _core_name

SHOWN = 3  # differing cases named per workload and seed in a failure


def _differences(want: dict, got: dict, fields: slice) -> list[str]:
    """The differing cases of one workload and seed, and its totals."""
    if (got["workload"], got["seed"], len(got["cases"])) != (want["workload"], want["seed"],
                                                              len(want["cases"])):
        return ["cases differ in number or order"]
    found = [f"case {i} {a[0]}: ledger {a[1:]}, now {b[1:]}"
             for i, (a, b) in enumerate(zip(want["cases"], got["cases"])) if a[fields] != b[fields]]
    if fields == slice(None) and got["totals"] != want["totals"]:
        found.append(f"totals: ledger {want['totals']}, now {got['totals']}")
    return found


def test_every_case_matches_the_ledger():
    expected = ledger.load()
    actual = ledger.compute()
    assert len(actual["runs"]) == len(expected["runs"])
    # label and termination only, off the ledger's kernel
    fields = slice(None) if _core_name() == expected["kernel"] else slice(0, 3, 2)
    report = []
    for want, got in zip(expected["runs"], actual["runs"]):
        found = _differences(want, got, fields)
        if found:
            report.append(f"{want['workload']} seed {want['seed']}, {len(found)} differences: "
                          + "; ".join(found[:SHOWN]))
    assert not report, "\n".join(report)
