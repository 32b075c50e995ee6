"""Every benchmark case of seeds 0 and 1, and every command of criterion 9's
same-behaviour set, against the committed ledger.

In the ledger's environment every digest, termination, count, exit code and
file hash must equal its record; a change that alters them on purpose
regenerates the ledger with ``python tests/ledger.py --write`` and states
the totals before and after.  In another environment the arithmetic can
move the bits, so only the terminations, the exit codes and the names of
the files written are compared.
"""

import ledger
from kernel import LEDGER, PINNED

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
    actual = ledger.compute_runs()
    assert len(actual) == len(expected["runs"])
    # label and termination only, outside the ledger's environment
    fields = slice(None) if PINNED else slice(0, 3, 2)
    report = []
    for want, got in zip(expected["runs"], actual):
        found = _differences(want, got, fields)
        if found:
            report.append(f"{want['workload']} seed {want['seed']}, {len(found)} differences: "
                          + "; ".join(found[:SHOWN]))
    assert not report, "\n".join(report)


def test_every_command_matches_the_ledger():
    def shown(row):
        # prefix, exit code and the names of the files, outside the ledger's environment
        return row if PINNED else [row[0], row[1], sorted(row[3])]

    expected = [shown(row) for row in ledger.load()["commands"]]
    actual = [shown(row) for row in ledger.compute_commands()]
    assert [row[0] for row in actual] == [row[0] for row in expected]
    differing = [f"{got[0]}: ledger {want[1:]}, now {got[1:]}"
                 for want, got in zip(expected, actual) if want != got]
    assert not differing, "\n".join(differing)


def test_the_ledger_file_is_what_dumps_writes():
    # a regenerated ledger differs from the committed file only where behaviour does
    assert ledger.dumps(ledger.load()) == LEDGER.read_text()
