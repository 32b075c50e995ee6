"""Tier-1's one draw policy: a hypothesis profile and a fixed constant pool.

Every property is derandomized and has no deadline; a test's own
``@settings`` sets only its ``max_examples``.  The profile's parent is
hypothesis's default profile, so a ``CI`` or ``GITHUB_ACTIONS`` variable,
which makes hypothesis load its ``ci`` profile on import, changes nothing.

hypothesis also draws the float, int and string constants of every local
module loaded when a property runs, files under ``tests/`` excepted.  The
imports below load every such module a test can reach before the first test
is collected, so a property draws the same examples alone as in the full
suite.  ``bench/run.py`` is left out: importing it sets the BLAS thread
variables.

The report header names the OpenBLAS kernel of the run, since a few tests
assert their pinned move counts only on the kernel they were measured on.
"""

import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("tier1", parent=settings.get_profile("default"),
                          derandomize=True, deadline=None)
settings.load_profile("tier1")

import kernel  # noqa: E402
import paretodescent.cli  # noqa: E402,F401

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, _BENCH)
try:
    import checks  # noqa: E402,F401
    import tracing  # noqa: E402,F401
    import workloads  # noqa: E402,F401
finally:
    sys.path.remove(_BENCH)


def pytest_report_header(config):
    pinned = "asserted" if kernel.PINNED_KERNEL else "not asserted"
    return f"OpenBLAS kernel: {kernel._core_name()}; move counts pinned on SkylakeX: {pinned}"
