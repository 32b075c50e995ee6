"""Tier-1's own harness: the draw policy of conftest.py and the kernel reader.

conftest.py loads one hypothesis profile and imports, before collection,
every module whose constants hypothesis adds to its draw pool.  kernel.py
names the OpenBLAS kernel that decides whether a test pins a move count, and
conftest.py's report header names it in every tier-1 log.
Each holds only if the environment it guards against cannot change it,
so the environment variables are set on child interpreters here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from kernel import _core_name

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BENCH = TESTS.parent / "bench"
CI_VARS = ("CI", "GITHUB_ACTIONS")


def _child(code: str, **env: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that sees src/ and tests/."""
    base = {k: v for k, v in os.environ.items() if k not in CI_VARS}
    path = os.pathsep.join([str(SRC), str(TESTS)] + ([base["PYTHONPATH"]] if "PYTHONPATH" in base else []))
    out = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": path, **env},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def _policy(s) -> tuple:
    return (s.derandomize, s.deadline, tuple(s.suppress_health_check), s.print_blob)


_PROBE_POLICY = """
import conftest
from hypothesis import settings
s = settings.default
print(repr((s.derandomize, s.deadline, tuple(s.suppress_health_check), s.print_blob)))
"""


class TestDrawPolicy:
    def test_every_property_is_derandomized_with_no_deadline(self):
        assert settings.default.derandomize is True
        assert settings.default.deadline is None

    def test_no_health_check_is_suppressed(self):
        assert tuple(settings.default.suppress_health_check) == ()

    @pytest.mark.parametrize("env", [{}, {"CI": "true"}, {"GITHUB_ACTIONS": "true"}],
                             ids=["plain", "CI", "GITHUB_ACTIONS"])
    def test_a_ci_variable_leaves_the_profile_unchanged(self, env):
        # hypothesis loads its ``ci`` profile on import when one is set; the
        # tier-1 profile's parent is the default profile, so it overrides that
        assert _child(_PROBE_POLICY, **env) == repr(_policy(settings.default))


class TestDrawPool:
    @pytest.mark.parametrize("name, home", [("paretodescent.cli", SRC / "paretodescent"),
                                            ("checks", BENCH), ("tracing", BENCH),
                                            ("workloads", BENCH)])
    def test_each_pool_module_is_loaded_from_the_repo(self, name, home):
        assert Path(sys.modules[name].__file__).resolve().parent == home

    def test_bench_is_not_left_on_the_path(self):
        assert str(BENCH) not in sys.path

    def test_the_bench_runner_is_never_imported(self):
        # bench/run.py pins the BLAS thread variables as it is imported
        assert all(Path(getattr(mod, "__file__", None) or "").resolve() != BENCH / "run.py"
                   for mod in list(sys.modules.values()))


class TestKernel:
    # the kernels tier-1 passes on besides SkylakeX, where counts are pinned,
    # and the names OpenBLAS 0.3.31 gives them (its Prescott build is Katmai's)
    @pytest.mark.parametrize("core, name", [("Haswell", "Haswell"), ("Sandybridge", "Sandybridge"),
                                            ("Prescott", "Katmai")])
    def test_the_kernel_variable_is_read_when_numpy_loads(self, core, name):
        expected = (name if _core_name() is not None else None, False)
        code = "import kernel; print(repr((kernel._core_name(), kernel.PINNED_KERNEL)))"
        assert _child(code, OPENBLAS_CORETYPE=core) == repr(expected)

    def test_the_report_header_names_the_kernel_and_whether_counts_are_pinned(self):
        name = "Katmai" if _core_name() is not None else None
        code = "import conftest; print(conftest.pytest_report_header(None))"
        assert _child(code, OPENBLAS_CORETYPE="Prescott") == (
            f"OpenBLAS kernel: {name}; move counts pinned on SkylakeX: not asserted")
