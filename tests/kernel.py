"""The arithmetic that tier-1's exact checks were measured on.

The ledger, and a few tests that pin a move or step count, depend on the
last bits of the arithmetic, which three things decide: numpy's bundled
OpenBLAS, its version and the kernel it picks; numpy's own SIMD loops, such
as ``np.exp`` in ``quasi_exp``; and libm, through ``pow`` on Python floats
in inline criteria.  ``environment()`` names all three, ``ledger.json``
records the environment it was computed on, and ``PINNED`` says whether
this run's environment is that one.  The exact checks compare exactly only
then; elsewhere they assert what README guarantees.  OpenBLAS picks its
kernel from the CPU, or from ``OPENBLAS_CORETYPE`` when numpy loads, so a
test cannot switch it; run tier-1 under that variable to test another one.
"""

import ctypes
import json
import platform
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).resolve().parent / "ledger.json"


def _openblas(symbol: str) -> str | None:
    """The string a query of numpy's bundled OpenBLAS returns, or None without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        query = getattr(ctypes.CDLL(str(libs[0])), symbol)
    except (IndexError, OSError, AttributeError):
        return None
    query.restype = ctypes.c_char_p
    return query().decode()


def _core_name() -> str | None:
    """The kernel name of numpy's bundled OpenBLAS, or None without one."""
    return _openblas("scipy_openblas_get_corename64_")


def environment() -> dict:
    """The OpenBLAS build and kernel, the numpy version and the C library."""
    # the config string names the version and the kernel: "OpenBLAS 0.3.31.188.0 ... SkylakeX ..."
    return {"openblas": _openblas("scipy_openblas_get_config64_"), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()).strip()}


# the environment on which the ledger and the pinned counts were measured
PINNED = environment() == json.loads(LEDGER.read_text())["environment"]
