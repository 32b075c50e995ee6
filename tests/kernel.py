"""The OpenBLAS kernel that numpy computes with.

A few tests pin a move or step count that depends on the last bits of BLAS
products.  They pin it on the kernel it was measured on, SkylakeX, and on
any other kernel assert only what README guarantees.  OpenBLAS picks its
kernel from the CPU, or from ``OPENBLAS_CORETYPE`` when numpy loads, so a
test cannot switch it; run tier-1 under that variable to test another one.
"""

import ctypes
from pathlib import Path

import numpy as np


def _core_name() -> str | None:
    """The kernel name of numpy's bundled OpenBLAS, or None without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


# the kernel on which the pinned counts were measured
PINNED_KERNEL = _core_name() == "SkylakeX"
