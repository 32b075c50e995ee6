"""The central-difference reference for Jacobian-free problems.

The objective module computes its own central differences, which must match
``finite_diff_jacobian`` bit for bit.  Like ``paretodescent.oracle``, this
module imports only the objective module of the package, so it shares no
logic with the code it checks.
"""

from __future__ import annotations

import numpy as np

from paretodescent.objective import MultiObjective, NonFiniteError, as_point


def finite_diff_jacobian(problem: MultiObjective, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, one coordinate at a time.

    With ``h=None`` the step is 1e-6 * max(1, |x_j|) per coordinate (the same
    rule the objective module uses for Jacobian-free problems); an explicit
    ``h`` must be positive.  Error is O(h^2) for smooth problems.  A
    perturbed point, value or difference that is not finite raises
    ``NonFiniteError``.
    """
    if h is not None and h <= 0:
        raise ValueError("finite-difference step h must be positive")
    x = as_point(x, problem.n)
    J = np.empty((problem.m, problem.n))
    for jcol in range(problem.n):
        hj = h if h is not None else 1e-6 * max(1.0, abs(x[jcol]))
        e = np.zeros(problem.n)
        e[jcol] = hj
        with np.errstate(all="ignore"):
            hi, lo = x + e, x - e
            if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
                raise NonFiniteError(f"finite-difference point overflows near {x!r}")
            J[:, jcol] = (problem.evaluate(hi) - problem.evaluate(lo)) / (2.0 * hj)
    if not np.all(np.isfinite(J)):
        raise NonFiniteError(f"non-finite finite-difference Jacobian near {x!r}")
    return J
