"""Steepest-descent direction subproblem for vector objectives.

At a point with Jacobian J (rows g_i), the regularized min-max subproblem

    min_v  max_i <g_i, v> + 0.5*||v||^2

is solved through its dual: minimize psi(w) = 0.5*||J^T w||^2 over the unit
simplex, with v = -J^T w.  Every dual iterate w yields

  * a lower bound  alpha_lower = -0.5*||J^T w||^2  on the optimal value, and
  * an upper bound alpha_upper = max_i <g_i, v> + 0.5*||v||^2 (primal value),

so inexactness is certifiable without knowing the optimum: the direction is
sigma-approximate whenever alpha_upper <= (1 - sigma) * alpha_lower.  The
dual is solved by projected gradient from the barycenter with fixed step 1/L,
where L = ||J J^T||_2, the Lipschitz constant of grad psi, is the largest
eigenvalue of the m x m Gram matrix J J^T, computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionResult",
    "project_simplex",
    "primal_value",
    "solve_exact",
    "solve_sigma_approx",
    "check_sigma_certificate",
]

STATUS_CERTIFIED = "certified"
STATUS_CRITICAL = "critical"
STATUS_MAX_INNER = "max_inner"

# relative duality-gap tolerance of the exact (sigma = 0) solve
TOL_GAP = 1e-10


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of one direction solve.

    ``v`` is constructed as -J^T weights (never merely approximated), so
    every emitted direction is scalarization compatible.  The one exception
    is a critical result, where v is snapped to exact zero while ``weights``
    retains the dual certificate with ||J^T weights||^2 <= 2*eps_critical.
    ``critical`` and ``sigma_certified`` are read off ``status``: a critical
    result is also certified, and any other status is neither.
    """

    v: np.ndarray
    alpha_lower: float
    alpha_upper: float
    weights: np.ndarray
    inner_iterations: int
    status: str

    @property
    def critical(self) -> bool:
        return self.status == STATUS_CRITICAL

    @property
    def sigma_certified(self) -> bool:
        return self.status in (STATUS_CERTIFIED, STATUS_CRITICAL)


def project_simplex(y) -> np.ndarray:
    """Euclidean projection of ``y`` onto the unit simplex.

    Returns argmin_{w in simplex} ||w - y||^2 via the sorted-threshold rule:
    entries are max(y_i - tau, 0) with tau chosen so they sum to one.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim != 1 or y.size == 0:
        raise ValueError("project_simplex expects a nonempty vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("project_simplex expects finite input")
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.size + 1, dtype=float)
    rho = int(np.nonzero(u - css / idx > 0.0)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


def _as_jacobian(J) -> np.ndarray:
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if J.ndim != 2:
        raise ValueError(f"jacobian must be a matrix, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise ValueError("jacobian has non-finite entries")
    return J


def primal_value(J, v) -> float:
    """max_i <g_i, v> + 0.5*||v||^2, an upper bound on the optimal value."""
    J = _as_jacobian(J)
    v = np.asarray(v, dtype=float)
    if v.shape != (J.shape[1],):
        raise ValueError(f"direction has shape {v.shape}, expected ({J.shape[1]},)")
    return float(np.max(J @ v)) + 0.5 * float(v @ v)


def solve_sigma_approx(J, sigma: float, *, eps_critical: float = 1e-12,
                       max_inner: int = 10_000) -> DirectionResult:
    """Compute a sigma-approximate steepest-descent direction at J.

    The dual projected-gradient loop terminates as soon as the sufficient
    certificate alpha_upper <= (1 - sigma) * alpha_lower holds (for sigma=0,
    once the relative duality gap drops below ``TOL_GAP``), so larger sigma
    buys earlier termination.  A critical point is reported, with v snapped
    to zero and alpha_upper = 0, once alpha_lower >= -eps_critical; this is
    sound because alpha_lower never exceeds the true optimal value.

    Exhausting ``max_inner`` projected-gradient updates returns the best
    iterate seen with status ``"max_inner"``, which is not certified.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if eps_critical <= 0.0 or max_inner < 1:
        raise ValueError("eps_critical must be positive and max_inner >= 1")
    J = _as_jacobian(J)
    m = J.shape[0]
    G = J @ J.T
    step = 1.0 / max(float(np.linalg.eigvalsh(G)[-1]), 1e-30)
    # The computed primal-dual gap bottoms out around machine epsilon times
    # the Gram scale; near-critical points can push the relative target below
    # that floor, so the certificate also accepts a gap at the floor.
    gap_floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.trace(G)))
    w = np.full(m, 1.0 / m)
    best: tuple[float, np.ndarray, float, np.ndarray] | None = None
    it = 0
    while True:
        v = -(J.T @ w)
        vv = float(v @ v)
        d = -0.5 * vv
        p = float(np.max(J @ v)) + 0.5 * vv
        if best is None or p < best[0]:
            best = (p, v, d, w)
        if d >= -eps_critical:
            return DirectionResult(
                v=np.zeros_like(v),
                alpha_lower=d,
                alpha_upper=0.0,
                weights=w,
                inner_iterations=it,
                status=STATUS_CRITICAL,
            )
        if sigma > 0.0:
            certified = p - (1.0 - sigma) * d <= gap_floor
        else:
            certified = (p - d) <= max(TOL_GAP * abs(d), gap_floor)
        # the floor could otherwise admit a candidate with positive primal
        # value in the sliver where |alpha| sits within gap_floor of
        # eps_critical; a certified direction must always beat v = 0
        if certified and p <= 0.0:
            return DirectionResult(
                v=v,
                alpha_lower=d,
                alpha_upper=p,
                weights=w,
                inner_iterations=it,
                status=STATUS_CERTIFIED,
            )
        if it >= max_inner:
            p_b, v_b, d_b, w_b = best
            return DirectionResult(
                v=v_b,
                alpha_lower=d_b,
                alpha_upper=p_b,
                weights=w_b,
                inner_iterations=it,
                status=STATUS_MAX_INNER,
            )
        w = project_simplex(w - step * (G @ w))
        it += 1


def solve_exact(J, *, eps_critical: float = 1e-12, max_inner: int = 10_000) -> DirectionResult:
    """Solve the direction subproblem to the relative duality-gap tolerance.

    Identical to ``solve_sigma_approx`` with sigma = 0.
    """
    return solve_sigma_approx(J, 0.0, eps_critical=eps_critical, max_inner=max_inner)


def check_sigma_certificate(J, v, alpha_exact: float, sigma: float) -> bool:
    """Evaluate the sigma-approximation inequality directly.

    True iff max_i <g_i, v> + 0.5*||v||^2 <= (1 - sigma) * alpha_exact, with
    slack 1e-12 * max(1, |alpha_exact|).  ``alpha_exact`` must be <= 0 (the
    optimal value from an exact solve or an independent oracle).
    """
    if alpha_exact > 0.0:
        raise ValueError("alpha_exact must be <= 0")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    p = primal_value(J, v)
    return p <= (1.0 - sigma) * alpha_exact + 1e-12 * max(1.0, abs(alpha_exact))
