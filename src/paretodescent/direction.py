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
eigenvalue of the m x m Gram matrix G = J J^T, computed exactly.

The loop runs in Gram space.  Since J v = -G w and ||v||^2 = w^T G w, one
product G w per step gives the gradient step and screened copies of both
bounds, so a step costs O(m^2) after the O(m^2 n) product that forms G.  Only
when a screened bound comes within a rounding allowance of a stop test is
v = -J^T w formed, at O(mn), and the test run on the J-space bounds; only
that confirmation may stop the loop.  The allowance makes the screen a
necessary condition for the J-space test, so the loop stops at the same
iterate, with the same bits, as one that formed v at every step.
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
    entries are max(y_i - tau, 0) with tau chosen so they sum to one.  The
    projection does not change when a constant is added to every entry, so
    the rule runs on y - max(y), whose active entries lie in [-1, 0]; on y
    itself the threshold is lost to rounding once max(y) nears 1/eps.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim != 1 or y.size == 0:
        raise ValueError("project_simplex expects a nonempty vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("project_simplex expects finite input")
    # entries below -1 after the shift are inactive; the clamp keeps an
    # overflowed difference (-inf) out of the cumulative sum
    with np.errstate(over="ignore"):
        z = np.maximum(y - np.max(y), -2.0)
    return _project(z, np.arange(1, y.size + 1, dtype=float))


def _project(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Unchecked sorted-threshold kernel of ``project_simplex``.

    ``y`` is finite with max(y) far below 1/eps, and ``idx`` is
    arange(1, y.size + 1) as floats.
    """
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
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


def _stop_status(p_lo: float, d_lo: float, d_hi: float, sigma: float,
                 eps_critical: float, gap_floor: float) -> str | None:
    """The stop tests of the dual loop, or None if neither passes.

    Called with (p, d, d) it tests the bounds p = alpha_upper, d = alpha_lower.
    Each test is monotone: it can only pass more easily as p falls or as d
    rises, the sigma = 0 tolerance TOL_GAP*|d| being read from d_lo <= d <= 0,
    and rounding to nearest preserves order.  So for any p_lo <= p and
    d_lo <= d <= d_hi it passes whenever it passes on (p, d, d).
    """
    if d_hi >= -eps_critical:
        return STATUS_CRITICAL
    if sigma > 0.0:
        certified = p_lo - (1.0 - sigma) * d_hi <= gap_floor
    else:
        certified = (p_lo - d_hi) <= max(TOL_GAP * abs(d_lo), gap_floor)
    # the floor could otherwise admit a candidate with positive primal
    # value in the sliver where |alpha| sits within gap_floor of
    # eps_critical; a certified direction must always beat v = 0
    if certified and p_lo <= 0.0:
        return STATUS_CERTIFIED
    return None


def _bounds(J: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float, float]:
    """v = -J^T w with its lower and upper bounds, read off J."""
    v = -(J.T @ w)
    vv = float(v @ v)
    return v, -0.5 * vv, float(np.max(J @ v)) + 0.5 * vv


def _allowance(G: np.ndarray, n: int) -> float:
    """Rounding allowance between the Gram-space and the J-space bounds.

    For a simplex point w, G = J J^T and v = -J^T w, it bounds both
    |d~ - d| and |p~ - p|, where d~ = -w.Gw/2 and p~ = w.Gw/2 - min(Gw) are
    computed from G and d = -v.v/2 and p = max(J v) + v.v/2 from J.
    """
    # With u = eps/2, S = max_i ||g_i||^2, w >= 0 and sum(w) = 1, both
    # ||J^T w||^2 and ||(|J|^T w)||^2 are at most S.  A computed dot product
    # of length k errs by at most k*u times the dot product of the absolute
    # values, in any summation order, with or without FMA:
    #   * v = -J^T w errs by e with ||e|| <= m*u*sqrt(S), and v.v then by
    #     (2m + n)*u*S;
    #   * each G_ik = <g_i, g_k> errs by n*u*S, so (Gw)_i = <g_i, J^T w>
    #     errs by (n + m)*u*S and w.Gw by (n + 2m)*u*S;
    #   * each (J v)_i errs by (n + m)*u*S, so max(J v) and -min(Gw) differ
    #     by at most 2(n + m)*u*S, and the two sums forming p and p~ round by
    #     at most 1.5*u*S each.
    # Hence |d~ - d| <= (n + 2m)*u*S and |p~ - p| <= (3n + 4m + 3)*u*S, and
    # 8(n + m)*u*S covers both for every n, m >= 1 with room for the
    # (1 + O(k*u)) factors left out above.  max(1, S) keeps it clear of
    # underflow.
    m = G.shape[0]
    return 4.0 * (n + m) * np.finfo(float).eps * max(1.0, float(np.max(np.diag(G))))


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
    iterate seen, by its Gram-space upper bound, with status ``"max_inner"``,
    which is not certified; its bounds are those of the returned v.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if eps_critical <= 0.0 or max_inner < 1:
        raise ValueError("eps_critical must be positive and max_inner >= 1")
    J = _as_jacobian(J)
    m, n = J.shape
    G = J @ J.T
    step = 1.0 / max(float(np.linalg.eigvalsh(G)[-1]), 1e-30)
    # The computed primal-dual gap bottoms out around machine epsilon times
    # the Gram scale; near-critical points can push the relative target below
    # that floor, so the certificate also accepts a gap at the floor.
    gap_floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.trace(G)))
    allowance = _allowance(G, n)
    idx = np.arange(1, m + 1, dtype=float)
    w = np.full(m, 1.0 / m)
    best_p, best_w = np.inf, w
    it = 0
    while True:
        Gw = G @ w
        wGw = float(w @ Gw)
        d_gram = -0.5 * wGw
        p_gram = 0.5 * wGw - float(Gw.min())
        if p_gram < best_p:
            best_p, best_w = p_gram, w
        if _stop_status(p_gram - allowance, d_gram - allowance, d_gram + allowance,
                        sigma, eps_critical, gap_floor) is not None:
            v, d, p = _bounds(J, w)
            status = _stop_status(p, d, d, sigma, eps_critical, gap_floor)
            if status == STATUS_CRITICAL:
                v, p = np.zeros_like(v), 0.0
            if status is not None:
                return DirectionResult(v, d, p, w, it, status)
        if it >= max_inner:
            return DirectionResult(*_bounds(J, best_w), best_w, it, STATUS_MAX_INNER)
        # entries of w - step*Gw lie in [-1, 2] (step*|Gw|_i <= 1), so the
        # kernel needs none of project_simplex's checks or its shift
        w = _project(w - step * Gw, idx)
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
