"""Steepest-descent direction subproblem for vector objectives.

At a point with Jacobian J (rows g_i), the regularized min-max subproblem

    min_v  max_i <g_i, v> + 0.5*||v||^2

is solved through its dual: minimize psi(w) = 0.5*||J^T w||^2 over the unit
simplex, with v = -J^T w.  Every dual iterate w yields

  * a lower bound  alpha_lower = -0.5*||J^T w||^2  on the optimal value, and
  * an upper bound alpha_upper = max_i <g_i, v> + 0.5*||v||^2 (primal value),

so inexactness is certifiable without knowing the optimum: the direction is
sigma-approximate whenever alpha_upper <= (1 - sigma) * alpha_lower.

The dual optimum, the min-norm point of the gradients' convex hull, is found
by Wolfe's active-set method (Wolfe 1976, "Finding the nearest point in a
polytope") on the Gram matrix G = J J^T, from the barycenter.  Each inner
iteration is one move on the support S of w: solve [G_SS 1; 1^T 0] for the
minimizer of psi on the affine hull of the face S, and move there if it is
nonnegative; otherwise move towards it until a weight reaches zero, and drop
that weight from S.  Once w minimizes psi on its face, the next move first
adds the vertex with the smallest (G w)_i.  In exact arithmetic this ends at
the optimum after finitely many moves.

Since J v = -G w and ||v||^2 = w^T G w, one product G w per iterate gives
screened copies of both bounds at O(m^2).  Only when a screened bound comes
within a rounding allowance of a stop test is v = -J^T w formed, at O(mn),
and the test run on the J-space bounds, which alone may stop the loop.  The
allowance makes the screen a necessary condition for the J-space test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionResult",
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


def _gap_floor(G: np.ndarray) -> float:
    """Absolute floor of the certificate tests: the computed primal-dual gap
    bottoms out around machine epsilon times the Gram scale."""
    return 64.0 * np.finfo(float).eps * max(1.0, float(np.trace(G)))


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


def _face_minimizer(G: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Minimizer of w.Gw on the affine hull of the face {w = 0 off support}:
    [G_SS 1; 1^T 0] [y; lam] = [0; 1] with G_SS scaled to a unit diagonal
    maximum, by least squares when the face's gradients are affinely
    dependent and the system singular."""
    idx = np.flatnonzero(support)
    G_SS = G[np.ix_(idx, idx)]
    K = np.pad(G_SS / max(float(G_SS.diagonal().max()), np.finfo(float).tiny), (0, 1),
               constant_values=1.0)
    K[-1, -1] = 0.0
    rhs = np.eye(idx.size + 1)[-1]
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs)[0]
    y = np.zeros(G.shape[0])
    y[idx] = sol[:-1]
    return y


def solve_sigma_approx(J, sigma: float, *, eps_critical: float = 1e-12,
                       max_inner: int = 10_000) -> DirectionResult:
    """Compute a sigma-approximate steepest-descent direction at J.

    The dual active-set loop terminates as soon as the sufficient
    certificate alpha_upper <= (1 - sigma) * alpha_lower holds (for sigma=0,
    once the relative duality gap drops below ``TOL_GAP``), so larger sigma
    may stop at an earlier iterate.  A critical point is reported, with v
    snapped to zero and alpha_upper = 0, once alpha_lower >= -eps_critical;
    this is sound because alpha_lower never exceeds the true optimal value.

    ``max_inner`` caps the moves for optimal values below the rounding floor
    of G.  Exhausting it returns the best iterate seen, by its Gram-space
    upper bound, with status ``"max_inner"``, which is not certified; its
    bounds are those of the returned v.  The loop returns that result before
    the cap once w minimizes psi on its face and the vertex with the smallest
    (G w)_i already lies in that face: in exact arithmetic w is then optimal
    with a zero gap and no move changes it, so the stop test failed by
    rounding alone.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if eps_critical <= 0.0 or max_inner < 1:
        raise ValueError("eps_critical must be positive and max_inner >= 1")
    J = _as_jacobian(J)
    m, n = J.shape
    G = J @ J.T
    gap_floor = _gap_floor(G)
    allowance = _allowance(G, n)
    w = np.full(m, 1.0 / m)
    on_face_min = False  # w minimizes psi on the face of its support
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
        support = w > 0.0
        entering = int(np.argmin(Gw))
        # w minimizes psi on its face, and no vertex off the face has a
        # smaller (Gw)_i: the next move would leave w where it is
        stalled = on_face_min and support[entering]
        if it >= max_inner or stalled:
            return DirectionResult(*_bounds(J, best_w), best_w, it, STATUS_MAX_INNER)
        if on_face_min:
            support[entering] = True
        y = _face_minimizer(G, support)
        blocking = support & (y < 0.0)
        if not blocking.any():
            w, on_face_min = y, True
        else:
            # the largest step towards y that keeps w >= 0 zeroes the first
            # blocking weight, which leaves the support
            ratios = w[blocking] / (w[blocking] - y[blocking])
            first = int(np.argmin(ratios))
            w = np.maximum(w + ratios[first] * (y - w), 0.0)
            w[np.flatnonzero(blocking)[first]] = 0.0
            on_face_min = False
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
