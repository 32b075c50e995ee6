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

The one input check is a finite trace of G, at O(m): a non-finite entry of
J, or squared row norms that overflow alone or in their sum (a norm above
about 1.3e154 suffices), raise ``NonFiniteError`` before any move.  A finite
trace bounds every |G_ik| by (G_ii + G_kk)/2 and keeps the gap floor finite.

Cost model: forming G costs O(m^2 n) per solve, a move O(m^2) plus O(k^3)
for the bordered system on a face of k vertices, and a J-space confirmation
O(mn).  For small m and n the fixed cost of each numpy call dominates all of
these: one to two microseconds for a ufunc or a reduction on a 2x2 array and
about ten for np.linalg.solve (x86-64 Xeon, Python 3.11, numpy 2.4), so a
one-move m = 2 solve costs some forty microseconds, nearly all of it per
call.  The code therefore builds the bordered system directly and calls
ndarray methods rather than numpy's module-level wrappers, while every float
still comes from the same operation on the same operands as the plain
formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import NonFiniteError

__all__ = ["DirectionResult", "solve_sigma_approx"]

STATUS_CERTIFIED = "certified"
STATUS_CRITICAL = "critical"
STATUS_MAX_INNER = "max_inner"

# relative duality-gap tolerance of the exact (sigma = 0) solve
TOL_GAP = 1e-10
# safety cap on the moves of one solve, reached only below the rounding floor
MAX_INNER = 10_000
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of one direction solve.

    ``v`` is constructed as -J^T weights (never merely approximated), so
    every emitted direction is scalarization compatible.  The one exception
    is a critical result, where v is snapped to exact zero while ``weights``
    retains the dual certificate with ||J^T weights||^2 <= 2*eps_critical.
    ``slopes`` is J v, the criteria's directional derivatives along v, as
    the solve computed it for ``alpha_upper`` (zero for a critical result).
    ``critical`` and ``sigma_certified`` are read off ``status``: a critical
    result is also certified, and any other status is neither.
    """

    v: np.ndarray
    alpha_lower: float
    alpha_upper: float
    weights: np.ndarray
    inner_iterations: int
    status: str
    slopes: np.ndarray

    @property
    def critical(self) -> bool:
        return self.status == STATUS_CRITICAL

    @property
    def sigma_certified(self) -> bool:
        return self.status in (STATUS_CERTIFIED, STATUS_CRITICAL)


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
    # the floor could otherwise admit a candidate with positive primal
    # value in the sliver where |alpha| sits within gap_floor of
    # eps_critical; a certified direction must always beat v = 0
    if _certificate_excess(p_lo, d_lo, d_hi, sigma, gap_floor) <= 0.0 and p_lo <= 0.0:
        return STATUS_CERTIFIED
    return None


def _certificate_excess(p: float, d_lo: float, d_hi: float, sigma: float,
                        gap_floor: float) -> float:
    """p - (1 - sigma)*d_hi less the gap floor (for sigma = 0, less TOL_GAP*|d_lo|
    if larger): the sigma certificate holds exactly when this is <= 0."""
    if sigma > 0.0:
        return p - (1.0 - sigma) * d_hi - gap_floor
    return p - d_hi - max(TOL_GAP * abs(d_lo), gap_floor)


def _gap_floor(trace: float) -> float:
    """Absolute floor of the certificate tests: the computed primal-dual gap
    bottoms out around machine epsilon times the Gram scale, the trace of G."""
    return 64.0 * _EPS * max(1.0, trace)


def _bounds(J: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """v = -J^T w and J v, with the lower and upper bounds read off J."""
    v = -(J.T @ w)
    Jv = J @ v
    vv = float(v @ v)
    return v, Jv, -0.5 * vv, float(Jv.max()) + 0.5 * vv


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
    return 4.0 * (n + m) * _EPS * max(1.0, float(G.diagonal().max()))


def _face_minimizer(G: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Minimizer of w.Gw on the affine hull of the face {w = 0 off support}:
    [G_SS 1; 1^T 0] [y; lam] = [0; 1] with G_SS scaled to a unit diagonal
    maximum, by least squares when the face's gradients are affinely
    dependent and the system singular."""
    idx = support.nonzero()[0]
    k = idx.size
    G_SS = G if k == G.shape[0] else G[idx[:, None], idx]
    K = np.ones((k + 1, k + 1))
    np.divide(G_SS, max(float(G_SS.diagonal().max()), _TINY), out=K[:k, :k])
    K[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs)[0]
    y = np.zeros(G.shape[0])
    y[idx] = sol[:-1]
    return y


def solve_sigma_approx(J, sigma: float, *, eps_critical: float = 1e-12) -> DirectionResult:
    """Compute a sigma-approximate steepest-descent direction at J.

    The dual active-set loop terminates as soon as the sufficient
    certificate alpha_upper <= (1 - sigma) * alpha_lower holds (for sigma=0,
    once the relative duality gap drops below ``TOL_GAP``), so larger sigma
    may stop at an earlier iterate.  A critical point is reported, with v
    snapped to zero and alpha_upper = 0, once alpha_lower >= -eps_critical;
    this is sound because alpha_lower never exceeds the true optimal value.

    A J whose Gram matrix J J^T has a non-finite trace raises ``NonFiniteError``.

    ``MAX_INNER``, read at each call, caps the moves for optimal values below
    the rounding floor of G.  Exhausting it returns the best iterate seen, by
    its Gram-space upper bound, with status ``"max_inner"``, which is not
    certified; its bounds are those of the returned v.  The loop returns that
    result before the cap once w minimizes psi on its face and the vertex
    with the smallest (G w)_i already lies in that face: in exact arithmetic
    w is then optimal with a zero gap and no move changes it, so the stop
    test failed by rounding alone.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if not 0.0 < eps_critical < math.inf:
        raise ValueError("eps_critical must be positive and finite")
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"jacobian must be a matrix, got shape {J.shape}")
    m, n = J.shape
    with np.errstate(all="ignore"):
        G = J @ J.T
        trace = float(G.trace())
    if not math.isfinite(trace):
        raise NonFiniteError("Gram matrix J J^T has a non-finite trace")
    gap_floor = _gap_floor(trace)
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
            v, Jv, d, p = _bounds(J, w)
            status = _stop_status(p, d, d, sigma, eps_critical, gap_floor)
            if status == STATUS_CRITICAL:
                v, Jv, p = np.zeros(n), np.zeros(m), 0.0
            if status is not None:
                return DirectionResult(v, d, p, w, it, status, Jv)
        support = w > 0.0
        entering = int(Gw.argmin())
        # w minimizes psi on its face, and no vertex off the face has a
        # smaller (Gw)_i: the next move would leave w where it is
        stalled = on_face_min and support[entering]
        if it >= MAX_INNER or stalled:
            v, Jv, d, p = _bounds(J, best_w)
            return DirectionResult(v, d, p, best_w, it, STATUS_MAX_INNER, Jv)
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
            first = int(ratios.argmin())
            w = np.maximum(w + ratios[first] * (y - w), 0.0)
            w[blocking.nonzero()[0][first]] = 0.0
            on_face_min = False
        it += 1


def solve_exact(J, *, eps_critical: float = 1e-12) -> DirectionResult:
    """``solve_sigma_approx(J, 0.0, eps_critical=eps_critical)``.

    No module of the package calls it: it is defined only because
    ``bench/tracing.py`` patches the name ``diagnostics.solve_exact``, and it
    goes once the benchmark no longer looks it up.
    """
    return solve_sigma_approx(J, 0.0, eps_critical=eps_critical)
