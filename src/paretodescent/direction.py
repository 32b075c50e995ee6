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
iteration is one move on the support S of w: find the face minimizer, the
minimizer of psi on the affine hull of the face S, and move there if it is
nonnegative; otherwise move towards it until a weight reaches zero, and drop
that weight from S.  Once w minimizes psi on its face, the next move first
adds the largest slope off the support, Wolfe's vertex i not in S with the
smallest (G w)_i, as J v = -G w.  In exact arithmetic every (J v)_i in S is
-||v||^2 there, so the largest lies off S while the gap is open, and a full
S holds the optimum; in floats a full S adds none, so the move solves the
same face again and the loop stalls.  psi falls strictly from one face
minimizer to the next in exact arithmetic, and the loop ends at the optimum;
a face minimizer that does not raise alpha_lower = -psi ends it uncertified.

Every iterate's bounds are read off J, and they alone stop the loop, pick
the entering vertex and tell whether psi fell; G serves only the face
systems and the input check.

The one input check is a finite trace of G, at O(m): a non-finite entry of
J, or squared row norms that overflow alone or in their sum (a norm above
about 1.3e154 suffices), raise ``NonFiniteError`` before any move.  A finite
trace bounds every |G_ik| by (G_ii + G_kk)/2 and keeps the gap floor finite.

Cost model: forming G costs O(m^2 n) per solve, the bounds O(mn) per
iterate, and a move O(1) on a face of one or two vertices, O(k^3) for the
bordered system on a face of k >= 3.  For small m and n the fixed cost of
each numpy call dominates: one to two microseconds for a ufunc or reduction
on a 2x2 array, about ten for np.linalg.solve (x86-64 Xeon, Python 3.11,
numpy 2.4).  So small faces are solved on Python floats, the bordered system
is built by hand, and the code calls ndarray methods, not module wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import NonFiniteError

__all__ = ["DirectionResult", "solve_sigma_approx"]

STATUS_CERTIFIED = "certified"
STATUS_CRITICAL = "critical"
STATUS_STALLED = "stalled"

TOL_GAP = 1e-10  # least sigma the rule asks for: sigma = 0's relative gap
EPS_CRITICAL = 1e-8  # default criticality threshold of the solve and of the run
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


def _certificate_excess(p: float, d: float, sigma: float, gap_floor: float) -> float:
    """The larger of p and p - (1 - max(sigma, TOL_GAP))*d - gap_floor: the
    sigma certificate holds exactly when this is <= 0.  solve_sigma_approx's
    loop stops on it and check_proximity re-checks it.  The p term keeps the
    floor from certifying a direction that does not beat v = 0.  As d <= 0,
    what certifies at sigma certifies at any larger sigma.  A NaN p or d
    makes the first term NaN, which max() returns, so it never certifies."""
    return max(p - (1.0 - max(sigma, TOL_GAP)) * d - gap_floor, p)


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
    """Rounding allowance between two computations of the bounds at one w.

    For a simplex point w and v = -J^T w, it bounds |d1 - d2| and |p1 - p2|
    for any two computations, in any summation order, of d = -v.v/2 and
    p = max(J v) + v.v/2 from J, G = J J^T: the tolerance within which
    check_proximity requires a recorded bound to equal its recomputation.
    """
    # With u = eps/2, S = max_i ||g_i||^2, w >= 0 and sum(w) = 1, both
    # ||J^T w||^2 and ||(|J|^T w)||^2 are at most S.  A computed dot product
    # of length k errs by at most k*u times the dot product of the absolute
    # values, in any summation order, with or without FMA:
    #   * v = -J^T w errs by e with ||e|| <= m*u*sqrt(S), and v.v then by
    #     (2m + n)*u*S, so each computed d errs by (2m + n)*u*S/2;
    #   * each (J v)_i errs by (n + m)*u*S, and so does max(J v); the sum
    #     forming p, at most 1.5*S in size, rounds by 1.5*u*S, so each
    #     computed p errs by (1.5n + 2m + 1.5)*u*S.
    # Hence |d1 - d2| <= (n + 2m)*u*S and |p1 - p2| <= (3n + 4m + 3)*u*S,
    # and 8(n + m)*u*S covers both for every n, m >= 1 with room for the
    # (1 + O(k*u)) factors left out above.  max(1, S) keeps it clear of
    # underflow.
    m = G.shape[0]
    return 4.0 * (n + m) * _EPS * max(1.0, float(G.diagonal().max()))


def _face_minimizer(G: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Minimizer of w.Gw on the affine hull of the face {w = 0 off support}.

    A face {i} is its own minimizer.  A face {i, l} takes Wolfe's segment
    formula: with a = G_ii, b = G_il, c = G_ll and den = (a - b) + (c - b),
    y_i = (c - b)/den and y_l = (a - b)/den, each over den so that the
    smaller keeps its relative accuracy.  A larger face, or a den that is
    not positive and finite (coincident or overflowing gradients), solves
    [G_SS 1; 1^T 0] [y; lam] = [0; 1] with G_SS scaled to a unit diagonal
    maximum, by least squares when the face's gradients are affinely
    dependent and the system singular, which LU may miss and answer with
    inf or NaN when it pivots on a subnormal entry."""
    idx = support.nonzero()[0]
    k = idx.size
    y = np.zeros(G.shape[0])
    if k == 1:
        y[idx] = 1.0
        return y
    if k == 2:
        i, l = idx
        a, b, c = G.item(i, i), G.item(i, l), G.item(l, l)
        den = (a - b) + (c - b)
        if 0.0 < den < math.inf:
            y[i], y[l] = (c - b) / den, (a - b) / den
            return y
    G_SS = G if k == G.shape[0] else G[idx[:, None], idx]
    K = np.ones((k + 1, k + 1))
    np.divide(G_SS, max(float(G_SS.diagonal().max()), _TINY), out=K[:k, :k])
    K[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(K, rhs)
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    y[idx] = sol[:-1]
    return y


def solve_sigma_approx(J, sigma: float, *, eps_critical: float = EPS_CRITICAL) -> DirectionResult:
    """Compute a sigma-approximate steepest-descent direction at J.

    The dual active-set loop terminates as soon as the sufficient
    certificate alpha_upper <= (1 - max(sigma, TOL_GAP)) * alpha_lower holds
    to the gap floor, with alpha_upper <= 0, so larger sigma may stop at an
    earlier iterate.  A critical point is reported, with v snapped to zero
    and alpha_upper = 0, once alpha_lower >= -eps_critical; this is sound
    because alpha_lower never exceeds the true optimal value.

    A J whose Gram matrix J J^T has a non-finite trace raises ``NonFiniteError``.

    Each face minimizer adds the largest slope off its support, or none on a
    full one, and alpha_lower rises strictly between them in exact
    arithmetic.  One whose alpha_lower is not above the last one's, which
    happens only below the rounding floor of G, returns w as ``"stalled"``,
    not certified, with the bounds of the returned v.  So the loop needs no
    cap: each face minimizer is a function of its support and strict increase
    means no support comes back, so at most 2^m - 1 pass and one more stalls;
    a move that does not reach one drops a vertex, and a one-vertex face is
    its own minimizer, so a solve makes at most m * 2^m moves.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if not 0.0 < eps_critical < math.inf:
        raise ValueError("eps_critical must be positive and finite")
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] < 1:
        raise ValueError(f"jacobian must be a matrix, got shape {J.shape}")
    m, n = J.shape
    with np.errstate(all="ignore"):
        G = J @ J.T
        trace = float(G.trace())
    if not math.isfinite(trace):
        raise NonFiniteError("Gram matrix J J^T has a non-finite trace")
    gap_floor = _gap_floor(trace)
    w = np.full(m, 1.0 / m)
    on_face_min = False  # w minimizes psi on the face of its support
    d_last = -math.inf  # alpha_lower at the last face minimizer
    it = 0
    while True:
        v, Jv, d, p = _bounds(J, w)
        if d >= -eps_critical:
            return DirectionResult(np.zeros(n), d, 0.0, w, it, STATUS_CRITICAL, np.zeros(m))
        certified = _certificate_excess(p, d, sigma, gap_floor) <= 0.0
        if certified or on_face_min and not d > d_last:  # also when d is NaN
            return DirectionResult(v, d, p, w, it, STATUS_CERTIFIED if certified else STATUS_STALLED, Jv)
        support = w > 0.0
        if on_face_min:
            d_last = d
            support[int(np.where(support, -np.inf, Jv).argmax())] = True
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
