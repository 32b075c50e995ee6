"""Exact-arithmetic oracle for the sigma certificate of a direction solve.

Given the binary64 J, w and v that a solve returns, every quantity below is
evaluated in ``fractions.Fraction``, so no rounding enters:

  * w_hat = w / sum(w) lies on the unit simplex exactly, so by weak duality
    d = -||J^T w_hat||^2 / 2 is at most the optimal value theta of
    min_v max_i <g_i, v> + ||v||^2 / 2;
  * phi = max_i (J v)_i + ||v||^2 / 2 is at least theta for every v.

So phi <= (1 - s) d + slack proves phi <= (1 - s) theta + slack against the
exact theta of this J.  The oracle states the solver's one stop rule: s is
max(sigma, 1e-10), the slack is the gap floor 64 eps max(1, trace(J J^T)),
and phi <= 0, since a certified direction must beat v = 0.

It restates the rule's constants and imports nothing from the direction
module, so it shares no code with the solver it checks.

``audit_steps`` takes the same view of a whole run's steps: from the
recorded binary64 values and a fresh J(x^k) per step it checks the Armijo
inequality and the energy inequalities it implies, again in Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

EPS = Fraction(2) ** -52
GAP_FLOOR_FACTOR = 64
TOL_GAP = Fraction(1e-10)  # the least sigma the rule asks for, as a binary64 value


@dataclass(frozen=True)
class ExactCertificate:
    phi: Fraction
    d: Fraction
    floor: Fraction
    sigma: Fraction

    @property
    def excess(self) -> Fraction:
        """phi - (1 - max(sigma, TOL_GAP)) d: how far the bare inequality misses."""
        return self.phi - (1 - max(self.sigma, TOL_GAP)) * self.d

    def slack(self, floor: bool = True) -> Fraction:
        """The stop rule's allowance, the gap floor; ``floor=False`` drops it."""
        return self.floor if floor else Fraction(0)

    def holds(self, floor: bool = True) -> bool:
        return self.phi <= 0 and self.excess <= self.slack(floor)

    @property
    def slack_used(self) -> Fraction:
        """The share of the allowance the certificate needs (0 when the bare
        inequality holds)."""
        return max(self.excess, Fraction(0)) / self.slack()


def exact_certificate(J, w, v, sigma: float) -> ExactCertificate:
    """The exact phi(v), d(w / sum(w)) and gap floor of one solve's J, w and v."""
    rows = [[Fraction(float(a)) for a in row] for row in J]
    weights = [Fraction(float(a)) for a in w]
    vec = [Fraction(float(a)) for a in v]
    total = sum(weights)
    w_hat = [a / total for a in weights]
    g = [sum(wi * row[j] for wi, row in zip(w_hat, rows)) for j in range(len(vec))]
    slopes = [sum(a * b for a, b in zip(row, vec)) for row in rows]
    phi = max(slopes) + sum(a * a for a in vec) / 2
    d = -sum(a * a for a in g) / 2
    trace = sum(a * a for row in rows for a in row)
    floor = GAP_FLOOR_FACTOR * EPS * max(Fraction(1), trace)
    return ExactCertificate(phi, d, floor, Fraction(sigma))


@dataclass(frozen=True)
class StepAudit:
    """What ``audit_steps`` found in one run: its steps, the Armijo
    components above the exact target but within the allowance (ties), and
    each failure as (k, what)."""

    steps: int
    ties: int
    failures: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def audit_steps(values, steps, beta: float, ulps: int = 1) -> StepAudit:
    """Audit a run's steps exactly, from its recorded floats.

    ``values`` holds F(x^k) for every visited point in order, and ``steps``
    holds (J, v, j) for the step from x^k to x^{k+1}: a fresh J(x^k), the
    recorded direction and t = 2**-j.  In Fraction, it checks

      * Armijo: F_i(x^{k+1}) <= F_i(x^k) + beta t (J v)_i, to ``ulps`` ulp
        of F_i(x^k), since the float rule compares rounded values;
      * energy: F_i(x^k) - F_i(x^{k+1}) >= beta t ||v||^2 / 2, exactly;
      * telescoped: sum_k t ||v||^2 <= (2 / beta) min_i (F_i(x^0) - F_i(x^K)),
        exactly, with x^K the last point.
    """
    if len(values) != len(steps) + 1:
        raise ValueError(f"{len(values)} value(s) for {len(steps)} step(s)")
    b = Fraction(beta)
    F = [[Fraction(float(a)) for a in row] for row in values]
    ties, failures, total = 0, [], Fraction(0)
    for k, (J, v, j) in enumerate(steps):
        t = Fraction(1, 2**j)
        vec = [Fraction(float(a)) for a in v]
        vv = sum(a * a for a in vec)
        for i, row in enumerate(J):
            slope = sum(Fraction(float(a)) * c for a, c in zip(row, vec))
            excess = F[k + 1][i] - (F[k][i] + b * t * slope)
            if excess > ulps * Fraction(math.ulp(float(values[k][i]))):
                failures.append((k, f"armijo F_{i + 1}"))
            elif excess > 0:
                ties += 1
            if F[k][i] - F[k + 1][i] < b * t * vv / 2:
                failures.append((k, f"energy F_{i + 1}"))
        total += t * vv
    if total > 2 / b * min(a - c for a, c in zip(F[0], F[-1])):
        failures.append((len(steps), "telescoped"))
    return StepAudit(len(steps), ties, tuple(failures))
