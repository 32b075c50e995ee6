"""Exact-arithmetic oracle for the sigma certificate of a direction solve.

Given the binary64 J, w and v that a solve returns, every quantity below is
evaluated in ``fractions.Fraction``, so no rounding enters:

  * w_hat = w / sum(w) lies on the unit simplex exactly, so by weak duality
    d = -||J^T w_hat||^2 / 2 is at most the optimal value theta of
    min_v max_i <g_i, v> + ||v||^2 / 2;
  * phi = max_i (J v)_i + ||v||^2 / 2 is at least theta for every v.

So phi <= (1 - sigma) d + slack proves the certificate against the exact
theta of this J, up to that slack.  The slack is the solver's stop rule:
the gap floor 64 eps max(1, trace(J J^T)) for sigma > 0, and for sigma = 0
the larger of that floor and 1e-10 |d|.  The oracle also requires phi <= 0:
a certified direction must beat v = 0.

It restates the rule's constants and imports nothing from the direction
module, so it shares no code with the solver it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

EPS = Fraction(2) ** -52
GAP_FLOOR_FACTOR = 64
TOL_GAP = Fraction(1e-10)  # the binary64 value, exactly


@dataclass(frozen=True)
class ExactCertificate:
    phi: Fraction
    d: Fraction
    floor: Fraction
    sigma: Fraction

    @property
    def excess(self) -> Fraction:
        """phi - (1 - sigma) d: how far the bare inequality misses."""
        return self.phi - (1 - self.sigma) * self.d

    def slack(self, floor: bool = True) -> Fraction:
        """The stop rule's allowance; ``floor=False`` drops the gap floor."""
        base = self.floor if floor else Fraction(0)
        return base if self.sigma > 0 else max(TOL_GAP * abs(self.d), base)

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
