"""Classical short-needle crossing problem: closed form and Monte Carlo.

The interception probabilities computed elsewhere in this package reduce, in
the small-radius regime, to the same structure as a needle of length l thrown
on parallel lines spaced L apart, so the classical problem doubles as a
calibration target for the Monte Carlo machinery.

The Monte Carlo kernel decides most trials without `np.sin`, and every flag
equals that of the exact test

    fl(l * sin(fl(pi * w))) >= A,   A = fl(z * L),

for draws z, w in [0, 1) (multiples of 2**-53).  With x = w - 1/2, exact in
floating point for every such w, sin(pi w) = cos(theta) with theta = pi x,
and the Taylor polynomial of cos through theta**8, written in s = x**2,

    T(s) = sum_{k=0..4} (-1)**k pi**(2k) s**k / (2k)!,

brackets it on all of [0, 1): |theta| = pi |x| <= pi/2, so the Lagrange
remainder is at most (pi/2)**10 / 10! < 2.53e-5.  The kernel evaluates
F = l*T(s) by Horner's rule with the coefficients l*c_k and compares
D = fl(F - A) with the margin l*M, M = 2**-14 (6.1e-5).  Apart
from the remainder, |F - fl(l sin(fl(pi w)))| collects only roundings:
the coefficients and Horner's rule (under 3e-14 l), the argument pi*w and
np.sin (a few ulps, under 2e-15), and the two products by l (2**-53 l each),
plus 2**-1075 per operation that underflows.  A is the same number in both
tests, so its rounding does not matter.  The total stays below
2.54e-5 l + 16 * 2**-1075, and the remaining 3.5e-5 l of the margin also
covers the rounding of D and of l*M.  So where |D| > l*M the sign
of D is the exact test's answer, and only the band |D| <= l*M, a
fraction of about 2*M*l/L <= 1.2e-4 of the trials, goes through the
exact test.

The guard: the bound needs 16 * 2**-1075 well below 3.5e-5 l, true for
every l >= 2**-1022, and the largest magnitudes l*|c_1| < 4.94 l and
max(F, A) to stay finite, true for l <= 2**1020.  L only enters through A,
which both tests share, so it needs no guard.  A needle outside the guard
(l = 5e-324, or l = 1e308) takes the exact test on every trial.
"""

from __future__ import annotations

import math

from .montecarlo import EstimateWithCI, SeedSchedule, run_bernoulli_trials
from .scenario import ValidationError, _number, _Record

__all__ = [
    "NeedleProblem",
    "buffon_mc",
    "buffon_probability",
    "validate_needle",
]

# cos(pi*x) ~ sum_k _COS_TAYLOR[k] * (x*x)**k on |x| <= 1/2 (module docstring)
_COS_TAYLOR = tuple((-1) ** k * math.pi ** (2 * k) / math.factorial(2 * k)
                    for k in range(5))
# M of the module docstring: rows with |D| > l*M skip np.sin
_MARGIN = 2.0 ** -14
# the needle lengths l for which that bound holds
_FAST_L = (2.0 ** -1022, 2.0 ** 1020)


class NeedleProblem(_Record):
    """Needle of length l on lines spaced L apart, short-needle regime l <= L."""

    l: float
    L: float


def validate_needle(p: NeedleProblem) -> NeedleProblem:
    for name in ("l", "L"):
        value = _number(getattr(p, name))
        if value is None:
            raise ValidationError(f"{name} must be a number")
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be positive")
    if p.l > p.L:
        raise ValidationError("l <= L required (short-needle regime only)")
    return p


def buffon_probability(p: NeedleProblem) -> float:
    """Crossing probability 2*l/(pi*L).

    Derivation: with the distance z from the needle center to the nearest
    line uniform on [0, L/2) and the needle angle phi uniform on [0, pi),
    a crossing occurs iff (l/2) sin phi >= z; integrating sin over [0, pi)
    gives 2l/(pi L).  Equivalently one may take z uniform on [0, L) against
    the full projection l sin phi, which is the form sampled by buffon_mc.
    """
    validate_needle(p)
    # l <= L, so 2*l overflows only where pi*L does (L above about 5.7e307);
    # there the quotient is taken first
    den = math.pi * p.L
    return 2.0 * p.l / den if den < math.inf else p.l / p.L * (2.0 / math.pi)


class _NeedleIndicator:
    """Crossing event: z ~ U[0, L) against projection l sin(phi), phi ~ U[0, pi).

    Decides by the polynomial bracket of the module docstring, and by the
    exact test in its margin band or outside its guard.  Its blocks carry
    two scratch columns after the draws z and w (n_scratch), where the
    bracket keeps s = (w - 1/2)**2 and the difference D."""

    n_draws = 2
    n_scratch = 2

    def __init__(self, l: float, L: float):
        self.l = l
        self.L = L
        self._fast = _FAST_L[0] <= l <= _FAST_L[1]
        self._horner = tuple(l * c for c in reversed(_COS_TAYLOR))
        self._band = l * _MARGIN

    def _exact(self, zL: np.ndarray, w: np.ndarray) -> np.ndarray:
        """fl(l*sin(fl(pi*w))) >= zL; overwrites w."""
        import numpy as np

        np.multiply(w, math.pi, out=w)
        np.sin(w, out=w)
        np.multiply(w, self.l, out=w)
        return w >= zL

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Crossing flags of a (m, 4) block: the draws z and w, then two
        scratch columns.  Computes in place, overwriting u."""
        import numpy as np

        z, w, s, d = u.T
        np.multiply(z, self.L, out=z)
        if not self._fast:
            return self._exact(z, w)
        np.subtract(w, 0.5, out=s)
        np.multiply(s, s, out=s)
        c4, c3, c2, c1, c0 = self._horner
        np.multiply(s, c4, out=d)
        for c in (c3, c2, c1):
            np.add(d, c, out=d)
            np.multiply(d, s, out=d)
        np.add(d, c0, out=d)
        np.subtract(d, z, out=d)
        flags = d >= 0.0
        np.abs(d, out=d)
        band = np.flatnonzero(d <= self._band)
        if band.size:
            flags[band] = self._exact(z[band], w[band])
        return flags


def buffon_mc(p: NeedleProblem, trials: int, seed: int,
              workers: int = 1) -> EstimateWithCI:
    """Monte Carlo estimate of the crossing probability.

    Draw order per trial: z first, phi second.  Tangency (equality) counts
    as a crossing; it has probability zero.
    """
    validate_needle(p)
    indicator = _NeedleIndicator(p.l, p.L)
    return run_bernoulli_trials(indicator, trials, SeedSchedule(seed), workers)
