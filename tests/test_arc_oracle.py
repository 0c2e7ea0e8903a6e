"""The arc's ends against a 40-digit golden-section search of the envelope.

mpmath maximizes w*delta + h(delta) and h(delta) - w*delta over [0, 2e],
with h from the half-angle law sin^2(h/2) = delta(2e - delta)/(4(1 + e -
delta)), so the length test checks the tangency condition that `_arc`
bisects on without using it; the sign test evaluates that condition exactly
at the ends of the last bracket.  The ratios span [1e-300, 1 - 2**-53]
(1.0 - 1e-16 rounds to it) and the speed ratios {0} and [1e-4, 1e12].
Beyond them, `_detection_arc` reads the arc's e -> 0 limit from r, R, v
and u, at subnormal ratios and at ratios and speed ratios that no float
holds.
"""

import itertools
import math

import pytest

from patrolgeom import CircularPatrolScenario
from patrolgeom.circular import TWO_PI, _arc, _detection_arc, _tangency

mp = pytest.importorskip("mpmath")

DIGITS = 40
# the search brackets the maximizer to 2*0.618**100 < 3e-21 in s, where
# the envelope's slope is 0, so its maximum is off by far less than an ulp
STEPS = 100

RATIOS = [1e-300, 3.7e-250, 1e-200, 1e-160, 2.2e-120, 1e-80, 4.1e-40, 1e-16,
          3.3e-9, 1e-4, 0.0123, 0.25, 0.5, 0.77, 0.999999, 1.0 - 1e-10,
          1.0 - 2.0 ** -52, 1.0 - 1e-16]
SPEEDS = [0.0, 1e-4, 3.1e-3, 0.07, 0.5, 1.0, 2.0, 13.0, 470.0, 1e5, 2.9e8,
          1e12]
CASES = list(itertools.product(RATIOS, SPEEDS))


def _envelope_max(e, w, sign):
    """max over s in [0, 2] of sign*w*delta + h(delta), delta = e*s."""
    e, w = mp.mpf(e), mp.mpf(w)

    def f(s):
        delta = e * s
        half = delta * (2 * e - delta) / (4 * (1 + e - delta))
        return sign * w * delta + 2 * mp.asin(mp.sqrt(half))

    invphi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(0), mp.mpf(2)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd, f(a), f(b))


@pytest.mark.parametrize("e,w", CASES)
def test_arc_is_within_three_ulp_of_the_envelope(e, w):
    with mp.workdps(DIGITS):
        hi, neg_lo = _envelope_max(e, w, 1), _envelope_max(e, w, -1)
        lo, length = _arc(e, w)
        ulp = math.ulp(length)
        assert abs(length - (hi + neg_lo)) <= 3 * ulp
        assert abs(lo + neg_lo) <= 3 * ulp


# (r, R, v, u): e = 1e-310 and 1e-320 are subnormal; e = 1e-330 with
# w = P/e, P*1e30/1e-300, leaves the float range, and from P = pi on the arc
# is the full circle
BEYOND = ([(1e-10, 1e300, v, 1.0) for v in (0.0, 0.3, 2.0, 1e5)]
          + [(1e-20, 1e300, 1e300, 1e-10)]
          + [(1e-30, 1e300, P * 1e30, 1e-300)
             for P in (0.01, 0.5, 1.0, 3.0, 3.2, 10.0)])


@pytest.mark.parametrize("r,R,v,u", BEYOND)
def test_limit_arc_is_within_three_ulp_of_the_envelope(r, R, v, u):
    with mp.workdps(DIGITS):
        e, w = mp.mpf(r) / mp.mpf(R), mp.mpf(v) / mp.mpf(u)
        hi, neg_lo = _envelope_max(e, w, 1), _envelope_max(e, w, -1)
        lo, length = _detection_arc(CircularPatrolScenario(R=R, r=r, n=1,
                                                           v=v, u=u))
        ulp = math.ulp(length)
        assert abs(length - min(mp.mpf(TWO_PI), hi + neg_lo)) <= 3 * ulp
        assert abs(lo + neg_lo) <= 3 * ulp


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("e,w", CASES)
def test_tangency_changes_sign_across_the_last_bracket(e, w, sign):
    # G is h'(delta) + sign*w times a positive factor; exactly evaluated at
    # the bracket's float ends, it is positive at a and negative at b to
    # within four roundings of its three terms
    def terms(s):
        em, s = mp.mpf(e), mp.mpf(s)
        rho = (1 - em) + em * (2 - s)
        root = mp.sqrt(s * (2 - s) * (1 - em + rho) * (1 + em + rho))
        return [em * (2 - s) ** 2, 2 * (1 - s) * (1 - em), sign * w * rho * root]

    a, b = _tangency(e, w, sign)
    assert 0.0 <= a < b <= 2.0
    with mp.workdps(DIGITS):
        for s, side in ((a, 1), (b, -1)):
            g = terms(s)
            assert side * mp.fsum(g) > -4 * 2.0 ** -53 * mp.fsum(map(abs, g))
