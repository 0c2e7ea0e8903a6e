"""Shared scenarios and independent brute-force oracles.

The oracles here deliberately avoid every shortcut the library takes
(vehicle folding, reachable-window restriction, the single-arc envelope and
the lattice-distance closed form, interval merging): they walk dense grids
over the full motion and every vehicle explicitly, so agreement with the
production code is meaningful.

Each detection oracle is three-valued: True or False when the dense grid
certifies the answer through the Lipschitz bound on the distance, None when
the minimum lands within half a grid step of the scan radius.  Tests assert
agreement wherever the oracle is decided and only count the undecided rest.
"""

import math

import numpy as np
import pytest

from patrolgeom import CircularPatrolScenario, LinearPatrolScenario

TWO_PI = 2.0 * math.pi


@pytest.fixture
def ref_circular() -> CircularPatrolScenario:
    return CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)


@pytest.fixture
def static_circular() -> CircularPatrolScenario:
    return CircularPatrolScenario(R=100.0, r=5.0, n=10, v=0.0, u=1.0)


@pytest.fixture
def ref_linear() -> LinearPatrolScenario:
    return LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)


def oracle_detects_circular(psi, s, samples=40_001):
    """Dense-grid detection check over the full descent [0, (R+r)/u]."""
    horizon = (s.R + s.r) / s.u
    t = np.linspace(0.0, horizon, samples)
    rho = s.R + s.r - s.u * t
    ang = psi - (s.v / s.R) * t
    betas = TWO_PI * np.arange(s.n) / s.n
    # (rho - R)^2 + 4 R rho sin^2(delta/2): the law of cosines without the
    # cancellation of rho^2 + R^2 - 2 R rho cos(delta) at small r/R
    half = np.sin(0.5 * (ang[None, :] - betas[:, None]))
    d2 = ((rho - s.R) ** 2)[None, :] + 4.0 * s.R * rho[None, :] * half * half
    dmin = math.sqrt(max(0.0, float(d2.min())))
    # the distance along the trajectory changes at most vmax per unit time
    vmax = math.hypot(s.u, s.v * (s.R + s.r) / s.R)
    slack = 0.5 * vmax * (t[1] - t[0])
    if dmin <= s.r:
        return True
    if dmin - slack > s.r:
        return False
    return None


def oracle_detects_linear(a, b, s, samples=20_001):
    """Dense-grid detection check on the unfolded cylinder of girth 2R."""
    window = 2.0 * s.r / s.u
    t = np.linspace(0.0, window, samples)
    y = s.r - s.u * t
    two_R = 2.0 * s.R
    pos = (b + (two_R / s.n) * np.arange(s.n)[:, None]
           + s.v * t[None, :] - a) % two_R
    dx = np.minimum(pos, two_R - pos)
    dmin = float(np.sqrt(dx * dx + y[None, :] ** 2).min())
    vmax = math.hypot(s.u, s.v)
    slack = 0.5 * vmax * (t[1] - t[0])
    if dmin <= s.r:
        return True
    if dmin - slack > s.r:
        return False
    return None


def sweep_union_measure(arcs):
    """Union measure of raw (start, end) arcs by endpoint event sweep.

    Structurally different from the library's sort-and-merge: endpoints
    become +1/-1 events and covered length accumulates where the running
    depth is positive.
    """
    events = []
    for start, end in arcs:
        length = end - start
        if length <= 0.0:
            continue
        if length >= TWO_PI:
            return TWO_PI
        s0 = start % TWO_PI
        e0 = s0 + length
        if e0 <= TWO_PI:
            events.append((s0, 1))
            events.append((e0, -1))
        else:
            events.append((s0, 1))
            events.append((TWO_PI, -1))
            events.append((0.0, 1))
            events.append((e0 - TWO_PI, -1))
    if not events:
        return 0.0
    events.sort(key=lambda ev: ev[0])
    covered = 0.0
    depth = 0
    prev = 0.0
    for pos, delta in events:
        if depth > 0:
            covered += pos - prev
        prev = pos
        depth += delta
    return min(TWO_PI, covered)
