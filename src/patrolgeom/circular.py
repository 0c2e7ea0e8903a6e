"""Interception geometry for the circular patrol.

In the frame co-rotating with the fleet the vehicles sit still at radius R
while the intruder, launched at angle psi from the circle of radius R + r,
spirals inward: after covering distance d = u*t it is at radius
rho = R + r - d and angle psi - w*delta, with e = r/R, w = v/u and
delta = d/R: every answer depends on e, w and n alone.  Only delta in
[0, 2e] matters: outside it |rho - R| > r and every vehicle is out of reach.

At radius rho the scan disk of vehicle 0 spans the angles within h of 0:

    sin^2(h/2) = (r^2 - (rho - R)^2)/(4*R*rho) = delta*(2e - delta)/(4*rho/R),

the law of cosines in a form free of cancellation.  So vehicle 0 catches
launch angle psi at delta exactly when psi lies in the interval
[w*delta - h, w*delta + h].  These intervals move continuously with delta
and each contains its centre w*delta, so their union over [0, 2e] is
connected: one arc [lo, hi] with lo = min(w*delta - h) and
hi = max(w*delta + h).  Each extremum is where the intruder's path touches
the scan circle, h'(delta) = -w for hi and +w for lo.  In s = delta/e, with
rho = (1 - e) + e*(2 - s) in units of R, that is G(s) = 0 for

    G(s) = e*(2 - s)^2 + 2*(1 - s)*(1 - e)
           +- w*rho*sqrt(s*(2 - s)*(1 - e + rho)*(1 + e + rho)),

h'(delta) +- w times a positive factor, each term free of cancellation as
e -> 0 and as e -> 1.  h is concave: in polar coordinates the disk is
|theta| <= h(rho) with cos h = (rho + (R^2 - r^2)/rho) / (2R), the argument
of acos is convex in rho, and acos is concave and decreasing on [0, 1].  So
G, which is 2 + 2e at s = 0 and -2(1 - e) at s = 2, has one root, and a
fixed number of halvings of (0, 2) brackets it.  There
sin(h/2) = e*sqrt(s*(2 - s)/(4*rho)), with e outside the root, so nothing
underflows as e -> 0.  Below the normal range of e the arc is its e -> 0
limit, [e*(w - sqrt(1 + w*w)), e*(w + sqrt(1 + w*w))], and where w*2e
overflows it is the full circle.

The other vehicles' arcs are rotations by 2*pi*i/n, so n equally spaced
copies of an arc of length L cover min(1, n*L/(2*pi)) of the circle.
`_FoldIndicator`, the record of every patrol model, reads this one arc:
n vehicles span/n apart and atoms (p, lo, L).  Its exact() is the sum of
p*min(1, n*L/span) over the atoms, which `exact_probability` returns; an
atom whose window spans the whole period span/n counts exactly p there.
Its fold test takes a position modulo span/n onto the window of the
position's atom, for each Monte Carlo trial and, in `detects`, for one
launch angle against a fleet of one.  Here span is 2*pi, with one atom;
the segment and the randomized radius state their own numbers.  The
dense-grid oracles of the test suite are the independent check.

The fold test reads a position only modulo the period P = span/n, and a
uniform position on the span is uniform modulo P, so a Monte Carlo trial
draws its position within one period: x = fl(P*u) for its last draw
u = k*2**-53, k a tick below 2**53.  Its flag is covers(x): with
y = fl(x - lo), (y mod P) <= L.  x, and so y, never decreases as k grows.
x lies below P, or at P only where P is subnormal, and there x - lo is
exact.  So where L < P and lo lies in [-L, 0], as every model's does, y
lies in [0, 2P), and Python's %, which takes fmod and then fixes the
sign, reads y mod P exactly: y below P and y - P (exact) from P on.
The flag then holds on at most two tick intervals, y <= L and
P <= y <= P + L.  For any lo in (-P, P) y lies in (-P, 2P), and below 0
the flag reads fl(y + P) <= L.  On each of these regions of y, below 0,
below P and from P on, the flag holds on a first run of ticks and then
fails.  `_FoldIndicator._ticks` finds where each region starts, by a
search on y, and where its run of flags ends, by a search on covers
itself, so the intervals are covers' own flags.  Each search starts
from the end's estimate in real arithmetic, a few ticks off, and so
tests a few ticks, not the 53 of a bisection over all of them.  Both
Monte Carlo paths read them, and over an atom's disjoint intervals a
tick is flagged iff an odd number of their ends lie at or below it.
count_lanes tests a lane block of ticks against the ends on whole
integers: k lies at or past an end a iff bit 53 of k + 2**53 - a is set.
evaluate_batch reads each end as the draw a*2**-53, exact as a <= 2**53,
so a draw lies at or past it iff its tick does.

The closed forms read e and sin(alpha) alone, and raise OverflowError where
their value leaves the float range.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import accumulate, zip_longest
from typing import Iterable, Sequence

from .frames import TWO_PI, _finite_angle, _vehicle_angle, wrap_positive
from .montecarlo import (_INV_2_53, _LANES, EstimateWithCI, SeedSchedule,
                         _lane_constants, run_bernoulli_trials)
from .scenario import CircularPatrolScenario, _Record, _validate_as

__all__ = [
    "AsymptoticSummary",
    "CircleIntervalSet",
    "asymptotic_summary",
    "detection_arc_set",
    "detects",
    "exact_probability",
    "mc_probability",
    "minimum_fleet_size",
    "union_measure",
]

# 64 halvings leave a bracket 2**-63 wide: under one ulp of s above
# s = 2**-10.  Only lo's root lies nearer 0, and only at large w, where
# L >= 2*w*e and lo, flat at its extremum, moves by far less than an ulp
# of L across the bracket.
_HALVINGS = 64

# A draw is k*2**-53 for a tick k below this
_TICKS = 1 << 53


# ---- arc sets on the circle ----

class CircleIntervalSet(_Record):
    """Disjoint half-open arcs [start, end) on the circle [0, 2*pi).

    Canonical form: starts sorted and in [0, 2*pi); each end in
    (start, start + 2*pi]; arcs pairwise disjoint with strictly positive
    gaps; at most the last arc wraps past 2*pi.  The full circle is the
    single arc (0, 2*pi).
    """

    intervals: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def from_intervals(raw: Iterable[tuple[float, float]]) -> "CircleIntervalSet":
        """Canonicalize arbitrary (start, end) pairs: wrap each start into
        [0, 2*pi) and keep the arc whole, merge overlapping or touching
        arcs, then let the last arc's overhang past 2*pi absorb the first
        arcs it reaches.  Pairs with end <= start are dropped; an arc of
        length >= 2*pi, given or merged, covers everything; an infinite or
        NaN end is a ValueError."""
        arcs: list[tuple[float, float]] = []
        for start, end in raw:
            s = wrap_positive(start)
            length = _finite_angle(end) - start
            if length <= 0.0:
                continue
            if length >= TWO_PI:
                return CircleIntervalSet(((0.0, TWO_PI),))
            arcs.append((s, s + length))
        if not arcs:
            return CircleIntervalSet(())
        arcs.sort()
        merged: list[list[float]] = [list(arcs[0])]
        for s, e in arcs[1:]:
            if s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        # compare the overhang before shifting it by 2*pi, so a gap the merge
        # keeps is kept across angle 0 too; an end e in [2*pi, 4*pi) comes
        # back exactly, as e - 2*pi is exact there (Sterbenz)
        reach = merged[-1][1] - TWO_PI
        while len(merged) > 1 and merged[0][0] <= reach:
            reach = max(reach, merged.pop(0)[1])
            merged[-1][1] = reach + TWO_PI
        if len(merged) == 1 and merged[0][1] - merged[0][0] >= TWO_PI:
            return CircleIntervalSet(((0.0, TWO_PI),))
        return CircleIntervalSet(tuple((s, e) for s, e in merged))

    def measure(self) -> float:
        """Total angular length, in [0, 2*pi]."""
        return min(TWO_PI, math.fsum(e - s for s, e in self.intervals))

    def shifted(self, delta: float) -> "CircleIntervalSet":
        """Rotate every arc by delta; arc lengths are preserved."""
        if not self.intervals or self.intervals == ((0.0, TWO_PI),):
            return self
        out = []
        for s, e in self.intervals:
            ns = wrap_positive(s + delta)
            out.append((ns, ns + (e - s)))
        return CircleIntervalSet.from_intervals(out)


def union_measure(sets: Sequence[CircleIntervalSet]) -> float:
    """Measure of the union of arc sets, as a fraction of the circle."""
    arcs = [iv for one in sets for iv in one.intervals]
    return CircleIntervalSet.from_intervals(arcs).measure() / TWO_PI


# ---- the single-arc envelope ----

def _tangency(e: float, w: float, sign: float) -> tuple[float, float]:
    """The bracket (a, b) of s = delta/e that _HALVINGS halvings of (0, 2)
    leave around the root of G, the tangency condition of hi (sign 1.0) or
    lo (sign -1.0); G(a) > 0 >= G(b)."""
    a, b = 0.0, 2.0
    for _ in range(_HALVINGS):
        s = 0.5 * (a + b)
        rho = (1.0 - e) + e * (2.0 - s)
        root = math.sqrt(s * (2.0 - s) * (1.0 - e + rho) * (1.0 + e + rho))
        if (e * (2.0 - s) ** 2 + 2.0 * (1.0 - s) * (1.0 - e)
                + sign * w * rho * root > 0.0):
            a = s
        else:
            b = s
    return a, b


def _arc(e: float, w: float) -> tuple[float, float]:
    """(lo, L) for scan ratio e = r/R and speed ratio w = v/u: vehicle 0
    detects exactly the launch angles in [lo, lo + L] mod 2*pi, tangency
    included; L >= 2*pi means every angle.  e must be normal and w * 2e
    finite."""
    ends = []
    for sign in (1.0, -1.0):
        s, _ = _tangency(e, w, sign)
        rho = (1.0 - e) + e * (2.0 - s)
        h = 2.0 * math.asin(min(1.0, e * math.sqrt(s * (2.0 - s) / (4.0 * rho))))
        ends.append(w * e * s + sign * h)
    hi, lo = ends
    return lo, hi - lo


def _detection_arc(s: CircularPatrolScenario,
                   k: float = 1.0) -> tuple[float, float]:
    """(lo, L) of vehicle 0's arc at patrol radius k*R: `_arc` at scan
    ratio e = r/(k*R) and w = v/u.  e is formed from the mantissas and
    exponents of r, R and k, as `frames._product` forms its value, so k*R
    never is.  Below the normal range of e the arc is its e -> 0 limit
    [e*(w - sqrt(1 + w*w)), e*(w + sqrt(1 + w*w))], where the path crosses
    the scan disk as a straight line; its next term, c*e*e relative with
    c <= 1/6, is nil there.  The exponents of v and u scale the limit too,
    so neither e nor w need be a float.  Where w*2e overflows, L >= 2*w*e
    exceeds 2*pi, and so does the limit: both are the full circle."""
    (mr, er), (mR, eR), (mk, ek) = map(math.frexp, (s.r, s.R, k))
    scale, power = mr / mR / mk, er - eR - ek
    e, w = math.ldexp(scale, power), s.v / s.u
    if e >= sys.float_info.min and w * (2.0 * e) < math.inf:
        return _arc(e, w)
    if w > 2.0 ** 60:  # 1 + w*w rounds to w*w, and lo = -e/(2w) to 0
        (mv, ev), (mu, eu) = math.frexp(s.v), math.frexp(s.u)
        lo, scale, power = 0.0, scale * mv / mu, power + ev - eu
    else:
        root = math.hypot(1.0, w)
        lo, scale = -math.ldexp(scale / (w + root), power), scale * root
    # scale > 1/4, so from power 9 on the arc exceeds 2*pi
    return lo, min(TWO_PI, math.ldexp(2.0 * scale, min(power, 9)))


def detects(psi: float, vehicle_index: int, s: CircularPatrolScenario) -> bool:
    """True iff the run launched at angle psi passes within r of vehicle
    vehicle_index at some time in [0, (R + r)/u]; psi must be finite.  The
    vehicle is a fleet of one, its period the whole circle, and psi less
    its angle is tested against its arc by the fold record's covers."""
    _validate_as(s, CircularPatrolScenario)
    beta = _vehicle_angle(vehicle_index, s)
    return _FoldIndicator(1, TWO_PI, *_detection_arc(s)).covers(
        _finite_angle(psi) - beta)


# ---- arc sets and probabilities ----

def detection_arc_set(vehicle_index: int,
                      s: CircularPatrolScenario) -> CircleIntervalSet:
    """Launch angles detected by one vehicle: a single arc (or the full
    circle), as a canonical arc set."""
    _validate_as(s, CircularPatrolScenario)
    beta = _vehicle_angle(vehicle_index, s)
    lo, length = _detection_arc(s)
    return CircleIntervalSet.from_intervals([(beta + lo, beta + lo + length)])


def exact_probability(s: CircularPatrolScenario) -> float:
    """Interception probability min(1, n*L/(2*pi)), L the length of one
    vehicle's arc: n equally spaced copies of one arc overlap only once they
    cover the circle."""
    return _indicator(s).exact()


class _FoldIndicator:
    """One patrol model's record, read alike by its exact answer and its
    Monte Carlo test: n vehicles span/n apart and the atoms' windows.  A
    trial's position x is (span/n)*(last draw), and the trial is detected
    iff (x - lo) mod (span/n) <= length.  Given the atom weights, lo and
    length are per-atom sequences and draw 0 picks each trial's atom, even
    where there is one: the atom's index is the number of cumulative
    weights, the last left out, at or below the draw, so a draw at or past
    the last kept weight picks the last atom.  Without weights lo and
    length are numbers, one atom of weight 1, and a trial takes one draw.
    exact() is the measure of the detected positions, in which an atom
    whose window is at least span/n long counts its whole weight.  The
    fold test has two spellings, and they flag the same trials: covers
    tests one position against one atom's window, and the tick intervals
    on which covers holds (module docstring), with each atom's pick tick,
    are the one table (`_table`) that both Monte Carlo paths read:
    evaluate_batch tests a (m, n_draws) block of draws on numpy and
    count_lanes a lane block of ticks.  Both pick the atom of tick k by
    comparing k with ceil(c*2**53) for each kept cumulative weight c: for
    an integer k, k >= ceil(c*2**53) iff k*2**-53 >= c.  A record needs a
    period P in (0, inf), every lo finite and, for a window shorter than
    the period, lo in (-P, P); any other has no tick intervals and is a
    ValueError."""

    def __init__(self, n, span, lo, length, weights=None):
        self._n, self._span, self._period = n, span, span / n
        self.n_draws, self._cum = ((1, None) if weights is None else
                                   (2, tuple(accumulate(weights))[:-1]))
        # the atoms' weights and windows, of exact, covers and the ticks
        self._weights, self._los, self._lengths = (
            ((1.0,), (lo,), (length,)) if weights is None
            else (weights, lo, length))
        if not (0.0 < (period := self._period) < math.inf and all(
                abs(lo) < period or length >= period and math.isfinite(lo)
                for lo, length in zip(self._los, self._lengths))):
            raise ValueError("a fold record needs a period in (0, inf) and "
                             "lo finite, in (-P, P) under a shorter window")

    def exact(self) -> float:
        """min(1, sum of p*min(1, n*L/span)) over the atoms (p, L): n
        windows of length L, span/n apart, overlap only once they cover the
        span.  An atom with L >= span/n counts p exactly, where n*L/span
        may round below 1; below it n*L/span is at most 1.  The outer min
        holds where the weights sum to a little more than 1, as a radius
        distribution's may, to 1e-12."""
        n, span, period = self._n, self._span, self._period
        return min(1.0, math.fsum(
            p if length >= period else p * (n * length / span)
            for p, length in zip(self._weights, self._lengths)))

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags, read off the table: a trial is detected iff its
        last draw lies at or past an odd number of its atom's interval
        ends, each read as the draw a*2**-53.  Given weights, draw 0 picks
        the atom against the picks as draws, and column 0 then holds each
        trial's atom's ends in turn (`_columns`)."""
        import numpy as np

        x, flags = u[:, -1], np.zeros(len(u), dtype=bool)
        if self._cum is None:
            for a in self._table[0][1]:
                flags ^= x >= a * _INV_2_53
            return flags
        # idx never passes the last atom, and mode="clip" is set only
        # because under the default mode="raise" np.take buffers out
        idx = np.searchsorted(self._columns[0], u[:, 0], side="right")
        for column in self._columns[1]:
            flags ^= x >= np.take(column, idx, out=u[:, 0], mode="clip")
        return flags

    def covers(self, x: float, atom: int = 0) -> bool:
        """The fold test of one position x against the atom's window, which
        defines the tick intervals of the other test."""
        return (x - self._los[atom]) % self._period <= self._lengths[atom]

    def _ticks(self, atom: int) -> list[int]:
        """The ends of the tick intervals [a, b) on which covers holds for
        the atom's window, at the position fl(P*k*2**-53) of tick k, in
        order: the module docstring's regions of y = fl(x - lo) start
        where y reaches 0 and P, and covers holds on a first run of each
        region's ticks."""
        period, lo, length = self._period, self._los[atom], self._lengths[atom]

        def first(a: int, b: int, test, t: float) -> int:
            """The least tick in [a, b) that passes test, which the ticks
            fail and then pass in order, or b where none does.  It lies
            within a few ticks of g, the real (lo + t)/P*2**53 rounded up,
            unless P is subnormal, so the search steps out from g by strides
            that double with the distance from g until the ticks [p, q]
            bracket it, then bisects."""
            g = p = q = math.ceil(min(b, max(a, (lo + t) / period * _TICKS)))
            while q < b and not test(q):
                p, q = q + 1, min(2 * q - g + 1, b)
            while p > a and test(p - 1):
                p, q = max(2 * p - g - 1, a), p - 1
            while p < q:
                mid = (p + q) // 2
                p, q = (p, mid) if test(mid) else (mid + 1, q)
            return p

        # where lo <= 0, as in every model, tick 0 has y = -lo >= 0 and so
        # starts region 1; an empty region holds no run to search
        starts = [0 if t == 0.0 and lo <= 0.0 else first(
            0, _TICKS, lambda k: k * _INV_2_53 * period - lo >= t, t)
            for t in (0.0, period)]
        ends = []
        for t, a, b in zip((length - period, length, length + period),
                           [0, *starts], [*starts, _TICKS]):
            c = a if a == b else first(a, b, lambda k: not self.covers(
                k * _INV_2_53 * period, atom), t)
            if a < c:
                ends += [a, c]
        return ends

    @functools.cached_property
    def _table(self) -> tuple[tuple[int | None, list[int]], ...]:
        """Both Monte Carlo tests' record, made on their first block: per
        atom (pick, ends), pick the tick ceil(c*2**53), at most 2**53, of
        the atom's cumulative weight c (None for the last atom), from which
        on draw 0 picks a later atom, and ends those of the atom's tick
        intervals (`_ticks`), just tick 0 where the window spans the
        period."""
        picks = [min(math.ceil(c * _TICKS), _TICKS) for c in self._cum or ()]
        return tuple(zip(picks + [None], (
            [0] if length >= self._period else self._ticks(atom)
            for atom, length in enumerate(self._lengths))))

    @functools.cached_property
    def _columns(self):
        """The weighted table as draws, exact as every tick is at most
        2**53: the picks, and per j the column of each atom's j-th end, the
        draw 1, which no draw reaches, where an atom has fewer ends."""
        import numpy as np

        columns = zip_longest(*(e for _, e in self._table), fillvalue=_TICKS)
        return (np.array([pick for pick, _ in self._table[:-1]]) * _INV_2_53,
                np.array(list(columns)) * _INV_2_53)

    @functools.cached_property
    def _plan(self):
        """The table spread over the lanes for count_lanes: (valid,
        atoms).  valid holds 2**53 in every lane, and each atom is (pick,
        whole, adds): pick holds 2**53 - pick in every lane (None for the
        last atom), whole is true where an interval starts at tick 0 (every
        tick lies at or past that end), and adds holds 2**53 - a in every
        lane for each other end a below 2**53."""
        ones = _lane_constants()[0]
        return _TICKS * ones, tuple(
            (None if pick is None else (_TICKS - pick) * ones,
             ends[:1] == [0],
             tuple((_TICKS - a) * ones for a in ends if 0 < a < _TICKS))
            for pick, ends in self._table)

    def count_lanes(self, words: Sequence[int], m: int) -> int:
        """Detections among the first m trials of a lane block of tick
        lanes, one word per draw, the lane count of the numpy-free path
        (`montecarlo.run_bernoulli_trials`).  Bit 53 of a lane of k + adds
        is set iff the lane's tick lies at or past that end, so the XOR
        over an atom's ends flags its intervals; the picks cut the lanes
        between atoms the same way.  A block costs a few big-int
        operations per end, whatever its trials."""
        valid, atoms = self._plan
        if m < _LANES:
            valid &= (1 << 128 * m) - 1
        k, first = words[-1], words[0]
        hits, rest = 0, valid
        for pick, whole, adds in atoms:
            lanes = rest
            if pick is not None:  # the lanes of the later atoms
                rest = (first + pick) & valid
                lanes ^= rest
            flags = lanes if whole else 0
            for add in adds:
                flags ^= k + add
            hits |= flags & lanes
        return hits.bit_count()


def _indicator(s: CircularPatrolScenario) -> _FoldIndicator:
    """psi = (2*pi/n)*u ~ U[0, 2*pi/n), tested against the nearest
    vehicle's arc: folding a launch angle modulo the fleet spacing
    collapses all n arcs onto one, so one spacing holds every case."""
    _validate_as(s, CircularPatrolScenario)
    return _FoldIndicator(s.n, TWO_PI, *_detection_arc(s))


def mc_probability(s: CircularPatrolScenario, trials: int, seed: int,
                   workers: int = 1) -> EstimateWithCI:
    """Monte Carlo interception probability over uniform launch angles,
    each tested against the arc of exact_probability."""
    return run_bernoulli_trials(_indicator(s), trials,
                                SeedSchedule(seed), workers)


# ---- small-radius closed forms ----

class AsymptoticSummary(_Record):
    """Small-r closed forms: chord_l, the image-curve length one scan circle
    blocks; p_asym, the capped detection probability; m_min, the least fleet
    size at which the cap is reached."""

    chord_l: float
    p_asym: float
    m_min: int


def minimum_fleet_size(per_vehicle: float) -> int:
    """Least m with m * per_vehicle >= 1, i.e. m = ceil(1/per_vehicle),
    guarded against float misrounding at integer boundaries."""
    if not per_vehicle > 0.0:
        raise ValueError("per_vehicle must be positive")
    m = max(1, math.ceil(1.0 / per_vehicle))
    if m > 1 and (m - 1) * per_vehicle >= 1.0:
        m -= 1
    if m * per_vehicle < 1.0:
        m += 1
    return m


def _sin_alpha(u: float, v: float) -> float:
    """sin(atan2(u, v)), which every closed form divides by; OverflowError
    where it underflows to 0."""
    sin_alpha = math.sin(math.atan2(u, v))
    if sin_alpha == 0.0:
        raise OverflowError("sin(alpha) underflows to 0 (v/u too large)")
    return sin_alpha


# 2**54 lifts e/pi into the normal range for every e >= 2**-1074
_LIFT = 2.0 ** 54


def _share(e: float, sin_alpha: float, weight: float = 1.0) -> float:
    """e*weight/(pi*sin(alpha)), one vehicle's share of the circle in the
    closed forms.  Where e*weight/pi falls below the normal range it would
    round there before the division by sin(alpha), so it is formed from
    e*2**54 instead and scaled back after the divisions: then only the
    result rounds.  Elsewhere the operations are those of the formula."""
    share = e * weight / math.pi
    if share < sys.float_info.min:
        return e * _LIFT * weight / math.pi / sin_alpha / _LIFT
    return share / sin_alpha


def _summary(chord: float, per_vehicle: float, n: int) -> AsymptoticSummary:
    """The closed-form record, or OverflowError where a value is inf: the
    chord, the share or m_min, whose 1/share overflows where the share is
    0 or subnormal."""
    if (math.isinf(chord) or not 0.0 < per_vehicle < math.inf
            or math.isinf(1.0 / per_vehicle)):
        raise OverflowError("closed form exceeds the float range")
    return AsymptoticSummary(chord_l=chord, p_asym=min(1.0, n * per_vehicle),
                             m_min=minimum_fleet_size(per_vehicle))


def asymptotic_summary(s: CircularPatrolScenario) -> AsymptoticSummary:
    """First-order summary for r << R.

    In the normalized image the intruder path is a straight line of
    inclination alpha = atan2(u, v), and one scan circle shadows a chord of
    angular length 2e/sin(alpha), e = r/R.  Uniform launch angle then gives
    p = min(1, n e / (pi sin alpha)) and m_min = ceil(pi sin alpha / e).
    """
    _validate_as(s, CircularPatrolScenario)
    e, sin_alpha = s.r / s.R, _sin_alpha(s.u, s.v)
    return _summary(2.0 * e / sin_alpha, _share(e, sin_alpha), s.n)
