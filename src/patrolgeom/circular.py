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
launch angle against a fleet of one.  Here span is 2*pi, with one atom and
no shift; the segment and the randomized radius state their own numbers.
The dense-grid oracles of the test suite are the independent check.

The Monte Carlo lane path (`_FoldIndicator.count_lanes`) decides a block of
1024 trials on whole integers where it can prove the float chain's flags,
and takes the chain itself where it cannot.  A trial's last draw is
k*2**-53 and, on a shifted record, its draw 0 is k0*2**-53, with k and k0
below 2**53; its exact position in the period P = span/n, on M = 73 bits,
is phi = 2**M * frac((k*scale*2**-53 - k0*2**-53 - lo)/P).  Let T1, T0 and
O be the integers nearest k's coefficient 2**M*scale*2**-53/P, k0's
-2**M*2**-53/P and -2**M*lo/P, each reduced mod 2**M, and d1, d0 the
first two roundings.  Then h = (k*T1 + k0*T0 + O) mod 2**M lies within

    I = 2**53*(|d1| + |d0|) + 1/2

of phi, around the circle of 2**M.  Each product is below 2**126, so the
sum fits a 128-bit lane and one big-int operation forms h for every lane.

The float chain rounds at most four times, each by at most 2**-53 of the
exact result, a product by 2**-1075 more where it underflows (a sum that
underflows is exact): x = fl(k*tick), or fl(fl(k*2**-53)*scale), at most
scale; fl(x - k0*2**-53), at most max(scale, 1); fl(. - lo), at most
max(scale, 1) + |lo|; and, where fmod, which is exact, leaves a negative
remainder r, fl(r + P), at most P.  Those four bounds sum to less than

    E = 2**-52*(2*scale + 1 + |lo| + P) + 2**-1072.

So where the exact position lies more than E from 0, from P and from the
window's length L, fmod takes the same multiple of P as on the exact
position, and the chain's flag is the exact one.  With F = E*2**M/P
rounded up and m = F + I rounded up, a lane whose h is more than m from 0
(mod 2**M) and from lam = L*2**M/P has the flag h <= lam.  count_lanes
adds m to O, so the band around 0 becomes [0, 2m], and tests three
thresholds per atom, each as bit M of h + 2**M - t: h >= 2m + 1 (clear of
0), h >= ceil(lam) (not surely detected) and h >= floor(lam) + 2m + 1
(surely missed).  A lane between the first two is detected, one past the
third is not, and one below the first or between the last two lies in a
band.  A block with a lane in a band takes the float chain; an atom whose
window spans the period (L >= P) detects every lane it picks; and a
record where no margin fits (a number that is not finite, or a window
within 2m of 0 or of 2**M) takes the chain on every block.  The bands
hold about 4m/2**M of the positions, so about 4m*1024/2**M lanes of a
block.  Where that passes one, most blocks would fall back, and the
record takes the chain on every block as well.  Where it passes 1/128,
more than about one block in 128 falls back.  A record of any of these
kinds declares _lane_draws = `montecarlo._CHAIN_DRAWS`, the float
chain's share of the numpy-free allowance.  F grows with 1/P, so the
bands widen only at huge n (past about 3e9 for the circle).  For the
models' records, whose scale/P and 1/P lie within a few ulps of n or
n/2, the coefficients lie that near integers too, I is under a tick's
worth of h, and m is a few ticks' worth: at the reference circle the
bands hold about 2e-14 of the positions, and no block of 2000 took the
chain.
The closed forms read e and sin(alpha) alone, and raise OverflowError where
their value leaves the float range.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import le, mod, mul, sub
from typing import Iterable, Sequence

from .frames import TWO_PI, _finite_angle, _vehicle_angle, wrap_positive
from .montecarlo import (_CHAIN_DRAWS, _INV_2_53, _LANES, _SCALAR_DRAWS,
                         EstimateWithCI, SeedSchedule, _lane_constants, _ticks,
                         run_bernoulli_trials)
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

# M of the module docstring: count_lanes holds a position in the period on
# this many bits of a 128-bit lane
_FOLD_BITS = 73


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
    trial's position x is span*(last draw), or, where shift is set,
    (span/n)*(last draw) less draw 0, and the trial is detected iff
    (x - lo) mod (span/n) <= length.  Given the atom weights, lo and length
    are per-atom sequences and draw 0 picks each trial's atom, even where
    there is one: the atom's index is the number of cumulative weights, the
    last left out, at or below the draw, so a draw at or past the last kept
    weight picks the last atom.  Without weights lo and length are numbers,
    one atom of weight 1.  exact() is the measure of the detected
    positions, in which an atom whose window is at least span/n long counts
    its whole weight.  evaluate_batch tests a (m, n_draws) block of trials,
    count_lanes counts the detections of a lane block of mixed words, and
    covers tests one position x of a record without weights.  These are
    the only spellings of the fold test, and they flag the same trials.
    evaluate_batch and covers take the same floating-point operations in
    the same order: Python's float % and np.mod both take fmod and then
    fix the sign.  count_lanes decides a block on whole integers where the
    module docstring's margin proves the float flags, and otherwise takes
    the float chain on the block's integer ticks k, whose draws are
    k*2**-53 (`_count_ticks`).  The chain takes the operations of
    evaluate_batch, except that it forms the last draw's product as
    k*tick, tick = scale*2**-53, not as u*scale for the draw u = k*2**-53:
    k < 2**53 converts to a float exactly, and tick is exact wherever it
    is normal, so both products round the same real number to the same
    float.  Where tick is not exact (a shifted record whose period is
    below 2**-969, n above about 1e292) it forms u first and then u*scale.
    It subtracts draw 0 as k*2**-53, and picks the atom by comparing k with
    ceil(c*2**53) for each kept cumulative weight c: for an integer k,
    k >= ceil(c*2**53) iff k*2**-53 >= c.  The integer decision picks the
    atom by the same comparisons."""

    def __init__(self, n, span, lo, length, weights=None, shift=False):
        # draw 0 is either the shift or the atom's pick, never both
        self.n_draws = 2 if shift or weights is not None else 1
        self._n, self._span, self._shift = n, span, shift
        self._period, self._lo, self._length = span / n, lo, length
        self._scale = self._period if shift else span
        self._cum = (None if weights is None
                     else tuple(accumulate(weights))[:-1])
        # the chain's draw map and atom pick on ticks: scale*2**-53 in one
        # factor where that factor scales back to scale exactly, else the two
        tick = self._scale * _INV_2_53
        self._tick_factors = ((tick,) if tick / _INV_2_53 == self._scale
                              else (_INV_2_53, self._scale))
        self._cum_ticks = (None if weights is None else
                           tuple(math.ceil(c / _INV_2_53) for c in self._cum))
        self._atoms = (((1.0, length),) if weights is None
                       else tuple(zip(weights, length)))

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
            for p, length in self._atoms))

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        """Detection flags; computes in place, overwriting u."""
        import numpy as np

        x = np.multiply(u[:, -1], self._scale, out=u[:, -1])
        if self._shift:
            np.subtract(x, u[:, 0], out=x)
        length = self._length
        if self._cum is not None:
            # column 0 holds lo, then, once subtracted, length; idx never
            # passes the last atom, and mode="clip" is set only because
            # under the default mode="raise" np.take buffers out
            idx = np.searchsorted(self._cum, u[:, 0], side="right")
            np.subtract(x, np.take(self._lo, idx, out=u[:, 0], mode="clip"),
                        out=x)
            length = np.take(length, idx, out=u[:, 0], mode="clip")
        else:
            np.subtract(x, self._lo, out=x)
        np.mod(x, self._period, out=x)
        return x <= length

    def covers(self, x: float) -> bool:
        """The fold test of one position x, as the other two tests take it;
        for a record without weights."""
        return (x - self._lo) % self._period <= self._length

    @property
    def _lane_draws(self) -> int:
        """The most of the numpy-free allowance a process may have spent
        for a request of this record to count on the lane path
        (`montecarlo.run_bernoulli_trials`): all of it where the integer
        decision settles nearly every block, else the float chain's share,
        `montecarlo._CHAIN_DRAWS`."""
        plan = self._plan
        return _CHAIN_DRAWS if plan is None else plan[0]

    @functools.cached_property
    def _plan(self):
        """count_lanes's integer decision, made when a request first asks
        for _lane_draws or a block, or None where no margin fits or the
        margin bands are too wide to pay: (draws, ticks, low, flags, T1,
        T0, atoms).  draws is the record's _lane_draws.  ticks,
        low and flags hold 2**53 - 1, 2**M - 1 and 2**M in every lane, and
        T1 and T0 are the module docstring's coefficients, T0 0 without
        shift.  Per atom, (pick, O, clear, near, missed) holds in every
        lane 2**M - ceil(c*2**53) for the atom's cumulative weight c (pick
        None for the last atom), the atom's offset O plus the margin m, and
        2**M less each of its three thresholds; O is None for a window
        that spans the period.  Each number is exact: a float is a whole
        number of 2**-1074."""
        if self._cum is None:
            los, lengths = (self._lo,), (self._length,)
        else:
            los, lengths = self._lo, self._length
        period, scale = self._period, self._scale
        if not (all(map(math.isfinite, (scale, *los, *lengths)))
                and 0.0 < period < math.inf):
            return None
        per, one, top = _units(period), _units(1.0), 1 << _FOLD_BITS
        t1, d1 = _nearest(_units(scale) << _FOLD_BITS - 53, per)
        t0, d0 = (_nearest(-one << _FOLD_BITS - 53, per) if self._shift
                  else (0, 0))
        # I = 2**53*(|d1| + |d0|) + 1/2, rounded up
        rounding = -(-(((d1 + d0) << 54) + per) // (2 * per))
        ones = _lane_constants()[0]
        picks = [(top - c) * ones for c in self._cum_ticks or ()] + [None]
        atoms, widest = [], 0
        for pick, lo, length in zip(picks, los, lengths):
            if length >= period:
                atoms.append((pick, None, 0, 0, 0))
                continue
            # 2**52*E, and m = F + I with F = E*2**M/P rounded up
            error = 2 * _units(scale) + one + abs(_units(lo)) + per + (4 << 52)
            margin = -(-(error << _FOLD_BITS) // (per << 52)) + rounding
            window = _units(length) << _FOLD_BITS
            clear, near = 2 * margin + 1, -(-window // per)
            missed = window // per + 2 * margin + 1
            if clear > near or missed > top:
                return None
            offset = _nearest(-_units(lo) << _FOLD_BITS, per)[0] + margin
            atoms.append((pick, offset % top * ones, (top - clear) * ones,
                          (top - near) * ones, (top - missed) * ones))
            widest = max(widest, margin)
        # a block's lanes in a band, about 4*m*_LANES/2**M of them (module
        # docstring): past one, most blocks fall back and the chain alone is
        # cheaper; below 1/128, under 1% of them do
        bands = 4 * widest * _LANES
        if bands > top:
            return None
        return (_SCALAR_DRAWS if 128 * bands <= top else _CHAIN_DRAWS,
                ((1 << 53) - 1) * ones, (top - 1) * ones, ones << _FOLD_BITS,
                t1 % top, t0 % top, tuple(atoms))

    def count_lanes(self, words: Sequence[int], m: int) -> int:
        """Detections among the first m trials of a lane block of mixed
        words, one per draw (`montecarlo.run_bernoulli_trials`), as
        evaluate_batch flags the draws: on whole integers where every lane
        clears the margin (module docstring), else through the float
        chain.  The thresholds are tested inline, not in a call per atom,
        so a block costs a few Python calls, whatever its trials."""
        plan = self._plan
        if plan is not None:
            _, ticks, low, flags, t1, t0, atoms = plan
            valid = flags if m == _LANES else flags & ((1 << 128 * m) - 1)
            x = ((words[-1] >> 11) & ticks) * t1
            first = (words[0] >> 11) & ticks if len(words) > 1 else 0
            if self._shift:
                x += first * t0
            hits = sure = 0
            rest = valid
            for pick, offset, clear, near, missed in atoms:
                lanes = rest
                if pick is not None:  # the lanes of the later atoms
                    rest = (first + pick) & valid
                    lanes ^= rest
                if offset is None:
                    hits |= lanes
                    sure |= lanes
                    continue
                h = (x + offset) & low
                detected = ((h + clear) & lanes) ^ ((h + near) & lanes)
                hits |= detected
                sure |= detected ^ ((h + missed) & lanes)
            if sure == valid:
                return hits.bit_count()
        return self._count_ticks([_ticks(word, m) for word in words])

    def _count_ticks(self, columns: Sequence[Sequence[int]]) -> int:
        """The float chain: detections among a block's trials, each column
        one draw's integer ticks over the block, as evaluate_batch flags
        the draws tick*2**-53, through C-level maps."""
        # float * int, not int * float: int's own multiply is tried first
        x = columns[-1]
        for factor in self._tick_factors:
            x = map(mul, repeat(factor), x)
        if self._shift:
            x = map(sub, x, map(mul, repeat(_INV_2_53), columns[0]))
        lo, length = repeat(self._lo), repeat(self._length)
        if self._cum is not None:
            atoms = list(map(bisect_right, repeat(self._cum_ticks), columns[0]))
            lo = map(self._lo.__getitem__, atoms)
            length = map(self._length.__getitem__, atoms)
        return sum(map(le, map(mod, map(sub, x, lo), repeat(self._period)),
                       length))


def _units(x: float) -> int:
    """A finite float as a whole number of 2**-1074, its least spacing."""
    num, den = x.as_integer_ratio()
    return num << 1075 - den.bit_length()


def _nearest(num: int, den: int) -> tuple[int, int]:
    """(t, |t*den - num|) for t the integer nearest num/den, den > 0."""
    t = (2 * num + den) // (2 * den)
    return t, abs(t * den - num)


def _indicator(s: CircularPatrolScenario) -> _FoldIndicator:
    """psi = 2*pi*u ~ U[0, 2*pi), tested against the nearest vehicle's arc:
    folding psi modulo the fleet spacing collapses all n arcs onto one."""
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
