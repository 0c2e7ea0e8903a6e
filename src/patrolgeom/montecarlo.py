"""Deterministic Monte Carlo machinery.

Every estimate is a pure function of (indicator, trials, root seed).  Trials
are seeded individually from the root seed through a fixed 64-bit mixing rule,
so the result does not depend on chunk size, scheduling order, or worker
count, and the scalar reference draws (`TrialSource`) and the vectorized
ones (`SeedSchedule.uniform_block`) are bit-identical.

The vectorized path is allocation-free per chunk.  Each worker of
`run_bernoulli_trials` owns one `DrawWorkspace`, allocated once, and walks
its own share of the fixed chunk sequence; worker 0 runs on the calling
thread and the others on plain `threading.Thread`s.  A workspace is one
float64 buffer of draws + 2 rows.  `SeedSchedule.uniform_block` runs
splitmix64 through ufuncs writing into it, with the two trailing rows,
viewed as uint64, as the keys and the mixing scratch, and stores the draws
draw-major in the leading rows, returning the (m, draws) transpose: each
column u[:, j] is contiguous.  The block is runner-owned scratch, so an
indicator may overwrite it while computing in place, and an indicator that
declares n_scratch is also handed that many of the trailing rows, dead once
the draws are made.

numpy is imported by the functions that use it, not at module level, so
the closed-form commands, which never call them, start without loading it.
`run_bernoulli_trials` imports numpy in the calling thread, before any
worker starts.

A small request need not import numpy at all.  An indicator may offer a
block count, count_lanes; while numpy is not yet loaded and the request's
draws (trials x n_draws) fit what is left of a per-process allowance, the
runner counts it in plain Python over the same splitmix64 draws
(`_count_scalar`).  That path packs 1024 trials into one Python int, a
128-bit lane each, so each step of splitmix64 is one big-int operation for
all of them (`_mix`, of which `mix64` is the one-lane case).  Every draw
is one lane step (`_mixed`): add a constant to every lane, mix, and keep
each lane's tick, w >> 11 of its mixed 64-bit word w; the constants are
multiplied out over the lanes once per request.  Blocks are mixed whole,
all 1024 lanes, the last one too, and count_lanes is handed the block's
tick lanes, one int per draw, with the number of lanes that hold trials:
the tick k in a lane is the draw k * 2**-53 that `TrialSource.uniform`
makes.  This module alone turns a mixed word into a tick.  count_lanes
decides the block on those ints, without a Python call per trial.
The allowance is spent, not reset, so a long run of small requests turns
to numpy once it is gone.  An indicator that offers no count_lanes, such
as the needle's, is counted on numpy.  The count is the same on either
path.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from typing import Iterator, Optional

from .scenario import _integer, _Record

__all__ = [
    "DEFAULT_SEED",
    "DrawWorkspace",
    "EstimateWithCI",
    "MAX_WORKERS",
    "SeedSchedule",
    "TrialSource",
    "estimate_from_counts",
    "mix64",
    "run_bernoulli_trials",
    "wilson_interval",
]

# Fixed default so unseeded runs are still reproducible.
DEFAULT_SEED = 1729

# Trials are processed in fixed-size chunks.  The size is a pure performance
# constant: per-trial draws depend only on the trial index, never on the
# chunk.  Each chunk costs a few dozen ufunc calls, whose Python overhead
# holds the interpreter lock.  At 8192 trials that overhead serialized two
# worker threads (buffon_mc, 10^7 trials, 2-core host: 1.08x); at 32768 two
# workers ran about 1.6x faster than one, and larger chunks gained no more
# while each doubling added 1.5 MB of workspace per worker.  Chunks this
# large are cheap only because the draws and the indicators' intermediates
# live in a per-worker workspace, not in per-chunk float64 temporaries of
# 256 KiB (above glibc's 128 KiB mmap threshold): the needle indicator's old
# temporaries took one worker from 0.38 s to 0.52 s there.
CHUNK_TRIALS = 32768

# Draws (trials x n_draws) a process may count on the scalar path, which
# never imports numpy (see run_bernoulli_trials).  It is counted in draws
# because the path's cost per trial grows with its draws (1 for the circle
# and the segment, 2 and an atom pick for the randomized radius).  In
# process (`python3 tools/lane_costs.py`, the least of 14 processes) a
# trial costs the ns below, its block counted on its tick intervals.  A
# fresh process breaks even with numpy's import at about these draws per
# request (`python3 tools/lane_costs.py --break-even`, seeds 0 to 4: a
# line through the medians of 12 paired differences at 200 000 to 800 000
# draws, the median of the five runs; 2-core host, Python 3.11, numpy 2.4):
#
#     model               ns per trial   break-even (draws)
#     circle              117            634 000
#     segment             116            624 000
#     randomized radius   197            783 000
#
# The allowance is the tool's rule applied to those runs and to five
# earlier ones of the same kernel: the largest multiple of CHUNK_TRIALS
# below each single break-even.  The least, a segment's 544 000 draws in
# an earlier run, allows 16 * CHUNK_TRIALS = 524 288 draws; single runs
# spread by about 100 000 draws, and the break-evens move as the shared
# host's load changes.  A circle or a segment request of 250 000
# trials (250 000 draws) skips numpy, as every request of the benchmark's
# circular_mc and segment_mc does.  Every model's fold record offers
# count_lanes (`circular._FoldIndicator`).
#
# A larger allowance would also raise the cost of a many-row sweep of small
# requests: the allowance is spent, not reset per request, so such a sweep
# pays the scalar cost only until the allowance runs out, at most about one
# import.  `cli`'s sweep avoids even that: it hands _check_run its grid's
# row count, and _check_run, not the caller, decides to import numpy
# before the first row where rows x trials exceed what is left.  A sweep
# runs circle or segment trials, of one draw each, so rows x trials are
# its draws; only a randomized radius trial takes two.  The allowance
# picks the path only, so callers in several threads may race on it.
_SCALAR_DRAWS = 16 * CHUNK_TRIALS
_scalar_left = _SCALAR_DRAWS

# Ceiling on worker threads.  The estimate does not depend on `workers`, and
# a count far above the cores only adds threads: unbounded, a large request
# would start one thread per chunk.
MAX_WORKERS = 64

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # odd increment of the splitmix64 sequence
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# The scalar path packs the 64-bit values of _LANES trials into one int, a
# 128-bit lane each, so one big-int operation steps all of them.
_LANES = 1024
_LANE_BYTES = 16
# The low word of each lane, in lane order, among the native 64-bit words of
# the int's bytes in native order
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)

# Normal quantile of the two-sided 95% level, NormalDist().inv_cdf(0.975).
_Z95 = 1.9599639845400536


def _mix(x: int, mask: int) -> int:
    """The splitmix64 finalizer on every lane of x at once.  mask keeps the
    low 64 bits of each lane, where the values live: it clears what a
    shift spills in from the next lane, and a 64 x 64-bit product fits its
    lane, so no step carries across lanes."""
    x ^= (x >> 30) & mask
    x = (x * _MULT_A) & mask
    x ^= (x >> 27) & mask
    x = (x * _MULT_B) & mask
    return x ^ ((x >> 31) & mask)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64-bit integers."""
    return _mix(x & _MASK64, _MASK64)


@functools.cache
def _lane_constants() -> tuple[int, int, int, int]:
    """(ones, ramp, mask, ticks) over _LANES lanes: 1, i*GAMMA mod 2**64,
    2**64 - 1 and 2**53 - 1 in lane i."""
    lanes = [((i * _GAMMA) & _MASK64).to_bytes(_LANE_BYTES, "little")
             for i in range(_LANES)]
    ones = int.from_bytes(b"\1".ljust(_LANE_BYTES, b"\0") * _LANES, "little")
    return (ones, int.from_bytes(b"".join(lanes), "little"), _MASK64 * ones,
            ((1 << 53) - 1) * ones)


def _mixed(base: int, lane_add: int) -> int:
    """The lane step: each lane of base plus that lane of lane_add, mod
    2**64, mixed, as its tick w >> 11 of the mixed word w.  The ticks mask
    clears what the shift moves in from the next lane."""
    _, _, mask, ticks = _lane_constants()
    return (_mix((base + lane_add) & mask, mask) >> 11) & ticks


def _draws(x: int, m: int) -> list[float]:
    """The draws of the first m tick lanes of x, in lane order: tick k as
    the draw k * 2**-53 that `TrialSource.uniform` makes."""
    words = memoryview(x.to_bytes(_LANES * _LANE_BYTES, sys.byteorder))
    return [k * _INV_2_53 for k in words.cast("Q")[_LOW_WORDS][:m].tolist()]


def _mix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 on a uint64 array, in place; scratch is a same-size buffer.
    uint64 arithmetic wraps mod 2**64, matching the masked scalar path."""
    import numpy as np

    np.right_shift(x, 30, out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MULT_A, out=x)
    np.right_shift(x, 27, out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MULT_B, out=x)
    np.right_shift(x, 31, out=scratch)
    np.bitwise_xor(x, scratch, out=x)


@functools.lru_cache(maxsize=1)
def _ramp(capacity: int) -> np.ndarray:
    """i*GAMMA mod 2**64 for i < capacity, read-only: trial keys are a fixed
    offset from it.  The workspaces of a run share one, and a request of
    another size replaces it."""
    import numpy as np

    ramp = np.arange(capacity, dtype=np.uint64)
    np.multiply(ramp, _GAMMA, out=ramp)
    ramp.flags.writeable = False
    return ramp


class DrawWorkspace:
    """Reusable buffer for `SeedSchedule.uniform_block` on up to `capacity`
    trials of `draws` draws each: one float64 array of draws + 2 rows of
    `capacity`, the draws first.  The two trailing rows, viewed as uint64,
    hold the trial keys and the mixing scratch while the draws are made;
    after that they are free, and `run_bernoulli_trials` hands them to an
    indicator that declares n_scratch.  Reusing one across chunks makes the
    draw path allocation-free; each block it returns is overwritten by the
    next call that is handed the same workspace."""

    __slots__ = ("capacity", "draws", "_ramp", "_rows", "_keys", "_scratch",
                 "_last")

    def __init__(self, capacity: int, draws: int):
        import numpy as np

        capacity, draws = _integers(capacity=capacity, draws=draws)
        if capacity < 0 or draws < 1:
            raise ValueError("need capacity >= 0 and draws >= 1")
        self.capacity = capacity
        self.draws = draws
        self._ramp = _ramp(capacity)
        self._rows = np.empty((draws + 2, capacity))
        self._keys, self._scratch = self._rows[draws:].view(np.uint64)
        # the last draw's row, as uint64: the earlier draws are mixed there
        self._last = self._rows[draws - 1].view(np.uint64)


class TrialSource:
    """Random source for one trial, driven by a counter under a fixed key:
    the scalar reference for the draws of `SeedSchedule.uniform_block`.

    Draw j (1-based) is mix64(key + j*GAMMA) mapped to [0, 1) by its top 53
    bits: u = (bits >> 11) * 2**-53.
    """

    __slots__ = ("key", "_count")

    def __init__(self, key: int):
        self.key = key & _MASK64
        self._count = 0

    def uniform(self) -> float:
        """Next uniform draw on [0, 1)."""
        self._count += 1
        bits = mix64((self.key + self._count * _GAMMA) & _MASK64)
        return (bits >> 11) * _INV_2_53


class SeedSchedule(_Record):
    """Derives independent per-trial states from one root seed.

    Trial i receives the key mix64(root_seed + (i + 1)*GAMMA).  GAMMA is odd,
    so i -> root_seed + (i + 1)*GAMMA is injective mod 2**64, and mix64 is a
    bijection: distinct trial indices always get distinct keys.
    """

    root_seed: int

    def _counter(self, index: int) -> int:
        """root_seed + (index + 1)*GAMMA mod 2**64, which mix64 turns into
        the key of trial index: the one place the seed is read.  A numpy
        integer seed reads as the equal int; a bool or a non-integer is a
        ValueError."""
        seed = _integer(self.root_seed)
        if seed is None:
            raise ValueError("seed must be an integer")
        return (seed + (index + 1) * _GAMMA) & _MASK64

    def trial_key(self, index: int) -> int:
        if index < 0:
            raise ValueError("trial index must be nonnegative")
        return mix64(self._counter(index))

    def trial_source(self, index: int) -> TrialSource:
        return TrialSource(self.trial_key(index))

    def uniform_block(self, start: int, stop: int, draws: int,
                      out: Optional[DrawWorkspace] = None) -> np.ndarray:
        """Uniform draws for trials [start, stop), shape (stop-start, draws).

        Row i is bit-identical to the first `draws` uniforms produced by
        trial_source(start + i).  The result is the transpose of a
        draw-major (draws, stop-start) block, so each column is contiguous.
        Without `out` the block is a fresh array; with a workspace it lives
        in the workspace and the next call with that workspace reuses it.
        """
        import numpy as np

        start, stop, draws = _integers(start=start, stop=stop, draws=draws)
        if not 0 <= start <= stop:
            raise ValueError("need 0 <= start <= stop")
        m = stop - start
        if out is None:
            out = DrawWorkspace(m, draws)
        elif m > out.capacity or draws != out.draws:
            raise ValueError("workspace does not fit the requested block")
        keys, scratch, last = out._keys[:m], out._scratch[:m], out._last[:m]
        block = out._rows[:draws, :m]
        # key of trial start + i: mix64(root_seed + (start + 1 + i)*GAMMA)
        np.add(out._ramp[:m], self._counter(start), out=keys)
        _mix64_inplace(keys, scratch)
        for j in range(draws):
            # the last draw is mixed in place of the keys, its last reader,
            # and each earlier one in the last draw's row.  No row converts
            # onto itself: numpy copies an operand that overlaps its output.
            bits = keys if j == draws - 1 else last
            np.add(keys, ((j + 1) * _GAMMA) & _MASK64, out=bits)
            _mix64_inplace(bits, scratch)
            np.right_shift(bits, 11, out=bits)
            np.multiply(bits, _INV_2_53, out=block[j])
        return block.T


class EstimateWithCI(_Record):
    """Bernoulli estimate with a Wilson score interval.

    mean is exactly successes/trials; ci bounds satisfy
    0 <= ci_low <= mean <= ci_high <= 1.
    """

    mean: float
    trials: int
    successes: int
    stderr: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Never collapses to a point at 0 or n successes, unlike the normal
    approximation interval.  Both counts must be integers.
    """
    _integers(successes=successes, trials=trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2n = _Z95 * _Z95 / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    half = (_Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials))
            / denom)
    return max(0.0, center - half), min(1.0, center + half)


def estimate_from_counts(successes: int, trials: int) -> EstimateWithCI:
    """Package a success count as an estimate with a 95% Wilson interval;
    the interval checks the counts first."""
    ci_low, ci_high = wilson_interval(successes, trials)
    mean = successes / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return EstimateWithCI(mean=mean, trials=trials, successes=successes,
                          stderr=stderr, ci_low=min(ci_low, mean),
                          ci_high=max(ci_high, mean))


def _integers(**values) -> list[int]:
    """The named values as ints, numpy integers included, or ValueError
    "<name> must be an integer" at the first that is not, a bool too."""
    for name, value in values.items():
        if _integer(value) is None:
            raise ValueError(f"{name} must be an integer")
    return [_integer(value) for value in values.values()]


def _check_run(trials: int, workers: int, runs: int = 0) -> None:
    """The argument checks of run_bernoulli_trials, which a caller may make
    before it starts any output.  A caller about to make `runs` such
    requests, a sweep's rows, also loads numpy here where runs x trials
    exceed what is left of the allowance (_SCALAR_DRAWS); runs 0, the
    runner's own call, never does."""
    _integers(trials=trials, workers=workers)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}")
    if runs * trials > _scalar_left:
        import numpy  # noqa: F401


def _count_scalar(indicator, trials: int, schedule: SeedSchedule) -> int:
    """Successes of indicator.count_lanes over trials [0, trials) in plain
    Python: the draws of `TrialSource`, handed to it one block of _LANES
    trials at a time, as n_draws words of tick lanes and the number m of
    lanes that hold trials.  Each block is mixed whole, the last one too:
    the counters of trial lo + i, mixed, become its key, and the key plus
    j*GAMMA, by a lane step, the tick of its draw j.  The constants, j*GAMMA
    and the counters' advance _LANES*GAMMA per block, are multiplied out
    over the lanes once."""
    ones, counters, mask, _ = _lane_constants()
    counters = (counters + schedule._counter(0) * ones) & mask
    count = indicator.count_lanes
    adds = [(((j + 1) * _GAMMA) & _MASK64) * ones
            for j in range(indicator.n_draws)]
    advance = ((_LANES * _GAMMA) & _MASK64) * ones
    total = 0
    for lo in range(0, trials, _LANES):
        keys = _mix(counters, mask)
        total += count([_mixed(keys, add) for add in adds],
                       min(_LANES, trials - lo))
        counters = (counters + advance) & mask
    return total


def _trial_draws(key: int, count: int) -> Iterator[float]:
    """The first count draws of TrialSource(key), mixed _LANES at a time.
    They stay floats, not ticks: the caller's int(m * u) floors the rounded
    product, where an exact integer product of m and the tick would not
    round."""
    ones, ramp = _lane_constants()[:2]
    for lo in range(0, count, _LANES):
        add = ((key + (lo + 1) * _GAMMA) & _MASK64) * ones
        yield from _draws(_mixed(ramp, add), min(_LANES, count - lo))


def run_bernoulli_trials(indicator, trials: int, schedule: SeedSchedule,
                         workers: int = 1) -> EstimateWithCI:
    """Estimate P(indicator) over `trials` independently seeded trials.

    indicator has attributes n_draws (draws consumed per trial, an integer
    >= 1) and evaluate_batch(u), mapping a (m, n_draws) uniform array to a
    boolean vector.  The array handed to evaluate_batch is runner-owned
    scratch, valid only during the call: the indicator may overwrite it in
    place.  An indicator may declare n_scratch, an integer from 0 to 2 (0
    if absent); its block is then (m, n_draws + n_scratch), the trailing
    columns being scratch of undefined contents.  Any other declaration,
    a bool included, is a ValueError, raised before either path is
    chosen.  An indicator may also offer count_lanes(words, m), the number
    of trials evaluate_batch would flag, bit for bit, among the first m
    trials of a block of _LANES, given as n_draws ints of tick lanes: lane
    i of word j, 128 bits, holds the tick k < 2**53 of draw j of trial i,
    whose draw is k * 2**-53, and all its other bits are zero.  The lanes
    from m on hold no trial.  A count_lanes of None offers none.

    While numpy is not yet imported, a request of an indicator with
    count_lanes whose trials x n_draws fit the process's remaining
    allowance (`_scalar_left`, _SCALAR_DRAWS draws at start) spends its
    draws from it and is counted by `_count_scalar`, which never imports
    numpy.  Every other request, and every one after numpy is loaded,
    takes the vector path.
    Both paths count the same draws exactly, so the path never changes
    the result.

    On the vector path, trials are cut into fixed chunks of CHUNK_TRIALS;
    worker k of `workers` takes chunks k, k + workers, ... and draws them
    into its own workspace, walking its chunk starts as a range, so memory
    does not grow with `trials`.  Worker 0 runs on the calling thread and
    each other one on a thread of its own.  Successes are accumulated as
    exact integers, so the estimate is independent of the chunk size and of
    `workers`, which may not exceed MAX_WORKERS.  Once a worker raises,
    every worker stops before its next chunk, and the exception of the
    lowest-numbered failed worker is raised once every thread has ended.
    """
    global _scalar_left

    _check_run(trials, workers)
    schedule._counter(0)  # a bad seed raises before any draw
    draws = _integer(indicator.n_draws)
    spare = _integer(getattr(indicator, "n_scratch", 0))
    if draws is None or draws < 1 or spare not in (0, 1, 2):
        raise ValueError("need an integer n_draws >= 1 and n_scratch 0 to 2")
    if ("numpy" not in sys.modules and trials * draws <= _scalar_left
            and getattr(indicator, "count_lanes", None) is not None):
        _scalar_left -= trials * draws
        return estimate_from_counts(
            _count_scalar(indicator, trials, schedule), trials)

    import numpy as np

    chunk = CHUNK_TRIALS
    workers = min(workers, -(-trials // chunk))
    # made on the calling thread, so that every workspace shares one ramp
    spaces = [DrawWorkspace(min(chunk, trials), draws) for _ in range(workers)]
    counts = [0] * workers
    errors = [None] * workers

    def count(k: int) -> None:
        """Successes in chunks k, k + workers, ..., walked lazily, into
        counts[k], or the exception that stopped them into errors[k]; a
        worker stops before its next chunk once any worker has failed."""
        workspace, total = spaces[k], 0
        block = workspace._rows[:draws + spare].T
        try:
            for lo in range(k * chunk, trials, workers * chunk):
                if any(err is not None for err in errors):
                    break
                hi = min(lo + chunk, trials)
                schedule.uniform_block(lo, hi, draws, out=workspace)
                total += int(np.count_nonzero(
                    indicator.evaluate_batch(block[:hi - lo])))
        except BaseException as err:
            errors[k] = err
        counts[k] = total

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=count, args=(k,))
            thread.start()
            started.append(thread)
        count(0)
    finally:
        for thread in started:
            thread.join()
    for err in errors:
        if err is not None:
            raise err
    return estimate_from_counts(sum(counts), trials)
