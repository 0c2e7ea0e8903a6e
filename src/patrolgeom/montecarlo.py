"""Deterministic Monte Carlo machinery.

Every estimate is a pure function of (indicator, trials, root seed).  Trials
are seeded individually from the root seed through a fixed 64-bit mixing rule,
so the result does not depend on chunk size, scheduling order, or worker
count, and the scalar reference draws (`TrialSource`) and the vectorized
ones (`SeedSchedule.uniform_block`) are bit-identical.

The vectorized path is allocation-free per chunk.  Each worker thread of
`run_bernoulli_trials` owns one `DrawWorkspace`, allocated once, and walks
its own share of the fixed chunk sequence.  `SeedSchedule.uniform_block` runs
splitmix64 through ufuncs writing into the workspace's uint64 buffers and
stores the draws draw-major, as a (draws, m) block, returning its (m, draws)
transpose: each column u[:, j] is contiguous.  The block is runner-owned
scratch, so an indicator may overwrite it while computing in place.

numpy and the thread pool are imported by the functions that use them, not
at module level, so the closed-form commands, which never call them, start
without loading them.  `run_bernoulli_trials` imports numpy in the calling
thread, before any worker starts.

A small request need not import numpy at all.  An indicator may offer a
block count, count_lanes; while numpy is not yet loaded and the request's
draws (trials x n_draws) fit what is left of a per-process allowance, the
runner counts it in plain Python over the same splitmix64 draws
(`_count_scalar`).  That path packs 1024 trials into one Python int, a
128-bit lane each, so each step of splitmix64 is one big-int operation for
all of them (`_mix`, of which `mix64` is the one-lane case).  Every draw
is one lane step (`_mixed`): add a constant to every lane, then mix.
Blocks are mixed whole, all 1024 lanes, the last one too; the path then
unpacks the words of the lanes it needs and hands count_lanes the block's
draws as one column of floats per draw, which it counts through C-level
maps, without a Python call per trial.
The allowance is spent, not reset, so a long run of small requests turns
to numpy once it is gone.  The count is the same on either path.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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
# because the path's cost per trial grows with its draws: about 0.33 us per
# trial for the circle (1 draw), 0.47 us for the segment (2 draws) and
# 0.72 us for the randomized radius (2 draws and an atom lookup), in process,
# best of 5.  Fresh processes break even with numpy's import at about
# 200 000 draws for the circle, 250 000-290 000 for the segment and 170 000
# for the randomized radius (least-squares lines through medians of 9
# processes at 5-6 request sizes; 2-core host, Python 3.11, numpy 2.4).
# 4 * CHUNK_TRIALS = 131 072 draws lies below all three.  A larger
# allowance would move no request of perfbench, whose next ones above it
# take 200 000 draws or more, and would raise the cost of a many-row
# sweep of small requests: the allowance is spent, not reset per
# request, so such a sweep pays the scalar cost only until the allowance
# runs out, at most about one import.  It picks the path only, so callers
# in several threads may race on it.
_SCALAR_DRAWS = 4 * CHUNK_TRIALS
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
def _lane_constants() -> tuple[int, int, int]:
    """(ones, ramp, mask) over _LANES lanes: 1, i*GAMMA mod 2**64 and
    2**64 - 1 in lane i."""
    lanes = [((i * _GAMMA) & _MASK64).to_bytes(_LANE_BYTES, "little")
             for i in range(_LANES)]
    ones = int.from_bytes(b"\1".ljust(_LANE_BYTES, b"\0") * _LANES, "little")
    return ones, int.from_bytes(b"".join(lanes), "little"), _MASK64 * ones


def _mixed(base: int, add: int) -> int:
    """The lane step: each lane of base plus add, mod 2**64, mixed."""
    ones, _, mask = _lane_constants()
    return _mix((base + (add & _MASK64) * ones) & mask, mask)


def _uniforms(x: int, m: int) -> Iterator[float]:
    """The draws of the first m lanes of a mixed x, in lane order:
    (w >> 11) * 2**-53 of each 64-bit word w, as `TrialSource.uniform` maps
    it.  The high half of each lane is zero, so the shift moves nothing
    into a low word from its neighbour."""
    words = memoryview((x >> 11).to_bytes(_LANES * _LANE_BYTES, sys.byteorder))
    return map(operator.mul, words.cast("Q")[_LOW_WORDS][:m].tolist(),
               itertools.repeat(_INV_2_53))


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


class DrawWorkspace:
    """Reusable buffers for `SeedSchedule.uniform_block` on up to `capacity`
    trials of `draws` draws each.  Reusing one across chunks makes the draw
    path allocation-free; each block it returns is overwritten by the next
    call that is handed the same workspace."""

    __slots__ = ("capacity", "draws", "_ramp", "_keys", "_bits", "_scratch",
                 "_block")

    def __init__(self, capacity: int, draws: int):
        import numpy as np

        self.capacity = capacity
        self.draws = draws
        # i*GAMMA mod 2**64: trial keys are a fixed offset from this ramp
        self._ramp = np.arange(capacity, dtype=np.uint64)
        np.multiply(self._ramp, _GAMMA, out=self._ramp)
        self._keys = np.empty(capacity, dtype=np.uint64)
        self._bits = np.empty(capacity, dtype=np.uint64)
        self._scratch = np.empty(capacity, dtype=np.uint64)
        self._block = np.empty(draws * capacity, dtype=np.float64)


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

        if not 0 <= start <= stop:
            raise ValueError("need 0 <= start <= stop")
        m = stop - start
        if out is None:
            out = DrawWorkspace(m, draws)
        elif m > out.capacity or draws != out.draws:
            raise ValueError("workspace does not fit the requested block")
        keys, bits, scratch = out._keys[:m], out._bits[:m], out._scratch[:m]
        block = out._block[:draws * m].reshape(draws, m)
        # key of trial start + i: mix64(root_seed + (start + 1 + i)*GAMMA)
        np.add(out._ramp[:m], self._counter(start), out=keys)
        _mix64_inplace(keys, scratch)
        for j in range(draws):
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
    approximation interval.
    """
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


def _check_run(trials: int, workers: int) -> None:
    """The argument checks of run_bernoulli_trials, which a caller may make
    before it starts any output."""
    for name, value in (("trials", trials), ("workers", workers)):
        if _integer(value) is None:
            raise ValueError(f"{name} must be an integer")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}")


def _count_scalar(indicator, trials: int, schedule: SeedSchedule) -> int:
    """Successes of indicator.count_lanes over trials [0, trials) in plain
    Python: the draws of `TrialSource`, handed to it one block of _LANES
    trials at a time, as n_draws columns of floats.  Each block is mixed
    whole, the last one too, by two lane steps: the counters of trial
    lo + i become its key, and the key plus j*GAMMA its draw j; only the
    first m lanes of a block of m trials are read."""
    ramp = _lane_constants()[1]
    total = 0
    for lo in range(0, trials, _LANES):
        m = min(_LANES, trials - lo)
        keys = _mixed(ramp, schedule._counter(lo))
        total += indicator.count_lanes(
            [_uniforms(_mixed(keys, (j + 1) * _GAMMA), m)
             for j in range(indicator.n_draws)])
    return total


def _trial_draws(key: int, count: int) -> Iterator[float]:
    """The first count draws of TrialSource(key), mixed _LANES at a time."""
    ramp = _lane_constants()[1]
    for lo in range(0, count, _LANES):
        yield from _uniforms(_mixed(ramp, key + (lo + 1) * _GAMMA),
                             min(_LANES, count - lo))


def run_bernoulli_trials(indicator, trials: int, schedule: SeedSchedule,
                         workers: int = 1) -> EstimateWithCI:
    """Estimate P(indicator) over `trials` independently seeded trials.

    indicator has attributes n_draws (draws consumed per trial) and
    evaluate_batch(u), mapping a (m, n_draws) uniform array to a boolean
    vector.  The array handed to evaluate_batch is runner-owned scratch,
    valid only during the call: the indicator may overwrite it in place.
    It may also offer count_lanes(columns), the number of trials
    evaluate_batch would flag, bit for bit, in a block of trials given as
    n_draws iterables of floats, column j holding draw j of each trial.

    While numpy is not yet imported, a request of such an indicator whose
    trials x n_draws fit the process's remaining allowance
    (`_scalar_left`, _SCALAR_DRAWS draws at start) spends its draws from
    it and is counted by `_count_scalar`, which never imports numpy.  Every
    other request, and every one after numpy is loaded, takes the vector
    path.  Both paths count the same draws exactly, so the path never
    changes the result.

    On the vector path, trials are cut into fixed chunks of CHUNK_TRIALS;
    worker k of `workers` threads takes chunks k, k + workers, ... and
    draws them into its own workspace, walking its chunk starts as a
    range, so memory does not grow with `trials`.  Successes are
    accumulated as exact integers, so the estimate is independent of the
    chunk size and of `workers`, which may not exceed MAX_WORKERS.
    """
    global _scalar_left

    _check_run(trials, workers)
    schedule._counter(0)  # a bad seed raises before any draw
    draws = int(indicator.n_draws)
    if (hasattr(indicator, "count_lanes") and "numpy" not in sys.modules
            and trials * draws <= _scalar_left):
        _scalar_left -= trials * draws
        return estimate_from_counts(
            _count_scalar(indicator, trials, schedule), trials)

    import numpy as np

    chunk = CHUNK_TRIALS
    workers = min(workers, -(-trials // chunk))

    def count(k: int) -> int:
        """Successes in chunks k, k + workers, ..., walked lazily."""
        workspace = DrawWorkspace(min(chunk, trials), draws)
        total = 0
        for lo in range(k * chunk, trials, workers * chunk):
            u = schedule.uniform_block(lo, min(lo + chunk, trials), draws,
                                       out=workspace)
            total += int(np.count_nonzero(indicator.evaluate_batch(u)))
        return total

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(count, range(workers)))
    else:
        successes = count(0)
    return estimate_from_counts(successes, trials)
