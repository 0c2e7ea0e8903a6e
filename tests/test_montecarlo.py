"""Deterministic Monte Carlo machinery: seeding, intervals, trial runner."""

import bisect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolgeom import circular, linear, montecarlo, randomradius
from patrolgeom.buffon import NeedleProblem, _NeedleIndicator, buffon_mc
from patrolgeom.circular import TWO_PI, _detection_arc, mc_probability
from patrolgeom.linear import mc_probability_linear
from patrolgeom.montecarlo import (_LANES, _SCALAR_DRAWS,
                                   CHUNK_TRIALS, MAX_WORKERS, DrawWorkspace,
                                   EstimateWithCI,
                                   SeedSchedule, TrialSource, _count_scalar,
                                   _trial_draws, estimate_from_counts, mix64,
                                   run_bernoulli_trials, wilson_interval)
from patrolgeom.randomradius import (PiecewiseRadiusProcess, RadiusDistribution,
                                     ergodic_time_average,
                                     mc_probability_random_radius)
from patrolgeom.scenario import CircularPatrolScenario, LinearPatrolScenario

# Reference outputs of the well-known 64-bit split-and-mix generator for
# seed 1234567; the trial-key schedule reproduces them by construction.
_SPLITMIX_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def test_trial_keys_match_reference_sequence():
    sched = SeedSchedule(1234567)
    for i, expected in enumerate(_SPLITMIX_1234567):
        assert sched.trial_key(i) == expected


def test_mix64_is_injective_on_a_large_sample():
    keys = {mix64(x) for x in range(100_000)}
    assert len(keys) == 100_000


def test_trial_keys_distinct_within_and_across_seeds():
    a = [SeedSchedule(0).trial_key(i) for i in range(10_000)]
    b = [SeedSchedule(1).trial_key(i) for i in range(10_000)]
    assert len(set(a)) == 10_000
    assert len(set(b)) == 10_000
    # different roots should not replay each other's key stream
    assert len(set(a) & set(b)) == 0


def test_trial_key_rejects_negative_index():
    with pytest.raises(ValueError):
        SeedSchedule(0).trial_key(-1)


def test_uniform_block_matches_scalar_sources_bit_for_bit():
    sched = SeedSchedule(20260825)
    block = sched.uniform_block(3, 40, 4)
    assert block.shape == (37, 4)
    for row, index in enumerate(range(3, 40)):
        src = sched.trial_source(index)
        scalar = [src.uniform() for _ in range(4)]
        assert block[row].tolist() == scalar


def test_uniform_block_validates_range():
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(5, 3, 1)


@pytest.mark.parametrize("make,message", [
    (lambda: SeedSchedule(0).uniform_block(0, 4, 0), "draws >= 1"),
    (lambda: SeedSchedule(0).uniform_block(0, 4, -1), "draws >= 1"),
    (lambda: SeedSchedule(0).uniform_block(0, 4, 1.5),
     "^draws must be an integer$"),
    (lambda: SeedSchedule(0).uniform_block(0.5, 4, 1),
     "^start must be an integer$"),
    (lambda: SeedSchedule(0).uniform_block(0, 4.0, 1),
     "^stop must be an integer$"),
    (lambda: SeedSchedule(0).uniform_block(0, 4, True),
     "^draws must be an integer$"),
    (lambda: DrawWorkspace(4, 0), "draws >= 1"),
    (lambda: DrawWorkspace(-1, 1), "capacity >= 0"),
    (lambda: DrawWorkspace(4.0, 1), "^capacity must be an integer$"),
], ids=["no-draws", "negative-draws", "fractional-draws", "fractional-start",
        "float-stop", "bool-draws", "workspace-no-draws",
        "negative-capacity", "float-capacity"])
def test_block_and_workspace_sizes_are_integers_in_range(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_numpy_integer_sizes_read_as_ints():
    fresh = SeedSchedule(4).uniform_block(np.int64(2), np.uint8(9),
                                          np.int32(2))
    assert fresh.tolist() == SeedSchedule(4).uniform_block(2, 9, 2).tolist()
    assert DrawWorkspace(np.int64(4), np.uint8(2)).capacity == 4


def test_uniform_block_columns_are_contiguous():
    block = SeedSchedule(3).uniform_block(0, 100, 3)
    assert all(block[:, j].flags.c_contiguous for j in range(3))


@pytest.mark.parametrize("start", [0, 3, 2 ** 40, 2 ** 40 + 12_345, 2 ** 62])
def test_uniform_block_into_workspace_matches_fresh_and_scalar(start):
    sched = SeedSchedule(20260825)
    ws = DrawWorkspace(64, 3)
    for stop in (start, start + 1, start + 37, start + 64):
        into = sched.uniform_block(start, stop, 3, out=ws)
        fresh = sched.uniform_block(start, stop, 3)
        assert into.shape == fresh.shape == (stop - start, 3)
        assert np.array_equal(into.view(np.uint64), fresh.view(np.uint64))
        for row, index in enumerate(range(start, stop)):
            src = sched.trial_source(index)
            assert into[row].tolist() == [src.uniform() for _ in range(3)]


def test_fresh_block_is_not_clobbered_by_later_calls():
    sched = SeedSchedule(11)
    first = sched.uniform_block(0, 50, 2)
    kept = first.copy()
    sched.uniform_block(50, 100, 2)
    sched.uniform_block(0, 50, 2)[:] = -1.0
    assert np.array_equal(first, kept)


def test_workspace_rejects_a_block_it_cannot_hold():
    ws = DrawWorkspace(10, 2)
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(0, 11, 2, out=ws)
    with pytest.raises(ValueError):
        SeedSchedule(0).uniform_block(0, 5, 3, out=ws)


def test_uniform_draws_lie_in_the_requested_interval():
    src = SeedSchedule(9).trial_source(0)
    for _ in range(1000):
        x = src.uniform()
        assert 0.0 <= x < 1.0
    # same key replays the same stream
    a = SeedSchedule(9).trial_source(5)
    b = SeedSchedule(9).trial_source(5)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_wilson_quantile_is_the_normal_95_percent_point():
    assert montecarlo._Z95 == NormalDist().inv_cdf(0.975)


def test_wilson_interval_reference_value():
    low, high = wilson_interval(500, 1000)
    assert low == pytest.approx(0.4690696003681042, abs=1e-15)
    assert high == pytest.approx(0.5309303996318958, abs=1e-15)


def test_wilson_interval_never_collapses_at_the_boundaries():
    low, high = wilson_interval(0, 50)
    assert low == 0.0
    assert 0.0 < high < 1.0
    low, high = wilson_interval(50, 50)
    assert 0.0 < low < 1.0
    assert high == pytest.approx(1.0, abs=1e-12)


def test_wilson_interval_input_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


@pytest.mark.parametrize("successes,trials,message", [
    (0, 0, "trials must be >= 1"),
    (5, 3, r"successes must lie in \[0, trials\]"),
    (-1, 3, r"successes must lie in \[0, trials\]"),
    (1.5, 3, "^successes must be an integer$"),
    (1, 2.5, "^trials must be an integer$"),
    (1, math.inf, "^trials must be an integer$"),
    (True, 3, "^successes must be an integer$"),
], ids=["no-trials", "too-many", "negative", "fractional-successes",
        "fractional-trials", "infinite-trials", "bool-successes"])
def test_estimate_from_counts_checks_its_counts_first(successes, trials,
                                                       message):
    with pytest.raises(ValueError, match=message):
        estimate_from_counts(successes, trials)
    with pytest.raises(ValueError, match=message):
        wilson_interval(successes, trials)


def test_numpy_integer_counts_read_as_ints():
    assert (estimate_from_counts(np.int64(3), np.uint16(10))
            == estimate_from_counts(3, 10))


def test_wilson_interval_narrows_with_more_trials():
    w1 = wilson_interval(30, 100)
    w2 = wilson_interval(300, 1000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_estimate_from_counts_fields_are_consistent():
    est = estimate_from_counts(300, 1000)
    assert est.mean == 0.3
    assert est.successes == 300
    assert est.trials == 1000
    assert est.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 1000))
    assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0


class _ThresholdIndicator:
    """Success iff the single uniform draw falls below the threshold."""

    n_draws = 1

    def __init__(self, threshold: float):
        self.threshold = threshold

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        return u[:, 0] < self.threshold


def test_runner_is_independent_of_worker_count():
    trials = 3 * CHUNK_TRIALS + 17
    base = run_bernoulli_trials(_ThresholdIndicator(0.42), trials,
                                SeedSchedule(5), workers=1)
    for workers in (2, 4):
        again = run_bernoulli_trials(_ThresholdIndicator(0.42), trials,
                                     SeedSchedule(5), workers=workers)
        assert again.successes == base.successes
        assert again.mean == base.mean
        assert again.ci_low == base.ci_low
        assert again.ci_high == base.ci_high


def test_runner_handles_constant_indicators():
    always = run_bernoulli_trials(_ThresholdIndicator(2.0), 500, SeedSchedule(0))
    never = run_bernoulli_trials(_ThresholdIndicator(-1.0), 500, SeedSchedule(0))
    assert always.mean == 1.0 and always.ci_high == pytest.approx(1.0, abs=1e-12)
    assert never.mean == 0.0 and never.ci_low == 0.0


def test_runner_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 0, SeedSchedule(0))
    with pytest.raises(ValueError):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 10, SeedSchedule(0),
                             workers=0)


def test_runner_caps_workers_before_starting_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no worker thread may start")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}"):
        run_bernoulli_trials(_ThresholdIndicator(0.5), 10 ** 9, SeedSchedule(0),
                             workers=MAX_WORKERS + 1)
    # at the ceiling a single chunk still runs on the calling thread
    est = run_bernoulli_trials(_ThresholdIndicator(0.5), 100, SeedSchedule(0),
                               workers=MAX_WORKERS)
    assert est == run_bernoulli_trials(_ThresholdIndicator(0.5), 100,
                                       SeedSchedule(0))


class _Sentinel(Exception):
    pass


class _RaisingIndicator:
    """Raises on the first chunk each worker evaluates."""

    n_draws = 1

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        raise _Sentinel


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_memory_does_not_grow_with_trials(workers):
    # 10**10 trials are 305 176 chunks: a list of them alone would take
    # tens of MB, one worker's workspace of 3 rows takes 0.75 MiB, and the
    # workers share a ramp of 0.25 MiB
    tracemalloc.start()
    try:
        with pytest.raises(_Sentinel):
            run_bernoulli_trials(_RaisingIndicator(), 10 ** 10, SeedSchedule(0),
                                 workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


class _OffThreadRaisingIndicator:
    """Raises on every chunk evaluated off the thread that built it."""

    n_draws = 1

    def __init__(self):
        self._home = threading.get_ident()

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        if threading.get_ident() != self._home:
            raise _Sentinel
        return u[:, 0] < 0.5


def test_a_worker_thread_exception_reaches_the_caller_after_every_join():
    before = threading.active_count()
    # two chunks: worker 0 counts its chunk on the calling thread, worker 1
    # raises on its own
    with pytest.raises(_Sentinel):
        run_bernoulli_trials(_OffThreadRaisingIndicator(), 2 * CHUNK_TRIALS,
                             SeedSchedule(0), workers=2)
    assert threading.active_count() == before


class _WaitsForTheOtherWorker:
    """Off the thread that built it, raises on the first chunk; on that
    thread, counts its chunks, and waits on the first until the other
    worker has raised."""

    n_draws = 1

    def __init__(self):
        self._home = threading.get_ident()
        self._failed = threading.Event()
        self.chunks = 0

    def evaluate_batch(self, u: np.ndarray) -> np.ndarray:
        if threading.get_ident() != self._home:
            self._failed.set()
            raise _Sentinel
        self.chunks += 1
        assert self._failed.wait(timeout=60)
        return u[:, 0] < 0.5


def test_workers_stop_at_the_first_failure():
    before = threading.active_count()
    indicator = _WaitsForTheOtherWorker()
    # 64 chunks, 32 a worker: once worker 1 has raised, worker 0 may finish
    # the chunk it is on and at most one more, begun before the error was
    # stored, but not the other 30
    with pytest.raises(_Sentinel):
        run_bernoulli_trials(indicator, 64 * CHUNK_TRIALS, SeedSchedule(0),
                             workers=2)
    assert indicator.chunks <= 2
    assert threading.active_count() == before


class _Declares:
    """An indicator of the given n_draws and, unless None, n_scratch,
    detecting every trial."""

    def __init__(self, n_draws, n_scratch=None):
        self.n_draws = n_draws
        if n_scratch is not None:
            self.n_scratch = n_scratch

    def evaluate_batch(self, u):
        return np.ones(len(u), dtype=bool)


_BAD_DECLARATIONS = [(2.5, None), (0, None), (True, None), ("1", None),
                     (1, 3), (1, -1), (1, 1.0), (1, True)]


@pytest.mark.parametrize("n_draws, n_scratch", _BAD_DECLARATIONS)
def test_a_bad_declaration_is_a_value_error_on_the_numpy_path(n_draws,
                                                              n_scratch):
    with pytest.raises(ValueError, match="n_draws >= 1 and n_scratch"):
        run_bernoulli_trials(_Declares(n_draws, n_scratch), 10,
                             SeedSchedule(0))


def test_numpy_integers_declare_draws_and_scratch():
    assert run_bernoulli_trials(_Declares(np.int64(2), np.uint8(2)), 10,
                                SeedSchedule(0)).successes == 10


_DECLARATION_PROBE = """
import json, sys
from patrolgeom.montecarlo import SeedSchedule, run_bernoulli_trials


class Declares:
    def __init__(self, n_draws, n_scratch=None):
        self.n_draws = n_draws
        if n_scratch is not None:
            self.n_scratch = n_scratch

    def count_lanes(self, words, m):
        return m


out = []
for n_draws, n_scratch in json.loads(sys.argv[1]):
    try:
        run_bernoulli_trials(Declares(n_draws, n_scratch), 10, SeedSchedule(0))
        out.append("ran")
    except Exception as err:
        out.append(type(err).__name__)
out.append(run_bernoulli_trials(Declares(2, 2), 10, SeedSchedule(0)).successes)
print(json.dumps([out, "numpy" in sys.modules]))
"""


def test_a_bad_declaration_is_a_value_error_on_the_lane_path():
    # a fresh process, where numpy is not loaded, so a small request of an
    # indicator with count_lanes takes the lane path
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parent.parent / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _DECLARATION_PROBE,
                           json.dumps(_BAD_DECLARATIONS)], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert json.loads(proc.stdout) == [
        ["ValueError"] * len(_BAD_DECLARATIONS) + [10], False]


def test_two_needle_workers_hold_one_small_workspace_each():
    # each worker holds 4 rows of CHUNK_TRIALS floats, 1 MiB, and both share
    # one ramp of 0.25 MiB; with the needle's own scratch rows and separate
    # seeding buffers a run took about 4 MiB
    montecarlo._ramp.cache_clear()  # so the ramp is made, and counted, here
    tracemalloc.start()
    try:
        est = buffon_mc(NeedleProblem(0.6, 1.3), 2 * CHUNK_TRIALS, 1,
                        workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < est.successes < est.trials
    assert peak < 2.5 * 2 ** 20


def test_runner_matches_a_manual_count_across_chunk_boundaries():
    trials = CHUNK_TRIALS + 123
    sched = SeedSchedule(13)
    manual = sum(1 for i in range(trials)
                 if sched.trial_source(i).uniform() < 0.25)
    est = run_bernoulli_trials(_ThresholdIndicator(0.25), trials, sched)
    assert est.successes == manual


def test_interval_coverage_near_nominal_level():
    # 100 independent estimates of a p = 0.3 coin; the 95% interval should
    # cover the truth almost every time (deterministic given the seeds).
    p = 0.3
    covered = 0
    for rep in range(100):
        est = run_bernoulli_trials(_ThresholdIndicator(p), 1000,
                                   SeedSchedule(1000 + rep))
        if est.ci_low <= p <= est.ci_high:
            covered += 1
    assert covered >= 93


# ---- the package's batch indicators on the in-place pipeline ----

_CIRCLE = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
_SEGMENT = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
_ATOMS = RadiusDistribution.from_atoms([(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)])


def _circle_reference(u):
    lo, length = _detection_arc(_CIRCLE)
    period = TWO_PI / _CIRCLE.n
    return np.mod(u[:, 0] * period - lo, period) <= length


def _segment_reference(u):
    # the offset b - a, uniform on one period whatever a is
    s = _SEGMENT
    period = 2.0 * s.R / s.n
    x = np.mod(u[:, 0] * period + s.v * s.r / s.u, period)
    return np.minimum(x, period - x) <= s.r / math.sin(math.atan2(s.u, s.v))


def _needle_reference(u):
    return 0.6 * np.sin(u[:, 1] * math.pi) >= u[:, 0] * 1.3


def _random_radius_reference(u):
    cum = np.cumsum([p for _, p in _ATOMS.atoms])
    arcs = [_detection_arc(CircularPatrolScenario(
                R=k * _CIRCLE.R, r=_CIRCLE.r, n=_CIRCLE.n, v=_CIRCLE.v,
                u=_CIRCLE.u))
            for k, _ in _ATOMS.atoms]
    lo = np.array([a for a, _ in arcs])
    length = np.array([b for _, b in arcs])
    idx = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), lo.size - 1)
    period = TWO_PI / _CIRCLE.n
    return np.mod(u[:, 1] * period - lo[idx], period) <= length[idx]


# (indicator, out-of-place formula with the same floating-point operations)
_INDICATORS = {
    "circle": (lambda: circular._indicator(_CIRCLE), _circle_reference),
    "segment": (lambda: linear._indicator(_SEGMENT), _segment_reference),
    "needle": (lambda: _NeedleIndicator(0.6, 1.3), _needle_reference),
    "random_radius": (lambda: randomradius._indicator(_CIRCLE, _ATOMS),
                      _random_radius_reference),
}


def _runner_block(indicator, u):
    """The draws u laid out as the runner hands them to indicator: one
    contiguous row per draw, then the indicator's scratch rows, transposed."""
    rows = np.empty((u.shape[1] + getattr(indicator, "n_scratch", 0),
                     u.shape[0]))
    rows[:u.shape[1]] = u.T
    return rows.T


@pytest.mark.parametrize("name", sorted(_INDICATORS))
def test_in_place_indicators_match_their_out_of_place_formulas(name):
    make, reference = _INDICATORS[name]
    indicator = make()
    u = SeedSchedule(404).uniform_block(0, 50_000, indicator.n_draws)
    expected = reference(u)
    assert 0 < np.count_nonzero(expected) < expected.size
    # strided columns (a row-major copy), then the contiguous ones
    runner = _runner_block(indicator, u)
    for block in (runner.copy(order="C"), runner):
        assert np.array_equal(indicator.evaluate_batch(block), expected)


@pytest.mark.parametrize("name", sorted(_INDICATORS))
def test_indicator_counts_ignore_chunk_size_and_workers(name, monkeypatch):
    make, _ = _INDICATORS[name]
    indicator = make()
    trials = 8192 + 300
    sched = SeedSchedule(8080)
    u = sched.uniform_block(0, trials, indicator.n_draws)
    expected = int(np.count_nonzero(
        indicator.evaluate_batch(_runner_block(indicator, u))))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave worker threads as much as possible
    try:
        for chunk in (1, 7, 8192, CHUNK_TRIALS, trials + 1):
            monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
            for workers in (1, 2, 3):
                est = run_bernoulli_trials(indicator, trials, sched, workers)
                assert est.successes == expected, (chunk, workers)
    finally:
        sys.setswitchinterval(switch)


def test_fold_models_keep_their_success_counts():
    # the counts of the shared fold kernel at REF, 10**5 trials, seed 1729
    assert mc_probability(_CIRCLE, 100_000, 1729).successes == 35375
    assert mc_probability_linear(_SEGMENT, 100_000, 1729).successes == 55824
    assert mc_probability_random_radius(
        _CIRCLE, _ATOMS, 100_000, 1729).successes == 36528


@pytest.mark.parametrize("trials,workers,message", [
    (1000.0, 1, "trials must be an integer"),
    (True, 1, "trials must be an integer"),
    (1000, 1.0, "workers must be an integer"),
    (1000, True, "workers must be an integer"),
], ids=["float-trials", "bool-trials", "float-workers", "bool-workers"])
def test_run_sizes_must_be_integers(trials, workers, message):
    circular = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
    linear = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
    dist = RadiusDistribution.from_atoms([(0.9, 0.5), (1.1, 0.5)])
    for run in (lambda: mc_probability(circular, trials, 1, workers),
                lambda: mc_probability_linear(linear, trials, 1, workers),
                lambda: mc_probability_random_radius(circular, dist, trials, 1,
                                                     workers),
                lambda: buffon_mc(NeedleProblem(1.0, 1.0), trials, 1, workers)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run()
    assert mc_probability(circular, np.int64(1000), 1, np.int64(1)).trials == 1000


# ---- seeds ----

@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int32(5)],
                         ids=["int64", "uint64", "int32"])
def test_a_numpy_integer_seed_reads_as_the_equal_int(seed):
    process = PiecewiseRadiusProcess(states=(0.8, 1.2), dwell=1.0,
                                     horizon=200.0, transition="random")
    indicator = circular._indicator(_CIRCLE)
    assert (_count_scalar(indicator, 1000, SeedSchedule(seed))
            == _count_scalar(indicator, 1000, SeedSchedule(5)))
    assert mc_probability(_CIRCLE, 1000, seed).successes == 333
    for run in (lambda k: mc_probability_linear(_SEGMENT, 1000, k),
                lambda k: mc_probability_random_radius(_CIRCLE, _ATOMS, 1000, k),
                lambda k: buffon_mc(NeedleProblem(1.0, 1.3), 1000, k),
                lambda k: ergodic_time_average(process, k),
                lambda k: SeedSchedule(k).trial_key(3),
                lambda k: SeedSchedule(k).uniform_block(2, 9, 2).tolist()):
        assert run(seed) == run(5)


class _UnreachedIndicator:
    """Fails the test if a trial is ever evaluated."""

    n_draws = 1

    def evaluate_batch(self, u):
        raise AssertionError("a trial was evaluated")

    def count_lanes(self, words, m):
        raise AssertionError("a trial was evaluated")


@pytest.mark.parametrize("seed", [True, False, 2.5, 5.0, "5", None],
                         ids=["true", "false", "float", "integral-float",
                              "str", "none"])
def test_a_seed_that_is_not_an_integer_is_a_value_error(seed):
    process = PiecewiseRadiusProcess(states=(0.8, 1.2), dwell=1.0,
                                     horizon=200.0, transition="random")
    schedule = SeedSchedule(seed)
    for run in (lambda: _count_scalar(_UnreachedIndicator(), 10, schedule),
                lambda: run_bernoulli_trials(_UnreachedIndicator(), 10,
                                             schedule),
                lambda: run_bernoulli_trials(_UnreachedIndicator(),
                                             3 * CHUNK_TRIALS, schedule, 2),
                lambda: mc_probability(_CIRCLE, 10, seed),
                lambda: mc_probability_linear(_SEGMENT, 10, seed),
                lambda: mc_probability_random_radius(_CIRCLE, _ATOMS, 10, seed),
                lambda: buffon_mc(NeedleProblem(1.0, 1.3), 10, seed),
                lambda: ergodic_time_average(process, seed),
                lambda: schedule.trial_key(0),
                lambda: schedule.trial_source(0),
                lambda: schedule.uniform_block(0, 4, 1)):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            run()


# ---- the scalar path: the same counts without numpy ----

def _lane_words(columns):
    """(words, m) for count_lanes: trial i of each column of ticks in lane i
    of its draw's word, tick k < 2**53 as itself, whose draw is k*2**-53;
    at most _LANES trials."""
    m = len(columns[0])
    assert 1 <= m <= _LANES
    assert all(0 <= k < 2 ** 53 for ticks in columns for k in ticks)
    return [sum(k << 128 * i for i, k in enumerate(ticks))
            for ticks in columns], m


def _word_ticks(word, m):
    """The ticks of the first m lanes of a lane word, after checking that
    the word is an int whose lanes hold ticks below 2**53 alone."""
    assert type(word) is int and 0 <= word < 2 ** (128 * _LANES)
    lanes = [(word >> 128 * i) & (2 ** 128 - 1) for i in range(m)]
    assert all(lane < 2 ** 53 for lane in lanes)
    return lanes


_POINT_MASS = RadiusDistribution.from_atoms([(1.0, 1.0)])
_FOLD_MODELS = ("circle", "segment", "random_radius", "point_mass")


def _fold_indicator(model, e=0.05, w=2.0, n=10):
    """A fold model's indicator at R = 1, r/R = e (half that on the
    segment, whose 2r must stay below R), v/u = w and n vehicles."""
    if model == "segment":
        return linear._indicator(LinearPatrolScenario(
            R=1.0, r=e / 2.0, n=n, v=w, u=1.0))
    s = CircularPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0)
    if model == "circle":
        return circular._indicator(s)
    return randomradius._indicator(
        s, _ATOMS if model == "random_radius" else _POINT_MASS)


def _vector_count(indicator, trials, seed):
    # numpy is loaded in this process, so the runner takes the vector path
    assert "numpy" in sys.modules
    return run_bernoulli_trials(indicator, trials, SeedSchedule(seed)).successes


_SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.integers(0, 2 ** 64 - 1),
                   st.integers(2 ** 64, 2 ** 70))


# the models' space: r/R (half that on the segment), v/u and n
_RATIOS = st.floats(-3.0, math.log10(0.7)).map(lambda x: 10.0 ** x)
_SPEEDS = st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x))
_FLEETS = st.one_of(st.integers(1, 100), st.integers(1, 10 ** 6))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(_FOLD_MODELS), _RATIOS, _SPEEDS, _FLEETS,
       st.integers(1, 300), _SEEDS)
def test_scalar_and_vector_paths_count_the_same_successes(model, e, w, n,
                                                          trials, seed):
    indicator = _fold_indicator(model, e, w, n)
    assert (_count_scalar(indicator, trials, SeedSchedule(seed))
            == _vector_count(indicator, trials, seed))


@pytest.mark.parametrize("trials,seed", [
    (1, -1), (CHUNK_TRIALS - 1, 2 ** 64 + 1), (CHUNK_TRIALS, 7),
    (CHUNK_TRIALS + 1, 2 ** 63 + 12345),
])
def test_scalar_and_vector_counts_agree_around_the_allowance(trials, seed):
    # at CHUNK_TRIALS the vector path crosses a chunk boundary, which is
    # also a boundary of the scalar path's blocks of _LANES trials; the
    # allowance itself is counted in draws, tested at its own boundary below
    for model in _FOLD_MODELS:
        indicator = _fold_indicator(model)
        assert (_count_scalar(indicator, trials, SeedSchedule(seed))
                == _vector_count(indicator, trials, seed)), model


@pytest.mark.parametrize("model", _FOLD_MODELS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_scalar_and_vector_counts_agree_at_the_draw_allowance(model, extra):
    # the largest request the allowance admits, and one trial either side
    indicator = _fold_indicator(model)
    trials = _SCALAR_DRAWS // indicator.n_draws + extra
    assert (_count_scalar(indicator, trials, SeedSchedule(2 ** 64 - 3))
            == _vector_count(indicator, trials, 2 ** 64 - 3))


def test_a_draw_past_the_last_cumulative_weight_takes_the_last_atom():
    # weights whose sum rounds below 1 leave draws past the last cumulative
    # weight; both paths pick the last atom for them, as a sum of exactly
    # 1 would place them
    def atoms(weights):
        return circular._FoldIndicator(10, TWO_PI, (0.0, -0.3), (0.2, 0.5),
                                       weights)

    short, whole = atoms((0.5, 0.4)), atoms((0.5, 0.5))
    expected = _count_scalar(whole, 5000, SeedSchedule(3))
    assert _count_scalar(short, 5000, SeedSchedule(3)) == expected
    assert _vector_count(short, 5000, 3) == expected
    assert _covers_count(short, SeedSchedule(3), 5000) == expected


def test_a_trial_on_the_window_edge_is_detected_on_both_paths():
    # x = 2*pi*0.5 = pi exactly, so (x - lo) mod period = length: tangency
    # counts as detection; the lane path takes the draws 0.5 and 0.75 as
    # their ticks, 2**52 and 3*2**51
    indicator = circular._FoldIndicator(1, TWO_PI, 0.0, math.pi)
    assert indicator.count_lanes(*_lane_words([[2 ** 52, 3 * 2 ** 51]])) == 1
    assert indicator.evaluate_batch(np.array([[0.5], [0.75]])).tolist() == [
        True, False]


def test_a_draw_on_a_cumulative_weight_takes_the_next_atom_on_both_paths():
    # cumulative weights 0.25, 0.75, 1; the windows [0, 1], [0, 3], [0, 4]
    # hold x = 2*pi*0.375 ~ 2.36 in the last two atoms only
    indicator = circular._FoldIndicator(1, TWO_PI, (0.0, 0.0, 0.0),
                                        (1.0, 3.0, 4.0), (0.25, 0.5, 0.25))
    # the lane path takes each draw as its tick, u*2**53
    picks = [0.0, 0.25, 0.75, 0.999]
    assert [indicator.count_lanes(*_lane_words([[int(pick * 2 ** 53)],
                                                [3 * 2 ** 50]]))
            for pick in picks] == [0, 1, 1, 1]
    u = np.column_stack([picks, [0.375] * len(picks)])
    assert indicator.evaluate_batch(u).tolist() == [False, True, True, True]


def _batch_flags(indicator, columns):
    """Each trial's flag from evaluate_batch, given its draws tick*2**-53."""
    u = np.column_stack([np.array(ticks, dtype=float) * 2.0 ** -53
                         for ticks in columns])
    return indicator.evaluate_batch(u).tolist()


def _lane_flags(indicator, columns):
    """Each trial's flag from count_lanes, given the trial's ticks alone."""
    return [indicator.count_lanes(*_lane_words([[k] for k in ticks])) == 1
            for ticks in zip(*columns, strict=True)]


def _covers_flag(indicator, draws):
    """A trial's flag from covers, the one-position test that defines the
    fold test, given its draws: draw 0 picks the atom by the class
    docstring's rule, the number of kept cumulative weights at or below
    it, and the last draw times the period is the position."""
    atom = (0 if indicator._cum is None
            else bisect.bisect_right(indicator._cum, draws[0]))
    return indicator.covers(draws[-1] * indicator._period, atom)


def _covers_flags(indicator, columns):
    """Each trial's flag from covers, given its draws tick*2**-53."""
    return [_covers_flag(indicator, [k * 2.0 ** -53 for k in ticks])
            for ticks in zip(*columns, strict=True)]


def _covers_count(indicator, schedule, trials):
    """Successes of covers on the schedule's trials [0, trials), each
    flagged from its n_draws draws by `_covers_flag`."""
    return sum(_covers_flag(indicator,
                            [src.uniform() for _ in range(indicator.n_draws)])
               for src in map(schedule.trial_source, range(trials)))


def _assert_paths_flag_as_covers(indicator, columns):
    """count_lanes and evaluate_batch each flag the columns' trials as
    covers does, one trial at a time, and count_lanes a block at a time
    too; the flags."""
    flags = _covers_flags(indicator, columns)
    assert _lane_flags(indicator, columns) == flags
    assert _batch_flags(indicator, columns) == flags
    for lo in range(0, len(flags), _LANES):
        block = [column[lo:lo + _LANES] for column in columns]
        assert (indicator.count_lanes(*_lane_words(block))
                == sum(flags[lo:lo + _LANES]))
    return flags


@pytest.mark.parametrize("n", [10 ** 300, 10 ** 305, 17 * 10 ** 307],
                         ids=["1e300", "1e305", "1.7e308"])
def test_a_subnormal_tick_counts_as_the_float_draws(n):
    # the period 2/n lies below 2**-969, so period*2**-53 is subnormal and
    # inexact: the position fl(period*k*2**-53) keeps one value over runs
    # of ticks, and still never decreases in k, so the record has tick
    # intervals.  The ticks k across the window's far edge, stepped
    # through one by one, are flagged on both paths as covers flags them.
    # r sets p = 0.3
    indicator = linear._indicator(LinearPatrolScenario(
        R=1.0, r=0.3 / n * math.sin(math.atan2(1.0, 2.0)), n=n, v=2.0, u=1.0))
    period = indicator._period
    assert period * 2.0 ** -53 < sys.float_info.min
    edge = (indicator._los[0] + indicator._lengths[0]) % period
    k = round(edge / period * 2 ** 53)
    ticks = list(range(k - 300, k + 300))
    flags = _assert_paths_flag_as_covers(indicator, [ticks])
    assert True in flags and False in flags
    for seed in (1, 2 ** 64 - 1):
        schedule = SeedSchedule(seed)
        assert (_count_scalar(indicator, 5000, schedule)
                == _covers_count(indicator, schedule, 5000)
                == _vector_count(indicator, 5000, seed))


@pytest.mark.parametrize("weights", [(0.1, 0.2, 0.7), (0.6, 0.3, 0.1),
                                     (1 / 3, 1 / 3, 1 / 3)])
def test_draws_beside_and_on_a_cumulative_weight_pick_the_same_atom(weights):
    # the windows of 3, 1 and 3 radians hold x = 2*pi*0.375 ~ 2.36 but for
    # the middle atom.  The draws step across each kept cumulative weight c
    # one tick at a time, and where c*2**53 is a whole tick (as wherever
    # c >= 0.5) one lands on it, which takes the next atom
    indicator = circular._FoldIndicator(1, TWO_PI, (0.0, 0.0, 0.0),
                                        (3.0, 1.0, 3.0), weights)
    cum = indicator._cum
    picks = [k for c in cum for k in range(math.floor(c * 2 ** 53) - 2,
                                           math.ceil(c * 2 ** 53) + 3)]
    assert any(k * 2.0 ** -53 in cum for k in picks)
    assert _assert_paths_flag_as_covers(
        indicator, [picks, [3 * 2 ** 50] * len(picks)]) == [
        sum(k * 2.0 ** -53 >= c for c in cum) != 1 for k in picks]
    atoms = circular._FoldIndicator(10, TWO_PI, (0.0, -0.3, 0.1),
                                    (0.2, 0.5, 0.1), weights)
    assert (_count_scalar(atoms, 5000, SeedSchedule(4))
            == _covers_count(atoms, SeedSchedule(4), 5000)
            == _vector_count(atoms, 5000, 4))



@pytest.mark.parametrize("r,n", [(1e-308, 10 ** 308), (1e-310, 10 ** 308),
                                 (5e-324, 10 ** 300)],
                         ids=["1e-308", "1e-310", "5e-324"])
def test_a_circle_at_subnormal_r_over_R_counts_alike_on_both_paths(r, n):
    # a subnormal window in a period near 2**-1000: the record has tick
    # intervals, and its lane count and numpy flag each trial as its
    # one-position test does
    indicator = circular._indicator(CircularPatrolScenario(R=1.0, r=r, n=n,
                                                           v=2.0, u=1.0))
    schedule = SeedSchedule(6)
    ticks = [int(schedule.trial_source(i).uniform() * 2 ** 53)
             for i in range(2000)]
    _assert_paths_flag_as_covers(indicator, [ticks])
    assert (_count_scalar(indicator, 20000, schedule)
            == _covers_count(indicator, schedule, 20000)
            == _vector_count(indicator, 20000, 6))


def _bisected_ends(indicator, atom):
    """The atom's tick-interval ends found by plain bisection over all 2**53
    ticks, on the tests `_FoldIndicator._ticks` uses: y = fl(x - lo)
    reaching 0 and P, then covers failing within each region."""
    period, lo = indicator._period, indicator._los[atom]

    def first(a, b, test):
        while a < b:
            mid = (a + b) // 2
            a, b = (a, mid) if test(mid) else (mid + 1, b)
        return a

    starts = [first(0, 2 ** 53, lambda k: k * 2.0 ** -53 * period - lo >= t)
              for t in (0.0, period)]
    ends = []
    for a, b in zip([0, *starts], [*starts, 2 ** 53]):
        c = first(a, b, lambda k: not indicator.covers(k * 2.0 ** -53 * period,
                                                       atom))
        if a < c:
            ends += [a, c]
    return ends


@pytest.mark.parametrize("n,span,lo,length", [
    (1, 3.5e-323, -1e-323, 1.5e-323), (1, 2.0 ** -1060, -2.0 ** -1062,
                                       2.0 ** -1061),
    (3, 1e-320, 1e-321, 1e-322), (1, 1e-310, -3e-311, 5e-311),
    (7, 2.0 ** -1070, 0.0, 5e-324), (10, 3.0, 0.13, 0.11),
    (2 ** 60, 1.0, -2.0 ** -62, 2.0 ** -61)])
def test_the_tick_search_finds_the_ends_a_bisection_finds(n, span, lo, length):
    # a subnormal period holds one position over long runs of ticks, so
    # the estimate of an end in real arithmetic misses it by 222 to about
    # 2.3*10**15 ticks, below and above, on the first five records, and
    # the search steps out to it by doubling strides; on the last two,
    # normal periods, it misses by at most a tick.  Each path flags the
    # trials around every end as covers does
    indicator = circular._FoldIndicator(n, span, lo, length)
    ends = indicator._ticks(0)
    assert ends == _bisected_ends(indicator, 0)
    _assert_paths_flag_as_covers(indicator, _edge_columns(indicator, 0, ends,
                                                          steps=53))


def _edge_ticks(indicator, atom):
    """Ticks of the last draw that put a trial on an edge of the atom's
    window, lo (the wrap) or lo + length, taken into the period."""
    lo, length = indicator._los[atom], indicator._lengths[atom]
    period = indicator._period
    return sorted({round((edge / period) % 1.0 * 2 ** 53) % 2 ** 53
                   for edge in (lo, lo + length)})


def _atom_tick(indicator, atom, first=False):
    """A tick of draw 0 that picks the atom, its middle one or, with first,
    its lowest, which lies on the kept cumulative weight before it where
    that is a whole tick; 1/2 on a record without weights."""
    if indicator._cum is None:
        return 2 ** 52
    bounds = (0, *(math.ceil(c * 2 ** 53) for c in indicator._cum), 2 ** 53)
    return bounds[atom] if first else (bounds[atom] + bounds[atom + 1]) // 2


def _edge_columns(indicator, atom, ticks, first=False, steps=45):
    """Columns of ticks of trials that pick the atom (`_atom_tick`) and step
    across each of the given ticks of the last draw by 0 and 2**i ticks
    either way, i < steps."""
    moves = [0] + [sign * 2 ** i for i in range(steps) for sign in (-1, 1)]
    ticks = [(k + move) % 2 ** 53 for k in ticks for move in moves]
    return [ticks] if indicator.n_draws == 1 else [
        [_atom_tick(indicator, atom, first)] * len(ticks), ticks]


@pytest.mark.parametrize("model", _FOLD_MODELS + ("shifted_span_3",))
def test_the_integer_decision_flags_as_the_float_chain_across_each_edge(
        model):
    # each atom's ticks step across both edges of its window, the wrap at
    # lo included, by 0 and 2**i ticks either way, i < 45, and every trial
    # is flagged on both paths as covers flags it.  The edges are placed
    # from lo and length alone, not from the tick intervals.  The record of
    # span 3 has its window off the position 0, lo > 0, so that its y
    # starts below 0 (the circular module docstring's first region); it
    # keeps its id from when its draw 0 was a shift
    indicator = (circular._FoldIndicator(10, 3.0, 0.13, 0.11)
                 if model == "shifted_span_3" else _fold_indicator(model))
    flags = []
    for atom in range(len(indicator._los)):
        flags += _assert_paths_flag_as_covers(indicator, _edge_columns(
            indicator, atom, _edge_ticks(indicator, atom)))
    assert True in flags and False in flags


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(_FOLD_MODELS), _RATIOS, _SPEEDS, _FLEETS)
def test_count_lanes_flags_as_evaluate_batch_around_each_interval_end(
        model, e, w, n):
    # each atom's trials step across each end of its tick intervals by 0,
    # 1 and 2**i ticks either way, i < 53, with draw 0 on the atom's
    # lowest tick, on the weight before it where that is a whole tick, and
    # each path flags them as covers does.  A model's lo lies in
    # [-length, 0], so an atom has at most two intervals
    indicator = _fold_indicator(model, e, w, n)
    for atom, (_, ends) in enumerate(indicator._table):
        lo, length = indicator._los[atom], indicator._lengths[atom]
        assert -length <= lo <= 0.0 and len(ends) <= 4
        _assert_paths_flag_as_covers(indicator, _edge_columns(
            indicator, atom, ends, first=True, steps=53))


def _circle(r, n, v=2.0, R=1.0):
    return circular._indicator(CircularPatrolScenario(R=R, r=r, n=n, v=v,
                                                      u=1.0))


_ULP_WINDOW = math.nextafter(TWO_PI / 10, 0.0)
# one-atom records at the edges of the fold test's domain
_EDGE_RECORDS = {
    "saturated": lambda: _circle(0.2, 1000),
    "subnormal_e": lambda: _circle(1e-310, 10),
    "w_1e12": lambda: _circle(1e-300, 10, v=1e12),
    "n_1e13": lambda: _circle(4e-14, 10 ** 13),
    "ulp_window": lambda: circular._FoldIndicator(10, TWO_PI, -_ULP_WINDOW,
                                                  _ULP_WINDOW),
    "below_an_ulp_circle": lambda: _circle(1e-17, 2 ** 50, v=0.0),
    "below_an_ulp_segment": lambda: linear._indicator(LinearPatrolScenario(
        R=1.7408721375619056e17, r=1.0, n=2 ** 46, v=0.0, u=1.0)),
}


@pytest.mark.parametrize("name", sorted(_EDGE_RECORDS))
def test_edge_records_count_their_tick_intervals(name):
    # every trial around each interval end is flagged on both paths as
    # covers flags it, an atom has at most two intervals, and their share
    # of the 2**53 ticks, the Monte Carlo estimate's exact mean, lies within
    # a few ticks of exact(): per end, x and y = x - lo round by at most 2**-53
    # of P and of 2P, three ticks' worth, and the tick grid adds one, and
    # exact()'s n*L/span rounds twice, at most 2**-52 below 1
    indicator = _EDGE_RECORDS[name]()
    ends = indicator._table[0][1]
    assert len(ends) <= 4
    flags = _assert_paths_flag_as_covers(
        indicator, _edge_columns(indicator, 0, ends, steps=53))
    assert True in flags
    ticks = sum(b - a for a, b in zip(ends[::2], ends[1::2]))
    if ends == [0]:
        ticks = 2 ** 53
    bound = (4 * len(ends) + 2) * 2.0 ** -53
    assert abs(ticks / 2 ** 53 - indicator.exact()) <= bound


@pytest.mark.parametrize("model", _FOLD_MODELS)
def test_every_benchmark_mc_corner_keeps_its_lane_count(model):
    # the corners of the benchmark's Monte Carlo scenarios, r/R 0.005 to
    # 0.2, v/u 0 to 20 and n 1 to 1000: each record has tick intervals,
    # so circular_mc and segment_mc requests within the allowance skip
    # numpy, and a block counts on them as covers does
    for e, w, n in itertools.product((0.005, 0.2), (0.0, 20.0), (1, 1000)):
        record = _fold_indicator(model, e, w, n)
        assert (_count_scalar(record, _LANES, SeedSchedule(5))
                == _covers_count(record, SeedSchedule(5), _LANES)), (e, w, n)


def test_the_integer_plan_is_made_by_the_first_block_alone():
    # exact() never builds it, nor the tick intervals it spreads; a record
    # whose lo is not finite, or lies a period or more from 0 under a
    # shorter window, or whose period is not in (0, inf), has no tick
    # intervals and is a ValueError when it is made
    indicator = _fold_indicator("random_radius")
    indicator.exact()
    assert "_plan" not in vars(indicator) and "_table" not in vars(indicator)
    _count_scalar(indicator, 10, SeedSchedule(1))
    assert vars(indicator)["_plan"] is not None
    for span, lo, length in ((TWO_PI, math.nan, 1.0), (TWO_PI, 1e300, 1.0),
                             (TWO_PI, -1e300, 1.0), (TWO_PI, -TWO_PI, 1.0),
                             (0.0, 0.0, 1.0), (math.inf, 0.0, 1.0)):
        with pytest.raises(ValueError, match="^a fold record needs"):
            circular._FoldIndicator(1, span, lo, length)
    for lo, length in ((0.0, math.inf), (-1e300, math.inf), (0.0, 1e-300),
                       (0.0, math.nextafter(TWO_PI, 0.0)), (1.0, 0.5)):
        fit = circular._FoldIndicator(1, TWO_PI, lo, length)
        assert (_count_scalar(fit, 3000, SeedSchedule(2))
                == _covers_count(fit, SeedSchedule(2), 3000)
                == _vector_count(fit, 3000, 2)), (lo, length)


def test_an_atom_whose_window_spans_the_period_detects_each_lane_it_picks():
    atoms = circular._FoldIndicator(10, TWO_PI, (0.0, -0.3, 0.1),
                                    (0.2, TWO_PI / 10, 0.1), (0.3, 0.3, 0.4))
    # one interval of every tick: no end past tick 0
    assert atoms._plan[1][1][1:] == (True, ())
    for seed in (3, 4):
        assert (_count_scalar(atoms, 5000, SeedSchedule(seed))
                == _covers_count(atoms, SeedSchedule(seed), 5000)
                == _vector_count(atoms, 5000, seed))


def test_a_record_at_any_fleet_size_has_a_lane_count():
    # the 73-bit plan's margin grew with n and failed past about 3e9
    # vehicles, and at r/R = 1e-15; the tick intervals hold at any n
    for record in (_circle(1e-15, 10), _circle(4e-12, 10 ** 11),
                   _circle(4e-14, 10 ** 13)):
        assert (_count_scalar(record, 3000, SeedSchedule(8))
                == _covers_count(record, SeedSchedule(8), 3000)
                == _vector_count(record, 3000, 8))


def test_a_window_of_a_whole_period_reads_exactly_one():
    # n*(2*pi/n)/(2*pi) rounds below 1 at n = 75, 150 and 167, and so does
    # the saturated segment window at n = 49, whose closed form reads 1
    for n in (75, 150, 167):
        indicator = circular._FoldIndicator(n, TWO_PI, 0.0, TWO_PI / n)
        assert indicator.exact() == 1.0, n
    assert linear._indicator(LinearPatrolScenario(
        R=100.0, r=40.0, n=49, v=2.0, u=1.0)).exact() == 1.0


class _Recorder:
    """Records the draws the scalar path hands each trial, one tuple per
    trial out of each block's lane words, as the ticks of `_word_ticks`
    times 2**-53; detects none."""

    def __init__(self, n_draws):
        self.n_draws, self.seen = n_draws, []

    def count_lanes(self, words, m):
        assert len(words) == self.n_draws and 1 <= m <= _LANES
        columns = [_word_ticks(word, m) for word in words]
        self.seen.extend(tuple(k * 2.0 ** -53 for k in ticks)
                         for ticks in zip(*columns, strict=True))
        return 0


_LANE_SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.integers(2 ** 64, 2 ** 70),
                        st.integers(0, 2 ** 63 - 1).map(np.int64),
                        st.integers(0, 2 ** 64 - 1).map(np.uint64))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_LANE_SEEDS, st.integers(1, 3),
       st.sampled_from([1, _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 17]))
def test_lane_draws_equal_trial_source_draws(seed, n_draws, trials):
    schedule = SeedSchedule(seed)
    recorder = _Recorder(n_draws)
    assert _count_scalar(recorder, trials, schedule) == 0
    sources = map(schedule.trial_source, range(trials))
    assert recorder.seen == [tuple(src.uniform() for _ in range(n_draws))
                             for src in sources]
    key = schedule.trial_key(trials)
    source = TrialSource(key)
    assert list(_trial_draws(key, trials)) == [source.uniform()
                                               for _ in range(trials)]


def _python_calls(run) -> int:
    """Python frames entered while run() runs, counted by a profile hook."""
    calls = [0]

    def profile(frame, event, arg):
        calls[0] += event == "call"

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("model", _FOLD_MODELS)
def test_the_lane_path_enters_no_python_frame_per_trial(model):
    # a block of 1024 trials costs a few Python calls (the lane steps, the
    # seed read, count_lanes and the draw map), whatever its trials: seven
    # blocks more may add at most 32 calls a block, where one call per
    # trial adds 1024
    indicator = _fold_indicator(model)
    schedule = SeedSchedule(11)
    # the tick intervals are found once per record, by bisection, before
    # the first block: make them first, so that neither count holds them
    assert indicator._plan
    one = _python_calls(lambda: _count_scalar(indicator, _LANES, schedule))
    eight = _python_calls(lambda: _count_scalar(indicator, 8 * _LANES, schedule))
    assert eight - one <= 7 * 32


_ALLOWANCE_PROBE = """
import json, sys
from patrolgeom.montecarlo import _SCALAR_DRAWS
from patrolgeom.circular import mc_probability
from patrolgeom.linear import mc_probability_linear
from patrolgeom.randomradius import (RadiusDistribution,
                                     mc_probability_random_radius)
from patrolgeom.scenario import CircularPatrolScenario, LinearPatrolScenario
circle = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
segment = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
atoms = RadiusDistribution.from_atoms([(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)])
out = []
for run in (lambda: mc_probability(circle, 30000, 7),
            lambda: mc_probability_linear(segment, _SCALAR_DRAWS - 30000, 8),
            lambda: mc_probability_random_radius(circle, atoms, 1, 9),
            lambda: mc_probability(circle, 10, 10)):
    out.append([run().successes, "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_the_scalar_allowance_is_spent_across_requests():
    # a fresh process: the first two requests spend the allowance of draws
    # exactly (30 000 circle trials, then segment trials, one draw each),
    # the third's two draws (a randomized radius trial) no longer fit and
    # load numpy, and the fourth, though small, stays on numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _ALLOWANCE_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    expected = [
        mc_probability(_CIRCLE, 30000, 7).successes,
        mc_probability_linear(_SEGMENT, _SCALAR_DRAWS - 30000, 8).successes,
        mc_probability_random_radius(_CIRCLE, _ATOMS, 1, 9).successes,
        mc_probability(_CIRCLE, 10, 10).successes,
    ]
    assert json.loads(proc.stdout) == [[k, loaded] for k, loaded in zip(
        expected, [False, False, True, True])]


_UNFIT_PROBE = """
import json, sys
from patrolgeom.circular import mc_probability
from patrolgeom.montecarlo import SeedSchedule, run_bernoulli_trials
from patrolgeom.scenario import CircularPatrolScenario
class Below:
    n_draws = 1
    def evaluate_batch(self, u):
        return u[:, 0] < 0.4
reference = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
out = []
for run in (lambda: mc_probability(reference, 10, 3),
            lambda: run_bernoulli_trials(Below(), 5, SeedSchedule(3))):
    out.append([run().successes, "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_a_record_without_a_plan_is_counted_on_numpy():
    # a fresh process: a fold record counts without numpy, and an
    # indicator that offers no count_lanes (as the needle offers none)
    # loads numpy even for a few trials, with the allowance nearly whole
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _UNFIT_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    below = _ThresholdIndicator(0.4)
    assert json.loads(proc.stdout) == [
        [mc_probability(_CIRCLE, 10, 3).successes, False],
        [run_bernoulli_trials(below, 5, SeedSchedule(3)).successes, True]]
