"""Measure the numpy-free lane path of the Monte Carlo runner.

    python3 tools/lane_costs.py
    python3 tools/lane_costs.py --break-even [--sizes D,D,...] [--seed S]

Without --break-even, prints each fold model's `_count_scalar` cost in ns
per trial in this process, the least of CALLS calls over TRIALS trials, at
R=100, r=5, n=10, v=2, u=1 (the segment n=5; the randomized radius atoms
(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)), each block counted on the
record's tick intervals.

With --break-even, runs one Monte Carlo request of each model per size,
given in draws (trials x the record's n_draws), in a fresh process, on the
lane path (the process's allowance lifted, numpy never loaded) and on
numpy (imported first), REPEATS times in shuffled order, and times each
whole process.  Per size it prints the median times and the median of
the paired differences lane - numpy; a least-squares line through those
medians gives each model's break-even, the draws where it crosses 0.
Last it prints the allowance those imply: the largest multiple of
CHUNK_TRIALS below every break-even, the rule `_SCALAR_DRAWS` follows.
The processes run from this checkout's src/ with OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
sys.path.insert(0, str(SRC))

from patrolgeom import circular, linear, randomradius  # noqa: E402
from patrolgeom.montecarlo import (CHUNK_TRIALS, SeedSchedule,  # noqa: E402
                                   _count_scalar, run_bernoulli_trials)
from patrolgeom.randomradius import RadiusDistribution  # noqa: E402
from patrolgeom.scenario import (CircularPatrolScenario,  # noqa: E402
                                 LinearPatrolScenario)

MODELS = ("circle", "segment", "randomized radius")
# the in-process timing: the least of CALLS calls over TRIALS trials (50
# lane blocks); the break-even's processes per model, path and size
TRIALS, CALLS, REPEATS = 51200, 5, 12

# a fresh process's request: the lane path with the allowance lifted, or
# numpy, loaded first
_PATHS = {"lane": "import patrolgeom.montecarlo as mc\n"
                  "mc._scalar_left = 10 ** 18\n",
          "numpy": "import numpy\n"}


def indicator(model: str):
    """The model's fold record at the scenario of the module docstring."""
    circle = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
    if model == "circle":
        return circular._indicator(circle)
    if model == "segment":
        return linear._indicator(LinearPatrolScenario(R=100.0, r=5.0, n=5,
                                                      v=2.0, u=1.0))
    return randomradius._indicator(circle, RadiusDistribution.from_atoms(
        [(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)]))


def run(model: str, trials: int) -> int:
    """One Monte Carlo request of the model at seed 7: its successes."""
    return run_bernoulli_trials(indicator(model), trials,
                                SeedSchedule(7)).successes


def ns_per_trial(model: str, trials: int, calls: int) -> float:
    """The least of `calls` timings of _count_scalar over `trials`, in ns
    per trial."""
    record, schedule, best = indicator(model), SeedSchedule(7), None
    for _ in range(calls):
        start = time.perf_counter()
        _count_scalar(record, trials, schedule)
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best / trials * 1e9


def _process_s(model: str, path: str, draws: int) -> float:
    """Wall seconds of one fresh process counting `draws` draws of the
    model on the path."""
    script = (f"import sys\nsys.path.insert(0, {str(TOOLS)!r})\n"
              + _PATHS[path] + "import lane_costs\n"
              + f"lane_costs.run({model!r}, "
              + f"{max(1, draws // indicator(model).n_draws)})")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    return time.perf_counter() - start


def break_even(sizes: list[int], differences: list[float]) -> float | None:
    """Where the least-squares line through (size, difference) crosses 0,
    or None where it does not rise."""
    mx, my = statistics.fmean(sizes), statistics.fmean(differences)
    sxx = sum((x - mx) ** 2 for x in sizes)
    slope = sum((x - mx) * (y - my) for x, y in zip(sizes, differences)) / sxx
    if not slope > 0.0:
        return None
    return mx - my / slope


def allowance(points: list[float | None]) -> int | None:
    """The largest multiple of CHUNK_TRIALS below every break-even."""
    if not points or None in points:
        return None
    return (math.ceil(min(points)) - 1) // CHUNK_TRIALS * CHUNK_TRIALS


def _fit(sizes: list[int], repeats: int, seed: int) -> None:
    runs = [(model, path, size) for model in MODELS for size in sizes
            for path in _PATHS]
    times: dict = {run: [] for run in runs}
    rng = random.Random(seed)
    for _ in range(repeats):
        rng.shuffle(runs)
        for run in runs:
            times[run].append(_process_s(*run))
    points = []
    print(f"{'model':<18} {'draws':>9} {'lane_s':>8} {'numpy_s':>8} "
          f"{'lane-np':>8}")
    for model in MODELS:
        medians = []
        for size in sizes:
            lane, numpy = (times[model, path, size] for path in _PATHS)
            medians.append(statistics.median(map(operator.sub, lane, numpy)))
            print(f"{model:<18} {size:>9} {statistics.median(lane):8.4f} "
                  f"{statistics.median(numpy):8.4f} {medians[-1]:8.4f}")
        points.append(break_even(sizes, medians) if len(sizes) > 1 else None)
    for model, point in zip(MODELS, points):
        print(f"break-even {model}: "
              + ("none" if point is None else f"{point:.0f} draws"))
    limit = allowance(points)
    print("allowance _SCALAR_DRAWS: " + (
        "none" if limit is None else
        f"{limit // CHUNK_TRIALS} * CHUNK_TRIALS = {limit} draws"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--break-even", action="store_true")
    parser.add_argument("--sizes", default="200000,350000,500000,650000,800000",
                        help="draws per request, comma-separated")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the shuffled process order")
    args = parser.parse_args(argv)
    if args.break_even:
        _fit([int(s) for s in args.sizes.split(",")], REPEATS, args.seed)
        return 0
    print(f"{'model':<18} {'ns/trial':>9}")
    for model in MODELS:
        print(f"{model:<18} {ns_per_trial(model, TRIALS, CALLS):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
