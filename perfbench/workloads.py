"""Request lists of the four workloads, generated from the workload seed.

A workload is one fixed list of requests (a pass).  Each request is one
process the client starts: the package CLI, or for the randomized-radius
estimator, which the CLI has no command for, the one-call runner rrmc.py.
The seed draws the scenarios and the Monte Carlo seeds.  What sets a
request's cost (command, trial count, and the bands of v/u, r/R, n and p it
is drawn from) is fixed per slot, so passes of different seeds cost about
the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import checks

WORKLOADS = ("circular_mc", "segment_mc", "exact_interactive",
             "needle_calibration")


@dataclass(frozen=True)
class Request:
    """One process.  argv holds '{scenario}' where the scenario file's
    path goes; `check` names the checker in checks.CHECKERS, and `spec`
    holds what it needs.  `twin` names a request whose stdout must be
    byte-identical (same estimate at another worker count)."""

    rid: str
    runner: str  # "cli" or "rr"
    argv: tuple
    check: str
    spec: dict = field(hash=False)
    answers: int = 1
    trials: int = 0
    twin: Optional[str] = None

    @property
    def scenario(self) -> Optional[dict]:
        return self.spec.get("scenario")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _fleet(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(_log_uniform(rng, lo, hi + 1)))


def _circular(rng, speed_band, ratio_band, fleet_band, p_band):
    """Circular scenario with v/u log-uniform in speed_band (None: static
    ring), r/R log-uniform in ratio_band and n log-uniform in fleet_band,
    drawn until the reference probability lies in p_band."""
    for _ in range(100_000):
        R = _log_uniform(rng, 1.0, 100.0)
        u = _log_uniform(rng, 0.5, 2.0)
        v = 0.0 if speed_band is None else u * _log_uniform(rng, *speed_band)
        sc = {"kind": "circular", "R": R, "r": R * _log_uniform(rng, *ratio_band),
              "n": _fleet(rng, *fleet_band), "v": v, "u": u}
        if p_band[0] < checks.circular_reference(sc)[0] < p_band[1]:
            return sc
    raise RuntimeError("no circular scenario in the requested band")


def _atoms(rng):
    """Two or three radius multipliers with weights summing to 1, mean 1."""
    if rng.random() < 0.5:
        d = rng.uniform(0.05, 0.3)
        return [[1.0 - d, 0.5], [1.0 + d, 0.5]]
    d = rng.uniform(0.05, 0.25)
    return [[1.0 - d, 0.25], [1.0, 0.5], [1.0 + d, 0.25]]


def _mc_seed(rng):
    return str(rng.getrandbits(31))


def _cli(rid, argv, check, spec, answers=1, trials=0, twin=None):
    return Request(rid, "cli", tuple(argv), check, spec, answers, trials, twin)


_NO_TIMING = ("--no-timing",)
_SCEN = ("--scenario", "{scenario}")

# Kernel cost per trial grows with v/u, r/R and p, so each slot draws them
# from a narrow band of r/R in [0.005, 0.2], v/u in {0} or [0.1, 20] and
# p in (0.02, 0.98), with n in [1, 100]:
# (command, v/u band or None for the static ring, r/R band, p band, trials)
_CIRCULAR_MC_SLOTS = (
    ("mc", None, (0.005, 0.02), (0.05, 0.1), 250_000),
    ("mc", None, (0.05, 0.2), (0.3, 0.5), 100_000),
    ("mc", (0.1, 0.15), (0.01, 0.03), (0.1, 0.15), 200_000),
    ("mc", (0.5, 0.7), (0.02, 0.05), (0.5, 0.7), 100_000),
    ("mc", (6.0, 7.5), (0.01, 0.03), (0.2, 0.3), 100_000),
    ("mc", (17.0, 20.0), (0.005, 0.01), (0.7, 0.98), 100_000),
    ("compare", None, (0.02, 0.06), (0.1, 0.2), 100_000),
    ("compare", (0.3, 0.4), (0.1, 0.2), (0.3, 0.5), 100_000),
    ("rr", None, (0.005, 0.02), (0.02, 0.05), 100_000),
    ("rr", (3.0, 4.0), (0.1, 0.2), (0.55, 0.98), 100_000),
)


def _circular_mc(rng):
    out = []
    for i, (cmd, speed, ratio, p_band, trials) in enumerate(_CIRCULAR_MC_SLOTS):
        sc = _circular(rng, speed, ratio, (1, 100), p_band)
        mc = ("--trials", str(trials), "--seed", _mc_seed(rng))
        rid = f"{i:02d}-{cmd}"
        if cmd == "mc":
            out.append(_cli(rid, ("circular", "mc") + _SCEN + mc + _NO_TIMING,
                            "circular_mc", {"scenario": sc, "trials": trials},
                            trials=trials))
        elif cmd == "compare":
            out.append(_cli(rid, ("compare",) + _SCEN + mc + _NO_TIMING,
                            "compare", {"scenario": sc, "trials": trials},
                            answers=3, trials=trials))
        else:
            atoms = _atoms(rng)
            out.append(Request(rid, "rr", _SCEN + mc + ("--atoms", repr(atoms)),
                               "random_radius_mc",
                               {"scenario": sc, "trials": trials, "atoms": atoms},
                               trials=trials))
    return out


# Kernel cost per trial grows with n and p: (fleet-size band, p band, trials)
_SEGMENT_SLOTS = (
    ((1, 1), (0.1, 0.2), 250_000), ((1, 1), (0.4, 0.5), 250_000),
    ((9, 11), (0.1, 0.2), 50_000), ((9, 11), (0.6, 0.8), 50_000),
    ((90, 110), (0.1, 0.2), 5_000), ((90, 110), (0.6, 0.8), 5_000),
    ((900, 1100), (0.1, 0.2), 500), ((900, 1100), (0.6, 0.8), 500),
)


def _linear(rng, fleet_band, p_band, speed_band=(0.7, 0.8)):
    """Segment scenario with v/u log-uniform in speed_band, n log-uniform
    in fleet_band and r set so the closed-form p is uniform in p_band;
    redrawn until 2r < R."""
    for _ in range(100_000):
        R = _log_uniform(rng, 1.0, 100.0)
        u = _log_uniform(rng, 0.5, 2.0)
        v = u * _log_uniform(rng, *speed_band)
        n = _fleet(rng, *fleet_band)
        r = rng.uniform(*p_band) * R * checks.sin_alpha(v, u) / n
        if 2.0 * r < R:
            return {"kind": "linear", "R": R, "r": r, "n": n, "v": v, "u": u}
    raise RuntimeError("no segment scenario in the requested band")


def _segment_mc(rng):
    out = []
    for i, (fleet, p_band, trials) in enumerate(_SEGMENT_SLOTS):
        sc = _linear(rng, fleet, p_band)
        argv = (("linear", "mc") + _SCEN
                + ("--trials", str(trials), "--seed", _mc_seed(rng)) + _NO_TIMING)
        out.append(_cli(f"{i:02d}-linear-n{sc['n']}", argv, "linear_mc",
                        {"scenario": sc, "trials": trials}, trials=trials))
    return out


def _sweep(rid, sc, parameter, values, grid_argv):
    values = sorted(values)
    return _cli(rid, ("sweep",) + _SCEN
                + ("--parameter", parameter, "--estimators", "asymptotic,exact")
                + grid_argv, "sweep",
                {"scenario": sc, "parameter": parameter, "values": values},
                answers=2 * len(values))


def _log_grid(start, stop, steps):
    ratio = (stop / start) ** (1.0 / (steps - 1))
    return [start * ratio ** i for i in range(steps)]


# (label, v/u band or None, r/R band, fleet band)
_EXACT_SLOTS = (
    ("static", None, (1e-5, 0.3), (1, 100)),
    ("tiny", (0.1, 20.0), (1e-7, 1e-5), (1, 1000)),
    ("tiny", (0.1, 20.0), (1e-7, 1e-5), (1, 1000)),
    ("small", (0.1, 20.0), (1e-5, 1e-2), (1, 1000)),
    ("large", (0.1, 20.0), (1e-2, 0.3), (1, 30)),
    ("fast", (180.0, 200.0), (1e-3, 0.1), (1, 100)),
    ("fleet", (0.1, 2.0), (1e-7, 1e-5), (80_000, 100_000)),
)


def _exact_interactive(rng):
    out = []
    for label, band, ratio, fleet in _EXACT_SLOTS:
        sc = _circular(rng, band, ratio, fleet, p_band=(0.0, 0.98))
        out.append(_cli(f"{len(out):02d}-exact-{label}",
                        ("circular", "exact") + _SCEN + _NO_TIMING,
                        "circular_exact", {"scenario": sc}))

    sc = _circular(rng, (0.1, 20.0), (1e-7, 0.3), (1, 10), p_band=(0.0, 1.0))
    r0, r1 = 1e-7 * sc["R"], 0.3 * sc["R"]
    out.append(_sweep(f"{len(out):02d}-sweep-r", sc, "r", _log_grid(r0, r1, 6),
                      ("--start", repr(r0), "--stop", repr(r1), "--steps", "6",
                       "--log")))
    sc = _circular(rng, (0.1, 200.0), (1e-3, 0.05), (1, 10), p_band=(0.0, 1.0))
    v0, v1 = 0.1 * sc["u"], 200.0 * sc["u"]
    out.append(_sweep(f"{len(out):02d}-sweep-v", sc, "v", _log_grid(v0, v1, 5),
                      ("--start", repr(v0), "--stop", repr(v1), "--steps", "5",
                       "--log")))
    sc = _circular(rng, (0.1, 20.0), (1e-5, 1e-4), (1, 10), p_band=(0.0, 1.0))
    fleets = [1, 10, 100, 1000, 10_000, 100_000]
    out.append(_sweep(f"{len(out):02d}-sweep-n", sc, "n", fleets,
                      ("--values", ",".join(map(str, fleets)))))

    sc = _circular(rng, (0.1, 200.0), (1e-7, 0.3), (1, 100_000), p_band=(0.0, 1.0))
    out.append(_cli(f"{len(out):02d}-circular-asymptotic",
                    ("circular", "asymptotic") + _SCEN + _NO_TIMING,
                    "circular_asymptotic", {"scenario": sc}))
    sc = _linear(rng, (1, 1000), (0.05, 0.95), (0.1, 200.0))
    out.append(_cli(f"{len(out):02d}-linear-asymptotic",
                    ("linear", "asymptotic") + _SCEN + _NO_TIMING,
                    "linear_asymptotic", {"scenario": sc}))
    sc = _circular(rng, (0.1, 20.0), (1e-4, 0.1), (1, 100), p_band=(0.0, 1.0))
    atoms = _atoms(rng)
    out.append(_cli(f"{len(out):02d}-jensen",
                    ("jensen",) + _SCEN + ("--atoms", repr(atoms)) + _NO_TIMING,
                    "jensen", {"scenario": sc, "atoms": atoms}, answers=2))
    e = _log_uniform(rng, 1e-3, 0.3)
    out.append(_cli(f"{len(out):02d}-polar-image",
                    ("polar-image", "--r-over-R", repr(e), "--points", "720"),
                    "polar_image", {"r_over_R": e, "points": 720}))
    return out


_NEEDLE_TRIALS = (1_000_000, 2_000_000, 3_000_000, 5_000_000, 7_000_000,
                  10_000_000)


def _needle_calibration(rng, workers):
    out = []
    for i, trials in enumerate(_NEEDLE_TRIALS):
        L = _log_uniform(rng, 0.5, 2.0)
        l = L * rng.uniform(0.1, 1.0)
        spec = {"l": l, "L": L, "trials": trials}
        base = ("buffon", "--l", repr(l), "--L", repr(L), "--trials", str(trials),
                "--seed", _mc_seed(rng)) + _NO_TIMING
        one, two = f"{2 * i:02d}-buffon-w1", f"{2 * i + 1:02d}-buffon-w{workers}"
        out.append(_cli(one, base + ("--workers", "1"), "buffon", spec,
                        answers=2, trials=trials, twin=two))
        out.append(_cli(two, base + ("--workers", str(workers)), "buffon", spec,
                        answers=2, trials=trials, twin=one))
    return out


def generate(workload: str, seed: int, nproc: int = 2) -> list[Request]:
    """The request list of one pass; a pure function of its arguments.
    The second worker count of needle_calibration is min(2, nproc)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "circular_mc":
        return _circular_mc(rng)
    if workload == "segment_mc":
        return _segment_mc(rng)
    if workload == "exact_interactive":
        return _exact_interactive(rng)
    if workload == "needle_calibration":
        return _needle_calibration(rng, max(1, min(2, nproc)))
    raise ValueError(f"unknown workload {workload!r}")

