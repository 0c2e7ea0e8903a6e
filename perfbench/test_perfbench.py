"""Self-tests of the benchmark:  python3 -m pytest perfbench

The checkers must reject wrong answers, a workload seed must regenerate its
inputs exactly, and the metric names the benchmark prints must be those
BENCHMARK.json declares.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import checks
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MOVING = {"kind": "circular", "R": 10.0, "r": 0.1, "n": 5, "v": 2.0, "u": 1.0}
STATIC = dict(MOVING, v=0.0)
SEGMENT = {"kind": "linear", "R": 10.0, "r": 0.5, "n": 4, "v": 1.0, "u": 1.0}
ATOMS = [[0.9, 0.5], [1.1, 0.5]]
TRIALS = 100_000


def _report(results: dict) -> bytes:
    return json.dumps({"results": results}).encode()


def _estimate(p: float) -> dict:
    successes = round(p * TRIALS)
    return {"probability": successes / TRIALS, "successes": successes,
            "trials": TRIALS}


def _csv(header, rows) -> bytes:
    return ("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows])
            + "\n").encode()


def _per_vehicle(sc, circular=True):
    return sc["r"] / ((math.pi if circular else 1.0) * sc["R"]
                      * checks.sin_alpha(sc["v"], sc["u"]))


def _cases(shift: float):
    """(kind, spec, answers, stdout) per checker, every probability moved by
    `shift`; shift 0 gives the right answers."""
    ref_moving = checks.circular_reference(MOVING)[0] + shift
    ref_static = checks.circular_reference(STATIC)[0] + shift
    asym = checks.circular_asymptotic(MOVING) + shift
    rr = checks.random_radius_reference(MOVING, ATOMS)[0] + shift
    lin = checks.linear_reference(SEGMENT) + shift
    needle = checks.needle_reference(1.0, 2.0) + shift
    mean_inverse = sum(w / k for k, w in ATOMS)
    e = 0.1
    polar = [(2 * math.pi * i / 8,
              abs(complex(1 + e * math.sin(2 * math.pi * i / 8),
                          e * math.cos(2 * math.pi * i / 8))) + shift,
              math.atan2(e * math.cos(2 * math.pi * i / 8),
                         1 + e * math.sin(2 * math.pi * i / 8))) for i in range(8)]
    sweep_values = [1, 10]
    sweep_rows = []
    for n in sweep_values:
        sc = dict(MOVING, n=n)
        sweep_rows.append(("n", n, "asymptotic", checks.circular_asymptotic(sc) + shift))
        sweep_rows.append(("n", n, "exact", checks.circular_reference(sc)[0] + shift))
    return [
        ("circular_exact", {"scenario": MOVING}, 1,
         _report({"probability": ref_moving})),
        ("circular_exact", {"scenario": STATIC}, 1,
         _report({"probability": ref_static})),
        ("circular_mc", {"scenario": MOVING, "trials": TRIALS}, 1,
         _report(_estimate(ref_moving))),
        ("compare", {"scenario": MOVING, "trials": TRIALS}, 3,
         _report({"exact": {"probability": ref_moving}, "mc": _estimate(ref_moving),
                  "asymptotic": {"probability": asym}})),
        ("random_radius_mc", {"scenario": MOVING, "trials": TRIALS, "atoms": ATOMS},
         1, json.dumps(_estimate(rr)).encode()),
        ("circular_asymptotic", {"scenario": MOVING}, 1,
         _report({"probability": asym,
                  "m_min": math.ceil(1 / _per_vehicle(MOVING))})),
        ("linear_asymptotic", {"scenario": SEGMENT}, 1,
         _report({"probability": lin,
                  "m_min": math.ceil(1 / _per_vehicle(SEGMENT, False))})),
        ("linear_mc", {"scenario": SEGMENT, "trials": TRIALS}, 1,
         _report(_estimate(lin))),
        ("jensen", {"scenario": MOVING, "atoms": ATOMS}, 2,
         _report({"lhs": 0.01 * mean_inverse, "rhs": 0.01,
                  "asymptotic_fixed": asym,
                  "asymptotic_randomized":
                  checks.circular_asymptotic(MOVING) * mean_inverse + shift})),
        ("buffon", {"l": 1.0, "L": 2.0, "trials": TRIALS}, 2,
         _report({"analytic": needle, "mc": _estimate(needle)})),
        ("sweep", {"scenario": MOVING, "parameter": "n", "values": sweep_values},
         4, _csv(("parameter", "value", "estimator", "probability"), sweep_rows)),
        ("polar_image", {"r_over_R": e, "points": 8}, 1,
         _csv(("psi", "rho_norm", "phi"), polar)),
    ]


@pytest.mark.parametrize("case", _cases(0.0), ids=lambda c: c[0])
def test_checker_accepts_right_answers(case):
    kind, spec, answers, out = case
    got = checks.check_output(kind, spec, answers, 0, out)
    assert len(got) == answers and all(a.ok for a in got)


@pytest.mark.parametrize("case", _cases(0.05), ids=lambda c: c[0])
def test_checker_rejects_wrong_answers(case):
    kind, spec, answers, out = case
    got = checks.check_output(kind, spec, answers, 0, out)
    assert len(got) == answers and not all(a.ok for a in got)


@pytest.mark.parametrize("case", _cases(0.0)[:1], ids=lambda c: c[0])
def test_failed_exit_and_twin_mismatch_fail_every_answer(case):
    kind, spec, answers, out = case
    assert not any(a.ok for a in checks.check_output(kind, spec, answers, 1, out))
    assert not any(a.ok for a in checks.check_output(kind, spec, answers, 0, out,
                                                     twin_out=out + b" "))


@pytest.mark.parametrize("ratio,factor,known", [
    (1e-6, 0.0, True),  # arcs lost entirely
    (1e-6, 0.5, True),  # arcs shortened
    (1e-7, 1.01, True),  # within the cancellation error at r/R = 1e-7
    (1e-6, 1.01, False),  # 1% high is beyond it at r/R = 1e-6
    (1e-7, 1.5, False),
    (1e-6, math.inf, False),  # an answer of 1.0
    (1e-6, math.nan, False),
    (1e-4, 0.0, False),  # outside the tiny-radius regime
])
def test_only_the_known_defect_shape_is_exempt(ratio, factor, known):
    tiny = dict(MOVING, r=MOVING["R"] * ratio)
    ref = checks.circular_reference(tiny)[0]
    value = 1.0 if factor == math.inf else ref * factor
    miss = checks.check_output("circular_exact", {"scenario": tiny}, 1, 0,
                               _report({"probability": value}))
    assert miss == [checks.Answer(False, known_defect=known)]


def _pass(out: bytes, ok: bool) -> run.Pass:
    result = run.Result(0.1, 0.1, 30.0, 0, out, "", [])
    return run.Pass(0.1, {"00-req": result}, [checks.Answer(ok)])


def test_counts_repeat_per_seed_and_outputs_must_repeat():
    same = [_pass(b"1", False), _pass(b"1", False), _pass(b"1", False)]
    assert run._count_failures(same) == (1, 1, False)
    assert run._count_failures([_pass(b"1", True)] * 4) == (1, 0, True)
    assert run._count_failures([_pass(b"1", True), _pass(b"2", True)]) == (1, 0, False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def _run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "needle_calibration", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
