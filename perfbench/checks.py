"""Reference answers and the checks that compare each request's output
with them.

Every reference is a closed form evaluated here, never by the package under
test:

- static ring (v = 0): p = min(1, n*asin(r/R)/pi), exact;
- moving ring: p = min(1, n*r/(pi*R*sin(alpha))), sin(alpha) = u/hypot(u, v),
  accurate to a relative max(r/R, 1e-3);
- randomized radius: the atom-weighted mixture of the two forms above at
  radius k*R;
- segment patrol: p = min(1, n*r/(R*sin(alpha))), exact;
- needle: p = 2*l/(pi*L), exact.

An exact-solver answer must lie within the reference's slack (1e-6 absolute
for an exact form, relative max(r/R, 1e-3) for the asymptotic one).  A Monte
Carlo answer may in addition differ by 5 standard errors, computed from the
reference probability and the requested trial count.  Closed forms the
program prints itself (asymptotic, jensen, polar image) must match to
round-off.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

EXACT_ABS_TOL = 1e-6
RATIO_FLOOR = 1e-3
SE_LIMIT = 5.0
ROUNDOFF_REL = 1e-9

# Exact circular answers with r/R below this ratio hit ROADMAP item 4's
# defect, which has two known shapes.  The squared distance
# rho^2 + R^2 - 2 R rho cos(delta) cancels to a relative error near
# eps/(r/R)^2; answers were seen off by up to 1.24 times that, mostly high
# (2% at r/R = 1e-7), and CANCELLATION_FACTOR leaves a margin.  Arcs
# narrower than the solver's angular grid are lost, so the answer falls
# short of the reference, down to 0.0.  A miss of either shape counts as a
# failed answer but does not make the run incorrect; any other miss (NaN,
# outside [0, 1], or high by more than the cancellation allows) does.
KNOWN_DEFECT_RATIO = 1e-5
CANCELLATION_FACTOR = 4.0


@dataclass(frozen=True)
class Answer:
    ok: bool
    known_defect: bool = False


def sin_alpha(v: float, u: float) -> float:
    return u / math.hypot(u, v)


def circular_reference(sc: dict) -> tuple[float, float]:
    """(probability, absolute slack) for a circular scenario."""
    R, r, n, v, u = sc["R"], sc["r"], sc["n"], sc["v"], sc["u"]
    if v == 0.0:
        return min(1.0, n * math.asin(r / R) / math.pi), EXACT_ABS_TOL
    p = min(1.0, n * r / (math.pi * R * sin_alpha(v, u)))
    return p, max(r / R, RATIO_FLOOR) * p


def circular_asymptotic(sc: dict) -> float:
    return min(1.0, sc["n"] * sc["r"]
               / (math.pi * sc["R"] * sin_alpha(sc["v"], sc["u"])))


def random_radius_reference(sc: dict, atoms: list) -> tuple[float, float]:
    p = slack = 0.0
    for k, w in atoms:
        pk, sk = circular_reference(dict(sc, R=k * sc["R"]))
        p += w * pk
        slack += w * sk
    return p, slack


def linear_reference(sc: dict) -> float:
    return min(1.0, sc["n"] * sc["r"] / (sc["R"] * sin_alpha(sc["v"], sc["u"])))


def needle_reference(l: float, L: float) -> float:
    return 2.0 * l / (math.pi * L)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ROUNDOFF_REL * abs(ref) + 1e-15


def _mc_ok(value: float, trials: int, ref: float, slack: float) -> bool:
    se = math.sqrt(max(ref * (1.0 - ref), 0.0) / trials)
    return abs(value - ref) <= SE_LIMIT * se + slack


def known_defect_shape(ratio: float, value: float, ref: float) -> bool:
    """True when an exact answer at r/R = ratio misses its reference the
    way ROADMAP item 4's defect does (see KNOWN_DEFECT_RATIO)."""
    if not (ratio < KNOWN_DEFECT_RATIO and 0.0 <= value <= 1.0):
        return False
    cancellation = CANCELLATION_FACTOR * sys.float_info.epsilon / ratio ** 2
    return value < ref or value - ref <= cancellation * ref


def _exact_answer(sc: dict, value: float) -> Answer:
    ref, slack = circular_reference(sc)
    if abs(value - ref) <= slack:
        return Answer(True)
    return Answer(False, known_defect_shape(sc["r"] / sc["R"], value, ref))


def _mc_estimate(est: dict, trials: int, ref: float, slack: float) -> Answer:
    ok = (est["trials"] == trials
          and est["probability"] == est["successes"] / trials
          and _mc_ok(est["probability"], trials, ref, slack))
    return Answer(ok)


def _min_fleet_ok(m: int, per_vehicle: float) -> bool:
    return (m * per_vehicle >= 1.0 - ROUNDOFF_REL
            and (m - 1) * per_vehicle < 1.0 + ROUNDOFF_REL)


# ---- one checker per request kind: (spec, stdout) -> answers ----

def _check_circular_exact(spec, out):
    res = json.loads(out)["results"]
    return [_exact_answer(spec["scenario"], res["probability"])]


def _check_circular_mc(spec, out):
    res = json.loads(out)["results"]
    ref, slack = circular_reference(spec["scenario"])
    return [_mc_estimate(res, spec["trials"], ref, slack)]


def _check_compare(spec, out):
    res = json.loads(out)["results"]
    sc = spec["scenario"]
    ref, slack = circular_reference(sc)
    return [_exact_answer(sc, res["exact"]["probability"]),
            _mc_estimate(res["mc"], spec["trials"], ref, slack),
            Answer(_close(res["asymptotic"]["probability"],
                          circular_asymptotic(sc)))]


def _check_random_radius_mc(spec, out):
    res = json.loads(out)
    ref, slack = random_radius_reference(spec["scenario"], spec["atoms"])
    return [_mc_estimate(res, spec["trials"], ref, slack)]


def _check_circular_asymptotic(spec, out):
    res = json.loads(out)["results"]
    sc = spec["scenario"]
    per = sc["r"] / (math.pi * sc["R"] * sin_alpha(sc["v"], sc["u"]))
    return [Answer(_close(res["probability"], circular_asymptotic(sc))
                   and _min_fleet_ok(res["m_min"], per))]


def _check_linear_asymptotic(spec, out):
    res = json.loads(out)["results"]
    sc = spec["scenario"]
    per = sc["r"] / (sc["R"] * sin_alpha(sc["v"], sc["u"]))
    return [Answer(_close(res["probability"], linear_reference(sc))
                   and _min_fleet_ok(res["m_min"], per))]


def _check_linear_mc(spec, out):
    res = json.loads(out)["results"]
    return [_mc_estimate(res, spec["trials"], linear_reference(spec["scenario"]),
                         EXACT_ABS_TOL)]


def _check_jensen(spec, out):
    res = json.loads(out)["results"]
    sc = spec["scenario"]
    mean_inverse = math.fsum(w / k for k, w in spec["atoms"])
    ratio = sc["r"] / sc["R"]
    sides_ok = (_close(res["lhs"], ratio * mean_inverse)
                and _close(res["rhs"], ratio) and res["lhs"] >= res["rhs"])
    randomized = min(1.0, sc["n"] * sc["r"] * mean_inverse
                     / (math.pi * sc["R"] * sin_alpha(sc["v"], sc["u"])))
    return [Answer(sides_ok and _close(res["asymptotic_fixed"],
                                       circular_asymptotic(sc))),
            Answer(sides_ok and _close(res["asymptotic_randomized"],
                                       randomized))]


def _check_buffon(spec, out):
    res = json.loads(out)["results"]
    ref = needle_reference(spec["l"], spec["L"])
    return [Answer(_close(res["analytic"], ref)),
            _mc_estimate(res["mc"], spec["trials"], ref, EXACT_ABS_TOL)]


def _check_sweep(spec, out):
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    values = spec["values"]
    param = spec["parameter"]
    if len(rows) != 2 * len(values):
        return [Answer(False)] * (2 * len(values))
    answers = []
    for i, value in enumerate(values):
        pair = rows[2 * i:2 * i + 2]
        sc = dict(spec["scenario"])
        sc[param] = int(value) if param == "n" else value
        ok_pair = ({row["estimator"] for row in pair} == {"asymptotic", "exact"}
                   and all(_close(float(row["value"]), value) for row in pair))
        for row in pair:
            p = float(row["probability"])
            if not ok_pair:
                answers.append(Answer(False))
            elif row["estimator"] == "exact":
                answers.append(_exact_answer(sc, p))
            else:
                answers.append(Answer(_close(p, circular_asymptotic(sc))))
    return answers


def _check_polar_image(spec, out):
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    e, points = spec["r_over_R"], spec["points"]
    ok = len(rows) == points
    for i, row in enumerate(rows if ok else ()):
        psi = 2.0 * math.pi * i / points
        z = complex(1.0 + e * math.sin(psi), e * math.cos(psi))
        ok = ok and (abs(float(row["psi"]) - psi) <= 1e-12
                     and abs(float(row["rho_norm"]) - abs(z)) <= 1e-12
                     and abs(float(row["phi"]) - math.atan2(z.imag, z.real))
                     <= 1e-12)
    return [Answer(ok)]


CHECKERS = {
    "circular_exact": _check_circular_exact,
    "circular_mc": _check_circular_mc,
    "compare": _check_compare,
    "random_radius_mc": _check_random_radius_mc,
    "circular_asymptotic": _check_circular_asymptotic,
    "linear_asymptotic": _check_linear_asymptotic,
    "linear_mc": _check_linear_mc,
    "jensen": _check_jensen,
    "buffon": _check_buffon,
    "sweep": _check_sweep,
    "polar_image": _check_polar_image,
}


def check_output(kind: str, spec: dict, answers: int, returncode: int,
                 out: bytes, twin_out: Optional[bytes] = None) -> list[Answer]:
    """Answers of one request.  A nonzero exit, an unreadable report, a
    wrong answer count or a worker-count twin whose bytes differ fails every
    answer of the request."""
    failed = [Answer(False)] * answers
    if returncode != 0 or (twin_out is not None and twin_out != out):
        return failed
    try:
        got = CHECKERS[kind](spec, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return failed
    return got if len(got) == answers else failed
