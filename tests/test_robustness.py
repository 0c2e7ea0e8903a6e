"""Standing robustness properties over every entry point.

Over the whole float range (R, r, v and u from subnormal to 1.8e308, n up
to 1e300) every public estimator returns a probability in [0, 1] and every
kinematic function a finite value, or the call raises ValueError
(ValidationError included) or OverflowError.  Every `cli.main` request,
extreme or malformed, exits 0, 1 or 2 without a traceback; an exit 1 prints
one stderr line, and an exit 0 prints a JSON report with no NaN or
Infinity, or CSV with no non-finite number.  Hypothesis runs derandomized,
so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from patrolgeom import (CircularPatrolScenario, CrossingSample,
                        LinearPatrolScenario, NeedleProblem,
                        RadiusDistribution, asymptotic_probability_randomized,
                        asymptotic_summary, asymptotic_summary_linear,
                        buffon_mc, buffon_probability, detects, detects_linear,
                        distance_to_vehicle, exact_probability,
                        exact_probability_linear,
                        exact_probability_random_radius, jensen_sides,
                        mc_probability, mc_probability_linear,
                        mc_probability_random_radius, object_position_rotating,
                        vehicle_position_linear)
from patrolgeom.circular import TWO_PI, _detection_arc
from patrolgeom.cli import _RECORD, main

ROBUST = settings(derandomize=True, deadline=None, max_examples=150,
                  suppress_health_check=[HealthCheck.filter_too_much])

TRIALS = 500
BIG = sys.float_info.max

positive = st.floats(5e-324, BIG)
fleets = st.one_of(st.integers(1, 100), st.integers(1, 10 ** 300))
fractions = st.floats(0.0, 1.0)
angles = st.floats(-1e6, 1e6)
seeds = st.integers(0, 2 ** 63)
DISTRIBUTIONS = [RadiusDistribution.from_atoms(atoms) for atoms in (
    [(1.0, 1.0)], [(0.9, 0.5), (1.1, 0.5)], [(0.25, 0.5), (1.75, 0.5)],
    [(1e-300, 0.5), (2.0 - 1e-300, 0.5)])]


def _outcome(call):
    """call's result, or None where it raises ValueError or OverflowError."""
    try:
        return call()
    except (ValueError, OverflowError):
        return None


def _probability(call) -> None:
    p = _outcome(call)
    assert p is None or 0.0 <= p <= 1.0, p


def _finite(call) -> None:
    values = _outcome(call)
    assert values is None or all(map(math.isfinite, values)), values


def _index(fraction: float, n: int) -> int:
    return min(int(fraction * n), n - 1)


@ROBUST
@given(positive, positive, st.one_of(st.just(0.0), positive), positive,
       fleets, fractions, fractions, angles, st.sampled_from(DISTRIBUTIONS),
       seeds)
def test_circular_entry_points_are_finite_or_raise(a, b, v, u, n, f_time,
                                                   f_index, psi, d, seed):
    r, R = sorted((a, b))
    assume(r < R)
    s = CircularPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    i = _index(f_index, n)
    t = f_time * min(BIG, (R / u) * (1.0 + r / R))
    _probability(lambda: exact_probability(s))
    _probability(lambda: asymptotic_summary(s).p_asym)
    _finite(lambda: (asymptotic_summary(s).chord_l,))
    _probability(lambda: mc_probability(s, TRIALS, seed).mean)
    _probability(lambda: exact_probability_random_radius(s, d))
    _probability(lambda: asymptotic_probability_randomized(s, d))
    _probability(lambda: mc_probability_random_radius(s, d, TRIALS, seed).mean)
    _finite(lambda: jensen_sides(d, r, R))
    _finite(lambda: vars(object_position_rotating(psi, t, s)).values())
    _finite(lambda: (distance_to_vehicle(psi, t, i, s),))
    assert _outcome(lambda: detects(psi, i, s)) in (True, False, None)


# (a, b, v, u, n): e = r/R = 1e-320 is subnormal and w = v/u = 1e310
# overflows; then e underflows to 0 and w = 1e600 overflows
SUBNORMAL_RATIO = (1e-320, 1.0, 1e300, 1e-10, 1)
VANISHING_RATIO = (5e-324, 1e10, 1e300, 1e-300, 1)


def _slack(e: float, u: float, v: float) -> float:
    """Relative slack of a closed form that reads e and sin(alpha) as
    floats: 8 ulp of each, which are coarse where they are subnormal."""
    sin_alpha = math.sin(math.atan2(u, v))
    return 8.0 * (math.ulp(e) / e + math.ulp(sin_alpha) / sin_alpha)


def _second_order(e: float, w: float) -> float:
    """c*e^2 + 0.09*e^4, the bound on the arc's relative excess over its
    first-order length 2e*sqrt(1 + w^2), c = S(3 - 5S + 3S^2)/6 with
    S = 1/(1 + w^2)."""
    S = 1.0 / (1.0 + w * w)
    return S * (3.0 - 5.0 * S + 3.0 * S * S) / 6.0 * e * e + 0.09 * e ** 4


@ROBUST
@given(positive, positive, st.one_of(st.just(0.0), positive), positive,
       fleets, st.sampled_from(DISTRIBUTIONS))
@example(*SUBNORMAL_RATIO, DISTRIBUTIONS[1])
@example(*VANISHING_RATIO, DISTRIBUTIONS[1])
def test_exact_exceeds_asymptotic_by_at_most_the_second_order_term(a, b, v,
                                                                   u, n, d):
    r, R = sorted((a, b))
    assume(r <= 0.2 * R)
    s = CircularPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    e, w = r / R, v / u
    asym = _outcome(lambda: asymptotic_summary(s).p_asym)
    if asym is not None:
        exact, slack = exact_probability(s), _slack(e, u, v)
        assert asym * (1.0 - slack) <= exact
        assert exact <= asym * (1.0 + _second_order(e, w) + slack)
    ks = [k for k, _ in d.atoms]
    asym = _outcome(lambda: asymptotic_probability_randomized(s, d))
    if asym is not None and e <= 0.2 * min(ks):
        # each atom k is a circle at scan ratio e/k; the closed form caps
        # the mixture, exact each atom
        exact = exact_probability_random_radius(s, d)
        slack = _slack(e, u, v)
        atom_bound = max(_second_order(e / k, w) for k in ks)
        assert exact <= asym * (1.0 + atom_bound + slack)
        if all(n * _detection_arc(s, k)[1] < TWO_PI for k in ks):
            assert asym * (1.0 - slack) <= exact


@ROBUST
@given(positive, positive, st.one_of(st.just(0.0), positive), positive,
       fleets, st.sampled_from(DISTRIBUTIONS), seeds)
@example(*SUBNORMAL_RATIO, DISTRIBUTIONS[1], 0)
@example(*VANISHING_RATIO, DISTRIBUTIONS[1], 0)
def test_mc_lies_within_four_standard_errors_of_exact(a, b, v, u, n, d, seed):
    r, R = sorted((a, b))
    assume(r < R)
    s = CircularPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    for exact, mc in (
            (lambda: exact_probability(s),
             lambda: mc_probability(s, TRIALS, seed)),
            (lambda: exact_probability_random_radius(s, d),
             lambda: mc_probability_random_radius(s, d, TRIALS, seed))):
        p, est = _outcome(exact), _outcome(mc)
        assert (p is None) == (est is None)
        if p is not None:
            # four standard errors, not the 95% interval, which one draw in
            # twenty misses; one trial's worth of slack keeps a single
            # success at p*trials << 1 from failing
            se = math.sqrt(p * (1.0 - p) / TRIALS)
            assert abs(est.mean - p) <= 4.0 * se + 1.0 / TRIALS


# Windows shorter than about one ulp of the span.  A position drawn at the
# span's magnitude resolves such a window only by how it aligns with the
# representable positions: drawn so, at 10^5 trials the circle's MC read
# 0.011-0.012 against exact 0.00358 and the segment's 0.0024-0.0026
# against 0.000404, 32-46 standard errors out.  The position is drawn
# within one period, x = (span/n)*u, which resolves them.
UNRESOLVED_WINDOWS = [
    CircularPatrolScenario(R=1.0, r=1e-17, n=2 ** 50, v=0.0, u=1.0),
    LinearPatrolScenario(R=1.7408721375619056e17, r=1.0, n=2 ** 46, v=0.0,
                         u=1.0),
]


@pytest.mark.parametrize("s", UNRESOLVED_WINDOWS, ids=["circle", "segment"])
def test_mc_resolves_a_window_below_one_ulp_of_the_span(s):
    trials = 100_000
    exact, mc = ((exact_probability, mc_probability)
                 if isinstance(s, CircularPatrolScenario)
                 else (exact_probability_linear, mc_probability_linear))
    p = exact(s)
    se = math.sqrt(p * (1.0 - p) / trials)
    for seed in range(3):
        assert abs(mc(s, trials, seed).mean - p) <= 4.0 * se + 1.0 / trials


def _within_four_standard_errors(exact, mc) -> None:
    """exact() and mc() both raise, or the estimate lies within four
    standard errors of exact, plus one trial's worth, as in the circle's
    property above."""
    p, est = _outcome(exact), _outcome(mc)
    assert (p is None) == (est is None)
    if p is not None:
        se = math.sqrt(p * (1.0 - p) / TRIALS)
        assert abs(est.mean - p) <= 4.0 * se + 1.0 / TRIALS


@ROBUST
@given(positive, positive, st.one_of(st.just(0.0), positive), positive,
       fleets, seeds)
@example(1.7408721375619056e17, 1.0, 0.0, 1.0, 2 ** 46, 0)
def test_segment_mc_lies_within_four_standard_errors_of_exact(a, b, v, u, n,
                                                              seed):
    r, R = sorted((a, b))
    assume(2.0 * r < R)
    s = LinearPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    _within_four_standard_errors(lambda: exact_probability_linear(s),
                                 lambda: mc_probability_linear(s, TRIALS,
                                                               seed))


# Trials of the property below: enough that a bias of a few times p at
# p = 1e-3 lies past four standard errors
SUB_ULP_TRIALS = 20_000


# log10 of an arc below one ulp of 2*pi: the alignment bias shows within
# a few decades of the ulp, and the rest of the float range is drawn too
SUB_ULP = math.log10(TWO_PI * 2.0 ** -53)


@ROBUST
@given(st.one_of(st.floats(SUB_ULP - 4.0, SUB_ULP), st.floats(-300.0, SUB_ULP)),
       st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), st.floats(-3.0, -0.5),
       st.booleans(), seeds)
def test_circle_mc_resolves_windows_below_one_ulp_of_the_span(log_e, log_w,
                                                              log_p, binary,
                                                              seed):
    # e = r/R and w = v/u set an arc L below 2*pi*2**-53, and n the fleet
    # whose n*L/(2*pi) is about p, or, with binary, the power of two
    # nearest it: a window that a position drawn at the span's magnitude
    # resolves only by how it aligns with the representable positions
    w = 0.0 if log_w == 0.0 else 10.0 ** log_w
    e = 10.0 ** log_e / (w + math.hypot(1.0, w))
    length = _detection_arc(CircularPatrolScenario(R=1.0, r=e, n=1, v=w,
                                                   u=1.0))[1]
    assume(0.0 < length < TWO_PI * 2.0 ** -53)
    n = 10.0 ** log_p * TWO_PI / length
    n = 2 ** round(math.log2(n)) if binary else max(1, round(n))
    s = CircularPatrolScenario(R=1.0, r=e, n=n, v=w, u=1.0)
    p, est = exact_probability(s), mc_probability(s, SUB_ULP_TRIALS, seed)
    se = math.sqrt(p * (1.0 - p) / SUB_ULP_TRIALS)
    assert abs(est.mean - p) <= 4.0 * se + 1.0 / SUB_ULP_TRIALS


@ROBUST
@given(positive, positive, st.one_of(st.just(0.0), positive), positive,
       fleets, fractions, fractions, fractions, st.floats(-BIG, BIG), seeds)
def test_linear_entry_points_are_finite_or_raise(a, b, v, u, n, f_a, f_b,
                                                 f_index, t, seed):
    r, R = sorted((a, b))
    assume(2.0 * r < R)
    s = LinearPatrolScenario(R=R, r=r, n=n, v=v, u=u)
    _probability(lambda: exact_probability_linear(s))
    _probability(lambda: asymptotic_summary_linear(s).p_asym)
    _finite(lambda: (asymptotic_summary_linear(s).chord_l,))
    _probability(lambda: mc_probability_linear(s, TRIALS, seed).mean)
    _finite(lambda: (vehicle_position_linear(_index(f_index, n), f_b * R, t,
                                             s),))
    sample = CrossingSample(a=f_a * R, b=2.0 * (f_b * (R / n)))
    assert _outcome(lambda: detects_linear(sample, s)) in (True, False, None)


@ROBUST
@given(positive, positive, seeds)
def test_needle_estimators_are_probabilities_or_raise(a, b, seed):
    l, L = sorted((a, b))
    problem = NeedleProblem(l=l, L=L)
    _probability(lambda: buffon_probability(problem))
    _probability(lambda: buffon_mc(problem, TRIALS, seed).mean)


# ---- the command line ----

# a valid request's values; _pick swaps one in eight for a value of a pool
REF = {"R": "100", "r": "5", "n": "10", "v": "2", "u": "1"}
NUMBERS = ["0", "-0", "5e-324", "1e-300", "0.5", "1", "2", "5", "100",
           "1e300", "1.7976931348623157e308", "1e309", "inf", "-inf", "nan",
           "-1", "abc", ""]
INTEGERS = ["0", "1", "3", "10", "-1", "1" + "0" * 300, "1e3", "3.5", "x"]
TRIALS_TEXT = ["1", "7", "500", "0", "-3", "1e2", "x"]
WORKERS = ["2", "64", "65", "0", "-1", "x"]
SEEDS = ["0", "-1", str(2 ** 64), "x"]
ATOMS = ["[[1, 1]]", "[[1e-300, 0.5], [2, 0.5]]", "[[0.5, 0.5], [1.5, 0.6]]",
         '[[1, "x"]]', "[[0, 1]]", "[1", "{}", "[]"]
SWEEP_VALUES = {"R": "50,100", "r": "1,2", "n": "1,3", "v": "0.5,1",
                "u": "1,2"}
MALFORMED = ["", "{", "[1, 2]", '"text"', "NaN", "{}"]
# values a scenario or distribution file may hold in place of a good one
JSON_VALUES = st.one_of(
    st.sampled_from([0, 1, 10, -1, 10 ** 300, 10 ** 400, 0.5, 5e-324, 1e308,
                     1.7976931348623157e308, "5", "circular", "linear", None,
                     True, [], {}]),
    st.floats(), st.integers())
# circular's and linear's modes, in help order, from the CLI's table
MODES = {kind: tuple(name for k, name in _RECORD if k == kind)
         for kind, _ in _RECORD}


def _pick(draw, good, pool):
    """good, or one time in eight a value of pool."""
    swap = draw(st.integers(0, 7)) == 0
    return draw(st.sampled_from(pool)) if swap else good


def _json_file(draw, path, data) -> str:
    """path, holding data with some values swapped or keys dropped, or now
    and then malformed text."""
    data = dict(data)
    for key in list(data):
        change = draw(st.integers(0, 5))
        if change == 0:
            data[key] = draw(JSON_VALUES)
        elif change == 1:
            del data[key]
    text = (json.dumps(data) if draw(st.integers(0, 4))
            else draw(st.sampled_from(MALFORMED)))
    path.write_text(text, encoding="utf-8")
    return str(path)


def _scenario(draw, folder, kind) -> list:
    """A scenario from a file with inline overrides, or inline alone."""
    fields = list(REF)
    argv = []
    if draw(st.booleans()):
        data = {"kind": kind, **{k: json.loads(v) for k, v in REF.items()}}
        path = folder / "scenario.json"
        argv += ["--scenario", _json_file(draw, path, data)]
        fields = draw(st.lists(st.sampled_from(fields), unique=True))
    for key in fields:
        if draw(st.integers(0, 9)):  # now and then a field goes missing
            pool = INTEGERS if key == "n" else NUMBERS
            argv += [f"--{key}", _pick(draw, REF[key], pool)]
    return argv


@st.composite
def requests(draw, folder):
    """A cli.main argv for one command: mostly valid values, with extreme
    and malformed ones inline and in scenario and distribution files."""
    command = draw(st.sampled_from(["buffon", "circular", "linear", "jensen",
                                    "sweep", "compare", "polar-image"]))
    argv = [command]
    if command == "polar-image":
        argv += ["--r-over-R", _pick(draw, "0.1", NUMBERS),
                 "--points", _pick(draw, "20", ["2", "1", "0", "-5", "x"])]
        return argv + (["--approx"] if draw(st.booleans()) else [])
    if command in MODES:
        argv.append(draw(st.sampled_from(MODES[command])))
    if command == "buffon":
        argv += ["--l", _pick(draw, "0.6", NUMBERS),
                 "--L", _pick(draw, "1.3", NUMBERS)]
    else:
        kind = (command if command in MODES
                else draw(st.sampled_from(list(MODES)))
                if command in ("sweep", "compare") else "circular")
        argv += _scenario(draw, folder, kind)
    if command in ("buffon", "sweep", "compare") or "mc" in argv[1:2]:
        argv += ["--trials", _pick(draw, "200", TRIALS_TEXT),
                 "--workers", _pick(draw, "1", WORKERS),
                 "--seed", _pick(draw, "7", SEEDS)]
    if command == "jensen":
        if draw(st.booleans()):
            path = folder / "distribution.json"
            data = {"atoms": [[0.9, 0.5], [1.1, 0.5]]}
            argv += ["--distribution", _json_file(draw, path, data)]
        else:
            argv += ["--atoms", _pick(draw, "[[0.9, 0.5], [1.1, 0.5]]", ATOMS)]
    if command == "sweep":
        param = draw(st.sampled_from(list(REF)))
        argv += ["--parameter", _pick(draw, param, ["x"])]
        if draw(st.booleans()):
            argv += ["--values", _pick(draw, SWEEP_VALUES[param],
                                       ["nan", "", "1,x", "1e308,1e-300"])]
        else:
            argv += ["--start", _pick(draw, "1", NUMBERS),
                     "--stop", _pick(draw, "3", NUMBERS),
                     "--steps", _pick(draw, "3", ["1", "0", "-2", "x"])]
            argv += ["--log"] if draw(st.booleans()) else []
        return argv + ["--estimators", _pick(draw, "asymptotic,exact,mc",
                                             ["exact", "mc", "bad"])]
    form = draw(st.sampled_from(["json", "csv"]))
    return argv + ["--format", _pick(draw, form, ["xml"]), "--no-timing"]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


def _assert_finite_csv(text: str) -> None:
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


def _assert_clean_exit(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1, err
    if code == 0:
        if out.startswith("{"):
            json.loads(out, parse_constant=_reject_constant)
        else:
            _assert_finite_csv(out)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("requests")


@ROBUST
@given(data=st.data())
def test_every_request_exits_cleanly(folder, data):
    _assert_clean_exit(data.draw(requests(folder), label="argv"))


# requests that reach the float range's edges, which random draws seldom
# combine: sin(alpha) underflowing, n*L and pi*L overflowing, huge sweeps
EXTREMES = [
    ["circular", "asymptotic", "--R", "100", "--r", "5", "--n", "10",
     "--v", "1e308", "--u", "5e-324"],
    ["linear", "asymptotic", "--R", "100", "--r", "5", "--n", "10",
     "--v", "1e308", "--u", "5e-324"],
    ["jensen", "--R", "100", "--r", "5", "--n", "10", "--v", "1e308",
     "--u", "5e-324", "--atoms", "[[0.9, 0.5], [1.1, 0.5]]"],
    ["compare", "--R", "1.7e308", "--r", "1e308", "--n", "1" + "0" * 300,
     "--v", "1e308", "--u", "1e-300", "--trials", "10"],
    ["circular", "exact", "--R", "1e-323", "--r", "5e-324", "--n", "1",
     "--v", "0", "--u", "1"],
    ["buffon", "--l", "1.7e308", "--L", "1.7976931348623157e308",
     "--trials", "10"],
    ["sweep", "--parameter", "v", "--values", "1e-300,1e308", "--R", "100",
     "--r", "5", "--n", "10", "--u", "5e-324", "--estimators",
     "asymptotic,exact,mc", "--trials", "10"],
    ["sweep", "--parameter", "n", "--start", "1", "--stop", "1e300",
     "--steps", "3", "--log", "--R", "100", "--r", "5", "--v", "2", "--u",
     "1", "--estimators", "asymptotic,exact"],
]


@pytest.mark.parametrize("argv", EXTREMES, ids=[
    f"{argv[0]}-{i}" for i, argv in enumerate(EXTREMES)])
def test_extreme_requests_exit_cleanly(argv):
    _assert_clean_exit(argv)
