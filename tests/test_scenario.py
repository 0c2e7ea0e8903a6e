"""Scenario records: validation, the inclination, JSON round-trips."""

import io
import json
import math
import sys

import numpy as np
import pytest

from patrolgeom.circular import (_sin_alpha, asymptotic_summary,
                                 detection_arc_set, detects, exact_probability,
                                 mc_probability)
from patrolgeom.frames import distance_to_vehicle, object_position_rotating
from patrolgeom.linear import (CrossingSample, asymptotic_summary_linear,
                               detects_linear, mc_probability_linear,
                               vehicle_position_linear)
from patrolgeom.randomradius import (RadiusDistribution,
                                     asymptotic_probability_randomized,
                                     exact_probability_random_radius,
                                     mc_probability_random_radius)
from patrolgeom.scenario import (CircularPatrolScenario, LinearPatrolScenario,
                                 ValidationError, load_scenario,
                                 scenario_from_dict, scenario_to_dict, validate)


def test_validate_accepts_reference_scenarios(ref_circular, ref_linear):
    assert validate(ref_circular) is ref_circular
    assert validate(ref_linear) is ref_linear


def test_validate_checks_the_record_type_first():
    class LookAlike:
        R, r, n, v, u = 1.0, 0.1, 1, 1.0, 1.0

    for s in (object(), LookAlike(), {"R": 1.0}):
        with pytest.raises(ValidationError, match="^unsupported scenario type: "
                           + type(s).__name__ + "$"):
            validate(s)


def test_validate_rejects_bad_fleet_size():
    with pytest.raises(ValidationError, match="n must be an integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=2.0, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="n must be an integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=True, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="n must be a positive integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=0, v=1.0, u=1.0))


def test_numpy_integer_fleet_size_answers_as_an_int():
    s = CircularPatrolScenario(R=100.0, r=5.0, n=np.int64(10), v=2.0, u=1.0)
    plain = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
    assert exact_probability(s) == exact_probability(plain)
    record = scenario_to_dict(s)
    assert type(record["n"]) is int
    assert json.loads(json.dumps(record)) == scenario_to_dict(plain)
    for flag in (True, np.True_):
        with pytest.raises(ValidationError, match="n must be an integer"):
            exact_probability(CircularPatrolScenario(R=100.0, r=5.0, n=flag,
                                                     v=2.0, u=1.0))


def test_validate_rejects_fleet_size_beyond_float_range():
    huge = 10 ** 400
    with pytest.raises(ValidationError, match="n must not exceed the float range"):
        exact_probability(CircularPatrolScenario(R=1.0, r=0.1, n=huge, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="n must not exceed the float range"):
        mc_probability_linear(LinearPatrolScenario(R=1.0, r=0.1, n=huge, v=1.0,
                                                   u=1.0), 10, 0)
    largest = int(sys.float_info.max)
    s = CircularPatrolScenario(R=1.0, r=0.1, n=largest, v=1.0, u=1.0)
    assert validate(s) is s


def test_validate_rejects_nonnumeric_and_nonfinite_fields():
    with pytest.raises(ValidationError, match="R must be a number"):
        validate(CircularPatrolScenario(R="big", r=0.1, n=1, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="r must be finite"):
        validate(CircularPatrolScenario(R=1.0, r=math.inf, n=1, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="v must be a number"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=1, v=True, u=1.0))
    with pytest.raises(ValidationError, match="u must be finite"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=1, v=1.0, u=math.nan))


def test_ints_beyond_the_float_range_read_as_inf():
    huge = 10 ** 400
    with pytest.raises(ValidationError, match="R must be finite"):
        validate(CircularPatrolScenario(R=huge, r=0.1, n=1, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="v must be finite"):
        validate(LinearPatrolScenario(R=1.0, r=0.1, n=1, v=-huge, u=1.0))
    good = {"kind": "circular", "R": 100, "r": 5, "n": 10, "v": 2, "u": 1}
    with pytest.raises(ValidationError, match="u must be finite"):
        scenario_from_dict({**good, "u": huge})


def test_validate_sign_constraints_circular():
    with pytest.raises(ValidationError, match="R must be positive"):
        validate(CircularPatrolScenario(R=0.0, r=0.1, n=1, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="r must be positive"):
        validate(CircularPatrolScenario(R=1.0, r=0.0, n=1, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="u must be positive"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=1, v=1.0, u=0.0))
    with pytest.raises(ValidationError, match="v must be nonnegative"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=1, v=-1.0, u=1.0))
    with pytest.raises(ValidationError, match="r < R required"):
        validate(CircularPatrolScenario(R=1.0, r=1.0, n=1, v=1.0, u=1.0))


def test_validate_sign_constraints_linear():
    with pytest.raises(ValidationError, match="v must be nonnegative"):
        validate(LinearPatrolScenario(R=1.0, r=0.1, n=1, v=-1.0, u=1.0))
    resting = LinearPatrolScenario(R=1.0, r=0.1, n=1, v=0.0, u=1.0)
    assert validate(resting) is resting
    with pytest.raises(ValidationError, match="2r < R required"):
        validate(LinearPatrolScenario(R=1.0, r=0.5, n=1, v=1.0, u=1.0))


def test_static_ring_is_legal(static_circular):
    assert validate(static_circular) is static_circular


def test_sin_alpha_equals_speed_ratio():
    rng = np.random.default_rng(314)
    for _ in range(200):
        u = float(rng.uniform(0.01, 10.0))
        v = float(rng.uniform(0.0, 10.0))
        assert _sin_alpha(u, v) == pytest.approx(u / math.hypot(u, v),
                                                 abs=1e-12)
    # a static ring's intruder path is perpendicular: alpha is exactly pi/2
    assert _sin_alpha(1.0, 0.0) == 1.0


_CIRCULAR = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
_LINEAR = LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)
_TWO_POINT = RadiusDistribution.from_atoms([(0.9, 0.5), (1.1, 0.5)])

# every public entry that takes a scenario, called with the record it reads
WRONG_MODEL = {
    "detects": lambda s: detects(0.0, 0, s),
    "detection_arc_set": lambda s: detection_arc_set(0, s),
    "exact_probability": exact_probability,
    "mc_probability": lambda s: mc_probability(s, 100, 0),
    "asymptotic_summary": asymptotic_summary,
    "object_position_rotating": lambda s: object_position_rotating(0.0, 0.0, s),
    "distance_to_vehicle": lambda s: distance_to_vehicle(0.0, 0.0, 0, s),
    "asymptotic_probability_randomized":
        lambda s: asymptotic_probability_randomized(s, _TWO_POINT),
    "exact_probability_random_radius":
        lambda s: exact_probability_random_radius(s, _TWO_POINT),
    "mc_probability_random_radius":
        lambda s: mc_probability_random_radius(s, _TWO_POINT, 100, 0),
    "vehicle_position_linear": lambda s: vehicle_position_linear(0, 0.0, 0.0, s),
    "detects_linear": lambda s: detects_linear(CrossingSample(0.0, 0.0), s),
    "mc_probability_linear": lambda s: mc_probability_linear(s, 100, 0),
    "asymptotic_summary_linear": asymptotic_summary_linear,
}
_LINEAR_ENTRIES = {"vehicle_position_linear", "detects_linear",
                   "mc_probability_linear", "asymptotic_summary_linear"}


@pytest.mark.parametrize("name", sorted(WRONG_MODEL))
def test_each_model_rejects_the_other_models_record(name):
    call = WRONG_MODEL[name]
    own, other = ((_LINEAR, _CIRCULAR) if name in _LINEAR_ENTRIES
                  else (_CIRCULAR, _LINEAR))
    call(own)
    with pytest.raises(ValidationError, match=f"expected a {type(own).__name__}"):
        call(other)


def test_scenario_from_dict_round_trip(ref_circular, ref_linear):
    for s in (ref_circular, ref_linear):
        again = scenario_from_dict(scenario_to_dict(s))
        assert again == s
        assert type(again) is type(s)


def test_scenario_from_dict_accepts_integral_float_n():
    data = {"kind": "circular", "R": 100, "r": 5, "n": 10.0, "v": 2, "u": 1}
    s = scenario_from_dict(data)
    assert s.n == 10 and isinstance(s.n, int)
    assert isinstance(s.R, float)


def test_scenario_from_dict_rejects_bad_input():
    good = {"kind": "circular", "R": 100, "r": 5, "n": 10, "v": 2, "u": 1}
    with pytest.raises(ValidationError, match="unknown scenario key"):
        scenario_from_dict({**good, "speed": 3})
    with pytest.raises(ValidationError, match="missing scenario key"):
        scenario_from_dict({k: v for k, v in good.items() if k != "u"})
    with pytest.raises(ValidationError, match="kind must be"):
        scenario_from_dict({**good, "kind": "spherical"})
    with pytest.raises(ValidationError, match="n must be an integer"):
        scenario_from_dict({**good, "n": 10.5})
    with pytest.raises(ValidationError, match="n must be an integer"):
        scenario_from_dict({**good, "n": True})
    with pytest.raises(ValidationError, match="R must be a number"):
        scenario_from_dict({**good, "R": "100"})
    with pytest.raises(ValidationError, match="scenario must be a JSON object"):
        scenario_from_dict([1, 2, 3])


def test_load_scenario_from_path_and_stream(tmp_path, ref_linear):
    payload = scenario_to_dict(ref_linear)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_scenario(path) == ref_linear
    assert load_scenario(io.StringIO(json.dumps(payload))) == ref_linear
