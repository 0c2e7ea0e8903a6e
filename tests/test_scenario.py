"""Scenario records: validation, derived angles, JSON round-trips."""

import io
import json
import math
import sys

import numpy as np
import pytest

from patrolgeom.circular import exact_probability
from patrolgeom.linear import mc_probability_linear
from patrolgeom.scenario import (CircularPatrolScenario, LinearPatrolScenario,
                                 ValidationError, derived_angles, load_scenario,
                                 scenario_from_dict, scenario_to_dict, validate)


def test_validate_accepts_reference_scenarios(ref_circular, ref_linear):
    assert validate(ref_circular) is ref_circular
    assert validate(ref_linear) is ref_linear


def test_validate_rejects_bad_fleet_size():
    with pytest.raises(ValidationError, match="n must be an integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=2.0, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="n must be an integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=True, v=1.0, u=1.0))
    with pytest.raises(ValidationError, match="n must be a positive integer"):
        validate(CircularPatrolScenario(R=1.0, r=0.1, n=0, v=1.0, u=1.0))


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
    with pytest.raises(ValidationError, match="v must be positive"):
        validate(LinearPatrolScenario(R=1.0, r=0.1, n=1, v=0.0, u=1.0))
    with pytest.raises(ValidationError, match="2r < R required"):
        validate(LinearPatrolScenario(R=1.0, r=0.5, n=1, v=1.0, u=1.0))


def test_static_ring_is_legal(static_circular):
    assert validate(static_circular) is static_circular


def test_derived_angles_reference_values(ref_circular):
    d = derived_angles(ref_circular)
    assert d.alpha == pytest.approx(0.4636476090008061, abs=1e-15)
    assert d.omega == pytest.approx(0.02, abs=1e-15)


def test_derived_angles_static_ring_is_perpendicular(static_circular):
    assert derived_angles(static_circular).alpha == math.pi / 2.0


def test_inclination_sine_equals_speed_ratio():
    rng = np.random.default_rng(314)
    for _ in range(200):
        R = float(rng.uniform(1.0, 500.0))
        r = float(rng.uniform(0.001, 0.5)) * R
        u = float(rng.uniform(0.01, 10.0))
        v = float(rng.uniform(0.0, 10.0))
        s = CircularPatrolScenario(R=R, r=r, n=int(rng.integers(1, 20)), v=v, u=u)
        alpha = derived_angles(s).alpha
        assert math.sin(alpha) == pytest.approx(u / math.hypot(u, v), abs=1e-12)
        assert 0.0 < alpha <= math.pi / 2.0


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
