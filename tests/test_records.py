"""The contract every parameter and result record keeps: construction by
keyword or position with the two declared defaults, Python's own
`TypeError` for a bad argument list, the `Name(f=value)` repr, field-wise
equality and hashing within one class, immutability, and pickle and copy
round trips, also in a process that has constructed no record yet."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from patrolgeom import (AsymptoticSummary, CircleIntervalSet,
                        CircularPatrolScenario, CrossingSample, EstimateWithCI,
                        LinearPatrolScenario, NeedleProblem,
                        PiecewiseRadiusProcess, PolarPoint, RadiusDistribution,
                        RotatingFramePoint, SeedSchedule)
from patrolgeom.scenario import _Record

# (class, field names, field values, repr)
RECORDS = [
    (CircularPatrolScenario, ("R", "r", "n", "v", "u"),
     (100.0, 5.0, 10, 2.0, 1.0),
     "CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)"),
    (LinearPatrolScenario, ("R", "r", "n", "v", "u"),
     (100.0, 5.0, 5, 2.0, 1.0),
     "LinearPatrolScenario(R=100.0, r=5.0, n=5, v=2.0, u=1.0)"),
    (PolarPoint, ("rho_norm", "phi"), (1.05, -0.25),
     "PolarPoint(rho_norm=1.05, phi=-0.25)"),
    (RotatingFramePoint, ("radius", "angle"), (99.0, 3.0),
     "RotatingFramePoint(radius=99.0, angle=3.0)"),
    (CrossingSample, ("a", "b"), (10.0, 20.0),
     "CrossingSample(a=10.0, b=20.0)"),
    (CircleIntervalSet, ("intervals",), (((0.0, 1.0), (2.0, 3.5)),),
     "CircleIntervalSet(intervals=((0.0, 1.0), (2.0, 3.5)))"),
    (AsymptoticSummary, ("chord_l", "p_asym", "m_min"), (0.1, 0.5, 2),
     "AsymptoticSummary(chord_l=0.1, p_asym=0.5, m_min=2)"),
    (SeedSchedule, ("root_seed",), (7,), "SeedSchedule(root_seed=7)"),
    (EstimateWithCI, ("mean", "trials", "successes", "stderr", "ci_low",
                      "ci_high"), (0.5, 100, 50, 0.05, 0.4, 0.6),
     "EstimateWithCI(mean=0.5, trials=100, successes=50, stderr=0.05, "
     "ci_low=0.4, ci_high=0.6)"),
    (NeedleProblem, ("l", "L"), (0.6, 1.3), "NeedleProblem(l=0.6, L=1.3)"),
    (RadiusDistribution, ("atoms",), (((0.9, 0.5), (1.1, 0.5)),),
     "RadiusDistribution(atoms=((0.9, 0.5), (1.1, 0.5)))"),
    (PiecewiseRadiusProcess, ("states", "dwell", "horizon", "transition"),
     ((0.5, 1.5), 1.0, 200.0, "random"),
     "PiecewiseRadiusProcess(states=(0.5, 1.5), dwell=1.0, horizon=200.0, "
     "transition='random')"),
]

# the only fields with a default: (class, field) -> default
DEFAULTS = {(CircleIntervalSet, "intervals"): (),
            (PiecewiseRadiusProcess, "transition"): "cyclic"}

_IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.fixture(params=RECORDS, ids=_IDS)
def record(request):
    return request.param


def test_construction_by_keyword_and_by_position(record):
    cls, names, values, _ = record
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for rec in (by_position, by_keyword, mixed):
        assert tuple(getattr(rec, name) for name in names) == values
    assert by_position == by_keyword == mixed
    assert cls.__match_args__ == names


def test_the_two_defaults():
    assert CircleIntervalSet().intervals == ()
    assert CircleIntervalSet() == CircleIntervalSet(())
    proc = PiecewiseRadiusProcess((0.5, 1.5), 1.0, 200.0)
    assert proc.transition == "cyclic"
    assert proc == PiecewiseRadiusProcess((0.5, 1.5), 1.0, 200.0, "cyclic")
    for (cls, name), default in DEFAULTS.items():
        assert getattr(cls, name) == default


def test_repr_is_name_and_fields(record):
    cls, _, values, text = record
    assert repr(cls(*values)) == text


def test_equality_and_hash_follow_the_fields(record):
    cls, names, values, _ = record
    rec = cls(*values)
    twin = cls(*values)
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin)
    for i in range(len(values)):
        other = cls(*values[:i], object(), *values[i + 1:])
        assert rec != other and not rec == other
    assert rec != values
    assert rec != object()


def test_records_of_different_classes_never_compare_equal():
    fields = (100.0, 5.0, 4, 2.0, 1.0)
    circular = CircularPatrolScenario(*fields)
    linear = LinearPatrolScenario(*fields)
    assert circular != linear and linear != circular
    assert not circular == linear


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, names, values, _ = record
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    assert tuple(getattr(rec, name) for name in names) == values


def test_pickle_and_copy_round_trips(record):
    cls, _, values, text = record
    rec = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec and repr(back) == text
    for back in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec and hash(back) == hash(rec)


def test_bad_arguments_raise_type_error(record):
    cls, names, values, _ = record
    kwargs = dict(zip(names, values))
    for name in names:
        if (cls, name) in DEFAULTS:
            continue
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown_field=1.0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, 1.0)


def test_each_bad_argument_is_named(record):
    cls, names, values, _ = record
    kwargs = dict(zip(names, values))
    for name in names:
        if (cls, name) not in DEFAULTS:
            with pytest.raises(TypeError, match=f"missing .*'{name}'"):
                cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError, match="unexpected .*'unknown_field'"):
        cls(**kwargs, unknown_field=1.0)
    with pytest.raises(TypeError, match=f"multiple values .*'{names[-1]}'"):
        cls(*values, **{names[-1]: values[-1]})


def test_a_default_ahead_of_a_plain_field_is_refused():
    # the defaults bind to the trailing fields, so this order would bind
    # a positional argument to the wrong field
    with pytest.raises(TypeError, match="Bad: a field without a default "
                                        "follows one with a default"):
        class Bad(_Record):
            first: float = 0.0
            second: float

    class Good(_Record):
        first: float
        second: float = 0.0

    assert Good(1.0) == Good(first=1.0, second=0.0)


_UNPICKLE_FIRST = """
import pickle, sys
records = pickle.loads(bytes.fromhex(sys.stdin.read()))
for rec in records:
    twin = type(rec)(*(getattr(rec, name) for name in rec.__match_args__))
    print(rec == twin, hash(rec) == hash(twin), repr(rec) == repr(twin),
          repr(rec))
"""


def test_a_fresh_process_unpickles_before_constructing():
    # the records are unpickled before the child builds any record class's
    # binding, then compared with records the child constructs
    records = [cls(*values) for cls, _, values, _ in RECORDS]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _UNPICKLE_FIRST],
                          input=pickle.dumps(records).hex(),
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines == [f"True True True {text}" for *_, text in RECORDS]
