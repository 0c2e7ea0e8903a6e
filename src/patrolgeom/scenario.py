"""Validated parameter records shared by the detection models."""

from __future__ import annotations

import json
import math
import operator
import os
from collections import namedtuple
from typing import IO, Optional, Union

__all__ = [
    "CircularPatrolScenario",
    "LinearPatrolScenario",
    "Scenario",
    "ValidationError",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate",
]


class ValidationError(ValueError):
    """A parameter record violates one of its constraints."""


class _Record:
    """Immutable record whose fields are the annotated names of the class
    body, in order; a class attribute of the same name is the default, and
    fields with a default come after those without.

    Construction takes the fields by position or keyword, bound by a
    `namedtuple` of the fields that the class builds on its first
    construction, so a bad argument list raises Python's own `TypeError`.
    The repr is `Name(field=value, ...)`; records are equal when they are of
    the same class with equal fields, and hash by their fields.  Instances
    keep their fields in `__dict__`, so pickle and copy need no hooks.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", {}))
        # a namedtuple gives its defaults to the trailing fields, so a
        # default ahead of a plain field would bind the wrong one
        has_default = [name in cls.__dict__ for name in cls.__match_args__]
        if has_default != sorted(has_default):
            raise TypeError(f"{cls.__name__}: a field without a default "
                            "follows one with a default")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if "_bind" not in cls.__dict__:
            # built on first construction, not at import: a request uses
            # a few of the record classes, and each build costs 0.05-0.2 ms
            cls._bind = namedtuple(cls.__name__, cls.__match_args__, defaults=[
                cls.__dict__[name] for name in cls.__match_args__
                if name in cls.__dict__])
        self.__dict__.update(zip(cls.__match_args__,
                                 cls._bind(*args, **kwargs)))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot assign '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot delete '{name}'")


class CircularPatrolScenario(_Record):
    """Fleet of n identical sensors spaced equally on a circle of radius R.

    r is the scan radius of each sensor, v the sensor speed along the circle
    (v = 0 means a static ring), u > 0 the intruder speed on its radial run.
    Units are caller-chosen but must be consistent; probabilities depend only
    on the ratios r/R and u/v.
    """

    R: float
    r: float
    n: int
    v: float
    u: float


class LinearPatrolScenario(_Record):
    """Fleet of n sensors sweeping a segment of length R back and forth.

    In the unfolded coordinate (two copies of the segment glued end to end,
    circumference 2R) the vehicles sit 2R/n apart and move uniformly at speed
    v >= 0; the intruder crosses the strip perpendicularly at speed u.
    """

    R: float
    r: float
    n: int
    v: float
    u: float


Scenario = Union[CircularPatrolScenario, LinearPatrolScenario]

_SCENARIO_KEYS = ("kind", "R", "r", "n", "v", "u")


def _number(value) -> Optional[float]:
    """The float value of a number, an int or float but not a bool (a JSON
    number); an int beyond the float range reads as inf with its sign, and
    anything else as None.  Every record reads its numbers by this rule."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _integer(value) -> Optional[int]:
    """The int value of an integer, numpy's included, but not of a bool;
    anything else reads as None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _vehicle_index(i, n: int) -> int:
    """The vehicle-index rule of both models: i as an int, or ValueError
    unless it is an integer in [0, n)."""
    index = _integer(i)
    if index is None or not 0 <= index < n:
        raise ValueError("vehicle index must be an integer in [0, n)")
    return index


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def validate(s: Scenario) -> Scenario:
    """Check every field invariant; returns the record unchanged.  Idempotent."""
    _require(isinstance(s, (CircularPatrolScenario, LinearPatrolScenario)),
             f"unsupported scenario type: {type(s).__name__}")
    n = _integer(s.n)
    _require(n is not None, "n must be an integer")
    _require(n >= 1, "n must be a positive integer")
    # the models compute with n as a float: n*L, 2*pi/n
    _require(math.isfinite(_number(n)),
             "n must not exceed the float range (about 1.8e308)")
    for name in ("R", "r", "v", "u"):
        value = _number(getattr(s, name))
        _require(value is not None, f"{name} must be a number")
        _require(math.isfinite(value), f"{name} must be finite")
    _require(s.R > 0, "R must be positive")
    _require(s.r > 0, "r must be positive")
    _require(s.u > 0, "u must be positive")
    _require(s.v >= 0, "v must be nonnegative")
    if isinstance(s, CircularPatrolScenario):
        _require(s.r < s.R, "r < R required")
    else:
        _require(2.0 * s.r < s.R, "2r < R required")
    return s


def _validate_as(s, cls: type) -> Scenario:
    """validate(s) for a model that reads only cls records: the other
    model's record is a ValidationError too."""
    _require(isinstance(s, cls), f"expected a {cls.__name__}, got "
             f"{type(s).__name__}")
    return validate(s)


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a scenario from a plain mapping.

    Exactly the keys kind, R, r, n, v, u are accepted; unknown or missing
    keys are rejected so typos fail loudly.
    """
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    unknown = sorted(set(data) - set(_SCENARIO_KEYS))
    if unknown:
        raise ValidationError(f"unknown scenario key(s): {', '.join(unknown)}")
    missing = sorted(set(_SCENARIO_KEYS) - set(data))
    if missing:
        raise ValidationError(f"missing scenario key(s): {', '.join(missing)}")
    if data["kind"] not in ("circular", "linear"):
        raise ValidationError("kind must be 'circular' or 'linear'")
    # a value that is no number reads as None, which validate rejects
    fields = {key: _number(data[key]) for key in ("R", "r", "v", "u")}
    n = data["n"]
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    cls = (CircularPatrolScenario if data["kind"] == "circular"
           else LinearPatrolScenario)
    return validate(cls(n=n, **fields))


def load_scenario(source: Union[str, os.PathLike, IO[str]]) -> Scenario:
    """Read a scenario from a JSON file path or an open text stream."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return scenario_from_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict, suitable for JSON round-trips: n is
    written as a plain int, whatever integer type the record holds."""
    kind = "circular" if isinstance(s, CircularPatrolScenario) else "linear"
    return {"kind": kind, "R": s.R, "r": s.r, "n": operator.index(s.n),
            "v": s.v, "u": s.u}
