"""Validated parameter records shared by the detection models."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import IO, Union

__all__ = [
    "CircularPatrolScenario",
    "DerivedAngles",
    "LinearPatrolScenario",
    "Scenario",
    "ValidationError",
    "derived_angles",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate",
]


class ValidationError(ValueError):
    """A parameter record violates one of its constraints."""


@dataclass(frozen=True)
class CircularPatrolScenario:
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


@dataclass(frozen=True)
class LinearPatrolScenario:
    """Fleet of n sensors sweeping a segment of length R back and forth.

    In the unfolded coordinate (two copies of the segment glued end to end,
    circumference 2R) the vehicles sit 2R/n apart and move uniformly at speed
    v > 0; the intruder crosses the strip perpendicularly at speed u.
    """

    R: float
    r: float
    n: int
    v: float
    u: float


@dataclass(frozen=True)
class DerivedAngles:
    """alpha: inclination of the intruder image path, in (0, pi/2];
    omega: angular speed v/R of the co-rotating frame."""

    alpha: float
    omega: float


Scenario = Union[CircularPatrolScenario, LinearPatrolScenario]

_SCENARIO_KEYS = ("kind", "R", "r", "n", "v", "u")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def validate(s: Scenario) -> Scenario:
    """Check every field invariant; returns the record unchanged.  Idempotent."""
    _require(isinstance(s.n, int) and not isinstance(s.n, bool),
             "n must be an integer")
    _require(s.n >= 1, "n must be a positive integer")
    try:
        float(s.n)  # the models compute with n as a float: n*L, 2*pi/n
    except OverflowError:
        raise ValidationError("n must not exceed the float range "
                              "(about 1.8e308)") from None
    for name in ("R", "r", "v", "u"):
        value = getattr(s, name)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{name} must be a number")
        _require(math.isfinite(value), f"{name} must be finite")
    _require(s.R > 0, "R must be positive")
    _require(s.r > 0, "r must be positive")
    _require(s.u > 0, "u must be positive")
    if isinstance(s, CircularPatrolScenario):
        _require(s.v >= 0, "v must be nonnegative")
        _require(s.r < s.R, "r < R required")
    elif isinstance(s, LinearPatrolScenario):
        _require(s.v > 0, "v must be positive")
        _require(2.0 * s.r < s.R, "2r < R required")
    else:
        raise ValidationError(f"unsupported scenario type: {type(s).__name__}")
    return s


def derived_angles(s: CircularPatrolScenario) -> DerivedAngles:
    """alpha = atan2(u, v), so a static ring (v = 0) gives exactly pi/2;
    omega = v/R."""
    validate(s)
    return DerivedAngles(alpha=math.atan2(s.u, s.v), omega=s.v / s.R)


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
    kind = data["kind"]
    if kind not in ("circular", "linear"):
        raise ValidationError("kind must be 'circular' or 'linear'")
    fields = {}
    for key in ("R", "r", "v", "u"):
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{key} must be a number")
        fields[key] = float(value)
    n = data["n"]
    if isinstance(n, bool):
        raise ValidationError("n must be an integer")
    if isinstance(n, float):
        if not n.is_integer():
            raise ValidationError("n must be an integer")
        n = int(n)
    if not isinstance(n, int):
        raise ValidationError("n must be an integer")
    cls = CircularPatrolScenario if kind == "circular" else LinearPatrolScenario
    return validate(cls(R=fields["R"], r=fields["r"], n=n,
                        v=fields["v"], u=fields["u"]))


def load_scenario(source: Union[str, os.PathLike, IO[str]]) -> Scenario:
    """Read a scenario from a JSON file path or an open text stream."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return scenario_from_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict, suitable for JSON round-trips."""
    kind = "circular" if isinstance(s, CircularPatrolScenario) else "linear"
    return {"kind": kind, "R": s.R, "r": s.r, "n": s.n, "v": s.v, "u": s.u}
