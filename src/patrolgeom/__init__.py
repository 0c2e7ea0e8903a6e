"""Geometric probability of intercepting a mobile intruder with a patrolling
sensor fleet: classical needle baseline, exact rotating-frame interception
geometry on a circular patrol, randomized-radius bounds, segment patrol, and
deterministic Monte Carlo machinery."""

__version__ = "0.1.0"

from .buffon import NeedleProblem, buffon_mc, buffon_probability
from .circular import (AsymptoticSummary, CircleIntervalSet, asymptotic_summary,
                       detection_arc_set, detects, exact_probability,
                       mc_probability, minimum_fleet_size, union_measure)
from .frames import (PolarPoint, RotatingFramePoint, distance_to_vehicle,
                     object_position_rotating, scan_circle_polar_approx,
                     scan_circle_polar_exact, wrap_positive, wrap_signed)
from .linear import (CrossingSample, asymptotic_summary_linear, detects_linear,
                     mc_probability_linear, vehicle_position_linear)
from .montecarlo import (DEFAULT_SEED, EstimateWithCI, SeedSchedule, TrialSource,
                         estimate_from_counts, run_bernoulli_trials,
                         wilson_interval)
from .randomradius import (PiecewiseRadiusProcess, RadiusDistribution,
                           asymptotic_probability_randomized,
                           ergodic_time_average,
                           exact_probability_random_radius, jensen_sides,
                           mc_probability_random_radius, validate_process)
from .scenario import (CircularPatrolScenario, LinearPatrolScenario, Scenario,
                       ValidationError, load_scenario, scenario_from_dict,
                       scenario_to_dict, validate)

__all__ = [
    "AsymptoticSummary",
    "CircleIntervalSet",
    "CircularPatrolScenario",
    "CrossingSample",
    "DEFAULT_SEED",
    "EstimateWithCI",
    "LinearPatrolScenario",
    "NeedleProblem",
    "PiecewiseRadiusProcess",
    "PolarPoint",
    "RadiusDistribution",
    "RotatingFramePoint",
    "Scenario",
    "SeedSchedule",
    "TrialSource",
    "ValidationError",
    "asymptotic_probability_randomized",
    "asymptotic_summary",
    "asymptotic_summary_linear",
    "buffon_mc",
    "buffon_probability",
    "detection_arc_set",
    "detects",
    "detects_linear",
    "distance_to_vehicle",
    "ergodic_time_average",
    "estimate_from_counts",
    "exact_probability",
    "exact_probability_random_radius",
    "jensen_sides",
    "load_scenario",
    "mc_probability",
    "mc_probability_linear",
    "mc_probability_random_radius",
    "minimum_fleet_size",
    "object_position_rotating",
    "run_bernoulli_trials",
    "scan_circle_polar_approx",
    "scan_circle_polar_exact",
    "scenario_from_dict",
    "scenario_to_dict",
    "union_measure",
    "validate",
    "validate_process",
    "vehicle_position_linear",
    "wilson_interval",
    "wrap_positive",
    "wrap_signed",
]
