"""Every exported name resolves: a stale entry in a module's `__all__`, such
as a constant that was deleted, fails here."""

import importlib
import pkgutil

import pytest

import patrolgeom

MODULES = ["patrolgeom"] + sorted(
    "patrolgeom." + info.name for info in pkgutil.iter_modules(patrolgeom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


LIBRARY = ("buffon", "circular", "frames", "linear", "montecarlo",
           "randomradius", "scenario")

# the package's exports before it re-exported the modules' own lists
_EARLIER_EXPORTS = {
    "buffon": ("NeedleProblem", "buffon_mc", "buffon_probability"),
    "circular": ("AsymptoticSummary", "CircleIntervalSet", "asymptotic_summary",
                 "detection_arc_set", "detects", "exact_probability",
                 "mc_probability", "minimum_fleet_size", "union_measure"),
    "frames": ("PolarPoint", "RotatingFramePoint", "distance_to_vehicle",
               "object_position_rotating", "scan_circle_polar_approx",
               "scan_circle_polar_exact", "wrap_positive"),
    "linear": ("CrossingSample", "asymptotic_summary_linear", "detects_linear",
               "exact_probability_linear", "mc_probability_linear",
               "vehicle_position_linear"),
    "montecarlo": ("DEFAULT_SEED", "EstimateWithCI", "SeedSchedule",
                   "TrialSource", "estimate_from_counts",
                   "run_bernoulli_trials", "wilson_interval"),
    "randomradius": ("PiecewiseRadiusProcess", "RadiusDistribution",
                     "asymptotic_probability_randomized",
                     "ergodic_time_average", "exact_probability_random_radius",
                     "jensen_sides", "mc_probability_random_radius",
                     "validate_process"),
    "scenario": ("CircularPatrolScenario", "LinearPatrolScenario", "Scenario",
                 "ValidationError", "load_scenario", "scenario_from_dict",
                 "scenario_to_dict", "validate"),
}


def test_package_reexports_each_module_list_once():
    lists = {name: importlib.import_module("patrolgeom." + name).__all__
             for name in LIBRARY}
    names = [attr for one in lists.values() for attr in one]
    assert len(set(names)) == len(names)  # pairwise disjoint
    assert patrolgeom.__all__ == sorted(names)
    for home, attrs in _EARLIER_EXPORTS.items():
        module = importlib.import_module("patrolgeom." + home)
        for attr in attrs:
            assert attr in patrolgeom.__all__
            assert getattr(patrolgeom, attr) is getattr(module, attr)
