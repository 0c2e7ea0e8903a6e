"""tools/lane_costs.py, the lane path's cost per trial, the numpy kernel's
per row and the lane path's break-even with numpy's import, at tiny
sizes."""

import importlib.util
from pathlib import Path

from patrolgeom.montecarlo import CHUNK_TRIALS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("lane_costs",
                                               ROOT / "tools" / "lane_costs.py")
lane_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lane_costs)


def test_costs_are_positive_for_each_model():
    for model in lane_costs.MODELS:
        assert lane_costs.ns_per_trial(model, 1024, 1) > 0.0
        assert lane_costs.batch_ns_per_row(model, 64, 2) > 0.0


def test_break_even_times_every_path_of_each_model(capsys):
    lane_costs._fit([1024, 2048], 1, 0)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 2 * 3 + 3 + 1
    assert [line.split(":")[0] for line in out[-4:-1]] == [
        f"break-even {model}" for model in lane_costs.MODELS]
    assert out[-1].startswith("allowance _SCALAR_DRAWS: ")


def test_the_fit_crosses_zero_and_the_allowance_stays_below_it():
    assert lane_costs.break_even([1, 2, 3], [-1.0, 0.0, 1.0]) == 2.0
    assert lane_costs.break_even([1, 2, 3], [1.0, 0.0, -1.0]) is None
    assert lane_costs.allowance([700000.0, 900000.0]) == 21 * CHUNK_TRIALS
    assert lane_costs.allowance([21.0 * CHUNK_TRIALS]) == 20 * CHUNK_TRIALS
    assert lane_costs.allowance([700000.0, None]) is None
