"""tools/lane_costs.py, the lane path's cost per trial and its break-even
with numpy's import, at tiny sizes."""

import importlib.util
from pathlib import Path

from patrolgeom.montecarlo import _CHAIN_DRAWS, CHUNK_TRIALS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("lane_costs",
                                               ROOT / "tools" / "lane_costs.py")
lane_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lane_costs)


def test_costs_are_positive_on_both_lane_paths():
    for model in lane_costs.MODELS:
        assert lane_costs.ns_per_trial(model, 1024, 1) > 0.0
        assert lane_costs.ns_per_trial(model, 1024, 1, chain=True) > 0.0


def test_the_chain_record_counts_as_the_integer_one():
    for model in lane_costs.MODELS:
        chain = lane_costs.indicator(model, chain=True)
        assert chain._plan is None and chain._lane_draws == _CHAIN_DRAWS
        assert lane_costs.run(model, 3000, True) == lane_costs.run(model, 3000)


def test_break_even_times_every_path_of_each_model(capsys):
    lane_costs._fit([1024, 2048], 1, 0)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 2 * 3 + 2 * 3 + 2
    assert [line.split(":")[0] for line in out[-8:-2]] == [
        f"break-even {path} {model}" for path in ("lane", "chain")
        for model in lane_costs.MODELS]
    assert out[-2].startswith("allowance _SCALAR_DRAWS: ")
    assert out[-1].startswith("allowance _CHAIN_DRAWS: ")


def test_the_fit_crosses_zero_and_the_allowance_stays_below_it():
    assert lane_costs.break_even([1, 2, 3], [-1.0, 0.0, 1.0]) == 2.0
    assert lane_costs.break_even([1, 2, 3], [1.0, 0.0, -1.0]) is None
    assert lane_costs.allowance([700000.0, 900000.0]) == 21 * CHUNK_TRIALS
    assert lane_costs.allowance([21.0 * CHUNK_TRIALS]) == 20 * CHUNK_TRIALS
    assert lane_costs.allowance([700000.0, None]) is None
