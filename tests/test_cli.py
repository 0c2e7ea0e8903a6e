"""Command-line front end: reports, exit codes, determinism, CSV outputs."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from patrolgeom.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, name="scenario.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


REF = dict(kind="circular", R=100.0, r=5.0, n=10, v=2.0, u=1.0)
REF_LINEAR = dict(kind="linear", R=100.0, r=5.0, n=5, v=2.0, u=1.0)


def test_buffon_report_structure(capsys):
    code, out, err = run_cli(capsys, "buffon", "--l", "1", "--L", "1",
                             "--trials", "2000", "--seed", "5", "--no-timing")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["tool"] == "patrolgeom"
    assert report["command"] == "buffon"
    assert report["results"]["analytic"] == pytest.approx(2.0 / math.pi)
    mc = report["results"]["mc"]
    assert mc["trials"] == 2000
    assert mc["ci_low"] <= mc["probability"] <= mc["ci_high"]
    assert "timing_seconds" not in report


def test_buffon_csv_output(capsys):
    code, out, _ = run_cli(capsys, "buffon", "--l", "1", "--L", "2",
                           "--trials", "1000", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "estimator,probability,ci_low,ci_high,m_min,chord_l,trials,seed"
    assert lines[1].startswith("analytic,")
    assert lines[2].startswith("mc,")


_REF_FLAGS = ("--R", "100", "--r", "5", "--n", "10", "--v", "2", "--u", "1")
_LINEAR_FLAGS = ("--R", "100", "--r", "5", "--n", "5", "--v", "2", "--u", "1")
_MC_FLAGS = ("--trials", "3000", "--seed", "7")


@pytest.mark.parametrize("argv", [
    ("buffon", "--l", "1", "--L", "2") + _MC_FLAGS,
    ("circular", "exact") + _REF_FLAGS,
    ("circular", "mc") + _REF_FLAGS + _MC_FLAGS,
    ("circular", "asymptotic") + _REF_FLAGS,
    ("linear", "exact") + _LINEAR_FLAGS,
    ("linear", "mc") + _LINEAR_FLAGS + _MC_FLAGS,
    ("linear", "asymptotic") + _LINEAR_FLAGS,
    ("compare",) + _REF_FLAGS + _MC_FLAGS,
    ("jensen",) + _REF_FLAGS + ("--atoms", "[[0.9, 0.5], [1.1, 0.5]]"),
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_csv_cells_match_json_fields(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines]
    assert rows and all(len(row) == len(columns) for row in rows)
    if columns == ["quantity", "value"]:
        assert ({row["quantity"]: row["value"] for row in rows}
                == {key: str(value) for key, value in results.items()})
        return
    for row in rows:
        if "estimator" in results:
            record = results
        else:
            # reports with several estimators nest one record per name;
            # nested Monte Carlo records leave the seed to the --seed flag
            nested = results[row["estimator"]]
            record = dict(nested) if isinstance(nested, dict) else {
                "probability": nested}
            record["estimator"] = row["estimator"]
            if "trials" in record:
                record["seed"] = argv[argv.index("--seed") + 1]
        filled = {col: cell for col, cell in row.items() if cell != ""}
        assert filled == {col: str(record[col]) for col in columns
                          if col in record}


def test_circular_exact_from_scenario_file(capsys, tmp_path):
    path = write_scenario(tmp_path, **{**REF, "v": 0.0})
    code, out, _ = run_cli(capsys, "circular", "exact", "--scenario", path,
                           "--no-timing")
    assert code == 0
    report = json.loads(out)
    expected = 10.0 * math.asin(0.05) / math.pi
    assert report["results"]["probability"] == pytest.approx(expected,
                                                             abs=1e-6)
    assert set(report["results"]) == {"estimator", "probability"}
    assert report["scenario"]["v"] == 0.0


def test_circular_asymptotic_reference_values(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, out, _ = run_cli(capsys, "circular", "asymptotic",
                           "--scenario", path, "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["probability"] == pytest.approx(0.3558812717085885,
                                                   abs=1e-12)
    assert results["m_min"] == 29


def test_linear_asymptotic_reference_values(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF_LINEAR)
    code, out, _ = run_cli(capsys, "linear", "asymptotic",
                           "--scenario", path, "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["probability"] == pytest.approx(0.5590169943749475,
                                                   abs=1e-12)
    assert results["m_min"] == 9
    assert results["chord_l"] == pytest.approx(22.360679774997898, abs=1e-9)


def test_inline_flags_override_scenario_file(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, out, _ = run_cli(capsys, "circular", "asymptotic",
                           "--scenario", path, "--n", "29", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["scenario"]["n"] == 29
    assert report["results"]["probability"] == 1.0


def test_validation_failure_exits_one(capsys):
    code, out, err = run_cli(capsys, "circular", "exact", "--R", "10",
                             "--r", "10", "--n", "1", "--v", "1", "--u", "1")
    assert code == 1
    assert out == ""
    assert "error: r < R required" in err


def test_unknown_scenario_key_exits_one(capsys, tmp_path):
    path = write_scenario(tmp_path, **{**REF, "speed": 4})
    code, _, err = run_cli(capsys, "circular", "exact", "--scenario", path)
    assert code == 1
    assert "unknown scenario key" in err


def test_usage_errors_exit_two(capsys):
    code, _, _ = run_cli(capsys, "buffon", "--l", "1", "--L", "1",
                         "--bogus-flag")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--parameter", "n",
                           "--values", "1,2", "--R", "100", "--r", "5",
                           "--n", "10", "--v", "2", "--u", "1",
                           "--estimators", "magic")
    assert code == 2
    assert "unknown estimator" in err
    # the arc is found without an angular grid; --resolution is gone
    for command in (("circular", "exact"), ("compare",),
                    ("sweep", "--parameter", "n", "--values", "1")):
        code, out, err = run_cli(capsys, *command, *_REF_FLAGS,
                                 "--resolution", "64")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --resolution 64" in err


def test_version_flag(capsys):
    import patrolgeom
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert patrolgeom.__version__ in out


def test_pruned_parser_prints_what_the_full_parser_prints(capsys):
    # main parses with the parser it builds for its argv; build_parser()
    # is the whole tree
    requests = ([["-h"]]
                + [[command, "-h"] for command in (
                    "buffon", "circular", "linear", "jensen", "sweep",
                    "compare", "polar-image")]
                + [["circular", mode, "-h"] for mode in ("exact", "mc",
                                                         "asymptotic")]
                + [["linear", mode, "-h"] for mode in ("exact", "mc",
                                                       "asymptotic")]
                + [["circular", "exact", *_REF_FLAGS, "--bogus"],
                   ["circular", "mc", "--R", "x"],
                   ["buffon", "--l", "1"],
                   [*_SWEEP_R, "--values", "1", "--estimators", "magic"],
                   ["circular"], ["linear", "bogus"], ["bogus"]])
    for argv in requests:
        pruned = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(argv)
        full = (stop.value.code, *capsys.readouterr())
        assert pruned == full, argv
        assert pruned[0] in (0, 2) and pruned[1] + pruned[2] != "", argv
    # an abbreviated flag still parses
    argv = ["circular", "mc", *_REF_FLAGS, "--tri", "1000", "--no-timing"]
    assert build_parser().parse_args(argv).trials == 1000
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]["trials"] == 1000


def test_reports_are_byte_identical_across_reruns_and_workers(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    base_cmd = ("circular", "mc", "--scenario", path, "--trials", "20000",
                "--seed", "31", "--no-timing")
    _, first, _ = run_cli(capsys, *base_cmd)
    _, second, _ = run_cli(capsys, *base_cmd)
    _, parallel, _ = run_cli(capsys, *base_cmd, "--workers", "4")
    assert first == second == parallel


def test_sweep_over_fleet_size_reaches_saturation(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, out, _ = run_cli(capsys, "sweep", "--scenario", path,
                           "--parameter", "n", "--values", "1,5,15,29",
                           "--estimators", "asymptotic")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("parameter,value,estimator,")
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["1", "5", "15", "29"]
    probs = [float(row[3]) for row in rows]
    assert probs == sorted(probs)
    assert probs[-1] == 1.0


def test_sweep_log_grid_gap_shrinks_with_radius(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, out, _ = run_cli(capsys, "sweep", "--scenario", path,
                           "--parameter", "r", "--start", "1", "--stop", "10",
                           "--steps", "3", "--log",
                           "--estimators", "asymptotic,exact")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # rows come sorted by swept value, estimators alphabetical within
    values = sorted({float(row[1]) for row in rows})
    assert values == pytest.approx([1.0, math.sqrt(10.0), 10.0])
    gaps = []
    for value in values:
        by_name = {row[2]: float(row[3]) for row in rows
                   if float(row[1]) == value}
        gaps.append(abs(by_name["exact"] - by_name["asymptotic"])
                    / by_name["asymptotic"])
    assert gaps[0] < gaps[1] < gaps[2]


def test_sweep_rejects_fractional_fleet_size(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, _, err = run_cli(capsys, "sweep", "--scenario", path,
                           "--parameter", "n", "--values", "1.5,2")
    assert code == 1
    assert "swept n values must be integers" in err


def test_compare_static_report(capsys, tmp_path):
    path = write_scenario(tmp_path, **{**REF, "v": 0.0})
    code, out, _ = run_cli(capsys, "compare", "--scenario", path,
                           "--trials", "100000", "--seed", "6", "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    closed = 10.0 * math.asin(0.05) / math.pi
    assert results["exact"]["probability"] == pytest.approx(closed, abs=1e-6)
    assert results["asymptotic"]["probability"] == pytest.approx(
        0.5 / math.pi, abs=1e-12)
    # the reported gap is the static ring's analytic correction, checked
    # well inside the 10% regime bound
    correction = (10.0 / math.pi) * (math.asin(0.05) - 0.05)
    assert results["gap_exact_asymptotic"] == pytest.approx(correction,
                                                            rel=1e-3)
    assert results["exact_within_mc_ci"] is True


def test_every_patrol_model_has_every_estimator():
    # so compare and sweep run any estimator on any kind of scenario
    from patrolgeom.cli import _ESTIMATORS, _RECORD

    kinds = {kind for kind, _ in _RECORD}
    assert kinds == {"circular", "linear"}
    assert set(_RECORD) == {(kind, name) for kind in kinds
                            for name in _ESTIMATORS}


# the unfolded cylinder's p = min(1, n r/(R sin(alpha))) at REF_LINEAR:
# 5 * 5/(100 * sin(atan2(1, 2))) = sqrt(5)/4
LINEAR_EXACT = 0.5590169943749475


def test_linear_exact_reads_the_cylinder_probability(capsys):
    code, out, err = run_cli(capsys, "linear", "exact", *_LINEAR_FLAGS,
                             "--no-timing")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["command"] == "linear-exact"
    assert report["results"] == {"estimator": "exact",
                                 "probability": LINEAR_EXACT}
    code, out, _ = run_cli(capsys, "linear", "exact", *_LINEAR_FLAGS,
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == f"exact,{LINEAR_EXACT},,,,,,"


def test_linear_exact_reads_one_on_a_saturated_window(capsys):
    # 2*reach = 2*5*sqrt(5) exceeds the period 2R/n = 20: every crossing
    # is detected
    code, out, _ = run_cli(capsys, "linear", "exact", *_LINEAR_FLAGS[:4],
                           "--n", "10", *_LINEAR_FLAGS[6:], "--no-timing")
    assert code == 0
    assert json.loads(out)["results"]["probability"] == 1.0


def test_linear_exact_answers_where_the_closed_form_overflows(capsys):
    # sin(alpha) underflows to 0: the chord 2r/sin(alpha) is infinite and
    # asymptotic exits 1, while the record's window covers the period
    argv = ("--R", "1e301", "--r", "1e300", "--n", "1", "--v", "1e10",
            "--u", "1e-10", "--no-timing")
    code, out, err = run_cli(capsys, "linear", "asymptotic", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: OverflowError")
    code, out, err = run_cli(capsys, "linear", "exact", *argv)
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["probability"] == 1.0


def test_compare_on_a_segment_reads_the_segment_rows(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF_LINEAR)
    argv = ("compare", "--scenario", path, "--trials", "20000", "--seed", "3")
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, err) == (0, "")
    report = json.loads(out)
    results = report["results"]
    assert report["scenario"] == REF_LINEAR
    assert "warnings" not in report
    assert (results["exact"]["probability"]
            == results["asymptotic"]["probability"] == LINEAR_EXACT)
    assert results["gap_exact_asymptotic"] == 0.0
    code, out, _ = run_cli(capsys, "linear", "mc", *_LINEAR_FLAGS,
                           "--trials", "20000", "--seed", "3", "--no-timing")
    assert code == 0
    mc = json.loads(out)["results"]
    assert results["mc"] == {k: v for k, v in mc.items()
                             if k not in ("estimator", "seed")}
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
        "asymptotic", "exact", "mc"]


def test_sweep_of_a_segment_puts_exact_beside_asymptotic(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF_LINEAR)
    code, out, err = run_cli(capsys, "sweep", "--scenario", path,
                             "--parameter", "n", "--values", "1,2,5,9,10",
                             "--estimators", "asymptotic,exact")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["asymptotic", "exact"] * 5
    for asym, exact in zip(rows[::2], rows[1::2]):
        assert exact[:2] == asym[:2]
        assert exact[3] == asym[3]
    assert rows[-1][3] == "1.0"


def test_compare_warns_in_large_ratio_regime(capsys):
    code, out, _ = run_cli(capsys, "compare", "--R", "10", "--r", "3",
                           "--n", "1", "--v", "1", "--u", "1",
                           "--trials", "2000", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert any("large-parameter regime" in w for w in report["warnings"])


def test_jensen_inline_atoms(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, out, _ = run_cli(capsys, "jensen", "--scenario", path,
                           "--atoms", "[[0.9, 0.5], [1.1, 0.5]]",
                           "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["ratio"] == pytest.approx(1.0101010101010102, abs=1e-12)
    assert results["asymptotic_randomized"] == pytest.approx(
        0.3594760320288773, abs=1e-12)
    assert results["lhs"] >= results["rhs"]


def test_jensen_reports_exact_randomized(capsys):
    from patrolgeom import (RadiusDistribution,
                            exact_probability_random_radius, scenario_from_dict)

    code, out, _ = run_cli(capsys, "jensen", *_REF_FLAGS,
                           "--atoms", "[[0.9, 0.5], [1.1, 0.5]]", "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    expected = exact_probability_random_radius(
        scenario_from_dict(REF),
        RadiusDistribution.from_atoms([[0.9, 0.5], [1.1, 0.5]]))
    assert results["exact_randomized"] == expected
    # r/R = 0.05: the exact and small-radius values agree to O((r/R)^2)
    assert results["exact_randomized"] == pytest.approx(
        results["asymptotic_randomized"], rel=0.01)


@pytest.mark.parametrize("command, keys", [
    (("circular", "asymptotic"), ("probability", "chord_l", "m_min")),
    (("jensen", "--atoms", "[[0.9, 0.5], [1.1, 0.5]]"),
     ("asymptotic_fixed", "asymptotic_randomized", "lhs", "rhs")),
])
def test_asymptotic_answers_near_the_top_of_the_float_range(capsys, command,
                                                            keys):
    # pi * R * sin(alpha) overflows at R = 1.5e308; the closed forms are
    # scale-invariant, so each answer equals that at R = 1.5, r = 1e-8
    reports = []
    for R, r in (("1.5e308", "1e300"), ("1.5", "1e-8")):
        code, out, err = run_cli(capsys, *command, "--R", R, "--r", r,
                                 "--n", "10", "--v", "2", "--u", "1",
                                 "--no-timing")
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["results"])
    huge, small = reports
    for key in keys:
        assert huge[key] == pytest.approx(small[key], rel=1e-12, abs=0.0), key
    assert 0.0 < huge[keys[0]] < 1e-6


def test_asymptotic_answers_when_R_sin_alpha_underflows(capsys):
    # R * sin(alpha) = 1e-330 is below the float range; p = n r/(pi R sin
    # alpha) saturates, and the chord is 2 (r/R) / sin(alpha)
    code, out, err = run_cli(capsys, "circular", "asymptotic", "--R", "1e-300",
                             "--r", "1e-301", "--n", "10", "--v", "1",
                             "--u", "1e-30", "--no-timing")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["probability"] == 1.0
    assert results["m_min"] == 1
    assert results["chord_l"] == pytest.approx(2e29, rel=1e-12)


def _strict_json(text):
    """json.loads that rejects the non-JSON tokens Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


_FLAT = ("--R", "1", "--r", "0.1", "--n", "1", "--v", "1e300", "--u", "1e-300")


@pytest.mark.parametrize("command", [("circular", "exact"),
                                     ("compare", "--trials", "1000")])
def test_tiny_R_times_u_answers_one(capsys, command):
    # R*u = 1e-330 underflows; the rotation depends on v/u = 1e30 alone
    code, out, err = run_cli(capsys, *command, "--R", "1e-300", "--r", "1e-301",
                             "--n", "10", "--v", "1", "--u", "1e-30",
                             "--no-timing")
    assert (code, err) == (0, "")
    results = _strict_json(out)["results"]
    assert results.get("exact", results)["probability"] == 1.0


@pytest.mark.parametrize("command, key", [
    (("circular", "exact"), "probability"),
    (("jensen", "--atoms", "[[0.9,0.5],[1.1,0.5]]"), "exact_randomized"),
])
def test_exact_answers_near_the_top_of_the_float_range(capsys, command, key):
    # 4*R overflows at R = 1.5e308; the answer is that at R = 1.5, r = 1e-8
    answers = []
    for R, r in (("1.5e308", "1e300"), ("1.5", "1e-8")):
        code, out, err = run_cli(capsys, *command, "--R", R, "--r", r,
                                 "--n", "10", "--v", "2", "--u", "1",
                                 "--no-timing")
        assert (code, err) == (0, "")
        answers.append(_strict_json(out)["results"][key])
    assert answers[0] == pytest.approx(answers[1], rel=1e-12, abs=0.0)
    if command[0] == "circular":
        assert answers[1] == pytest.approx(4.745083622781181e-08, rel=1e-15,
                                           abs=0.0)


def test_exact_answer_at_the_smallest_radius_is_not_lost(capsys):
    # the static ring at r/R = 1e-300: p = n*(r/R)/pi, far from underflow
    code, out, err = run_cli(capsys, "circular", "exact", "--R", "1",
                             "--r", "1e-300", "--n", "3", "--v", "0", "--u", "1")
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["probability"] == pytest.approx(
        3e-300 / math.pi, rel=1e-12, abs=0.0)


def test_rotation_beyond_the_float_range_saturates_exact_and_mc(capsys):
    # v/u overflows to inf: the fleet outruns the intruder, every estimator
    # says detection is certain
    code, out, err = run_cli(capsys, "circular", "exact", *_FLAT, "--no-timing")
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["probability"] == 1.0
    code, out, err = run_cli(capsys, "circular", "mc", *_FLAT,
                             "--trials", "1000", "--no-timing")
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["successes"] == 1000


def test_linear_mc_detects_every_crossing_when_sin_alpha_underflows(capsys):
    code, out, err = run_cli(capsys, "linear", "mc", "--R", "1", "--r", "0.1",
                             "--n", "1", "--v", "1e200", "--u", "1e-200",
                             "--trials", "1000", "--no-timing")
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["successes"] == 1000


def test_linear_mc_detects_every_crossing_when_r_over_R_underflows_too(capsys):
    # v/u overflows to inf and r/R underflows to 0: the shift v/u*(r/R)
    # reads NaN, and the saturated window must still flag every crossing
    code, out, err = run_cli(capsys, "linear", "mc", "--R", "1e300",
                             "--r", "1e-30", "--n", "1", "--v", "1e300",
                             "--u", "1e-300", "--trials", "1000",
                             "--no-timing")
    assert (code, err) == (0, "")
    assert _strict_json(out)["results"]["successes"] == 1000


@pytest.mark.parametrize("argv", [
    ("circular", "asymptotic") + _FLAT,
    ("linear", "asymptotic") + _FLAT,
    ("linear", "asymptotic", "--R", "1e301", "--r", "1e300", "--n", "1",
     "--v", "1e10", "--u", "1e-10"),
    ("circular", "asymptotic", "--R", "100", "--r", "1e-320", "--n", "10",
     "--v", "2", "--u", "1"),
    ("linear", "asymptotic", "--R", "1e300", "--r", "5e-324", "--n", "10",
     "--v", "2", "--u", "1"),
])
def test_closed_form_beyond_the_float_range_exits_one(capsys, argv):
    # sin(alpha) underflows to 0, or a value exceeds 1.8e308: the
    # segment's chord 2r/sin(alpha), or m_min = ceil(1/share) for a share
    # that is 0 or subnormal
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, out) == (1, "")
    assert err.startswith("error: OverflowError") and err.count("\n") == 1


def test_jensen_requires_a_distribution(capsys, tmp_path):
    path = write_scenario(tmp_path, **REF)
    code, _, err = run_cli(capsys, "jensen", "--scenario", path)
    assert code == 1
    assert "radius distribution is required" in err


def test_jensen_distribution_file(capsys, tmp_path):
    scen = write_scenario(tmp_path, **REF)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"atoms": [[0.9, 0.5], [1.1, 0.5]]}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "jensen", "--scenario", scen,
                           "--distribution", str(dist), "--no-timing")
    assert code == 0
    assert json.loads(out)["results"]["mean_inverse_k"] == pytest.approx(
        100.0 / 99.0, abs=1e-12)


@pytest.mark.parametrize("key", ["k_minus", "k_plus"])
def test_distribution_file_takes_only_atoms(capsys, tmp_path, key):
    # the support is read from the atoms; a bound is no longer a key
    scen = write_scenario(tmp_path, **REF)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"atoms": [[0.9, 0.5], [1.1, 0.5]], key: 1.0}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "jensen", "--scenario", scen,
                             "--distribution", str(dist))
    assert (code, out) == (1, "")
    assert err == f"error: unknown distribution key(s): {key}\n"


@pytest.mark.parametrize("source", [
    ("--atoms", "5"),
    ("--atoms", "true"),
    ("--atoms", "[[null, 1]]"),
    ("--atoms", "[[1]]"),
    ("--atoms", '[["1", 1]]'),
    ("--distribution", {"atoms": [[0.9, 0.5], [1.1, 0.5]], "k_minus": [1]}),
    ("--distribution", {"atoms": 5}),
    ("--atoms", "[[1,"),
    ("--distribution", [[0.9, 0.5], [1.1, 0.5]]),
    ("--distribution", {"k_minus": 0.8}),
    ("--distribution", {"atoms": [[1.0, 1.0]], "weights": [1]}),
])
def test_malformed_distribution_exits_one(capsys, tmp_path, source):
    flag, value = source
    if flag == "--distribution":
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        value = str(path)
    code, out, err = run_cli(capsys, "jensen", "--R", "100", "--r", "5",
                             "--n", "10", "--v", "2", "--u", "1", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


_SWEEP_R = ("sweep",) + _REF_FLAGS + ("--parameter", "r")


@pytest.mark.parametrize("argv,content,message", [
    (("circular", "exact", "--scenario", "{file}"), None,
     "cannot read scenario file: "),
    (("circular", "exact", "--scenario", "{file}"), "{",
     "malformed scenario file: "),
    (("circular", "exact", "--scenario", "{file}"), "[1, 2]",
     "scenario file must hold a JSON object"),
    (("circular", "exact", "--scenario", "{file}"), json.dumps(REF_LINEAR),
     "circular scenario required, got kind 'linear'"),
    (("linear", "exact", "--scenario", "{file}"), json.dumps(REF),
     "linear scenario required, got kind 'circular'"),
    (("jensen", "--scenario", "{file}", "--atoms", "[[1, 1]]"),
     json.dumps(REF_LINEAR), "circular scenario required, got kind 'linear'"),
    (("compare", "--scenario", "{file}"), json.dumps(dict(REF, kind="needle")),
     "kind must be 'circular' or 'linear'"),
    (("sweep", "--scenario", "{file}", "--parameter", "r", "--values", "1"),
     json.dumps(dict(REF, kind="needle")),
     "kind must be 'circular' or 'linear'"),
    (_SWEEP_R + ("--values", "1,x"), None,
     "--values must be a comma-separated list of numbers"),
    (_SWEEP_R + ("--values", " , "), None,
     "--values must contain at least one number"),
    (_SWEEP_R + ("--start", "1", "--stop", "2"), None,
     "sweep needs --values or all of --start/--stop/--steps"),
    (_SWEEP_R + ("--start", "1", "--stop", "2", "--steps", "0"), None,
     "--steps must be >= 1"),
    (_SWEEP_R + ("--start", "0", "--stop", "2", "--steps", "3", "--log"), None,
     "log grids need positive --start/--stop"),
    (("polar-image", "--r-over-R", "0.1", "--points", "1"), None,
     "--points must be at least 2"),
    (_SWEEP_R + ("--values", "5", "--estimators", "mc", "--trials", "0"), None,
     "trials must be >= 1"),
    (_SWEEP_R + ("--values", "5", "--estimators", "mc", "--workers", "0"), None,
     "workers must be >= 1"),
    (_SWEEP_R + ("--values", "5", "--estimators", "mc", "--workers", "65"), None,
     "workers must be <= 64"),
    (_SWEEP_R[:-1] + ("n", "--values", "nan"), None,
     "swept n values must be integers"),
    (_SWEEP_R[:-1] + ("n", "--values", "inf"), None,
     "swept n values must be integers"),
], ids=["unreadable-file", "malformed-file", "file-not-object",
        "kind-mismatch", "linear-kind-mismatch", "jensen-kind-mismatch",
        "compare-unknown-kind", "sweep-unknown-kind", "bad-values",
        "empty-values", "missing-grid", "zero-steps", "log-from-zero",
        "one-point", "zero-trials", "zero-workers", "too-many-workers",
        "nan-n", "inf-n"])
def test_bad_input_exits_one_before_any_output(capsys, tmp_path, argv,
                                               content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + message)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_a_file_naming_no_kind_reads_as_the_commands_kind(capsys, tmp_path):
    # linear exact reads it as a segment; compare, which takes either kind,
    # as a circle
    fields = {k: v for k, v in REF_LINEAR.items() if k != "kind"}
    path = write_scenario(tmp_path, **fields)
    for argv, kind in ((("linear", "exact"), "linear"),
                       (("compare", "--trials", "1000"), "circular")):
        code, out, _ = run_cli(capsys, *argv, "--scenario", path)
        assert code == 0
        assert json.loads(out)["scenario"] == dict(fields, kind=kind)


def test_sweep_single_step_grid_is_its_start(capsys):
    code, out, _ = run_cli(capsys, *_SWEEP_R, "--start", "2", "--stop", "7",
                           "--steps", "1")
    assert code == 0
    assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [
        ["r", "2.0", "asymptotic"]]


def test_default_report_carries_its_timing(capsys):
    code, out, _ = run_cli(capsys, "circular", "asymptotic", *_REF_FLAGS)
    assert code == 0
    timing = json.loads(out)["timing_seconds"]
    assert isinstance(timing, float) and 0.0 <= timing < 60.0


@pytest.mark.parametrize("estimators", ["", " , ", "exact,magic"])
def test_bad_estimator_list_is_a_usage_error(capsys, estimators):
    code, out, err = run_cli(capsys, *_SWEEP_R, "--values", "1",
                             "--estimators", estimators)
    assert code == 2 and out == ""
    assert err.startswith("usage: ")
    assert "argument --estimators: unknown estimator" in err


def test_estimator_list_is_sorted_and_deduplicated(capsys):
    argv = _SWEEP_R + ("--values", "2,1", "--trials", "500")
    _, plain, _ = run_cli(capsys, *argv, "--estimators", "asymptotic,exact,mc")
    code, messy, _ = run_cli(capsys, *argv, "--estimators",
                             " mc, exact ,asymptotic,mc")
    assert code == 0 and messy == plain
    assert [row.split(",")[2] for row in plain.splitlines()[1:]] == [
        "asymptotic", "exact", "mc"] * 2


def test_polar_image_csv(capsys):
    code, out, _ = run_cli(capsys, "polar-image", "--r-over-R", "0.1",
                           "--points", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "psi,rho_norm,phi"
    assert len(lines) == 9
    # psi = pi/2 is the third sample: farthest image point, zero bearing
    psi, rho, phi = (float(x) for x in lines[3].split(","))
    assert psi == pytest.approx(math.pi / 2.0)
    assert rho == pytest.approx(1.1, abs=1e-12)
    assert phi == pytest.approx(0.0, abs=1e-12)


def test_polar_image_streams_its_rows():
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            code = main(["polar-image", "--r-over-R", "0.1",
                         "--points", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 1024 * 1024


def test_sweep_streams_its_rows():
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            code = main(["sweep", *_REF_FLAGS, "--parameter", "r",
                         "--start", "1", "--stop", "10", "--steps", "20000",
                         "--estimators", "asymptotic"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("start,stop", [("1", "100"), ("100", "1")])
def test_sweep_bad_grid_value_prints_no_csv(capsys, start, stop):
    # r = 100 = R is the last grid value either way round: it fails
    # validation after 9 good values, still before the header
    code, out, err = run_cli(capsys, "sweep", *_REF_FLAGS, "--parameter",
                             "r", "--start", start, "--stop", stop,
                             "--steps", "10")
    assert code == 1 and out == ""
    assert err == "error: r < R required\n"


def test_sweep_stops_at_a_value_too_extreme_to_compute(capsys):
    # v = 1e300 validates, but its closed form leaves the float range: the
    # rows before it are already written
    code, out, err = run_cli(capsys, "sweep", "--R", "100", "--r", "5",
                             "--n", "10", "--u", "1e-10", "--parameter", "v",
                             "--values", "1e300,1")
    assert code == 1
    assert out.splitlines()[1:] == [
        "v,1.0,asymptotic,1.0,,,1,1000000000.0,,"]
    assert err == "error: OverflowError: closed form exceeds the float range\n"


def test_polar_image_bad_ratio_prints_no_csv(capsys):
    code, out, err = run_cli(capsys, "polar-image", "--r-over-R", "1.5")
    assert code == 1 and out == ""
    assert err.startswith("error: r_over_R")


def test_closed_pipe_exits_one_quietly():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen([sys.executable, "-m", "patrolgeom", "polar-image",
                           "--r-over-R", "0.1", "--points", "200000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"psi,rho_norm,phi\n"
        proc.stdout.close()  # the reader leaves after one line
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 1 and err == b""


def test_polar_image_approx_flag(capsys):
    code, out, _ = run_cli(capsys, "polar-image", "--r-over-R", "0.1",
                           "--points", "4", "--approx")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0)   # psi = 0
    assert float(rows[0][2]) == pytest.approx(0.1)


@pytest.mark.parametrize("fields", [
    dict(R=1.0, r=0.1, n=1, v=1e9, u=1.0),        # v/u = 1e9
    dict(R=1.0, r=1e-7, n=10 ** 9, v=2.0, u=1.0),  # n = 1e9
])
def test_extreme_exact_input_is_bounded(capsys, fields):
    argv = ["circular", "exact", "--no-timing"]
    for key, value in fields.items():
        argv += [f"--{key}", str(value)]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and err == ""
    assert 0.0 < json.loads(out)["results"]["probability"] <= 1.0


def test_scenario_file_number_beyond_float_range_exits_one(capsys, tmp_path):
    path = write_scenario(tmp_path, **{**REF, "R": 10 ** 400})
    code, out, err = run_cli(capsys, "circular", "exact", "--scenario", path)
    assert (code, out, err) == (1, "", "error: R must be finite\n")


def test_fleet_size_beyond_float_range_exits_one(capsys):
    code, out, err = run_cli(capsys, "circular", "exact", "--R", "1",
                             "--r", "0.1", "--n", str(10 ** 400),
                             "--v", "1", "--u", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: n must not exceed the float range")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("circular", "mc") + _REF_FLAGS,
    ("linear", "mc") + _LINEAR_FLAGS,
    ("compare",) + _REF_FLAGS,
    ("buffon", "--l", "1", "--L", "1"),
])
def test_workers_above_ceiling_exits_one_without_threads(capsys, monkeypatch,
                                                         argv):
    import threading

    def refuse(*args, **kwargs):
        raise AssertionError("no worker thread may start")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, err = run_cli(capsys, *argv, "--workers", "100000",
                             "--trials", "1000000000")
    assert code == 1 and out == ""
    assert err == "error: workers must be <= 64\n"


# each estimator's library function, and a request that calls it
_LIBRARY_CALLS = {
    "exact_probability": ("circular", "exact"),
    "mc_probability": ("circular", "mc", "--trials", "1000"),
    "asymptotic_summary": ("circular", "asymptotic"),
    "exact_probability_linear": ("linear", "exact"),
    "mc_probability_linear": ("linear", "mc", "--trials", "1000"),
    "asymptotic_summary_linear": ("linear", "asymptotic"),
}


@pytest.mark.parametrize("name", list(_LIBRARY_CALLS))
def test_memory_error_exits_one_without_traceback(capsys, monkeypatch, name):
    # the CLI looks each library function up when a request calls it, so
    # rebinding the module's name reaches every estimator
    import patrolgeom.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, name, exhausted)
    code, out, err = run_cli(capsys, *_LIBRARY_CALLS[name], "--R", "100",
                             "--r", "5", "--n", "10", "--v", "2", "--u", "1")
    assert code == 1 and out == ""
    assert err == "error: MemoryError\n"
    assert "Traceback" not in err


def test_non_finite_result_exits_one_without_output(capsys, monkeypatch):
    import patrolgeom.cli as cli

    monkeypatch.setattr(cli, "buffon_probability", lambda problem: math.nan)
    code, out, err = run_cli(capsys, "buffon", "--l", "1", "--L", "2",
                             "--trials", "1000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
