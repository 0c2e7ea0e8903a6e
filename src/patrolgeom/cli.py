"""Command-line front end.

Subcommands mirror the library: buffon, circular and linear (one mode per
estimator: exact, mc, asymptotic), jensen, sweep, compare, polar-image.
Scenario parameters come from a JSON file (--scenario) and/or inline flags,
inline winning on overlap; sweep and compare take either kind, circular
unless the file names another.  Reports are JSON by default or CSV with
--format csv; --no-timing drops the wall-clock field so repeated runs are
byte-identical.

One table, _RECORD, maps each (patrol model, estimator) pair to the
function that computes its results record, and is the only code that pairs
the two; circular's and linear's modes, the --estimators choices, compare
and sweep all read it.  Every model has every estimator.  A report prints a
record as its JSON `results`, or nests several by name, and every CSV row
carries the record's fields of the same name under the fixed header
estimator,probability,ci_low,ci_high,m_min,chord_l,trials,seed (sweep puts
parameter,value in front).  jensen --format csv prints quantity,value rows.

Exit codes: 0 success, 1 validation error (a malformed radius distribution
included), input too extreme to compute (MemoryError, OverflowError), a
report that stdout could not take (a full or closed stream) or a reader
that closed stdout early (nothing on stderr), 2 usage error.

exit_main, the console entry point, runs main and ends the process with
os._exit, skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from typing import Iterator, NoReturn

from . import __version__
from .buffon import NeedleProblem, buffon_mc, buffon_probability
from .circular import asymptotic_summary, exact_probability, mc_probability
from .frames import TWO_PI, scan_circle_polar_approx, scan_circle_polar_exact
from .linear import (asymptotic_summary_linear, exact_probability_linear,
                     mc_probability_linear)
from .montecarlo import DEFAULT_SEED, _check_run
from .randomradius import (RadiusDistribution, asymptotic_probability_randomized,
                           exact_probability_random_radius, jensen_sides)
from .scenario import (_SCENARIO_KEYS, ValidationError, scenario_from_dict,
                       scenario_to_dict)

DEFAULT_TRIALS = 100_000
LARGE_RATIO = 0.2

_CSV_HEADER = ("estimator", "probability", "ci_low", "ci_high",
               "m_min", "chord_l", "trials", "seed")
_SWEEP_HEADER = ("parameter", "value") + _CSV_HEADER
_FIELDS = _SCENARIO_KEYS[1:]  # a scenario's numbers, all sweepable


def _stdout():
    """sys.stdout, or OSError where the process started with fd 1 closed
    and Python set sys.stdout to None, which print would skip silently."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _write_csv(header, rows) -> None:
    out = _stdout()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join("" if cell is None else str(cell) for cell in row) + "\n")


def _csv_row(record: dict) -> tuple:
    """A record's cells under _CSV_HEADER, None where it has no such field."""
    return tuple(record.get(col) for col in _CSV_HEADER)


def _mc_record(run, problem, args) -> dict:
    """The record of run(problem, trials, seed, workers), a Monte Carlo
    estimator, at the request's --trials, --seed and --workers."""
    est = run(problem, args.trials, args.seed, args.workers)
    return {"estimator": "mc", "seed": args.seed, "probability": est.mean,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
            "stderr": est.stderr, "successes": est.successes,
            "trials": est.trials}


def _asymptotic(summary) -> dict:
    return {"estimator": "asymptotic", "probability": summary.p_asym,
            "chord_l": summary.chord_l, "m_min": summary.m_min}


def _nested(record: dict) -> dict:
    """A record as reports with several estimators nest it under its name."""
    return {k: v for k, v in record.items() if k not in ("estimator", "seed")}


# (kind, estimator) -> record(scenario, args), the results record of that
# estimator on a scenario of that kind: the one place that maps an estimator
# and a patrol model to a library call.  Every kind has every estimator.  A
# kind's rows are its modes, in help order.  Each row looks its library
# function up in this module when it runs, so that rebinding the module's
# name reaches every request.
_RECORD = {
    ("circular", "exact"): lambda s, a: {"estimator": "exact",
                                         "probability": exact_probability(s)},
    ("circular", "mc"): lambda s, a: _mc_record(mc_probability, s, a),
    ("circular", "asymptotic"): lambda s, a: _asymptotic(asymptotic_summary(s)),
    ("linear", "exact"): lambda s, a: {
        "estimator": "exact", "probability": exact_probability_linear(s)},
    ("linear", "mc"): lambda s, a: _mc_record(mc_probability_linear, s, a),
    ("linear", "asymptotic"): lambda s, a: _asymptotic(asymptotic_summary_linear(s)),
}
_ESTIMATORS = tuple(sorted({name for _, name in _RECORD}))


def _emit(args, command: str, scenario: dict, results: dict,
          rows: list, header: tuple = _CSV_HEADER) -> None:
    """Print the report; its timing spans the request from main's t0."""
    if args.format == "csv":
        _write_csv(header, rows)
        return
    report = {"tool": "patrolgeom", "version": __version__, "command": command,
              "scenario": scenario, "results": results}
    ratio = scenario["r"] / scenario["R"] if scenario["kind"] == "circular" else 0.0
    if ratio > LARGE_RATIO:
        report["warnings"] = [f"large-parameter regime: r/R = {ratio:.6g} exceeds "
                              f"{LARGE_RATIO}; small-radius closed forms degrade"]
    if not args.no_timing:
        report["timing_seconds"] = time.perf_counter() - args.t0
    print(json.dumps(report, indent=2, allow_nan=False), file=_stdout())


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read {what} file: {err}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"malformed {what} file: {err}")


def _scenario_data(args, kind: str | None = None) -> dict:
    """Scenario fields from the --scenario file, if any, with inline flags
    overriding them; not yet validated.  Where the file names no kind it
    is `kind`, or circular; where `kind` is given the file's must match."""
    data = _read_json(args.scenario, "scenario") if args.scenario else {}
    if not isinstance(data, dict):
        raise ValidationError("scenario file must hold a JSON object")
    for key in _FIELDS:
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    data.setdefault("kind", kind or "circular")
    if kind is not None and data["kind"] != kind:
        raise ValidationError(f"{kind} scenario required, got kind "
                              f"'{data['kind']}'")
    return data


def _distribution_from_args(args) -> RadiusDistribution:
    """--atoms JSON reads as the file object {"atoms": JSON} would."""
    if args.atoms:
        try:
            raw = {"atoms": json.loads(args.atoms)}
        except json.JSONDecodeError as err:
            raise ValidationError(f"malformed --atoms JSON: {err}")
    elif args.distribution:
        raw = _read_json(args.distribution, "distribution")
    else:
        raise ValidationError("a radius distribution is required "
                              "(--distribution FILE or --atoms JSON)")
    if not isinstance(raw, dict) or "atoms" not in raw:
        raise ValidationError("distribution file must hold an object "
                              "with an 'atoms' array")
    extra = sorted(set(raw) - {"atoms"})
    if extra:
        raise ValidationError(f"unknown distribution key(s): {', '.join(extra)}")
    return RadiusDistribution.from_atoms(raw["atoms"])


# ---- subcommand handlers ----

def _cmd_buffon(args) -> None:
    problem = NeedleProblem(l=args.l, L=args.L)
    analytic = {"estimator": "analytic",
                "probability": buffon_probability(problem)}
    mc = _mc_record(buffon_mc, problem, args)
    results = {"analytic": analytic["probability"], "mc": _nested(mc)}
    _emit(args, "buffon", {"kind": "needle", "l": args.l, "L": args.L},
          results, [_csv_row(analytic), _csv_row(mc)])


def _cmd_estimate(args) -> None:
    """circular and linear: the mode names the row of _RECORD to run."""
    scen = scenario_from_dict(_scenario_data(args, args.kind))
    record = _RECORD[args.kind, args.mode](scen, args)
    _emit(args, f"{args.kind}-{args.mode}", scenario_to_dict(scen),
          record, [_csv_row(record)])


def _cmd_jensen(args) -> None:
    scen = scenario_from_dict(_scenario_data(args, "circular"))
    dist = _distribution_from_args(args)
    lhs, rhs = jensen_sides(dist, scen.r, scen.R)
    fixed = asymptotic_summary(scen).p_asym
    randomized = asymptotic_probability_randomized(scen, dist)
    results = {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
               "mean_inverse_k": dist.mean_inverse(),
               "asymptotic_fixed": fixed,
               "asymptotic_randomized": randomized,
               "exact_randomized": exact_probability_random_radius(scen, dist)}
    _emit(args, "jensen", scenario_to_dict(scen), results,
          sorted(results.items()), header=("quantity", "value"))


def _cmd_compare(args) -> None:
    data = _scenario_data(args)
    scen = scenario_from_dict(data)
    exact, mc, asym = (_RECORD[data["kind"], name](scen, args)
                       for name in ("exact", "mc", "asymptotic"))
    results = {r["estimator"]: _nested(r) for r in (exact, mc, asym)}
    results["gap_exact_asymptotic"] = abs(exact["probability"]
                                          - asym["probability"])
    results["exact_within_mc_ci"] = bool(
        mc["ci_low"] <= exact["probability"] <= mc["ci_high"])
    _emit(args, "compare", scenario_to_dict(scen), results,
          [_csv_row(r) for r in (asym, exact, mc)])


def _estimator_names(text: str) -> list[str]:
    """--estimators: the sorted, distinct names of a comma-separated list,
    which must be a nonempty subset of _ESTIMATORS."""
    names = {e.strip() for e in text.split(",")} - {""}
    if not names or not names <= set(_ESTIMATORS):
        raise argparse.ArgumentTypeError(
            f"unknown estimator list {text!r} (choose from "
            + ", ".join(_ESTIMATORS) + ")")
    return sorted(names)


def _sweep_values(args) -> Iterator[float]:
    """The swept values in ascending order; a --start/--stop/--steps grid
    is generated one value at a time, so memory stays flat at any --steps."""
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise ValidationError("--values must be a comma-separated "
                                  "list of numbers")
        if not values:
            raise ValidationError("--values must contain at least one number")
        yield from sorted(values)
        return
    if args.start is None or args.stop is None or args.steps is None:
        raise ValidationError("sweep needs --values or all of "
                              "--start/--stop/--steps")
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    if args.steps == 1:
        yield args.start
        return
    indices = range(args.steps)
    if args.start > args.stop:  # the grid falls with i: walk it backwards
        indices = reversed(indices)
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ValidationError("log grids need positive --start/--stop")
        ratio = (args.stop / args.start) ** (1.0 / (args.steps - 1))
        yield from (args.start * ratio ** i for i in indices)
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        yield from (args.start + step * i for i in indices)


def _cmd_sweep(args) -> None:
    base = _scenario_data(args)
    param = args.parameter

    def scenarios():
        for value in _sweep_values(args):
            if param == "n" and not value.is_integer():
                raise ValidationError("swept n values must be integers")
            yield scenario_from_dict({**base, param: value})

    size = sum(1 for _ in scenarios())  # a bad value raises before the header
    if "mc" in args.estimators:  # and bad --trials and --workers; given the
        # row count, montecarlo picks the grid's MC path before the header
        _check_run(args.trials, args.workers, runs=size)
    # then one row at a time, as polar-image does
    rows = ((param, getattr(scen, param))
            + _csv_row(_RECORD[base["kind"], name](scen, args))
            for scen in scenarios() for name in args.estimators)
    _write_csv(_SWEEP_HEADER, rows)


def _cmd_polar_image(args) -> None:
    if args.points < 2:
        raise ValidationError("--points must be at least 2")
    project = scan_circle_polar_approx if args.approx else scan_circle_polar_exact
    project(args.r_over_R, 0.0)  # a bad ratio raises before the header

    def rows():
        # one row at a time: memory stays flat at any --points
        for i in range(args.points):
            psi = TWO_PI * i / args.points
            point = project(args.r_over_R, psi)
            yield psi, point.rho_norm, point.phi

    _write_csv(("psi", "rho_norm", "phi"), rows())


# ---- parser assembly ----

def _scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", metavar="FILE",
                   help="JSON scenario file; inline flags override its fields")
    p.add_argument("--R", type=float, help="patrol radius / segment length")
    p.add_argument("--r", type=float, help="scan radius")
    p.add_argument("--n", type=int, help="number of vehicles")
    p.add_argument("--v", type=float, help="vehicle speed")
    p.add_argument("--u", type=float, help="intruder speed")


def _output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock timing for byte-identical reruns")


def _mc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"root seed (default {DEFAULT_SEED})")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads; never changes the result, and "
                        "pays off only from about 10^6 trials with a free "
                        "core per worker")


def _needle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l", type=float, required=True, help="needle length")
    p.add_argument("--L", type=float, required=True, help="line spacing")


def _distribution_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distribution", metavar="FILE",
                   help="JSON file with an 'atoms' array of [k, p] pairs")
    p.add_argument("--atoms", metavar="JSON",
                   help="inline JSON array of [k, p] pairs")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--parameter", choices=_FIELDS, required=True)
    p.add_argument("--values", help="comma-separated explicit values")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.add_argument("--estimators", type=_estimator_names, default="asymptotic",
                   help="comma-separated subset of "
                        + ",".join(_ESTIMATORS))


def _polar_image_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-over-R", dest="r_over_R", type=float, required=True)
    p.add_argument("--points", type=int, default=720)
    p.add_argument("--approx", action="store_true",
                   help="first-order image instead of the exact one")


_ESTIMATE_MC = (_scenario_args, _output_args, _mc_args)


def _modes(kind: str) -> dict:
    """The modes of circular or linear, its rows of _RECORD in help order,
    each mapped to the functions that add its arguments (mc alone takes
    the Monte Carlo ones)."""
    return {name: _ESTIMATE_MC if name == "mc" else _ESTIMATE_MC[:2]
            for k, name in _RECORD if k == kind}


# command -> (help, handler, the functions that add its arguments, in help
# order); circular and linear map each mode to those functions instead
_COMMANDS = {
    "buffon": ("short-needle crossing probability", _cmd_buffon,
               (_output_args, _mc_args, _needle_args)),
    "circular": ("circular patrol estimators", _cmd_estimate,
                 _modes("circular")),
    "linear": ("segment patrol estimators", _cmd_estimate, _modes("linear")),
    "jensen": ("randomized-radius convexity check", _cmd_jensen,
               (_scenario_args, _output_args, _distribution_args)),
    "sweep": ("parameter sweep, CSV on stdout", _cmd_sweep,
              (_scenario_args, _mc_args, _sweep_args)),
    "compare": ("exact vs Monte Carlo vs asymptotic", _cmd_compare,
                _ESTIMATE_MC),
    "polar-image": ("polar image of a scan circle, CSV on stdout",
                    _cmd_polar_image, (_polar_image_args,)),
}


def _subparsers(parser, dest: str, names, pick):
    """The subparsers action for `names` and the names to build under it:
    all of them, or only `pick`, with every name still in the usage line
    that usage errors print."""
    if pick is None:
        return parser.add_subparsers(dest=dest, required=True), names
    metavar = "{" + ",".join(names) + "}"
    return parser.add_subparsers(dest=dest, required=True,
                                 metavar=metavar), (pick,)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser.  When `argv` names a command (and, for
    circular and linear, a mode) only that chain of parsers is built, and
    it prints and parses that request as the whole tree would; otherwise
    the whole tree, from which the top-level -h, --version and a missing or
    unknown command or mode print."""
    command, mode = (list(argv or ()) + [None, None])[:2]
    entry = _COMMANDS.get(command)
    if entry is None or (isinstance(entry[2], dict) and mode not in entry[2]):
        command = mode = None
    parser = argparse.ArgumentParser(
        prog="patrolgeom",
        description="Detection probability of a mobile intruder by a "
                    "patrolling sensor fleet.")
    parser.add_argument("--version", action="version", version=__version__)
    sub, names = _subparsers(parser, "command", _COMMANDS, command)
    for name in names:
        help_text, func, adders = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if isinstance(adders, dict):
            p.set_defaults(kind=name)
            modes, mode_names = _subparsers(p, "mode", adders, mode)
            targets = [(modes.add_parser(m), adders[m]) for m in mode_names]
        else:
            targets = [(p, adders)]
        for target, add_args in targets:
            for add in add_args:
                add(target)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    args.t0 = time.perf_counter()
    try:
        args.func(args)
        # a closed pipe surfaces here, while the error is still handled
        _stdout().flush()
        return 0
    except OSError as err:
        # stdout could not take the report: the reader left early (nothing
        # to say), or the stream is full or closed.  Send what is still
        # buffered to devnull, so that no later flush can raise again.
        if not isinstance(err, BrokenPipeError):
            print(f"error: cannot write the report: {err}", file=sys.stderr)
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1
    except ValueError as err:
        # covers ValidationError and bad numeric domains
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as err:
        # input that validates but is too extreme to compute: one line,
        # no traceback
        reason = type(err).__name__ + (f": {err}" if str(err) else "")
        print(f"error: {reason}", file=sys.stderr)
        return 1


def exit_main(argv=None) -> NoReturn:
    """Run main(argv) and end the process with its exit code, without
    interpreter teardown: the final garbage collection and the clean-up of
    every loaded module, numpy's included, in a process that is about to
    end anyway.

    Skipping it loses nothing.  No package code registers an atexit
    callback, run_bernoulli_trials joins its worker threads before main
    returns, and the callbacks skipped are logging.shutdown (no handlers)
    and those of modules that site-packages .pth files load.  stdout and
    stderr are flushed first; where a flush raises, the process exits
    through sys.exit as a plain `main` call would.  main itself leaves the
    interpreter running, for tests and library callers."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        pass  # a stream is missing, full or closed
    else:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    exit_main()
