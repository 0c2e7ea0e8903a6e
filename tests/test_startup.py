"""Start-up cost: the closed-form commands never load numpy, a thread
pool or `statistics`.  A small Monte Carlo request (up to _SCALAR_DRAWS
draws in all per process) counts its trials without numpy; a larger one
loads numpy, and neither a thread pool nor `statistics` at any worker
count: extra workers run on plain threads.  A sweep whose grid exceeds
what is left of that allowance loads numpy before its first row.  A
request builds only the argument parsers its command names.

Each case runs a fresh interpreter, because this test process has long
since imported numpy.

The end: `python -m patrolgeom` leaves through os._exit, without
interpreter teardown, and still exits and prints as `cli.main` would."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patrolgeom.cli import main
from patrolgeom.montecarlo import _SCALAR_DRAWS

SRC = str(Path(__file__).resolve().parent.parent / "src")

HEAVY = ("numpy", "concurrent.futures", "statistics")

REF = ["--R", "100", "--r", "5", "--n", "10", "--v", "2", "--u", "1"]

_PROBE = """
import argparse, contextlib, io, json, sys
import patrolgeom.cli
built = [0]
construct = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built[0] += 1
    construct(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
codes, parsers = [], []
for argv in json.loads(sys.argv[1]):
    built[0] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(patrolgeom.cli.main(argv))
    parsers.append(built[0])
print(json.dumps({"codes": codes, "parsers": parsers,
                  "modules": sorted(sys.modules),
                  "scalar_left": patrolgeom.montecarlo._scalar_left}))
"""


def _probe(*commands) -> dict:
    """Run `commands` through cli.main in one fresh process: their exit
    codes and ArgumentParser counts, and the modules loaded and the
    numpy-free allowance left afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE,
                           json.dumps([list(c) for c in commands])],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


def _run(*commands):
    """Exit codes of `commands` run through cli.main in one fresh process,
    and the modules loaded afterwards."""
    result = _probe(*commands)
    return result["codes"], set(result["modules"])


def test_closed_form_commands_never_load_numpy():
    codes, modules = _run(
        ["circular", "exact", *REF],
        ["circular", "asymptotic", *REF],
        ["linear", "exact", "--R", "100", "--r", "5", "--n", "5",
         "--v", "2", "--u", "1"],
        ["linear", "asymptotic", "--R", "100", "--r", "5", "--n", "5",
         "--v", "2", "--u", "1"],
        ["jensen", *REF, "--atoms", "[[0.9, 0.5], [1.1, 0.5]]"],
        ["sweep", *REF, "--parameter", "r", "--values", "1,2,4",
         "--estimators", "asymptotic,exact"],
        ["polar-image", "--r-over-R", "0.1", "--points", "8"],
    )
    assert codes == [0] * 7
    assert modules.isdisjoint(HEAVY)


def test_single_worker_monte_carlo_loads_numpy_but_no_thread_pool():
    # one one-draw trial more than the allowance of _SCALAR_DRAWS draws
    codes, modules = _run(["circular", "mc", *REF, "--trials",
                           str(_SCALAR_DRAWS + 1), "--workers", "1"])
    assert codes == [0]
    assert "numpy" in modules
    assert "concurrent.futures" not in modules
    assert "statistics" not in modules


def test_two_worker_monte_carlo_loads_numpy_but_no_thread_pool():
    # the second worker runs on a plain thread: neither the executor nor
    # the logging it imports is loaded
    codes, modules = _run(["circular", "mc", *REF, "--trials",
                           str(_SCALAR_DRAWS + 1), "--workers", "2"])
    assert codes == [0]
    assert "numpy" in modules
    assert modules.isdisjoint({"concurrent.futures", "logging"})
    assert "statistics" not in modules


def test_small_monte_carlo_requests_never_load_numpy():
    codes, modules = _run(
        ["linear", "mc", "--R", "100", "--r", "5", "--n", "5", "--v", "2",
         "--u", "1", "--trials", "500"],
        ["circular", "mc", *REF, "--trials", "5000"],
        ["compare", *REF, "--trials", "1000"],
    )
    assert codes == [0] * 3
    assert modules.isdisjoint(HEAVY)


def test_circle_requests_of_100_000_trials_never_load_numpy():
    # circular mc and compare at 100 000 trials, as six of the ten
    # requests of perfbench's circular_mc are: one draw a trial, so each
    # fits the allowance of a fresh process and counts on the lane path
    for command in ("circular", "mc"), ("compare",):
        codes, modules = _run([*command, *REF, "--trials", "100000"])
        assert codes == [0]
        assert modules.isdisjoint(HEAVY), command


_RANDOM_RADIUS_PROBE = """
import json, sys
from patrolgeom.randomradius import (RadiusDistribution,
                                     mc_probability_random_radius)
from patrolgeom.scenario import CircularPatrolScenario
circle = CircularPatrolScenario(R=100.0, r=5.0, n=10, v=2.0, u=1.0)
atoms = RadiusDistribution.from_atoms([(0.8, 0.25), (1.0, 0.5), (1.2, 0.25)])
est = mc_probability_random_radius(circle, atoms, 100000, 7)
print(json.dumps([est.successes, sorted(sys.modules)]))
"""


def test_requests_of_200_000_draws_never_load_numpy():
    # a 200 000-trial circle request and a 100 000-trial randomized-radius
    # request (two draws a trial), each in a fresh process, as
    # perfbench's circular_mc asks them: both fit the allowance of
    # _SCALAR_DRAWS draws.  The randomized radius has no CLI command, so it
    # is a library call
    codes, modules = _run(["circular", "mc", *REF, "--trials", "200000"])
    assert codes == [0]
    assert modules.isdisjoint(HEAVY)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _RANDOM_RADIUS_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    successes, modules = json.loads(proc.stdout)
    assert 0 < successes < 100000
    assert set(modules).isdisjoint(HEAVY)


def test_a_sweep_of_small_requests_turns_to_numpy():
    # one row of 20 000 one-draw trials more than the process's scalar
    # allowance of _SCALAR_DRAWS holds: the sweep imports numpy before its
    # first row and spends none of the allowance
    rows = _SCALAR_DRAWS // 20000 + 1
    result = _probe(["sweep", *REF, "--parameter", "r", "--start", "1",
                     "--stop", "20", "--steps", str(rows), "--estimators",
                     "mc", "--trials", "20000"])
    assert result["codes"] == [0]
    assert "numpy" in result["modules"]
    assert result["scalar_left"] == _SCALAR_DRAWS


def test_a_sweep_within_the_allowance_never_loads_numpy():
    # 5 rows of 20 000 one-draw trials fit the allowance
    result = _probe(["sweep", *REF, "--parameter", "r", "--start", "1",
                     "--stop", "20", "--steps", "5", "--estimators", "mc",
                     "--trials", "20000"])
    assert result["codes"] == [0]
    assert set(result["modules"]).isdisjoint(HEAVY)
    assert result["scalar_left"] == _SCALAR_DRAWS - 5 * 20000


def test_a_request_builds_only_its_own_parsers():
    # circular exact: top, circular, exact; compare: top, compare.  -h in
    # place of a command or mode builds the whole tree: top, 7 commands and
    # 6 modes
    result = _probe(["circular", "exact", *REF],
                    ["compare", *REF, "--trials", "1000"],
                    ["-h"], ["circular", "-h"])
    assert result["codes"] == [0] * 4
    assert result["parsers"] == [3, 2, 14, 14]


def test_importing_the_cli_loads_every_package_module():
    _, modules = _run()
    package = {"patrolgeom." + name for name in (
        "buffon", "circular", "cli", "frames", "linear", "montecarlo",
        "randomradius", "scenario")}
    assert package <= modules
    assert modules.isdisjoint(HEAVY)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records share one small base class instead of generated code
    _, modules = _run()
    assert "patrolgeom.cli" in modules
    assert modules.isdisjoint({"dataclasses", "inspect"})


# python -m patrolgeom, with an atexit marker registered first: the marker
# writes to stderr only if the interpreter tears down
_ENTRY = """
import atexit, os, runpy
atexit.register(os.write, 2, b"teardown ran\\n")
runpy.run_module("patrolgeom", run_name="__main__", alter_sys=True)
"""


def _entry(*argv, shell=()) -> subprocess.CompletedProcess:
    """Run the entry point on argv, through the sh command `shell` if set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-c", _ENTRY, *argv]
    if shell:
        command = ["sh", "-c", shell, "sh", *command]
    return subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("argv,code", [
    (["circular", "exact", *REF, "--no-timing"], 0),
    (["circular", "exact", *REF[:2], "--r", "500", *REF[4:]], 1),
    (["circular", "exact", *REF, "--bogus"], 2),
    (["--version"], 0),
])
def test_the_entry_point_skips_teardown_and_answers_as_main(capsys, argv,
                                                             code):
    proc = _entry(*argv)
    assert "teardown ran" not in proc.stderr
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)


def test_with_stdout_closed_the_entry_point_exits_through_teardown():
    # sys.stdout is None, so the flush before os._exit raises and the
    # process leaves through sys.exit: one error line, exit code 1
    proc = _entry("circular", "exact", *REF, shell='exec "$@" >&-')
    assert proc.returncode == 1
    assert proc.stderr == ("error: cannot write the report: "
                           "[Errno 9] stdout is closed\nteardown ran\n")


def test_two_workers_print_the_same_bytes_through_the_entry_point():
    # the worker threads are joined before main returns, so os._exit
    # drops no output; 250 000 trials take the numpy path, where the
    # second worker runs
    outs = [_entry("circular", "mc", *REF, "--trials", "250000",
                   "--workers", workers, "--no-timing")
            for workers in ("1", "2")]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout != ""
    assert outs[0].stderr == outs[1].stderr == ""
