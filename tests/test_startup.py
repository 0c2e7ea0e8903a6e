"""Start-up cost: the closed-form commands never load numpy, the thread
pool or `statistics`.  A small Monte Carlo request (up to 131 072 draws in
all per process) counts its trials without numpy; a larger one loads numpy,
the thread pool only for several workers, and `statistics` never.  A
request builds only the argument parsers its command names.

Each case runs a fresh interpreter, because this test process has long
since imported numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
                  "modules": sorted(sys.modules)}))
"""


def _probe(*commands) -> dict:
    """Run `commands` through cli.main in one fresh process: their exit
    codes and ArgumentParser counts, and the modules loaded afterwards."""
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
        ["linear", "asymptotic", "--R", "100", "--r", "5", "--n", "5",
         "--v", "2", "--u", "1"],
        ["jensen", *REF, "--atoms", "[[0.9, 0.5], [1.1, 0.5]]"],
        ["sweep", *REF, "--parameter", "r", "--values", "1,2,4",
         "--estimators", "asymptotic,exact"],
        ["polar-image", "--r-over-R", "0.1", "--points", "8"],
    )
    assert codes == [0] * 6
    assert modules.isdisjoint(HEAVY)


def test_single_worker_monte_carlo_loads_numpy_but_no_thread_pool():
    codes, modules = _run(["circular", "mc", *REF, "--trials", "200000",
                           "--workers", "1"])
    assert codes == [0]
    assert "numpy" in modules
    assert "concurrent.futures" not in modules
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


def test_a_sweep_of_small_requests_turns_to_numpy():
    # 40 rows of 20 000 one-draw trials: the first six fit the process's
    # scalar allowance of 131 072 draws, the seventh does not, and the rest
    # run on numpy
    codes, modules = _run(["sweep", *REF, "--parameter", "r", "--start", "1",
                           "--stop", "20", "--steps", "40", "--estimators",
                           "mc", "--trials", "20000"])
    assert codes == [0]
    assert "numpy" in modules


def test_a_request_builds_only_its_own_parsers():
    # circular exact: top, circular, exact; compare: top, compare.  -h in
    # place of a command or mode builds the whole tree: top, 7 commands and
    # 5 modes
    result = _probe(["circular", "exact", *REF],
                    ["compare", *REF, "--trials", "1000"],
                    ["-h"], ["circular", "-h"])
    assert result["codes"] == [0] * 4
    assert result["parsers"] == [3, 2, 13, 13]


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
