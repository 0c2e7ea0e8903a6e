"""Digest the output of every benchmark request, to check that a change
leaves the program's bytes alone.

    python3 tools/request_digest.py [--workload NAME ...] SEED [SEED ...]

For each seed and each workload (all four unless named), runs every request
of perfbench/workloads.generate(workload, seed, nproc=2) as its own process
from this checkout's src/: the package CLI through `python -m patrolgeom`,
the randomized-radius runner through perfbench/rrmc.py.  The scenario files
go to a temporary directory, as perfbench/run.py writes them.  Prints one
line per request:

    WORKLOAD SEED RID EXIT_CODE SHA256(stdout) SHA256(stderr)

Two checkouts that print the same lines gave every request the same exit
code, report and error text.  Reads perfbench/ and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True  # leave no cache behind in perfbench/

import workloads  # noqa: E402  (perfbench/ is not a package)


def _argv(req, folder: str) -> list[str]:
    args = [a.replace("{scenario}", os.path.join(folder, req.rid + ".json"))
            for a in req.argv]
    if req.runner == "rr":
        return [sys.executable, str(BENCH / "rrmc.py")] + args
    return [sys.executable, "-m", "patrolgeom"] + args


def digest_lines(workload: str, seed: int):
    """One line per request of the workload's pass at seed, in pass order."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    plan = workloads.generate(workload, seed, nproc=2)
    with tempfile.TemporaryDirectory() as folder:
        for req in plan:
            if req.scenario is not None:
                with open(os.path.join(folder, req.rid + ".json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(req.scenario, fh)
        for req in plan:
            proc = subprocess.run(_argv(req, folder), cwd=ROOT, env=env,
                                  capture_output=True)
            yield " ".join((workload, str(seed), req.rid, str(proc.returncode),
                            hashlib.sha256(proc.stdout).hexdigest(),
                            hashlib.sha256(proc.stderr).hexdigest()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="request_digest",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("seeds", metavar="SEED", type=int, nargs="+")
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS,
                        help="digest only this workload (repeatable; "
                             "default all four)")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload in args.workload or workloads.WORKLOADS:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
