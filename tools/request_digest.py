"""Digest the output of every benchmark request, to check that a change
leaves the program's bytes alone.

    python3 tools/request_digest.py [--workload NAME ...] [--against REF]
                                    SEED [SEED ...]

For each seed and each workload (all four unless named), runs every request
of perfbench/workloads.generate(workload, seed, nproc=2) as its own process
from this checkout's src/: the package CLI through `python -m patrolgeom`,
the randomized-radius runner through perfbench/rrmc.py.  The scenario files
go to a temporary directory, as perfbench/run.py writes them.  Prints one
line per request:

    WORKLOAD SEED RID EXIT_CODE SHA256(stdout) SHA256(stderr)

Two checkouts that print the same lines gave every request the same exit
code, report and error text.  Reads perfbench/ and changes nothing there.

With --against REF, the git ref's src/ (`git archive REF src`) is extracted
to a temporary directory and the same requests run with both trees.  Each
pair of lines that differ prints as two lines, `-` and REF's line, then `+`
and this checkout's, and the exit code is 1; where every line matches,
nothing prints and the exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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


def digest_lines(workload: str, seed: int, src: Path = ROOT / "src"):
    """One line per request of the workload's pass at seed, in pass order,
    run with the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
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


def differences(ref_lines, lines) -> list[str]:
    """`-` and REF's line, then `+` and this checkout's, for each pair of
    lines at the same place that differ; the lists are of equal length."""
    out = []
    for old, new in zip(ref_lines, lines, strict=True):
        if old != new:
            out += ["-" + old, "+" + new]
    return out


def _extract_src(ref: str, folder: str) -> Path:
    """REF's src/ under folder, from `git archive`."""
    tree = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                          cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", folder], input=tree, check=True)
    return Path(folder) / "src"


def _against(ref_src: Path, workload: str, seed: int) -> list[str]:
    """differences() of the pass with ref_src and with this checkout's src/,
    the two run side by side."""
    with ThreadPoolExecutor(1) as pool:
        ref_lines = pool.submit(list, digest_lines(workload, seed, ref_src))
        lines = list(digest_lines(workload, seed))
        return differences(ref_lines.result(), lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="request_digest",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("seeds", metavar="SEED", type=int, nargs="+")
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS,
                        help="digest only this workload (repeatable; "
                             "default all four)")
    parser.add_argument("--against", metavar="REF",
                        help="print only the lines that differ from those "
                             "of git ref REF's src/")
    args = parser.parse_args(argv)
    printed = False
    with tempfile.TemporaryDirectory() as folder:
        ref_src = args.against and _extract_src(args.against, folder)
        for seed in args.seeds:
            for workload in args.workload or workloads.WORKLOADS:
                for line in (_against(ref_src, workload, seed) if ref_src
                             else digest_lines(workload, seed)):
                    printed = True
                    print(line, flush=True)
    return int(bool(ref_src) and printed)


if __name__ == "__main__":
    sys.exit(main())
