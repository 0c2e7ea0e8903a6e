"""End-to-end benchmark of the patrolgeom CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One sequential client (closed loop) starts one process per request: the
package CLI, `python -m patrolgeom ...`, run from this checkout's src/ and
never from an installed copy.  A workload is a fixed request list (a pass)
generated from the seed (workloads.py).  The client repeats the pass for
about S seconds, and at least MIN_PASSES times, and checks every answer
against references computed here (checks.py).

Request processes run with OPENBLAS_NUM_THREADS=1.  The package calls no
BLAS routine, but numpy's default BLAS pool starts one spinning thread per
core at import; on a small shared host that thread made each request's
time depend on whether the other core was free.

Times are given at a reference host speed.  A small shared host can change
speed by 1.6x for seconds to minutes at a time, for reasons outside its
containers, which no count of repeats averages out.  So the client runs a
fixed probe process (Python start-up and `import numpy`) between requests
and around each set-up, and scales each measured wall time by PROBE_REF_S
over the mean of the probes just before and just after it: a change to the
program moves these times as it moves wall time, and a change of host
speed moves the probe as well.  Measured wall times are printed in note
lines.

Set-up (input generation, scenario files and one warm-up process that
compiles bytecode) runs SETUPS times; setup_s is its median.

With --trace 0 the last stdout line reports the end-to-end metrics:
    setup_s         median set-up time
    wall_s          time of one pass: per request the median over the run's
                    passes, summed
    solves_per_s    answers per pass / wall_s (one probability is one answer)
    latency_p50_s   median request process time over every request run
    latency_tail_s  TAIL_PERCENTILE-th percentile of the same
    peak_rss_mb     largest max-RSS of any request process
    ok_ratio        answers that passed their check / answers attempted
With --trace 1 it runs each request untraced and then through shim.py,
and reports the per-layer metrics of layers.py, the import times from
`-X importtime`, and the tracing overhead: per request the median of
traced minus untraced latency, summed over the pass.  Layers the workload
leaves idle read 0.

The last line is one JSON object with the keys correct, attempted, failed
and metrics.  `correct` is false when any answer fails other than in the
known-defect shape (checks.known_defect_shape); every failed answer counts in
`failed`.  The lines before it state sample counts and percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 15
MIN_PASSES = 3
# Fixed so that runs with different request counts compare; a note line
# states the sample count.
TAIL_PERCENTILE = 75
IMPORT_SAMPLES = 5
# The probe: a process that starts Python and imports numpy, the fixed
# part of every request.  The client runs it between requests and around
# each set-up.  PROBE_REF_S is its wall time in the fast spells of the
# machine in seed_record.json.
PROBE_ARGV = (sys.executable, "-c", "import numpy")
PROBE_REF_S = 0.12
REQUEST_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solves_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name in layers.COUNTS:
        return "count"
    if "_ns_per_" in name:
        return "ns"
    if "_ms_per_" in name:
        return "ms"
    return "ratio" if name.endswith("_speedup") else "s"


class SetupError(Exception):
    pass


@dataclass
class Result:
    latency_s: float
    ref_s: float  # latency_s at the probe's reference speed
    max_rss_mb: float
    returncode: int
    out: bytes
    err: str
    spans: list


class Client:
    """Starts one process per request and waits for it."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        # Bytecode is cached as an installed package's would be, and cached
        # inside the checkout.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env["PYTHONPATH"] = SRC
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.last_probe_s = self.probe()

    def probe(self) -> float:
        """Wall seconds of one probe process."""
        start = time.perf_counter()
        subprocess.run(PROBE_ARGV, cwd=ROOT, env=self.env, check=True)
        return time.perf_counter() - start

    def at_ref_speed(self, seconds: float) -> float:
        """`seconds` just measured, scaled by PROBE_REF_S over the mean of
        the probes run just before and (now) just after it."""
        before, self.last_probe_s = self.last_probe_s, self.probe()
        return seconds * 2.0 * PROBE_REF_S / (before + self.last_probe_s)

    def _argv(self, req, traced: bool, spans_path: str) -> list:
        args = [a.replace("{scenario}", os.path.join(self.workdir, req.rid + ".json"))
                for a in req.argv]
        if traced:
            return [sys.executable, os.path.join(HERE, "shim.py"), spans_path,
                    req.rid, req.runner] + args
        if req.runner == "rr":
            return [sys.executable, os.path.join(HERE, "rrmc.py")] + args
        return [sys.executable, "-m", "patrolgeom"] + args

    def run(self, req, traced: bool = False) -> Result:
        spans_path = os.path.join(self.workdir, "spans.json")
        argv = self._argv(req, traced, spans_path)
        with open(self.stderr_path, "wb") as stderr_file:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr_file,
                                    cwd=ROOT, env=self.env)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = ""
        if proc.returncode != 0:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
                err = fh.read()[-1000:]
        spans = []
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(spans_path)
        return Result(latency, self.at_ref_speed(latency),
                      usage.ru_maxrss / 1024.0, proc.returncode, out, err, spans)


@dataclass
class Pass:
    wall_s: float
    results: dict
    answers: list


def run_pass(client: Client, plan: list) -> Pass:
    start = time.perf_counter()
    results = {req.rid: client.run(req) for req in plan}
    return Pass(time.perf_counter() - start, results, check_pass(plan, results))


def run_pair(client: Client, plan: list) -> tuple[Pass, Pass]:
    """An untraced and a traced pass, run request by request: each request
    runs untraced and then at once traced, so that host drift between the
    two is small.  Their wall_s is the sum of their latencies."""
    plain, traced = {}, {}
    for req in plan:
        plain[req.rid] = client.run(req)
        traced[req.rid] = client.run(req, traced=True)
    return tuple(Pass(sum(r.latency_s for r in results.values()), results,
                      check_pass(plan, results)) for results in (plain, traced))


def check_pass(plan: list, results: dict) -> list:
    answers = []
    for req in plan:
        res = results[req.rid]
        twin = results[req.twin].out if req.twin else None
        got = checks.check_output(req.check, req.spec, req.answers,
                                  res.returncode, res.out, twin)
        if not all(a.ok for a in got):
            print(f"# answer check failed: {req.rid} exit={res.returncode} "
                  f"{' '.join(req.argv)} {res.err}", file=sys.stderr)
        answers.extend(got)
    return answers


def set_up(client: Client, workload: str, seed: int, nproc: int) -> list:
    """Generate the pass, write its scenario files, and start one warm-up
    process that imports the package (compiling its bytecode) and proves it
    comes from this checkout."""
    plan = workloads.generate(workload, seed, nproc)
    for req in plan:
        if req.scenario is not None:
            with open(os.path.join(client.workdir, req.rid + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(req.scenario, fh)
    warm = subprocess.run(
        [sys.executable, "-c", "import patrolgeom.cli as c; print(c.__file__)"],
        cwd=ROOT, env=client.env, capture_output=True, text=True)
    origin = warm.stdout.strip()
    if warm.returncode != 0 or not origin.startswith(SRC + os.sep):
        raise SetupError(f"package does not import from {SRC}: "
                         f"{warm.stderr.strip() or origin}")
    return plan


def import_times(client: Client) -> tuple[float, float]:
    """(package with cli, numpy) cumulative import seconds from one fresh
    interpreter's `-X importtime` report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import patrolgeom.cli"], cwd=ROOT, env=client.env,
                          capture_output=True, text=True, check=True)
    package = numpy = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        cumulative = int(fields[1])
        if name.strip().startswith("patrolgeom") and name[1:2] != " ":
            package += cumulative
        elif name.strip() == "numpy":
            numpy = cumulative
    return package / 1e6, numpy / 1e6


def _count_failures(passes: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct) of the run.  Every request is seeded,
    so every pass must print the same bytes as the first; the counts are
    those of the first pass and so repeat exactly for a seed, however many
    passes the run's time allowed."""
    first = passes[0]
    failed = [a for a in first.answers if not a.ok]
    correct = all(a.known_defect for a in failed)
    for p in passes[1:]:
        for rid, res in p.results.items():
            if (res.returncode, res.out) != (first.results[rid].returncode,
                                            first.results[rid].out):
                print(f"# output differs between passes: {rid}", file=sys.stderr)
                correct = False
    return len(first.answers), len(failed), correct


def end_to_end(plan, passes, setup_times) -> dict:
    latencies = [r.ref_s for p in passes for r in p.results.values()]
    wall = sum(statistics.median(p.results[req.rid].ref_s for p in passes)
               for req in plan)
    attempted, failed, _ = _count_failures(passes)
    trials = sum(req.trials for req in plan)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    raw = [r.latency_s for p in passes for r in p.results.values()]
    print(f"# passes={len(passes)} requests={len(latencies)} "
          f"answers/pass={sum(r.answers for r in plan)} trials/pass={trials}")
    print(f"# latency_p50_s over N={len(latencies)}; latency_tail_s is "
          f"p{TAIL_PERCENTILE} over N={len(latencies)}")
    print("# measured wall time: pass " + " ".join(f"{p.wall_s:.4g}" for p in passes)
          + f" s; request p50 {statistics.median(raw):.4g} s")
    if trials:
        print(f"# trials_per_s={trials / wall:.6g}")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "solves_per_s": sum(req.answers for req in plan) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": max(r.max_rss_mb for p in passes for r in p.results.values()),
        "ok_ratio": 1.0 - failed / attempted,
    }


def _median_metrics(samples: list) -> dict:
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples if s[name] is not None]
        out[name] = statistics.median(values) if values else None
    return out


def per_layer(client, plan, seconds, start) -> tuple[dict, list]:
    """Per-layer metrics; like the end-to-end times, their times are scaled
    to the probe's reference speed."""
    imports = []
    for _ in range(IMPORT_SAMPLES):
        package, numpy = import_times(client)
        scale = client.at_ref_speed(1.0)
        imports.append((package * scale, numpy * scale))
    twins = _twins(plan)
    plain, traced = [], []
    while not traced or time.perf_counter() - start < seconds:
        p, t = run_pair(client, plan)
        plain.append(p)
        traced.append(t)
    metrics = _median_metrics([_at_ref_speed(layers.pass_metrics(_spans(t), twins), t)
                               for t in traced])
    for name in layers.COUNTS:
        metrics[name] = metrics[name] or 0
    for name in layers.TIMINGS:
        if metrics[name] is None:  # idle layer, or no second worker (nproc 1)
            print(f"# {name} idle in this workload: reported as 0")
            metrics[name] = 0.0
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_numpy_s"] = statistics.median(i[1] for i in imports)
    # Per request, the median over pairs of traced minus untraced latency;
    # summed over the pass.  An overhead below the host's run-to-run noise
    # reads as that noise and can be negative.
    metrics["trace.overhead_s"] = sum(
        statistics.median(t.results[req.rid].ref_s - p.results[req.rid].ref_s
                          for p, t in zip(plain, traced))
        for req in plan)
    print(f"# traced passes={len(traced)} untraced passes={len(plain)} "
          f"untraced wall_s={_median_pass_ref_s(plain):.6g} "
          f"traced wall_s={_median_pass_ref_s(traced):.6g}")
    return metrics, plain + traced


def _median_pass_ref_s(passes: list) -> float:
    return statistics.median(sum(r.ref_s for r in p.results.values()) for p in passes)


def _at_ref_speed(metrics: dict, traced: Pass) -> dict:
    scale = (sum(r.ref_s for r in traced.results.values())
             / sum(r.latency_s for r in traced.results.values()))
    return {name: value * scale if value is not None and per_layer_unit(name)
            in ("s", "ms", "ns") else value for name, value in metrics.items()}


def _twins(plan) -> dict:
    return {req.rid: int(req.argv[req.argv.index("--workers") + 1])
            for req in plan if req.twin}


def _spans(p: Pass) -> list:
    return [s for r in p.results.values() for s in r.spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "patrolgeom", "cli.py")):
        print(f"error: no patrolgeom sources under {SRC}", file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = len(os.sched_getaffinity(0))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        client = Client(workdir)
        setup_times = []
        for _ in range(SETUPS):
            begin = time.perf_counter()
            plan = set_up(client, args.workload, args.seed, nproc)
            setup_times.append(client.at_ref_speed(time.perf_counter() - begin))
        start = time.perf_counter()
        print(f"# workload={args.workload} seed={args.seed} nproc={nproc} "
              f"requests/pass={len(plan)}")
        if args.trace:
            metrics, passes = per_layer(client, plan, args.seconds, start)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            passes = []
            while (len(passes) < MIN_PASSES or time.perf_counter() - start
                   + passes[-1].wall_s / 2 < args.seconds):
                passes.append(run_pass(client, plan))
            metrics = end_to_end(plan, passes, setup_times)
            units = END_TO_END
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, correct = _count_failures(passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
