"""Per-layer metrics from the spans the shim records.

Layers are the package's modules.  `cli` includes `scenario` and `frames`,
which only it calls here; `_golden` runs inside the kernels and is part of
their per-trial cost.  Every `_s` metric is a total over one pass of the
workload; `_ns_per_*` and `_ms_per_*` metrics divide busy time by the work
done.  A span's self time is its duration minus the part of it that spans
it caused on the same thread cover, so worker-thread spans never subtract
from the span that waits for them.
"""

from __future__ import annotations

import math
from collections import defaultdict

NAME, START, END, ID, PARENT, THREAD, REQUEST, META = range(8)

# Work counts: they repeat exactly for a given seed.  On a workload that
# leaves their layer idle they read 0.
COUNTS = ("montecarlo.draws", "montecarlo.chunks", "circular.exact_solves",
          "circular.arcs_per_set", "circular.shifted_calls",
          "circular.union_input_arcs")

# Timings and ratios.  On a workload that leaves their layer idle they read
# 0 as well.
TIMINGS = (
    "cli.main_self_s",
    "montecarlo.run_bernoulli_trials_s", "montecarlo.uniform_block_s",
    "montecarlo.seed_ns_per_draw", "montecarlo.workers2_speedup",
    "circular.mc_ns_per_trial", "randomradius.mc_ns_per_trial",
    "linear.mc_ns_per_trial.n1", "linear.mc_ns_per_trial.n10",
    "linear.mc_ns_per_trial.n100", "linear.mc_ns_per_trial.n1000",
    "buffon.mc_ns_per_trial",
    "circular.exact_ms_per_solve", "circular.detection_arc_set_s",
    "circular.shifted_s", "circular.union_measure_s", "circular.exact_self_s",
)


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def pass_metrics(spans: list, twins: dict) -> dict:
    """Metrics of one traced pass.  `spans` holds the spans of every
    request; `twins` maps the id of each request of a worker-count pair to
    its worker count.  Metrics whose layer did not run are None."""
    kids = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        kids[(s[REQUEST], s[PARENT])].append(s)
        by_name[s[NAME]].append(s)

    def dur(s):
        return s[END] - s[START]

    def self_time(s):
        return dur(s) - _covered([(c[START], c[END])
                                  for c in kids[(s[REQUEST], s[ID])]
                                  if c[THREAD] == s[THREAD]])

    def seeding_inside(s):
        todo, total = [s], 0
        while todo:
            span = todo.pop()
            for c in kids[(span[REQUEST], span[ID])]:
                if c[NAME] == "montecarlo.uniform_block":
                    total += dur(c)
                todo.append(c)
        return total

    def kernel_ns_per_trial(spans_of_layer):
        """Busy time minus seeding per trial, over single-worker calls."""
        single = [s for s in spans_of_layer if s[META]["workers"] == 1]
        return _ratio(sum(dur(s) - seeding_inside(s) for s in single),
                      sum(s[META]["trials"] for s in single))

    def total_s(name):
        return sum(dur(s) for s in by_name[name]) / 1e9 if by_name[name] else None

    out = {}
    out["cli.main_self_s"] = (sum(self_time(s) for s in by_name["cli.main"]) / 1e9
                              if by_name["cli.main"] else None)

    blocks = by_name["montecarlo.uniform_block"]
    draws = sum(s[META]["draws"] for s in blocks)
    out["montecarlo.run_bernoulli_trials_s"] = total_s("montecarlo.run_bernoulli_trials")
    out["montecarlo.uniform_block_s"] = total_s("montecarlo.uniform_block")
    out["montecarlo.draws"] = draws
    out["montecarlo.chunks"] = len(blocks)
    out["montecarlo.seed_ns_per_draw"] = _ratio(sum(dur(s) for s in blocks), draws)
    runs = by_name["montecarlo.run_bernoulli_trials"]
    one = sum(dur(s) for s in runs if twins.get(s[REQUEST]) == 1)
    two = sum(dur(s) for s in runs if twins.get(s[REQUEST], 1) > 1)
    out["montecarlo.workers2_speedup"] = _ratio(one, two) if one else None

    out["circular.mc_ns_per_trial"] = kernel_ns_per_trial(
        by_name["circular.mc_probability"])
    out["randomradius.mc_ns_per_trial"] = kernel_ns_per_trial(
        by_name["randomradius.mc_probability_random_radius"])
    out["buffon.mc_ns_per_trial"] = kernel_ns_per_trial(by_name["buffon.buffon_mc"])
    decades = defaultdict(list)
    for s in by_name["linear.mc_probability_linear"]:
        decade = 10 ** min(3, max(0, round(math.log10(s[META]["n"]))))
        decades[decade].append(s)
    for decade in (1, 10, 100, 1000):
        out[f"linear.mc_ns_per_trial.n{decade}"] = kernel_ns_per_trial(
            decades[decade])

    solves = by_name["circular.exact_probability"]
    arc_sets = by_name["circular.detection_arc_set"]
    out["circular.exact_solves"] = len(solves)
    out["circular.exact_ms_per_solve"] = _ratio(sum(dur(s) for s in solves),
                                                len(solves), 1e-6)
    out["circular.exact_self_s"] = (sum(self_time(s) for s in solves) / 1e9
                                    if solves else None)
    out["circular.detection_arc_set_s"] = total_s("circular.detection_arc_set")
    out["circular.arcs_per_set"] = (sum(s[META]["arcs"] for s in arc_sets)
                                    / len(arc_sets) if arc_sets else 0)
    out["circular.shifted_s"] = total_s("circular.shifted")
    out["circular.shifted_calls"] = len(by_name["circular.shifted"])
    out["circular.union_measure_s"] = total_s("circular.union_measure")
    out["circular.union_input_arcs"] = sum(s[META]["arcs"]
                                           for s in by_name["circular.union_measure"])
    return out
