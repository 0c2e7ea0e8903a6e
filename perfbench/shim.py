"""Run one request in this process with a span around each public call
into the package's modules, then write the spans out.

    python shim.py SPANS_FILE REQUEST_ID (cli|rr) ARG...

The shim times `import patrolgeom.cli`, replaces each traced function in
every package module that bound its name (and each traced method on its
class), then calls `patrolgeom.cli.main` (or rrmc.main) with ARG...  A span
is [name, start_ns, end_ns, span_id, parent_id, thread_id, request_id,
meta]; its parent is the innermost open span of the same thread, or for a
worker thread the innermost open span of the main thread.  Spans stay in
memory and are written to SPANS_FILE as JSON when the call returns.  The
request's stdout and exit code are those of the untraced command.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

_clock = time.perf_counter_ns
_spans: list = []
_ids = itertools.count(1)
_local = threading.local()
_main_stack: list = []
_request = ""


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = (_main_stack if threading.current_thread()
                                is threading.main_thread() else [])
    return stack


def _span(name, start, end, span_id, parent, meta=None):
    _spans.append([name, start, end, span_id, parent, threading.get_ident(),
                   _request, meta])


def _wrap(name, fn, meta=None):
    sig = inspect.signature(fn) if meta else None

    def traced(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else 0)
        span_id = next(_ids)
        stack.append(span_id)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
        info = None
        if meta:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            info = meta(bound.arguments, result)
        _span(name, start, end, span_id, parent, info)
        return result

    return traced


def _mc(a, _):
    return {"trials": a["trials"], "workers": a["workers"]}


# module -> (attribute, span name, meta(arguments, result) or None).  The
# closed forms are wrapped too, so that cli.main's self time is parsing,
# scenario loading and the report alone.
TRACED = {
    "patrolgeom.cli": [("main", "cli.main", None)],
    "patrolgeom.montecarlo": [
        ("run_bernoulli_trials", "montecarlo.run_bernoulli_trials", _mc),
        ("SeedSchedule.uniform_block", "montecarlo.uniform_block",
         lambda a, _: {"draws": (a["stop"] - a["start"]) * a["draws"]}),
    ],
    "patrolgeom.circular": [
        ("mc_probability", "circular.mc_probability", _mc),
        ("exact_probability", "circular.exact_probability",
         lambda a, _: {"n": a["s"].n}),
        ("detection_arc_set", "circular.detection_arc_set",
         lambda _, res: {"arcs": len(res.intervals)}),
        ("CircleIntervalSet.shifted", "circular.shifted", None),
        ("union_measure", "circular.union_measure",
         lambda a, _: {"arcs": sum(len(x.intervals) for x in a["sets"])}),
        ("asymptotic_summary", "circular.asymptotic_summary", None),
    ],
    "patrolgeom.linear": [
        ("mc_probability_linear", "linear.mc_probability_linear",
         lambda a, r: dict(_mc(a, r), n=a["s"].n)),
        ("asymptotic_summary_linear", "linear.asymptotic_summary_linear", None),
    ],
    "patrolgeom.randomradius": [
        ("mc_probability_random_radius", "randomradius.mc_probability_random_radius",
         _mc),
        ("jensen_sides", "randomradius.jensen_sides", None),
        ("asymptotic_probability_randomized",
         "randomradius.asymptotic_probability_randomized", None),
    ],
    "patrolgeom.buffon": [
        ("buffon_mc", "buffon.buffon_mc", _mc),
        ("buffon_probability", "buffon.buffon_probability", None),
    ],
}


def install() -> None:
    """Patch every traced name in every loaded package module."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "patrolgeom" or name.startswith("patrolgeom.")]
    for module_name, targets in TRACED.items():
        home = sys.modules[module_name]
        for attr, span_name, meta in targets:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, _wrap(span_name, getattr(cls, method), meta))
                continue
            original = getattr(home, attr)
            traced = _wrap(span_name, original, meta)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)


def main() -> int:
    global _request
    spans_file, _request, runner, argv = (sys.argv[1], sys.argv[2], sys.argv[3],
                                          sys.argv[4:])
    start = _clock()
    import patrolgeom.cli
    _span("cli.import", start, _clock(), next(_ids), 0)
    install()
    try:
        if runner == "rr":
            import rrmc
            return rrmc.main(argv)
        return patrolgeom.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(_spans, fh)


if __name__ == "__main__":
    sys.exit(main())
