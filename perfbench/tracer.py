"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps a layer function at every name an sstlab module (or
the benchmark's workloads) binds it to, so calls are seen where their
callers make them and no file under src/ changes.  A wrapped call
records a span: id, name, start, end, parent span and run id.  Leaf
functions called hundreds of thousands of times (the star and comb
tests of theorem1) keep a count, a summed duration and a count of
"useful" results per parent span instead, so tracing does not swamp
the run.

Spans stay in memory until ``dump`` writes them out.  ``layer_metrics``
turns a dumped trace into the ``<module>.<call>.<stat>`` metrics; self
time is a span's duration minus the part of it its child spans and leaf
calls cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

SCENARIOS = (
    "prop_size", "theorem1", "theorem2", "theorem3", "theorem4", "fig7", "construct_fuzz",
)
FAMILIES = ("t3", "t4", "sst", "sss")
CONSTRUCTIONS = (
    "cone_sweep_sst3", "separated_pair_sst3", "boundary_leaf_sst4", "central_edge_obstruction",
)
GENERATORS = ("random_instance", "convex_instance")

# The comb predicate sstlab.scenarios binds, in order of preference.
COMB_TEST_NAMES = ("_is_comb_fast", "comb_certificate")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for s in SCENARIOS:
        out += [(f"scenarios.{s}.total_s", "s", "lower"), (f"scenarios.{s}.self_s", "s", "lower")]
    mb = "enumeration.minimum_blockers"
    out += [
        (f"{mb}.calls", "count", "lower"), (f"{mb}.self_s", "s", "lower"),
        (f"{mb}.blockers", "count", "higher"),
        (f"{mb}.repeat_calls", "count", "lower"), (f"{mb}.repeat_s", "s", "lower"),
    ]
    es = "enumeration.enumerate_ssts"
    out += [
        (f"{es}.calls", "count", "lower"), (f"{es}.self_s", "s", "lower"),
        (f"{es}.members", "count", "higher"), (f"{es}.members_per_s", "1/s", "higher"),
    ]
    for f in FAMILIES:
        b = f"enumeration.blocks.{f}"
        out += [(f"{b}.calls", "count", "lower"), (f"{b}.self_s", "s", "lower"),
                (f"{b}.blocked_ratio", "ratio", "higher")]
    nc = "enumeration.noncrossing_edge_cover"
    out += [(f"{nc}.calls", "count", "lower"), (f"{nc}.self_s", "s", "lower"),
            (f"{nc}.found_ratio", "ratio", "higher")]
    out += [
        ("classify.star_center.calls", "count", "lower"),
        ("classify.star_center.self_s", "s", "lower"),
        ("classify.comb_test.calls", "count", "lower"),
        ("classify.comb_test.self_s", "s", "lower"),
        ("classify.comb_test.accept_ratio", "ratio", "higher"),
    ]
    for c in CONSTRUCTIONS:
        out += [(f"constructions.{c}.calls", "count", "lower"),
                (f"constructions.{c}.self_s", "s", "lower")]
    for g in GENERATORS:
        out += [(f"instances.{g}.calls", "count", "lower"), (f"instances.{g}.self_s", "s", "lower")]
    out += [
        ("graph.analyze_tree.calls", "count", "lower"),
        ("graph.analyze_tree.self_s", "s", "lower"),
        ("graph.crossing_masks.hits", "count", "higher"),
        ("graph.crossing_masks.misses", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent, attrs]
        self.leaves: dict[tuple[int | None, str], list] = {}  # -> [calls, seconds, useful]
        self.counters: dict[str, int] = {}
        self._stack: list[int | None] = [None]
        self._patched: list[tuple[Any, str, Any]] = []

    def span(self, fn: Callable, name: str | Callable[..., str],
             note: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        """Wrap fn so each call records a span; ``note`` adds attributes
        from the arguments and result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            record = [len(spans), label, 0.0, 0.0, stack[-1], None]
            spans.append(record)
            stack.append(record[0])
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return traced

    def leaf(self, fn: Callable, name: str, useful: Callable[[Any], bool]) -> Callable:
        """Wrap a hot leaf: per parent span, count calls, sum their time and
        count results for which ``useful`` holds."""
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            key = (stack[-1], name)
            record = leaves.get(key)
            if record is None:
                record = leaves[key] = [0, 0.0, 0]
            record[0] += 1
            record[1] += elapsed
            record[2] += useful(result)
            return result

        return traced

    def patch(self, original: Callable, wrapper: Callable, modules) -> None:
        """Rebind every name in ``modules`` that refers to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path, **extra) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "run_id": self.run_id, **({"attrs": s[5]} if s[5] else {})}
                for s in self.spans
            ],
            "leaves": [
                {"parent": parent, "name": name, "calls": r[0], "seconds": r[1], "useful": r[2]}
                for (parent, name), r in self.leaves.items()
            ],
            "counters": self.counters,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def install(tracer: Tracer) -> None:
    """Wrap sstlab's layer functions (and the workloads' scenario calls)."""
    from sstlab import constructions, enumeration, graph, instances, scenarios

    classify = importlib.import_module("sstlab.classify")  # sstlab.classify is a function

    everywhere = [m for name, m in sys.modules.items()
                  if m is not None and (name == "sstlab" or name.startswith("sstlab."))]
    everywhere.append(sys.modules["workloads"])

    seen: set = set()

    def note_min_blockers(args, kwargs, result):
        key = (args[0], args[1])
        repeat = key in seen
        seen.add(key)
        return {"blockers": len(result.blockers), "repeat": repeat}

    spans = [
        (scenarios.run_scenario, lambda name, **kw: f"scenarios.{name}", None),
        (enumeration.minimum_blockers, "enumeration.minimum_blockers", note_min_blockers),
        (enumeration.enumerate_ssts, "enumeration.enumerate_ssts",
         lambda args, kwargs, result: {"members": len(result)}),
        (enumeration.blocks,
         lambda config, b, family, **kw: f"enumeration.blocks.{family.describe()}",
         lambda args, kwargs, result: {"blocked": result.blocks}),
        (graph.analyze_tree, "graph.analyze_tree", None),
        *((getattr(constructions, c), f"constructions.{c}", None) for c in CONSTRUCTIONS),
        *((getattr(instances, g), f"instances.{g}", None) for g in GENERATORS),
    ]
    for fn, name, note in spans:
        tracer.patch(fn, tracer.span(fn, name, note), everywhere)
    for fn, name in ((enumeration.noncrossing_edge_cover, "enumeration.noncrossing_edge_cover"),
                     (classify.star_center, "classify.star_center")):
        tracer.patch(fn, tracer.leaf(fn, name, lambda result: result is not None), everywhere)

    comb_name = next(n for n in COMB_TEST_NAMES if hasattr(scenarios, n))
    comb_test = getattr(scenarios, comb_name)
    tracer.patch(comb_test, tracer.leaf(comb_test, "classify.comb_test", bool), [scenarios])


def self_times(spans: list[dict], leaves: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.  Child
    spans count by the union of their intervals, clipped to the parent;
    aggregated leaf calls count by their summed duration."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    leaf_time: dict[int, float] = defaultdict(float)
    for rec in leaves:
        if rec["parent"] is not None:
            leaf_time[rec["parent"]] += rec["seconds"]
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered - leaf_time[s["id"]]
    return out


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    useful: int = 0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one dumped trace, except the trace.* ones,
    which compare it with an untraced pass.  A ratio over no calls is 0."""
    stats: dict[str, _Stat] = defaultdict(_Stat)
    own = self_times(doc["spans"], doc["leaves"])
    mb, es = "enumeration.minimum_blockers", "enumeration.enumerate_ssts"
    special = {f"{mb}.blockers": 0, f"{mb}.repeat_calls": 0, f"{mb}.repeat_s": 0.0,
               f"{es}.members": 0, **doc["counters"]}
    for s in doc["spans"]:
        st = stats[s["name"]]
        attrs = s.get("attrs", {})
        st.calls += 1
        st.total += s["end"] - s["start"]
        st.self += own[s["id"]]
        st.useful += bool(attrs.get("blocked"))
        special[f"{es}.members"] += attrs.get("members", 0)
        special[f"{mb}.blockers"] += attrs.get("blockers", 0)
        if attrs.get("repeat"):
            special[f"{mb}.repeat_calls"] += 1
            special[f"{mb}.repeat_s"] += s["end"] - s["start"]
    for rec in doc["leaves"]:
        st = stats[rec["name"]]
        st.calls += rec["calls"]
        st.total += rec["seconds"]
        st.self += rec["seconds"]
        st.useful += rec["useful"]
    enum_self = stats[es].self
    special[f"{es}.members_per_s"] = special[f"{es}.members"] / enum_self if enum_self > 0 else 0.0

    out: dict[str, float] = {}
    for name, _, _ in per_layer_metrics():
        base, stat = name.rsplit(".", 1)
        st = stats[base]
        if name in special:
            out[name] = special[name]
        elif stat == "calls":
            out[name] = st.calls
        elif stat == "self_s":
            out[name] = st.self
        elif stat == "total_s":
            out[name] = st.total
        elif stat.endswith("_ratio"):
            out[name] = st.useful / st.calls if st.calls else 0.0
    return out
