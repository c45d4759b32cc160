"""In-memory span tracer for the leechlab layers, and the per-layer metrics.

install() wraps every public function of the traced modules, in the module
that defines it and under every other name the package or one of its modules
binds it to (search binds enumerate_geodesics, census and classify; cli binds
search and graph6_decode), so no call into a layer escapes a span. Spans are
[name, start, end, parent, note] with parent the index of the enclosing span
(-1 at top level); they stay in memory until write() saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("graph", "formulas", "labeling", "graphio", "search", "cli")

PRUNE_RULES = (
    "distinct_label",
    "sum_bound",
    "sum_divisibility",
    "weight_bound",
    "weight_duplicate",
    "complement_window",
)


def _search_note(outcome):
    return {
        "status": outcome.status.value,
        "nodes": outcome.nodes_explored,
        "pruning": dict(outcome.pruning_stats),
    }


# what a span keeps of its function's result, by span name
_NOTES = {
    "graph.enumerate_geodesics": len,
    "search.search": _search_note,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"leechlab.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "leechlab" or n.startswith("leechlab.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._patched.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if note is not None:
                    row["note"] = note
                fh.write(json.dumps(row) + "\n")


def layer_calls(spans) -> dict[str, int]:
    calls = dict.fromkeys(LAYERS, 0)
    for span in spans:
        calls[span[0].split(".", 1)[0]] += 1
    return calls


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.

    A span's self time is its duration minus its direct children's; a layer's
    self time sums that over the layer's spans. busy and per-function times
    count only spans with no ancestor of the same layer or function, so nested
    calls are not counted twice.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    # ancestors[i]: names and layers of every span enclosing span i
    ancestors: list[frozenset] = [frozenset()] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            pname = spans[parent][0]
            ancestors[i] = ancestors[parent] | {pname, pname.split(".", 1)[0]}

    def total(name):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and name not in ancestors[i])

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def layer_self(layer):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0].startswith(layer + "."))

    def layer_busy(layer):
        return sum(
            dur[i] for i, s in enumerate(spans) if s[0].startswith(layer + ".") and layer not in ancestors[i]
        )

    outcomes = [s[4] for s in spans if s[0] == "search.search" and s[4] is not None]
    search_calls = count("search.search")
    search_self = layer_self("search")
    nodes = sum(o["nodes"] for o in outcomes)
    statuses = [o["status"] for o in outcomes]
    enumerations_in_search = sum(
        1 for i, s in enumerate(spans) if s[0] == "graph.enumerate_geodesics" and "search.search" in ancestors[i]
    )
    metrics = {
        "search.calls": search_calls,
        "search.busy_s": layer_busy("search"),
        "search.self_s": search_self,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / search_self if search_self > 0 else 0.0,
    }
    for rule in PRUNE_RULES:
        metrics[f"search.prune.{rule}"] = sum(o["pruning"].get(rule, 0) for o in outcomes)
    metrics.update({
        "search.found": statuses.count("found"),
        "search.exhausted": statuses.count("exhausted-none"),
        "search.limited": statuses.count("timed-out") + statuses.count("node-limit"),
        "graph.enumerate_geodesics.calls": count("graph.enumerate_geodesics"),
        "graph.enumerate_geodesics.s": total("graph.enumerate_geodesics"),
        "graph.geodesics": sum(s[4] for s in spans if s[0] == "graph.enumerate_geodesics" and s[4] is not None),
        "graph.census.s": total("graph.census"),
        "graph.count_geodesics.s": total("graph.count_geodesics"),
        "graph.enumerations_per_search": enumerations_in_search / search_calls if search_calls else 0.0,
        "formulas.calls": sum(1 for s in spans if s[0].startswith("formulas.")),
        "formulas.s": layer_busy("formulas"),
        "labeling.classify.calls": count("labeling.classify"),
        "labeling.classify.s": total("labeling.classify"),
        "graphio.graph6_decode.calls": count("graphio.graph6_decode"),
        "graphio.graph6_decode.s": total("graphio.graph6_decode"),
        "cli.self_s": layer_self("cli"),
    })
    return metrics
