"""Search kernel golden transcript: exact outcomes of a fixed set of searches.

Each line records one search's status, node count, pruning counts (in key
order) and witnesses, so a rewrite of the backtracking kernel must reproduce
every count exactly, under FOUND and NODE_LIMIT stops included. Outcomes
(status, witnesses) are checked before costs (nodes, pruning), so a change
that re-pins costs shows apart from one that changes an outcome. Print the
current transcript with `PYTHONPATH=src python tests/test_search_golden.py`.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from leechlab.families import (
    beineke_graphs,
    complete,
    complete_bipartite,
    cycle,
    prism,
    small_connected_catalog,
    wheel,
)
from leechlab.graphio import graph6_decode
from leechlab.search import ALL_RULES, Mode, SearchConfig, search

GOLDEN = Path(__file__).with_name("search_golden.jsonl")
NODE_LIMIT = 20000
OUTCOMES = ("status", "witnesses")
COSTS = ("nodes", "pruning")


def _named_graphs():
    graphs = [(f"catalog_{i}", g) for i, g in enumerate(small_connected_catalog())]
    graphs += beineke_graphs()
    graphs += [(f"C{n}", cycle(n)) for n in range(3, 10)]
    graphs += [(f"W{n}", wheel(n)) for n in range(5, 8)]
    graphs += [("K4", complete(4)), ("prism", prism()), ("K3,3", complete_bipartite(3, 3))]
    # two order-6 graphs: the slowest Leech row of the order-6 census, and one
    # whose almost search without weight_bound meets equal bases above t
    graphs += [(line, graph6_decode(line)) for line in ("E~nW", "E~_O")]
    return graphs


def _runs():
    """Yield (name, graph, config, disabled rules, workers) for every search."""
    named = _named_graphs()
    for name, g in named:
        for mode in Mode:
            yield name, g, SearchConfig(mode=mode, node_limit=NODE_LIMIT), (), 1
    by_name = dict(named)
    for name in ("C4", "C5", "prism", "W5", "E~_O"):
        for rule in ALL_RULES:
            for mode in Mode:
                cfg = SearchConfig(mode=mode, node_limit=NODE_LIMIT)
                yield name, by_name[name], cfg, (rule,), 1
    # two workers: C10 is edge-transitive, so its root takes label 1 alone
    # and the search stays in this process; the prism's first labels split
    yield "C10", cycle(10), SearchConfig(max_label=15), (), 2
    yield "prism", prism(), SearchConfig(forced_label_sum=74), (), 2


def transcript() -> str:
    out = []
    for name, g, cfg, disabled, workers in _runs():
        res = search(g, cfg, workers=workers, disabled_rules=disabled)
        out.append(json.dumps({
            "graph": name,
            "mode": cfg.mode.value,
            "off": list(disabled),
            "workers": workers,
            "status": res.status.value,
            "nodes": res.nodes_explored,
            "pruning": res.pruning_stats,
            "witnesses": [list(w.labels) for w in res.witnesses],
        }))
    return "\n".join(out) + "\n"


def _first_difference(got, want, fields) -> str | None:
    """The first run whose fields differ from the golden, by graph, mode,
    disabled rules and field; fields compare as JSON text, so exactly."""
    if len(got) != len(want):
        return f"{len(got)} runs, golden has {len(want)}"
    for g, w in zip(got, want):
        for field in ("graph", "mode", "off", "workers") + fields:
            if json.dumps(g[field]) != json.dumps(w[field]):
                return (
                    f"{w['graph']} {w['mode']} off={w['off']} workers={w['workers']}: "
                    f"{field} {json.dumps(g[field])}, golden {json.dumps(w[field])}"
                )
    return None


def test_search_outcomes_match_golden():
    got = [json.loads(line) for line in transcript().splitlines()]
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert _first_difference(got, want, OUTCOMES) is None
    assert _first_difference(got, want, COSTS) is None


def test_unlimited_searches_match_golden():
    # every golden search that ended before its node limit, again with no
    # limit at all: a limit is read only in poll(), once it is reached, so
    # until then the two runs count every window alike and must match exactly
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    runs = list(_runs())
    assert len(runs) == len(want)
    checked = 0
    for (name, g, cfg, disabled, workers), line in zip(runs, want):
        if line["status"] == "node-limit":
            continue
        res = search(g, replace(cfg, node_limit=None), workers=workers, disabled_rules=disabled)
        got = {
            "status": res.status.value,
            "witnesses": [list(w.labels) for w in res.witnesses],
            "nodes": res.nodes_explored,
            "pruning": res.pruning_stats,
        }
        assert json.dumps(got) == json.dumps({key: line[key] for key in got}), (name, line["mode"], disabled)
        checked += 1
    # 165 of the 180 searches end before the limit: prism Leech without
    # weight_duplicate finds its witness at node 288, since distinct_label
    # reads the weight set and a label that equals a longer geodesic's weight
    # is no node; W5 Leech without weight_bound, with no weighted sum window
    # left either, needs 88,090 nodes and stops at the limit
    assert checked == 165


if __name__ == "__main__":
    sys.stdout.write(transcript())
