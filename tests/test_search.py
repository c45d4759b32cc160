"""Backtracking search: statuses, oracle equivalence, pruning neutrality."""

import dis
import importlib
import itertools
import math
import os
import pickle
import random
import time
import types
from dataclasses import replace

import pytest

from leechlab.errors import ConfigInvalidError, EmptyGraphError, UnknownPresetError
from leechlab.families import (
    beineke_graphs,
    complete,
    complete_bipartite,
    cycle,
    path,
    prism,
    small_connected_catalog,
    wheel,
)
from leechlab.formulas import max_label_bound
from leechlab.graph import _walk, build_graph, census, enumerate_geodesics, stabilizer_orbits
from leechlab.graphio import graph6_decode
from leechlab.labeling import Verdict, classify
from leechlab.search import (
    ALL_RULES,
    _COUNTS,
    Mode,
    SearchConfig,
    Status,
    _corpus_row,
    _node_step,
    _Prepared,
    _search_single,
    _Stop,
    _step_code,
    census_corpus,
    search,
    search_family_presets,
)


def k2():
    return build_graph(2, [(0, 1)])


class TestBasicStatuses:
    def test_c3_found_and_verifies(self):
        out = search(cycle(3))
        assert out.status is Status.FOUND
        assert classify(cycle(3), out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH
        assert sorted(out.witnesses[0].labels) == [1, 2, 3]

    def test_c4_found_and_verifies(self):
        out = search(cycle(4))
        assert out.status is Status.FOUND
        assert classify(cycle(4), out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_middle_cycles_exhaust(self, n):
        assert search(cycle(n)).status is Status.EXHAUSTED_NONE

    def test_k4_found(self):
        out = search(complete(4))
        assert out.status is Status.FOUND

    def test_prism_found(self):
        out = search(prism())
        assert out.status is Status.FOUND
        assert classify(prism(), out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH

    def test_wheels_found(self):
        assert search(wheel(5)).status is Status.FOUND
        assert search(wheel(6)).status is Status.FOUND

    def test_w7_almost_found(self):
        out = search(wheel(7), SearchConfig(mode=Mode.ALMOST))
        assert out.status is Status.FOUND
        assert (
            classify(wheel(7), out.witnesses[0]).verdict
            is Verdict.ALMOST_GEODESIC_LEECH
        )

    def test_single_edge(self):
        out = search(k2())
        assert out.status is Status.FOUND
        assert out.witnesses[0].labels == (1,)


def naive_status(g, mode):
    """Generate-and-test over every label vector in [1, t_gp]^m."""
    t = len(enumerate_geodesics(g))
    target = Verdict.GEODESIC_LEECH if mode is Mode.LEECH else Verdict.ALMOST_GEODESIC_LEECH
    for labels in itertools.product(range(1, t + 1), repeat=g.edge_count):
        if classify(g, labels).verdict is target:
            return Status.FOUND
    return Status.EXHAUSTED_NONE


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "make", [lambda: cycle(3), lambda: cycle(4), k2, lambda: path(3)]
    )
    @pytest.mark.parametrize("mode", [Mode.LEECH, Mode.ALMOST])
    def test_solver_matches_naive(self, make, mode):
        g = make()
        assert search(g, SearchConfig(mode=mode)).status is naive_status(g, mode)

    def test_leech_trees_match_taylors_theorem(self):
        # Taylor: both trees on 4 vertices and exactly one on 6 are Leech
        # trees; none on 5, 7 or 8 vertices is (a tree's geodesics are all
        # its paths, so geodesic Leech is Leech there)
        nx = pytest.importorskip("networkx")
        found = {}
        for n in range(4, 9):
            statuses = [search(build_graph(n, list(tree.edges()))).status for tree in nx.nonisomorphic_trees(n)]
            assert set(statuses) <= {Status.FOUND, Status.EXHAUSTED_NONE}
            found[n] = statuses.count(Status.FOUND)
        assert found == {4: 2, 5: 0, 6: 1, 7: 0, 8: 0}

    @pytest.mark.parametrize("line", ["E?Bw", "E`EG"], ids=["star_K1_5", "path_P6"])
    def test_order6_neither_trees_against_brute_force(self, line):
        # both have t = 15 and 5 edges; every weight of a Leech or almost
        # labeling is at most t, so labels 1..15 cover both modes
        nx = pytest.importorskip("networkx")
        h = nx.from_graph6_bytes(line.encode())
        assert any(nx.is_isomorphic(h, tree) for tree in (nx.star_graph(5), nx.path_graph(6)))
        assert brute_force_hits(h) == (0, 0)
        g = graph6_decode(line)
        for mode in Mode:
            assert search(g, SearchConfig(mode=mode)).status is Status.EXHAUSTED_NONE, mode

    @pytest.mark.parametrize("make, n", [("star_graph", 3), ("path_graph", 4)])
    def test_brute_force_counts_every_witness(self, make, n):
        # the oracle above must see labelings where they exist: here it
        # counts exactly the witnesses of a find_all search up to label t
        nx = pytest.importorskip("networkx")
        h = getattr(nx, make)(n)
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        t = census(g).total
        found = tuple(
            len(search(g, SearchConfig(mode=mode, find_all=True, max_label=t)).witnesses)
            for mode in (Mode.LEECH, Mode.ALMOST)
        )
        assert brute_force_hits(h) == found
        assert min(found) > 0


def brute_force_hits(h):
    """(Leech, almost) counts among all t^m labelings of networkx graph h with
    labels in 1..t, tested in numpy; the geodesics are networkx's shortest
    paths, so nothing here rests on leechlab."""
    np = pytest.importorskip("numpy")
    nx = pytest.importorskip("networkx")
    eid = {frozenset(e): i for i, e in enumerate(h.edges())}
    rows = []
    for u, v in itertools.combinations(sorted(h), 2):
        if nx.has_path(h, u, v):
            for walk in nx.all_shortest_paths(h, u, v):
                row = [0] * len(eid)
                for e in zip(walk, walk[1:]):
                    row[eid[frozenset(e)]] = 1
                rows.append(row)
    uses = np.array(rows, dtype=np.int16).T  # (m, t): edge e lies on geodesic j
    m, t = uses.shape
    values = np.arange(1, t + 1, dtype=np.int16)
    rest = np.stack(np.meshgrid(*[values] * (m - 1), indexing="ij"), -1).reshape(-1, m - 1)
    leech = almost = 0
    for first in values:  # one block per first label keeps memory small
        labels = np.hstack([np.full((len(rest), 1), first, dtype=np.int16), rest])
        weights = np.sort(labels @ uses, axis=1)
        repeats = (np.diff(weights, axis=1) == 0).sum(axis=1)
        # t weights in 1..t with no repeat are exactly 1..t; with one repeated
        # pair they miss exactly one value of 1..t and double another
        fits = weights[:, -1] <= t
        leech += int((fits & (repeats == 0)).sum())
        almost += int((fits & (repeats == 1)).sum())
    return leech, almost


class TestFindAll:
    def test_c4_witness_set_matches_brute_force(self):
        g = cycle(4)
        t = 8
        expected = {
            labels
            for labels in itertools.product(range(1, t + 1), repeat=4)
            if classify(g, labels).verdict is Verdict.GEODESIC_LEECH
        }
        out = search(g, SearchConfig(find_all=True, max_label=t))
        assert {w.labels for w in out.witnesses} == expected
        assert len(out.witnesses) == 8

    def test_bound_restriction_loses_nothing(self):
        # the refined even-cycle bound (6) must not exclude any witness
        g = cycle(4)
        with_bound = search(g, SearchConfig(find_all=True))
        without = search(g, SearchConfig(find_all=True, max_label=8))
        assert with_bound.max_label == 6
        assert {w.labels for w in with_bound.witnesses} == {
            w.labels for w in without.witnesses
        }

    def test_c3_bound_neutral(self):
        base = search(cycle(3), SearchConfig(find_all=True))
        wide = search(cycle(3), SearchConfig(find_all=True), derive_bounds=False)
        assert {w.labels for w in base.witnesses} == {w.labels for w in wide.witnesses}


class TestPruningNeutrality:
    @pytest.mark.parametrize("rule", ALL_RULES)
    @pytest.mark.parametrize(
        "make,mode",
        [
            (lambda: cycle(4), Mode.LEECH),
            (lambda: cycle(5), Mode.LEECH),
            (prism, Mode.LEECH),
            (lambda: cycle(4), Mode.ALMOST),
        ],
    )
    def test_single_rule_off_keeps_status(self, rule, make, mode):
        g = make()
        baseline = search(g, SearchConfig(mode=mode))
        relaxed = search(g, SearchConfig(mode=mode), disabled_rules=(rule,))
        assert relaxed.status is baseline.status

    def test_sum_bound_keeps_every_witness(self):
        # find_all on every catalog graph with at most 5 edges, both modes,
        # plus a Leech run whose explicit label sum is 3 above the least
        runs = cuts = 0
        for g in small_connected_catalog():
            m = g.edge_count
            if m > 5:
                continue
            cfgs = [SearchConfig(mode=mode, find_all=True) for mode in Mode]
            cfgs.append(SearchConfig(find_all=True, forced_label_sum=m * (m + 1) // 2 + 3))
            for cfg in cfgs:
                bounded = search(g, cfg)
                free = search(g, cfg, disabled_rules=("sum_bound",))
                assert {w.labels for w in bounded.witnesses} == {
                    w.labels for w in free.witnesses
                }, (g.edges, cfg)
                runs += 1
                cuts += bounded.pruning_stats.get("sum_bound", 0)
        assert runs == 48 and cuts > 0

    def test_distinct_label_is_weight_duplicate_on_one_edge_geodesics(self):
        # a label is the weight of its edge, a one-edge geodesic, so each
        # candidate distinct_label cuts is one that weight_duplicate would
        # reject as a node: with the rule off the tree stays, and every cut
        # becomes a node and a weight_duplicate rejection
        nx = pytest.importorskip("networkx")
        runs = [(cycle(10), SearchConfig(max_label=15)), (prism(), SearchConfig()), (wheel(6), SearchConfig()),
                (complete(4), SearchConfig())]
        runs += [(build_graph(6, list(a.edges())), SearchConfig()) for a in nx.graph_atlas_g()
                 if a.number_of_nodes() == 6 and nx.is_connected(a)]
        cut = 0
        for g, cfg in runs:
            on = search(g, cfg)
            off = search(g, cfg, disabled_rules=("distinct_label",))
            stats = dict(on.pruning_stats)
            moved = stats.pop("distinct_label", 0)
            stats["weight_duplicate"] = stats.get("weight_duplicate", 0) + moved
            assert (off.status, off.witnesses, off.nodes_explored, off.pruning_stats) == (
                on.status, on.witnesses, on.nodes_explored + moved, {k: v for k, v in stats.items() if v}
            ), g.edges
            cut += moved
        assert len(runs) == 116 and cut > 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigInvalidError, match="unknown pruning rules"):
            search(cycle(4), disabled_rules=("warp_drive",))


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = search(prism())
        b = search(prism())
        assert a.status is b.status
        assert a.witnesses == b.witnesses
        assert a.nodes_explored == b.nodes_explored

    def test_workers_preserve_status(self):
        for make, expected in [
            (lambda: cycle(4), Status.FOUND),
            (lambda: cycle(5), Status.EXHAUSTED_NONE),
            (prism, Status.FOUND),
        ]:
            out = search(make(), SearchConfig(), workers=2)
            assert out.status is expected

    def test_workers_find_all_same_witnesses(self):
        single = search(cycle(4), SearchConfig(find_all=True))
        multi = search(cycle(4), SearchConfig(find_all=True), workers=3)
        assert {w.labels for w in single.witnesses} == {w.labels for w in multi.witnesses}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_find_all_witnesses_sorted_by_labels(self, workers):
        # P4 in almost mode finds its ten witnesses out of label order
        out = search(path(4), SearchConfig(mode=Mode.ALMOST, find_all=True), workers=workers)
        labels = [w.labels for w in out.witnesses]
        assert len(labels) == 10 and labels == sorted(labels)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_limit_cutting_find_all_short_is_the_status(self, workers):
        # C4 has 8 witnesses and its first 16 nodes in counting order lead to
        # one; a node limit runs the search at one worker at any count
        out = search(cycle(4), SearchConfig(find_all=True, node_limit=16), workers=workers)
        assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, 16)
        assert len(out.witnesses) == 1

    @pytest.mark.parametrize(
        "make,cfg",
        [(lambda: cycle(3), SearchConfig()), (lambda: cycle(4), SearchConfig()), (lambda: complete(4), SearchConfig()),
         (prism, SearchConfig())]
        + [(lambda n=n: wheel(n), SearchConfig()) for n in range(5, 9)]
        + [(lambda n=n: wheel(n), SearchConfig(mode=Mode.ALMOST)) for n in (6, 7)]
        + [(lambda: path(4), SearchConfig(mode=Mode.ALMOST)),
           (lambda: cycle(4), SearchConfig(find_all=True)),
           (lambda: path(4), SearchConfig(mode=Mode.ALMOST, find_all=True))]
        + [(lambda s=s: graph6_decode(s), SearchConfig(mode=Mode.ALMOST))
           for s in ("E~^G", "E~nW", "EznW", "Ez~w", "E~~G")],
        ids=["C3", "C4", "K4", "prism", "W5", "W6", "W7", "W8", "W6-almost", "W7-almost", "P4-almost",
             "C4-all", "P4-almost-all", "E~^G", "E~nW", "EznW", "Ez~w", "E~~G"],
    )
    def test_outcome_is_the_same_at_every_worker_count(self, make, cfg):
        # the root runs in this process, every job's subtree is counted whole
        # or up to its witness, and the results are read in label order up to
        # the first witness: the witness is the first in single-worker search
        # order, and the counts are those of one worker
        one, *many = (replace(search(make(), cfg, workers=w), elapsed=0) for w in (1, 2, 3))
        assert many == [one, one]

    @pytest.mark.parametrize(
        "make,cfg",
        [(lambda n=n: cycle(n), SearchConfig()) for n in range(5, 10)]
        + [
            (lambda: complete_bipartite(3, 3), SearchConfig()),
            (lambda: cycle(10), SearchConfig(max_label=14)),
            (prism, SearchConfig(forced_label_sum=74)),
        ],
        ids=["C5", "C6", "C7", "C8", "C9", "K33", "C10-14", "prism-74"],
    )
    def test_exhausted_search_costs_the_same_at_every_worker_count(self, make, cfg):
        # C5-C9 and K3,3 are cut at the root by the divisibility test, which counts
        # once however many jobs there would be; the last two search a tree,
        # C10's under one first label and the prism's under all of them
        outs = [search(make(), cfg, workers=w) for w in (1, 2, 3)]
        assert {o.status for o in outs} == {Status.EXHAUSTED_NONE}
        assert len({o.nodes_explored for o in outs}) == 1
        assert all(o.pruning_stats == outs[0].pruning_stats for o in outs)

    def test_root_cut_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        # the package's search function hides its module of the same name
        monkeypatch.setattr(importlib.import_module("leechlab.search"), "_pool_map", no_pool)
        # P5 is not edge-transitive, so it keeps all its first labels
        out = search(path(5), workers=2)
        assert (out.nodes_explored, out.pruning_stats) == (0, {"sum_divisibility": 1})
        # nor does a node limit, which runs the search at one worker
        out = search(prism(), SearchConfig(forced_label_sum=74, node_limit=1000), workers=2)
        assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, 1000)

    def test_prism_stops_early_at_two_workers(self):
        # one worker finds the prism's witness at node 174, under first label
        # 1. In a pool, the root's 21 nodes are counted here, label 1's job
        # finds the witness at its node 153, and the later jobs, which stop
        # at their next poll, are never read: without that, label 2's job
        # alone runs on for 10,409 nodes
        one = search(prism())
        pooled = search(prism(), workers=2)
        assert (one.status, one.nodes_explored) == (Status.FOUND, 174)
        assert replace(pooled, elapsed=0) == replace(one, elapsed=0)

    def test_job_stops_at_its_first_check_after_a_smaller_label_finds(self):
        from multiprocessing import Value

        prep = _Prepared(prism(), SearchConfig(), True, ())
        found = Value("i", prep.max_label + 1)
        jobs = []
        _search_single(prep, collect=jobs)
        assert [label for label, _ in jobs] == list(prep.first_labels)
        # first label 2 alone finds a witness after more than 4,096 nodes
        status, witnesses, nodes, _ = _search_single(prep, jobs[1], found)
        assert status is Status.FOUND and nodes > 4096
        assert found.value == 2
        # a job that starts after a smaller label found one stops at depth
        # 1's poll, once that step has counted its window: label 3's
        assert _search_single(prep, jobs[2], found)[0::2] == (None, 18)

        class FoundAfterStart:
            # the record as a job reads it: empty at its start, then label 1
            reads = 0

            @property
            def value(self):
                self.reads += 1
                return prep.max_label + 1 if self.reads == 1 else 1

        # depth 1's step polls once it has counted its window (18 nodes), and
        # the next poll falls due at 4,096 more counted nodes, in the step
        # whose window reaches them; nothing is taken back, so the job counts
        # what the same job stopped by a node limit at its node counts
        status, witnesses, nodes, stats = _search_single(prep, jobs[1], FoundAfterStart())
        assert (status, witnesses, nodes) == (None, [], 4119)
        limited = _Prepared(prism(), SearchConfig(node_limit=nodes), True, ())
        assert _search_single(limited, jobs[1]) == (Status.NODE_LIMIT, [], nodes, stats)

    def test_one_worker_starts_no_pool(self):
        import subprocess
        import sys
        from pathlib import Path

        import leechlab

        code = (
            "import sys; from leechlab import search, census_corpus; "
            "from leechlab.families import cycle; search(cycle(5)); "
            "list(census_corpus(['Bw', 'A_'])); "
            "print('concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(leechlab.__file__).parents[1])},
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "False\n"


class TestLimits:
    def test_time_limit(self):
        out = search(
            cycle(10),
            SearchConfig(max_label=31, forced_label_sum=85, time_limit=0.2),
        )
        assert out.status is Status.TIMED_OUT
        assert out.witnesses == ()

    def test_node_limit(self):
        out = search(
            cycle(10),
            SearchConfig(max_label=31, forced_label_sum=85, node_limit=5000),
        )
        assert out.status is Status.NODE_LIMIT
        assert out.nodes_explored == 5000

    @pytest.mark.parametrize(
        "make,cfg,status,nodes",
        [
            (lambda: cycle(10), SearchConfig(max_label=31, node_limit=5000), Status.NODE_LIMIT, 5000),
            # the whole tree is 99,492 nodes, over every first label
            (prism, SearchConfig(forced_label_sum=74, node_limit=99493), Status.EXHAUSTED_NONE, 99492),
            # one worker finds the witness at node 4,681
            (lambda: wheel(6), SearchConfig(node_limit=5000), Status.FOUND, 4681),
        ],
        ids=["C10-31", "prism-74", "W6"],
    )
    def test_node_limit_applies_per_search(self, make, cfg, status, nodes):
        # a node-limited search runs at one worker whatever workers says, so
        # it stops at the same node, with the same outcome, at every count
        one = search(make(), cfg)
        assert (one.status, one.nodes_explored) == (status, nodes)
        for workers in (2, 3, 4):
            many = search(make(), cfg, workers=workers)
            assert replace(many, elapsed=one.elapsed) == one

    def test_time_limit_counts_set_up(self, monkeypatch):
        # with the automorphisms slowed past the limit, the search stops at
        # its first poll: the prism finds its witness well inside 0.2 s else
        module = importlib.import_module("leechlab.search")
        real = module.stabilizer_orbits

        def slow(*args):
            time.sleep(0.3)
            return real(*args)

        monkeypatch.setattr(module, "stabilizer_orbits", slow)
        out = search(prism(), SearchConfig(time_limit=0.2))
        assert (out.status, out.witnesses) == (Status.TIMED_OUT, ())

    def test_time_limit_is_one_deadline_per_search(self):
        # the prism at sum 74 without weight_bound and weight_duplicate keeps
        # its 21 first labels and runs for over 20 s, 14 of its jobs for over
        # 0.3 s each, so a deadline per job would run past 2 s at two workers
        cfg, off = SearchConfig(forced_label_sum=74, time_limit=0.3), ("weight_bound", "weight_duplicate")
        assert len(_Prepared(prism(), cfg, True, off).first_labels) == 21
        out = search(prism(), cfg, workers=2, disabled_rules=off)
        assert out.status is Status.TIMED_OUT
        assert out.elapsed < 1.5

    def test_every_node_limit_on_the_prism(self):
        # the prism finds its witness at node 174: every smaller limit stops
        # at exactly its node, and no pruning count falls as the limit grows
        g, before = prism(), {}
        assert search(g).nodes_explored == 174
        for n in range(1, 174):
            out = search(g, SearchConfig(node_limit=n))
            assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, n)
            assert all(out.pruning_stats.get(rule, 0) >= before.get(rule, 0) for rule in ALL_RULES), n
            before = out.pruning_stats

    @pytest.mark.parametrize(
        "make,cfg",
        [
            (lambda: cycle(10), SearchConfig(max_label=31, time_limit=0.05)),
            (lambda: wheel(7), SearchConfig(mode=Mode.ALMOST, find_all=True, time_limit=0.05)),
            # a node limit out of reach: the polls fall due every 4,096 nodes
            # as without one, and the deadline stops the search
            (lambda: cycle(10), SearchConfig(max_label=31, time_limit=0.05, node_limit=10**9)),
        ],
        ids=["C10-31", "W7-almost-all", "C10-31-limited"],
    )
    def test_timed_out_search_counts_exactly(self, make, cfg):
        # a search stopped by its deadline counts what the same search
        # stopped by a node limit at the same node counts
        timed = search(make(), cfg)
        n = timed.nodes_explored
        assert timed.status is Status.TIMED_OUT and n > 0
        limited = search(make(), replace(cfg, time_limit=None, node_limit=n))
        assert (limited.status, limited.nodes_explored) == (Status.NODE_LIMIT, n)
        assert (limited.pruning_stats, limited.witnesses) == (timed.pruning_stats, timed.witnesses)

    def test_node_limits_around_the_check_cadence(self):
        # limits at, just before and just past multiples of 4,096 nodes
        g, before = cycle(10), {}
        for n in (4095, 4096, 4097, 8191, 8192, 8193):
            out = search(g, SearchConfig(max_label=15, node_limit=n))
            assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, n)
            assert all(out.pruning_stats.get(rule, 0) >= before.get(rule, 0) for rule in ALL_RULES), n
            before = out.pruning_stats

    @pytest.mark.parametrize(
        "g,cfg,disabled",
        [
            # C5 loses its divisibility test, and its sum bound too, so its
            # tree exhausts past 100 nodes (106)
            (cycle(5), SearchConfig(), ("sum_divisibility", "sum_bound")),
            (cycle(6), SearchConfig(), ("sum_divisibility",)),
            (cycle(10), SearchConfig(max_label=14), ()),
            # found searches: the last node is in the window of the witness's
            # last edge, which is counted whole before the leaf is reached
            (wheel(6), SearchConfig(), ()),
            (prism(), SearchConfig(), ()),
            (wheel(7), SearchConfig(mode=Mode.ALMOST), ()),
        ],
        ids=["C5", "C6", "C10-14", "W6", "prism", "W7-almost"],
    )
    def test_node_limit_at_and_past_an_exhausted_tree(self, g, cfg, disabled):
        # the limit stops the search at its N-th node, even the last one
        # before it exhausts or reaches its witness
        full = search(g, cfg, disabled_rules=disabled)
        n = full.nodes_explored
        assert full.status in (Status.EXHAUSTED_NONE, Status.FOUND) and n > 100
        at = search(g, replace(cfg, node_limit=n), disabled_rules=disabled)
        assert (at.status, at.nodes_explored, at.witnesses) == (Status.NODE_LIMIT, n, ())
        past = search(g, replace(cfg, node_limit=n + 1), disabled_rules=disabled)
        assert replace(past, elapsed=full.elapsed) == full


class TestConfigValidation:
    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            search(build_graph(3, []))

    def test_bad_max_label(self):
        with pytest.raises(ConfigInvalidError):
            search(cycle(3), SearchConfig(max_label=0))

    def test_bad_time_limit(self):
        # NaN as well: every comparison with it is false, so "<= 0" lets it
        # through as no limit at all
        for limit in (-2.0, float("nan")):
            with pytest.raises(ConfigInvalidError, match="time_limit"):
                search(cycle(3), SearchConfig(time_limit=limit))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one(self, workers):
        with pytest.raises(ConfigInvalidError, match="workers"):
            search(cycle(3), workers=workers)

    @pytest.mark.parametrize("field, value", [
        ("max_label", 3.5), ("max_label", True), ("forced_label_sum", 74.5), ("forced_label_sum", True),
        ("node_limit", 2.5), ("node_limit", True), ("workers", 2.0), ("workers", True),
        ("time_limit", True), ("time_limit", "1"),
    ])
    def test_config_types(self, field, value):
        # values the CLI's parsers never produce: each would otherwise escape
        # as a bare TypeError, or run and report a count that is no int
        cfg, workers = SearchConfig(), 1
        if field == "workers":
            workers = value
        else:
            cfg = replace(cfg, **{field: value})
        with pytest.raises(ConfigInvalidError, match=field):
            search(prism(), cfg, workers=workers)

    def test_forced_sum_below_floor(self):
        with pytest.raises(ConfigInvalidError):
            search(cycle(4), SearchConfig(forced_label_sum=9))  # floor is 10

    def test_almost_forced_sum_below_the_leech_floor(self):
        # the floor m(m+1)/2 holds for distinct labels only: 1 1 2 sums to 4
        out = search(cycle(3), SearchConfig(mode=Mode.ALMOST, forced_label_sum=4))
        assert out.status is Status.FOUND and out.witnesses[0].labels == (1, 1, 2)
        assert classify(cycle(3), out.witnesses[0]).verdict is Verdict.ALMOST_GEODESIC_LEECH
        # a sum too low for any almost labeling exhausts the search
        out = search(cycle(3), SearchConfig(mode=Mode.ALMOST, forced_label_sum=1))
        assert out.status is Status.EXHAUSTED_NONE

    def test_almost_forced_sum_needs_equal_counts(self):
        with pytest.raises(ConfigInvalidError, match="same number"):
            search(wheel(5), SearchConfig(mode=Mode.ALMOST, forced_label_sum=40))


class TestDerivedBounds:
    def test_c10_derives_paper_bounds(self):
        out = search(
            cycle(10), SearchConfig(max_label=31, forced_label_sum=85, node_limit=10)
        )
        assert (out.max_label, out.forced_label_sum) == (31, 85)
        derived = search(cycle(10), SearchConfig(node_limit=10))
        assert (derived.max_label, derived.forced_label_sum) == (31, 85)

    def test_derived_bounds_follow_the_identity(self):
        # T/k is the label sum exactly when every edge lies on the same k
        # geodesics and k divides T = t(t+1)/2
        graphs = (
            small_connected_catalog(5)
            + [cycle(n) for n in range(3, 13)]
            + [complete_bipartite(n, n) for n in range(1, 5)]
        )
        for g in graphs:
            c = census(g)
            out = search(g, SearchConfig(node_limit=1))
            target = c.total * (c.total + 1) // 2
            ks = set(c.per_edge)
            k = min(ks)
            expected = target // k if len(ks) == 1 and target % k == 0 else None
            assert out.forced_label_sum == expected, g.edges
            assert out.max_label == max_label_bound(g, c).max_label, g.edges

    def test_explicit_label_sum_on_unequal_counts(self):
        # prism edges lie on unequal numbers of geodesics, so no sum is
        # derived; an explicit one must still hold at every leaf
        found = search(prism(), SearchConfig(forced_label_sum=73))
        assert (found.status, found.nodes_explored) == (Status.FOUND, 174)
        assert sum(found.witnesses[0].labels) == 73
        none = search(prism(), SearchConfig(forced_label_sum=74))
        assert (none.status, none.nodes_explored) == (Status.EXHAUSTED_NONE, 99492)

    @pytest.mark.parametrize("make, cfg, params", [
        (lambda: cycle(10), SearchConfig(max_label=15), ("wmask",)),
        (lambda: wheel(6), SearchConfig(), ("wmask",)),
        (lambda: cycle(9), SearchConfig(mode=Mode.ALMOST), ("dups", "wmask")),
        (lambda: wheel(7), SearchConfig(mode=Mode.ALMOST), ("dups", "wmask")),
    ], ids=["C10-15", "W6", "C9-almost", "W7-almost"])
    def test_derived_sum_is_left_to_the_weighted_sum(self, make, cfg, params):
        # every edge on k geodesics: the derived label sum T/k is the weighted
        # sum T over k, which the verdict holds, so the steps carry no plain
        # sum of their own; Leech steps carry the weighted sum only for a
        # divisibility test that can cut, which C10 and W6 have at no depth,
        # and almost steps, which derive no sum, carry neither
        prep = _Prepared(make(), cfg, True, ())
        assert (prep.forced_sum is not None) is prep.leech
        state = dict.fromkeys(("wsum", "psum", "dups", "wmask"), 0)
        for d in range(prep.m):
            assert run_step(prep, d, [1] * prep.m, state, 0)[2] == params, d

    def test_explicit_label_sum_keeps_its_plain_window(self):
        # an explicit sum is no weighted sum on the prism's unequal counts,
        # so its steps bound the plain sum (psum) beside the weighted sum's
        # divisibility test
        prep = _Prepared(prism(), SearchConfig(forced_label_sum=74), True, ())
        state = dict.fromkeys(("wsum", "psum", "dups", "wmask"), 0)
        for d in range(prep.m):
            assert run_step(prep, d, [1] * prep.m, state, 0)[2] == ("wsum", "psum", "wmask"), d
        # W9's 18 labels cannot reach the sum 10,000: the root's plain bound
        # stops the search before any node
        out = search(wheel(9), SearchConfig(forced_label_sum=10000))
        assert (out.status, out.nodes_explored, out.pruning_stats) == (Status.EXHAUSTED_NONE, 0, {"sum_bound": 1})

    def test_seedless_searches_full_range(self):
        out = search(cycle(4), SearchConfig(node_limit=10), derive_bounds=False)
        assert out.max_label == 8
        assert out.forced_label_sum is None

    def test_almost_default_max_label_is_t(self):
        out = search(cycle(4), SearchConfig(mode=Mode.ALMOST, node_limit=10))
        assert out.max_label == 8

    @pytest.mark.parametrize("mode", list(Mode))
    def test_max_label_above_t_is_lowered_to_t(self, mode):
        # a label above t would be the weight of its own one-edge geodesic;
        # the per-depth sum bounds use the effective bound, not the asked one
        at_t = search(cycle(3), SearchConfig(mode=mode, max_label=3))
        above = search(cycle(3), SearchConfig(mode=mode, max_label=10**6))
        assert above.max_label == 3
        assert (above.status, above.witnesses) == (at_t.status, at_t.witnesses)


def automorphisms(g):
    """Every automorphism of g as an edge permutation: every vertex map,
    extended one vertex at a time to each unused image that keeps adjacency
    and non-adjacency with the vertices mapped before it."""
    pairs = {frozenset(e) for e in g.edges}
    maps = [()]
    for v in range(g.vertex_count):
        maps = [
            p + (y,)
            for p in maps
            for y in range(g.vertex_count)
            if y not in p and all((frozenset((u, v)) in pairs) == (frozenset((x, y)) in pairs) for u, x in enumerate(p))
        ]
    return [[g.edge_id(p[a], p[b]) for a, b in g.edges] for p in maps]


def brute_force_orbits(g, order, group=None):
    """stabilizer_orbits as a list, from the automorphism group listed whole."""
    group = automorphisms(g) if group is None else group
    orbits = []
    for d, e in enumerate(order):
        stabilizer = [q for q in group if all(q[f] == f for f in order[:d])]
        orbits.append(tuple(sorted({q[e] for q in stabilizer})))
    return orbits


def catalog_graphs():
    return small_connected_catalog(5) + [g for _, g in beineke_graphs()]


class TestSymmetry:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_orbits(self, n):
        sizes = [len(orbit) for orbit in stabilizer_orbits(cycle(n), range(n))]
        assert sizes == [n, 2] + [1] * (n - 2)

    @pytest.mark.parametrize(
        "make", [lambda: complete(4), lambda: complete_bipartite(3, 3), prism, lambda: wheel(5)]
    )
    def test_orbits_match_brute_force(self, make):
        g = make()
        order = list(range(g.edge_count))
        assert list(stabilizer_orbits(g, order)) == brute_force_orbits(g, order)
        assert list(stabilizer_orbits(g, order[::-1])) == brute_force_orbits(g, order[::-1])

    def test_catalog_orbits_match_brute_force(self):
        # edge ids in turn, the search's order and its reverse, each fed one
        # edge at a time as the search's order is: every orbit is read
        # before the next edge is chosen
        for g in catalog_graphs():
            group = automorphisms(g)
            order = _Prepared(g, SearchConfig(), False, ()).order
            for full in (list(range(g.edge_count)), order, order[::-1]):
                grown = []
                orbits = stabilizer_orbits(g, grown)
                for e in full:
                    grown.append(e)
                    assert next(orbits) == brute_force_orbits(g, grown, group)[-1], (g.edges, grown)

    def test_disconnected_orbits(self):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert list(stabilizer_orbits(two_triangles, range(6))) == [
            (0, 1, 2, 3, 4, 5), (1, 2), (2,), (3, 4, 5), (4, 5), (5,)
        ]

    @pytest.mark.parametrize("mode", [Mode.LEECH, Mode.ALMOST])
    def test_statuses_match_symmetry_off(self, mode):
        for g in catalog_graphs():
            on = search(g, SearchConfig(mode=mode))
            off = search(g, SearchConfig(mode=mode), disabled_rules=("symmetry",))
            assert (on.status, on.witnesses) == (off.status, off.witnesses), g.edges

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_prunes_nodes(self, n):
        # sum_divisibility alone exhausts these cycles at the root
        rules = ("sum_divisibility",)
        on = search(cycle(n), derive_bounds=False, disabled_rules=rules)
        off = search(cycle(n), derive_bounds=False, disabled_rules=rules + ("symmetry",))
        assert on.status is off.status is Status.EXHAUSTED_NONE
        assert on.nodes_explored < off.nodes_explored
        assert on.pruning_stats["symmetry"] > 0
        assert "symmetry" not in off.pruning_stats

    def test_off_under_find_all(self):
        out = search(cycle(4), SearchConfig(find_all=True))
        assert "symmetry" not in out.pruning_stats
        assert len(out.witnesses) == 8

    @pytest.mark.parametrize("mode", [Mode.LEECH, Mode.ALMOST])
    def test_root_label_cap_keeps_the_first_witness(self, mode):
        # on every connected edge-transitive atlas graph the root edge takes
        # only label 1 (Leech) or labels 1 and 2 (almost), and the search
        # still ends as it does with symmetry off, at the same first witness
        nx = pytest.importorskip("networkx")
        graphs = [
            g for g in (build_graph(a.number_of_nodes(), list(a.edges()))
                        for a in nx.graph_atlas_g() if a.number_of_edges() and nx.is_connected(a))
            if len(next(stabilizer_orbits(g, range(g.edge_count)))) == g.edge_count
        ]
        assert len(graphs) == 21
        cap = 1 if mode is Mode.LEECH else 2
        for g in graphs:
            prep = _Prepared(g, SearchConfig(mode=mode), True, ())
            assert prep.first_labels == range(1, min(cap, prep.max_label) + 1), g.edges
            on = search(g, SearchConfig(mode=mode))
            # the same floors with every first label: the search without the cap
            prep.first_labels = range(1, prep.max_label + 1)
            assert _search_single(prep)[:2] == (on.status, list(on.witnesses)), g.edges
            # K2,5, the one graph on 7 vertices and 10 edges here, exhausts
            # in Leech mode after 130,577,763 nodes with symmetry off (23 s)
            if mode is Mode.LEECH and (g.vertex_count, g.edge_count) == (7, 10):
                continue
            off = search(g, SearchConfig(mode=mode), disabled_rules=("symmetry",))
            assert (on.status, on.witnesses) == (off.status, off.witnesses), g.edges

    def test_root_label_cap_counts_the_labels_it_removes(self):
        # C10 with labels up to 13: the root's window is 1..13, and symmetry
        # takes 2..13 out of it, 12 labels beside those it cuts deeper down
        out = search(cycle(10), SearchConfig(max_label=13))
        assert (out.status, out.nodes_explored) == (Status.EXHAUSTED_NONE, 7287)
        prep = _Prepared(cycle(10), SearchConfig(max_label=13), True, ())
        assert prep.first_labels == range(1, 2)
        assert out.pruning_stats["symmetry"] == _search_single(prep)[3]["symmetry"] + 12
        # a search cut at the root reaches no window and removes nothing
        assert search(cycle(7)).pruning_stats == {"sum_divisibility": 1}

    @pytest.mark.parametrize(
        "g,cfg", [(cycle(10), SearchConfig(max_label=15)), (complete(4), SearchConfig())], ids=["C10-15", "K4"]
    )
    def test_one_first_label_starts_no_pool(self, monkeypatch, g, cfg):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        one = search(g, cfg)
        monkeypatch.setattr(importlib.import_module("leechlab.search"), "_pool_map", no_pool)
        two = search(g, cfg, workers=2)
        assert replace(two, elapsed=one.elapsed) == one


def greedy_order(g):
    """The fail-first edge order, re-counted from scratch at each step: most
    geodesics through the edge, then most geodesics that it completes with
    the edges already placed, then most lex-leader floors (placed edges in
    whose orbit, under the automorphisms fixing the edges placed before
    them, it lies), then the smallest edge id."""
    paths = enumerate_geodesics(g)
    k = census(g).per_edge
    group = automorphisms(g)
    order = []
    while len(order) < g.edge_count:
        placed = set(order)
        orbits = brute_force_orbits(g, order, group)

        def completes(e):
            return sum(1 for p in paths if e in p.edge_ids and set(p.edge_ids) - {e} <= placed)

        def floors(e):
            return sum(1 for orbit in orbits if e in orbit)

        left = [e for e in range(g.edge_count) if e not in placed]
        order.append(min(left, key=lambda e: (-k[e], -completes(e), -floors(e), e)))
    return order


class TestEdgeOrder:
    def test_matches_greedy_from_scratch_on_the_atlas(self):
        # every graph on up to 7 vertices that has an edge
        nx = pytest.importorskip("networkx")
        for a in nx.graph_atlas_g():
            if a.number_of_edges():
                g = build_graph(a.number_of_nodes(), list(a.edges()))
                assert _Prepared(g, SearchConfig(), False, ()).order == greedy_order(g), g.edges

    @pytest.mark.parametrize("mode", [Mode.LEECH, Mode.ALMOST])
    def test_one_order_for_every_rule_set(self, mode):
        # the floors break ties whether or not they are applied, so the
        # first witness is the same with symmetry on, off or under find_all
        for g in catalog_graphs():
            orders = [
                _Prepared(g, cfg, True, off).order
                for cfg, off in (
                    (SearchConfig(mode=mode), ()),
                    (SearchConfig(mode=mode), ("symmetry",)),
                    (SearchConfig(mode=mode, find_all=True), ()),
                )
            ]
            assert orders[0] == orders[1] == orders[2], g.edges

    def test_c10_places_the_reflected_edge_third(self):
        # the reflection fixing edge 0 maps edge 1 onto edge 9, whose floor
        # from edge 1 then prunes at depth 2, not at the last depth
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        assert prep.order == [0, 1, 9, 2, 3, 4, 5, 6, 7, 8]
        assert prep.symmetry[2] == (0, 1)
        assert prep.symmetry[1:] == [(0,), (0, 1)] + [(0,)] * 7
        off = _Prepared(cycle(10), SearchConfig(max_label=15), True, ("symmetry",))
        assert (off.order, off.symmetry) == (prep.order, [()] * 10)

    def test_long_cycle_costs_little(self):
        # the order's completion counts are kept up to date as edges are
        # placed; re-counting them from scratch at each step took 9 s here
        start = time.perf_counter()
        _Prepared(cycle(100), SearchConfig(), True, ())
        assert time.perf_counter() - start < 1.0


class TestPresets:
    def test_known_presets(self):
        assert search_family_presets("C5").status is Status.EXHAUSTED_NONE
        assert search_family_presets("K4").status is Status.FOUND
        assert search_family_presets("prism").status is Status.FOUND
        w5 = search_family_presets("W5")
        assert w5.status is Status.FOUND
        assert classify(wheel(5), w5.witnesses[0]).verdict is Verdict.GEODESIC_LEECH
        w7 = search_family_presets("W7")
        assert w7.status is Status.FOUND
        assert w7.mode is Mode.ALMOST

    def test_beineke_presets(self):
        assert search_family_presets("beineke_1").status is Status.FOUND
        assert search_family_presets("beineke_4").status is Status.EXHAUSTED_NONE

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            search_family_presets("Q17")
        with pytest.raises(UnknownPresetError):
            search_family_presets("beineke_99")
        with pytest.raises(UnknownPresetError):
            search_family_presets("beineke_x")
        # the index is ASCII digits only, as a family spec's parameters are
        for name in ("beineke_+1", "beineke_ 1", "beineke_\u0661", "beineke_0"):
            with pytest.raises(UnknownPresetError):
                search_family_presets(name)


class TestCensusCorpus:
    def test_degree_sequence_pair(self):
        rows = list(census_corpus([complete_bipartite(3, 3), prism()]))
        assert rows[0].verdict in ("almost", "neither")  # Leech is arithmetically impossible
        assert rows[1].verdict == "leech"

    def test_order_preserved_with_workers(self):
        graphs = [cycle(3), cycle(5), prism(), cycle(4), complete(4)]
        seq = list(census_corpus(graphs))
        par = list(census_corpus(graphs, workers=2))
        assert [r.verdict for r in seq] == [r.verdict for r in par]
        assert [r.index for r in par] == [0, 1, 2, 3, 4]
        assert [(r.n, r.m) for r in par] == [(g.vertex_count, g.edge_count) for g in graphs]

    def test_error_rows_do_not_abort(self):
        rows = list(census_corpus([cycle(3), build_graph(4, []), cycle(4)]))
        assert [r.verdict for r in rows] == ["leech", "error", "leech"]
        assert rows[1].error

    def test_a_row_walks_its_graph_once(self):
        # EhUg: the Leech search is exhausted, the almost search finds a
        # witness and the witness is classified again, all off one walk
        _walk.cache_clear()
        row = _corpus_row((0, "EhUg", None, None))
        assert (row.verdict, row.t_gp) == ("almost", 26)
        assert _walk.cache_info().misses == 1

    def test_timeout_verdict(self):
        rows = list(census_corpus([cycle(10)], node_limit=100))
        assert rows[0].verdict == "timeout"

    def test_node_limit_is_per_graph(self):
        # a limit the Leech search exhausts within, with too little left for
        # the almost search to find its witness
        g = graph6_decode("D]o")
        leech = search(g)
        almost = search(g, SearchConfig(mode=Mode.ALMOST))
        assert leech.status is Status.EXHAUSTED_NONE and almost.status is Status.FOUND
        limit = leech.nodes_explored + almost.nodes_explored // 2
        rows = list(census_corpus([g], node_limit=limit))
        assert rows[0].verdict == "timeout"
        assert rows[0].nodes <= limit
        assert list(census_corpus(["D]o"]))[0].verdict == "almost"

    def test_time_limit_is_per_graph(self, monkeypatch):
        # every clock read advances a second, so the Leech search on C5
        # (exhausted at once) uses up the 2 s limit before the almost search
        # that would find a witness could start
        import sys
        from types import SimpleNamespace

        ticks = iter(range(10**6))
        clock = SimpleNamespace(monotonic=lambda: next(ticks))
        monkeypatch.setattr(sys.modules["leechlab.search"], "time", clock)
        rows = list(census_corpus([cycle(5)], time_limit=2))
        assert rows[0].verdict == "timeout"

    def test_bad_limits_rejected_before_any_row(self):
        for limits in (
            {"time_limit": 0},
            {"time_limit": float("nan")},
            {"node_limit": -3},
            {"workers": 0},
            {"workers": -2},
        ):
            with pytest.raises(ConfigInvalidError):
                census_corpus([cycle(3)], **limits)

    def test_order6_census(self):
        # all 112 connected graphs on 6 vertices; 2,446,564 nodes when edge
        # ties went by edge id alone, 662,630 in fail-first order, 642,013
        # with the root symmetry cap, 613,754 with ties broken toward edges
        # with lex-leader floors, 621,233 in counting order, and 322,089
        # since distinct_label reads the weight set
        nx = pytest.importorskip("networkx")
        lines = [
            nx.to_graph6_bytes(a, header=False).decode().strip()
            for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 6 and nx.is_connected(a)
        ]
        assert len(lines) == 112
        rows = list(census_corpus(lines))
        verdicts = [r.verdict for r in rows]
        assert (verdicts.count("leech"), verdicts.count("almost"), verdicts.count("neither")) == (90, 20, 2)
        target = {"leech": Verdict.GEODESIC_LEECH, "almost": Verdict.ALMOST_GEODESIC_LEECH}
        for line, row in zip(lines, rows):
            if row.verdict in target:
                assert classify(graph6_decode(line), row.witness).verdict is target[row.verdict], line
        assert sum(r.nodes for r in rows) < 1_000_000

    def test_pool_never_outnumbers_the_rows(self, monkeypatch):
        # a stand-in pool records its size and starts no process
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        rows = list(census_corpus(["Bw", "A_"], workers=8))
        assert sizes == [2] and [r.verdict for r in rows] == ["leech", "leech"]
        # one row, or none, runs in this process
        assert [r.verdict for r in census_corpus(["Bw"], workers=8)] == ["leech"]
        assert list(census_corpus([], workers=8)) == []
        assert sizes == [2]

    def test_graph6_lines_and_decode_errors(self):
        rows = list(census_corpus(["Bw", "~~~bogus", "@"], workers=2))
        assert [r.verdict for r in rows] == ["leech", "error", "error"]
        assert (rows[1].n, rows[1].m, rows[1].t_gp) == (None, None, None)
        assert (rows[2].n, rows[2].m, rows[2].t_gp) == (1, 0, 0)


def suffix_bounds(prep, d):
    """The gcd of the geodesic counts k of the edges order[d:], and the least
    and greatest sum_e a_e those edges can add, from their number, max_label
    and mode alone: labels 1, 2, ... and max_label, max_label - 1, ... when
    distinct (Leech mode; past label 1 the greatest sum falls, as no Leech
    labeling is left), and all 1 and all max_label in almost mode."""
    ks = prep.k_by_depth[d:]
    if prep.leech:
        small = [i + 1 for i in range(len(ks))]
        large = [prep.max_label - i for i in range(len(ks))]
    else:
        small, large = [1] * len(ks), [prep.max_label] * len(ks)
    return math.gcd(*ks), (sum(small), sum(large))


def plain_step(prep, d, labels, state):
    """What depth d's node step does, one rule and one candidate label at a
    time: the counts it adds, keyed as pruning_stats plus "nodes", and the
    label and state (wsum, psum, dups, wmask) it hands each child."""
    rules, t, counts = prep.rules, prep.t, {}

    def add(key, n=1):
        if n:
            counts[key] = counts.get(key, 0) + n

    # a Leech labeling's weights sum to T = t(t+1)/2; an explicit label sum
    # bounds the plain sum of the labels, within slack in almost mode
    gcd, (pmin, pmax) = suffix_bounds(prep, d)
    if prep.leech and "sum_divisibility" in rules and (t * (t + 1) // 2 - state["wsum"]) % gcd:
        return {"sum_divisibility": 1}, []
    if "sum_bound" in rules and prep.plain_lo is not None:
        if not prep.plain_lo - pmax <= state["psum"] <= prep.plain_hi - pmin:
            return {"sum_bound": 1}, []
    group = prep.completed_at[d]
    bases = [sum(map(labels.__getitem__, others)) for others, _ in group]
    hi = prep.max_label if d else len(prep.first_labels)  # the root's symmetry cap
    if "weight_bound" in rules and t - max(bases) < hi:
        add("weight_bound", hi - (t - max(bases)))
        hi = t - max(bases)
    lo = max([1] + [floor - base for (_, floor), base in zip(group, bases)])
    add("complement_window", lo - 1)
    for e in prep.symmetry[d]:
        if labels[e] > lo:
            add("symmetry", labels[e] - lo)
            lo = labels[e]
    children = []
    for v in range(lo, hi + 1):
        # a label is the weight of its edge, a one-edge geodesic
        if prep.leech and "distinct_label" in rules and state["wmask"] >> v & 1:
            add("distinct_label")
            continue
        add("nodes")
        weights = [base + v for base in bases]
        # a weight collides with an earlier geodesic's or, repeated at this
        # node, with its first copy; weights above t are never recorded
        hits = sum(w <= t and (state["wmask"] >> w & 1 or w in weights[:i]) for i, w in enumerate(weights))
        if "weight_duplicate" in rules and hits > (0 if prep.leech else 1) - state["dups"]:
            add("weight_duplicate")
            continue
        children.append((v, {
            "wsum": state["wsum"] + prep.k_by_depth[d] * v, "psum": state["psum"] + v,
            "dups": state["dups"] + (hits > 0) * ("weight_duplicate" in rules),
            "wmask": state["wmask"] | sum(1 << w for w in set(weights) if w <= t),
        }))
    return counts, children


def run_step(prep, d, labels, state, due=math.inf):
    """Depth d's generated node step on fresh cells, with a recording stub as
    the next depth and a poll, due at node due, that stops the search: the
    counts it adds and the label and state of each child."""
    cells = {name: types.CellType(0) for name in _COUNTS}
    calls = []
    stub = types.CellType(lambda *args: calls.append((list.__getitem__(labels, prep.order[d]), args)))

    def poll(free, bad):
        raise _Stop(None)

    step = _node_step(prep, d, {
        **cells, "labels": types.CellType(labels), "due": types.CellType(due), "poll": types.CellType(poll),
        "nxt": stub,
    })
    params = step.__code__.co_varnames[:step.__code__.co_argcount]
    try:
        step(*(state[p] for p in params))
    except _Stop:
        pass
    counts = {name: cell.cell_contents for name, cell in cells.items() if cell.cell_contents}
    return counts, [(v, dict(zip(params, args))) for v, args in calls], params


class TestNodeStep:
    def check_steps(self, prep, rng, trials, top):
        """Every depth's node step against plain_step, with a poll due or not,
        on random labels 1..top for the edges placed before it, their
        weighted sum, as a search passes it, plain sums near the depth's
        window, and random weight sets. plain_step tests divisibility at every
        depth, so this also checks that no test the step leaves out could cut."""
        for d in range(prep.m):
            _, (pmin, pmax) = suffix_bounds(prep, d)
            for _ in range(trials):
                labels = [0] * prep.m
                for e in prep.order[:d]:
                    labels[e] = rng.randint(1, top)
                wsum = sum(k * labels[e] for k, e in zip(prep.k_by_depth, prep.order[:d]))
                psum = sum(labels)
                if prep.plain_lo is not None and rng.random() < 0.75:
                    psum = rng.randint(prep.plain_lo - pmax - 1, prep.plain_hi - pmin + 1)
                state = {
                    "wsum": wsum, "psum": psum, "dups": 0 if prep.leech else rng.randint(0, 1),
                    "wmask": rng.getrandbits(prep.t + 1),
                }
                counts, children = plain_step(prep, d, labels, state)
                got, calls, params = run_step(prep, d, list(labels), state)
                want = [(v, {p: child[p] for p in params}) for v, child in children]
                assert (got, calls) == (counts, want), (prep.order, d, labels, state)
                # a poll that falls due stops the step after it counts its
                # window and before any child
                got, calls, _ = run_step(prep, d, list(labels), state, due=0)
                assert (got, calls) == (counts, []), (prep.order, d, labels, state)

    def test_matches_plain_step_on_the_atlas(self):
        # every graph on up to 6 vertices that has an edge, in both modes;
        # labels up to 3 make bases repeat, labels up to max_label spread them
        nx = pytest.importorskip("networkx")
        rng = random.Random(19)
        for a in nx.graph_atlas_g():
            if a.number_of_edges() and a.number_of_nodes() <= 6:
                g = build_graph(a.number_of_nodes(), list(a.edges()))
                for mode in Mode:
                    prep = _Prepared(g, SearchConfig(mode=mode), True, ())
                    self.check_steps(prep, rng, 3, 3)
                    self.check_steps(prep, rng, 3, prep.max_label)

    @pytest.mark.parametrize("n, forced", [(8, 60), (10, None)])
    def test_matches_plain_step_under_complement_floors(self, n, forced):
        # a forced label sum on an even cycle (C10 derives 85) raises the
        # weight floor of each half
        prep = _Prepared(cycle(n), SearchConfig(forced_label_sum=forced), True, ())
        assert prep.forced_sum is not None
        assert any(floor > 1 for group in prep.completed_at for _, floor in group)
        self.check_steps(prep, random.Random(n), 200, prep.max_label)

    @pytest.mark.parametrize("make, cfg", [
        (prism, SearchConfig(forced_label_sum=74)),
        (lambda: cycle(8), SearchConfig(mode=Mode.ALMOST, forced_label_sum=30)),
        (lambda: complete(4), SearchConfig(mode=Mode.ALMOST, forced_label_sum=13)),
    ], ids=["prism-74", "C8-almost-30", "K4-almost-13"])
    def test_matches_plain_step_with_an_explicit_label_sum(self, make, cfg):
        prep = _Prepared(make(), cfg, True, ())
        assert prep.plain_lo is not None
        self.check_steps(prep, random.Random(5), 100, prep.max_label)

    def test_matches_plain_step_with_rules_off(self):
        # each rule off changes the generated step: its test, count or argument goes
        rng = random.Random(7)
        for rule in ALL_RULES:
            for g, mode in ((cycle(8), Mode.LEECH), (wheel(5), Mode.LEECH), (wheel(5), Mode.ALMOST)):
                prep = _Prepared(g, SearchConfig(mode=mode), True, (rule,))
                self.check_steps(prep, rng, 20, prep.max_label)

    def test_divisibility_is_tested_only_where_it_can_cut(self):
        # T - wsum at depth d is a multiple of P_d = gcd(T, k_0, ..., k_{d-1}),
        # so its test against G_d = gcd(k_d, ..., k_{m-1}) can cut only when
        # G_d does not divide P_d; wsum is passed only if some depth tests it
        nx = pytest.importorskip("networkx")
        graphs = [build_graph(a.number_of_nodes(), list(a.edges()))
                  for a in nx.graph_atlas_g() if a.number_of_edges() and a.number_of_nodes() <= 6]
        graphs += [cycle(n) for n in range(3, 13)] + [complete(n) for n in range(2, 9)]
        graphs += [complete_bipartite(n, n) for n in range(1, 6)] + [wheel(n) for n in range(5, 9)]
        cells = {name: types.CellType(0) for name in (*_COUNTS, "labels", "due", "poll", "nxt")}
        runs = [(g, SearchConfig()) for g in graphs] + [(prism(), SearchConfig(forced_label_sum=74))]
        for g, cfg in runs:
            prep = _Prepared(g, cfg, True, ())
            total, ks = prep.t * (prep.t + 1) // 2, prep.k_by_depth
            live = [bool(math.gcd(total, *ks[:d]) % math.gcd(*ks[d:])) for d in range(prep.m)]
            for d in range(prep.m):
                code = _node_step(prep, d, cells).__code__
                modulo = any(i.opname == "BINARY_MODULO" or i.argrepr == "%" for i in dis.get_instructions(code))
                assert modulo is live[d], (g.edges, d)
                assert ("wsum" in code.co_varnames[:code.co_argcount]) is any(live), (g.edges, d)
        # C10's steps take the weight set alone
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        for d in range(prep.m):
            code = _node_step(prep, d, cells).__code__
            assert code.co_varnames[:code.co_argcount] == ("wmask",)
        # K3,3 keeps its test at the root, which cuts the whole search
        out = search(complete_bipartite(3, 3))
        assert (out.status, out.nodes_explored, out.pruning_stats) == (Status.EXHAUSTED_NONE, 0, {"sum_divisibility": 1})

    def test_source_grows_one_label_per_geodesic(self):
        # each base is a named base plus one label, never a sum of all its
        # edges, so a step reads one label per geodesic longer than its edge
        class CountingLabels(list):
            reads = 0

            def __getitem__(self, i):
                CountingLabels.reads += 1
                return list.__getitem__(self, i)

        prep = _Prepared(cycle(40), SearchConfig(), True, ("sum_bound", "sum_divisibility", "symmetry"))
        state = dict.fromkeys(("wsum", "psum", "dups", "wmask"), 0)
        for d, group in enumerate(prep.completed_at):
            CountingLabels.reads = 0
            run_step(prep, d, CountingLabels([1] * prep.m), state)
            assert CountingLabels.reads == len([o for o, _ in group if o])

    def test_collecting_root_run_compiles_nothing_past_the_root(self, monkeypatch):
        module = importlib.import_module("leechlab.search")
        built = []
        real = module._node_step
        monkeypatch.setattr(module, "_node_step", lambda prep, d, *rest: built.append(d) or real(prep, d, *rest))
        # the root run of a search at workers > 1 counts the root's window
        # and collects one job per first label
        prep = _Prepared(prism(), SearchConfig(forced_label_sum=74), True, ())
        jobs = []
        status, witnesses, nodes, _ = _search_single(prep, collect=jobs)
        assert (status, witnesses, nodes, len(jobs)) == (Status.EXHAUSTED_NONE, [], 21, 21)
        assert built == [0]
        # a whole search builds each depth it reaches once
        built.clear()
        _search_single(prep)
        assert sorted(built) == list(range(prep.m))

    def test_prepared_pickles(self):
        # pool start methods other than fork pickle the pool's initargs, so
        # _Prepared must hold no compiled code
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        copy = pickle.loads(pickle.dumps(prep))
        assert _search_single(copy) == _search_single(prep)


class TestStepMemo:
    def count_builds(self, monkeypatch):
        """Empty the memo and record the depth of every node step built."""
        module = importlib.import_module("leechlab.search")
        built = []
        real = module._node_step
        monkeypatch.setattr(module, "_node_step", lambda prep, d, *rest: built.append(d) or real(prep, d, *rest))
        _step_code.cache_clear()
        return built

    def test_second_search_compiles_nothing(self):
        search(cycle(10), SearchConfig(max_label=15))
        misses = _step_code.cache_info().misses
        out = search(cycle(10), SearchConfig(max_label=15))
        assert out.nodes_explored == 73130
        assert _step_code.cache_info().misses == misses

    def test_limits_compile_nothing(self):
        # the limits are read in poll(), not built into the steps, so limited
        # searches run the code of the unlimited one
        search(cycle(10), SearchConfig(max_label=15))
        misses = _step_code.cache_info().misses
        limited = search(cycle(10), SearchConfig(max_label=15, node_limit=50000))
        timed = search(cycle(10), SearchConfig(max_label=15, time_limit=60))
        assert (limited.status, timed.status) == (Status.NODE_LIMIT, Status.EXHAUSTED_NONE)
        assert _step_code.cache_info().misses == misses

    def test_first_label_jobs_compile_each_shape_once(self, monkeypatch):
        from multiprocessing import Value

        # C10's 15 first-label jobs without the root's symmetry cap, one
        # after another as one worker runs them: each depth shape compiles
        # once, however many jobs reach it
        built = self.count_builds(monkeypatch)
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        prep.first_labels = range(1, 16)
        found = Value("i", prep.max_label + 1)
        jobs = []
        root = _search_single(prep, collect=jobs)
        nodes = sum(_search_single(prep, job, found)[2] for job in jobs)
        # the root counts the 15 first labels once, and no job counts them
        assert (root[2], nodes) == (15, 217982 - 15)
        assert len(built) == 87  # the root, then each job's depths from 1
        assert _step_code.cache_info().misses == 6

    def test_order6_census_shares_code_across_rows(self, monkeypatch):
        # all 112 connected graphs on 6 vertices, both searches of each row
        nx = pytest.importorskip("networkx")
        graphs = [
            build_graph(6, list(a.edges()))
            for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 6 and nx.is_connected(a)
        ]
        built = self.count_builds(monkeypatch)
        rows = list(census_corpus(graphs))
        assert len(rows) == 112
        assert _step_code.cache_info().misses < len(built) / 2
