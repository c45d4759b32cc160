"""Backtracking search: statuses, oracle equivalence, pruning neutrality."""

import importlib
import itertools
import os
import pickle
import random
import time
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
    Mode,
    SearchConfig,
    Status,
    _compile_head,
    _corpus_row,
    _Prepared,
    _search_single,
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
        # C4 has 8 witnesses and its first 10 nodes in search order lead to
        # one; a node limit runs the search at one worker at any count
        out = search(cycle(4), SearchConfig(find_all=True, node_limit=10), workers=workers)
        assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, 10)
        assert len(out.witnesses) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "name,make,mode",
        [
            ("C3", lambda: cycle(3), Mode.LEECH),
            ("C4", lambda: cycle(4), Mode.LEECH),
            ("K4", lambda: complete(4), Mode.LEECH),
            ("prism", prism, Mode.LEECH),
            ("W5", lambda: wheel(5), Mode.LEECH),
            ("W6", lambda: wheel(6), Mode.LEECH),
            ("W7", lambda: wheel(7), Mode.ALMOST),
            ("P4", lambda: path(4), Mode.ALMOST),
        ],
    )
    def test_workers_return_the_single_worker_witness(self, name, make, mode, workers):
        # jobs with larger first labels stop once a smaller one has a witness,
        # so the witness is the first one in single-worker search order
        one = search(make(), SearchConfig(mode=mode))
        many = search(make(), SearchConfig(mode=mode), workers=workers)
        assert one.status is Status.FOUND
        assert (many.status, many.witnesses) == (one.status, one.witnesses)

    @pytest.mark.parametrize(
        "make,cfg",
        [(lambda n=n: cycle(n), SearchConfig()) for n in range(5, 10)]
        + [
            (lambda: complete_bipartite(3, 3), SearchConfig()),
            (lambda: cycle(10), SearchConfig(max_label=13)),
            (prism, SearchConfig(forced_label_sum=74)),
        ],
        ids=["C5", "C6", "C7", "C8", "C9", "K33", "C10-13", "prism-74"],
    )
    def test_exhausted_search_costs_the_same_at_every_worker_count(self, make, cfg):
        # C5-C9 and K3,3 are cut at the root by the sum bounds, which count
        # once however many jobs there would be; the last two search a tree
        outs = [search(make(), cfg, workers=w) for w in (1, 2, 3)]
        assert {o.status for o in outs} == {Status.EXHAUSTED_NONE}
        assert len({o.nodes_explored for o in outs}) == 1
        assert all(o.pruning_stats == outs[0].pruning_stats for o in outs)

    def test_root_cut_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        # the package's search function hides its module of the same name
        monkeypatch.setattr(importlib.import_module("leechlab.search"), "_pool_map", no_pool)
        out = search(cycle(7), workers=2)
        assert (out.nodes_explored, out.pruning_stats) == (0, {"sum_divisibility": 1})
        # nor does a node limit, which runs the search at one worker
        out = search(cycle(10), SearchConfig(max_label=13, node_limit=1000), workers=2)
        assert (out.status, out.nodes_explored) == (Status.NODE_LIMIT, 1000)

    def test_prism_stops_early_at_two_workers(self):
        # one worker finds the prism's witness at node 1,086; a job running
        # beside it sees the witness at its next check, every 4,096 nodes.
        # Without the early stop, first label 2 ran on to 17,246 more nodes
        counts = [search(prism(), workers=2).nodes_explored for _ in range(5)]
        assert min(counts) <= 1086 + 4096

    def test_job_stops_at_its_first_check_after_a_smaller_label_finds(self):
        from multiprocessing import Value

        prep = _Prepared(prism(), SearchConfig(), True, ())
        found = Value("i", prep.max_label + 1)
        # first label 2 alone finds a witness after more than 4,096 nodes
        status, witnesses, nodes, _ = _search_single(prep, (2,), found)
        assert status is Status.FOUND and nodes > 4096
        assert found.value == 2
        # a job that starts after a smaller label found one is skipped
        assert _search_single(prep, (3,), found)[0::2] == (None, 0)

        class FoundAfterStart:
            # the record as a job reads it: empty at its start, then label 1
            reads = 0

            @property
            def value(self):
                self.reads += 1
                return prep.max_label + 1 if self.reads == 1 else 1

        status, witnesses, nodes, _ = _search_single(prep, (2,), FoundAfterStart())
        assert (status, witnesses, nodes) == (None, [], 4096)

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
            # the whole tree is 36,345 nodes
            (lambda: cycle(10), SearchConfig(max_label=13, node_limit=36346), Status.EXHAUSTED_NONE, 36345),
            # one worker finds the witness at node 15,531
            (lambda: wheel(6), SearchConfig(node_limit=16000), Status.FOUND, 15531),
        ],
        ids=["C10-31", "C10-13", "W6"],
    )
    def test_node_limit_applies_per_search(self, make, cfg, status, nodes):
        # a node-limited search runs at one worker whatever workers says, so
        # it stops at the same node, with the same outcome, at every count
        one = search(make(), cfg)
        assert (one.status, one.nodes_explored) == (status, nodes)
        for workers in (2, 3, 4):
            many = search(make(), cfg, workers=workers)
            assert replace(many, elapsed=one.elapsed) == one

    def test_time_limit_is_one_deadline_per_search(self):
        # 31 first-label jobs; a deadline per job would run past the limit
        out = search(cycle(10), SearchConfig(max_label=31, time_limit=0.3), workers=2)
        assert out.status is Status.TIMED_OUT
        assert out.elapsed < 1.5

    @pytest.mark.parametrize(
        "g,cfg,disabled",
        [
            (cycle(5), SearchConfig(), ("sum_divisibility",)),
            (cycle(6), SearchConfig(), ("sum_divisibility",)),
            (cycle(10), SearchConfig(max_label=13), ()),
        ],
        ids=["C5", "C6", "C10-13"],
    )
    def test_node_limit_at_and_past_an_exhausted_tree(self, g, cfg, disabled):
        # the limit stops the search at its N-th node, even the last one
        full = search(g, cfg, disabled_rules=disabled)
        n = full.nodes_explored
        assert full.status is Status.EXHAUSTED_NONE and n > 100
        at = search(g, replace(cfg, node_limit=n), disabled_rules=disabled)
        assert (at.status, at.nodes_explored) == (Status.NODE_LIMIT, n)
        past = search(g, replace(cfg, node_limit=n + 1), disabled_rules=disabled)
        assert (past.status, past.nodes_explored) == (Status.EXHAUSTED_NONE, n)
        assert past.pruning_stats == full.pruning_stats


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
        assert (found.status, found.nodes_explored) == (Status.FOUND, 1086)
        assert sum(found.witnesses[0].labels) == 73
        none = search(prism(), SearchConfig(forced_label_sum=74))
        assert (none.status, none.nodes_explored) == (Status.EXHAUSTED_NONE, 138315)

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


def brute_force_orbits(g, order):
    """stabilizer_orbits by listing every vertex permutation that preserves
    adjacency."""
    edges = set(g.edges)
    group = []
    for p in itertools.permutations(range(g.vertex_count)):
        if all(tuple(sorted((p[a], p[b]))) in edges for a, b in g.edges):
            group.append([g.edge_id(p[a], p[b]) for a, b in g.edges])
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
        assert stabilizer_orbits(g, order) == brute_force_orbits(g, order)
        assert stabilizer_orbits(g, order[::-1]) == brute_force_orbits(g, order[::-1])

    def test_catalog_orbits_match_brute_force(self):
        for g in catalog_graphs():
            order = list(range(g.edge_count))
            assert stabilizer_orbits(g, order) == brute_force_orbits(g, order), g.edges

    def test_disconnected_orbits(self):
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert stabilizer_orbits(two_triangles, range(6)) == [
            (0, 1, 2, 3, 4, 5), (1, 2), (2,), (3, 4, 5), (4, 5), (5,)
        ]

    @pytest.mark.parametrize("mode", [Mode.LEECH, Mode.ALMOST])
    def test_statuses_match_symmetry_off(self, mode):
        for g in catalog_graphs():
            on = search(g, SearchConfig(mode=mode))
            off = search(g, SearchConfig(mode=mode), disabled_rules=("symmetry",))
            assert on.status is off.status, g.edges

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


def greedy_order(g):
    """The fail-first edge order, re-counted from scratch at each step: most
    geodesics through the edge, then most geodesics that it completes with
    the edges already placed, then the smallest edge id."""
    paths = enumerate_geodesics(g)
    k = census(g).per_edge
    order = []
    while len(order) < g.edge_count:
        placed = set(order)

        def completes(e):
            return sum(1 for p in paths if e in p.edge_ids and set(p.edge_ids) - {e} <= placed)

        left = [e for e in range(g.edge_count) if e not in placed]
        order.append(min(left, key=lambda e: (-k[e], -completes(e), e)))
    return order


class TestEdgeOrder:
    def test_matches_greedy_from_scratch_on_the_atlas(self):
        # every graph on up to 7 vertices that has an edge
        nx = pytest.importorskip("networkx")
        for a in nx.graph_atlas_g():
            if a.number_of_edges():
                g = build_graph(a.number_of_nodes(), list(a.edges()))
                assert _Prepared(g, SearchConfig(), False, ()).order == greedy_order(g), g.edges

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
        # ties went by edge id alone, 662,630 in fail-first order
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


def plain_head(group, labels, wmask, exact):
    """What a compiled head returns, one geodesic at a time: each base as the
    sum of its other edges' labels, the union of the weight set shifted down
    by each base, a bit per base, and the highest weight floor less its base.
    The bases come back sorted, where the head must hand them over."""
    bases = [sum(map(labels.__getitem__, others)) for others, _ in group]
    any_hit = basebits = 0
    vlo = 1
    for (_, floor), base in zip(group, bases):
        any_hit |= wmask >> base
        basebits |= 1 << base
        vlo = max(vlo, floor - base)
    if exact or len(set(bases)) < len(bases):
        return 0, sorted(bases), basebits, vlo
    return any_hit, None, basebits, vlo


class TestCompiledHead:
    def check_heads(self, prep, rng, trials, top):
        """Every depth's compiled head against plain_head on random labels
        1..top for the edges placed before it and random weight sets."""
        for d, group in enumerate(prep.completed_at):
            head = _compile_head(group)
            for _ in range(trials):
                labels = [0] * prep.m
                for e in prep.order[:d]:
                    labels[e] = rng.randint(1, top)
                wmask = rng.getrandbits(prep.t + 1)
                for exact in (False, True):
                    any_hit, bases, basebits, vlo = head(labels, wmask, exact)
                    got = any_hit, None if bases is None else sorted(bases), basebits, vlo
                    assert got == plain_head(group, labels, wmask, exact), (prep.order, d, labels)

    def test_matches_plain_loop_on_the_atlas(self):
        # every graph on up to 6 vertices that has an edge, in both modes;
        # labels up to 3 make bases repeat, labels up to max_label spread them
        nx = pytest.importorskip("networkx")
        rng = random.Random(18)
        for a in nx.graph_atlas_g():
            if a.number_of_edges() and a.number_of_nodes() <= 6:
                g = build_graph(a.number_of_nodes(), list(a.edges()))
                for mode in Mode:
                    prep = _Prepared(g, SearchConfig(mode=mode), True, ())
                    self.check_heads(prep, rng, 3, 3)
                    self.check_heads(prep, rng, 3, prep.max_label)

    @pytest.mark.parametrize("n, forced", [(8, 60), (10, None)])
    def test_matches_plain_loop_under_complement_floors(self, n, forced):
        # a forced label sum on an even cycle (C10 derives 85) raises the
        # weight floor of each half
        prep = _Prepared(cycle(n), SearchConfig(forced_label_sum=forced), True, ())
        assert prep.forced_sum is not None
        assert any(floor > 1 for group in prep.completed_at for _, floor in group)
        self.check_heads(prep, random.Random(n), 200, prep.max_label)

    def test_source_grows_one_label_per_geodesic(self):
        # each base is a named base plus one label, never a sum of all its
        # edges, so a head reads one label per geodesic longer than its edge
        class CountingLabels(list):
            reads = 0

            def __getitem__(self, i):
                CountingLabels.reads += 1
                return list.__getitem__(self, i)

        prep = _Prepared(cycle(40), SearchConfig(), True, ())
        for group in prep.completed_at:
            CountingLabels.reads = 0
            _compile_head(group)(CountingLabels([1] * prep.m), 0, False)
            assert CountingLabels.reads == len([o for o, _ in group if o])

    def test_root_probe_compiles_nothing_past_the_root(self, monkeypatch):
        module = importlib.import_module("leechlab.search")
        compiled = []
        real = module._compile_head
        monkeypatch.setattr(module, "_compile_head", lambda group: compiled.append(group) or real(group))
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        status, witnesses, nodes, _ = _search_single(prep, ())
        assert (status, witnesses, nodes) == (Status.EXHAUSTED_NONE, [], 0)
        assert compiled in ([], [prep.completed_at[0]])
        # a whole search compiles each depth it reaches once
        compiled.clear()
        _search_single(prep, range(1, 16))
        assert sorted(map(prep.completed_at.index, compiled)) == list(range(prep.m))

    def test_prepared_pickles(self):
        # pool start methods other than fork pickle the pool's initargs, so
        # _Prepared must hold no compiled code
        prep = _Prepared(cycle(10), SearchConfig(max_label=15), True, ())
        copy = pickle.loads(pickle.dumps(prep))
        assert _search_single(copy, range(1, 16)) == _search_single(prep, range(1, 16))
