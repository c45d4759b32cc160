"""Graph construction, distances, geodesic enumeration, and census."""

import math
import random
import time
from collections import Counter

import pytest

from leechlab.errors import DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError
from leechlab.families import (
    beineke_graphs,
    complete_bipartite,
    cycle,
    small_connected_catalog,
    wheel,
)
from leechlab.graph import (
    INFINITY,
    Graph,
    _walk,
    build_graph,
    census,
    count_geodesics,
    distances,
    enumerate_geodesics,
)
from leechlab.labeling import classify


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


class TestBuildGraph:
    def test_triangle_edge_ids_follow_list_order(self):
        g = triangle()
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))
        assert g.edge_id(2, 0) == 2

    def test_four_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count == 4
        assert g.degrees() == (2, 2, 2, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match=r"\(0, 0\)"):
            build_graph(3, [(0, 0)])

    def test_duplicate_rejected_even_reversed(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(1, 0\)"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError, match=r"\(0, 3\)"):
            build_graph(3, [(0, 3)])

    def test_immutable(self):
        g = triangle()
        with pytest.raises(AttributeError):
            g.vertex_count = 5


class TestDistances:
    def test_c4_from_zero(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert distances(g, 0) == [0, 1, 2, 1]

    def test_c10_eccentricity_is_five(self):
        g = cycle(10)
        for v in range(10):
            assert max(distances(g, v)) == 5

    def test_unreachable_is_infinite(self):
        g = build_graph(2, [])
        assert distances(g, 0) == [0, INFINITY]
        assert math.isinf(distances(g, 0)[1])

    def test_source_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            distances(triangle(), 3)


class TestEnumerateGeodesics:
    def test_triangle_has_three(self):
        paths = enumerate_geodesics(triangle())
        assert len(paths) == 3
        assert all(p.length == 1 for p in paths)

    def test_c4_has_eight(self):
        paths = enumerate_geodesics(cycle(4))
        assert len(paths) == 8
        by_len = {}
        for p in paths:
            by_len[p.length] = by_len.get(p.length, 0) + 1
        assert by_len == {1: 4, 2: 4}

    def test_k33_has_27(self):
        assert len(enumerate_geodesics(complete_bipartite(3, 3))) == 27

    def test_orientation_and_order_are_canonical(self):
        paths = enumerate_geodesics(cycle(5))
        assert paths == sorted(paths, key=lambda p: (p.endpoints, p.edge_ids))
        assert all(p.endpoints[0] < p.endpoints[1] for p in paths)

    def test_deterministic(self):
        g = cycle(8)
        assert enumerate_geodesics(g) == enumerate_geodesics(g)

    def test_empty_and_edgeless_graphs(self):
        assert enumerate_geodesics(build_graph(0, [])) == []
        assert enumerate_geodesics(build_graph(3, [])) == []

    def test_isolated_vertices_cost_nothing(self):
        # each source costs time in proportion to its component: an n-long
        # pass from each would take time quadratic in n
        start = time.perf_counter()
        g = Graph(20000, [])
        assert census(g).total == 0
        assert count_geodesics(g) == 0
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "total",
        [
            lambda g: census(g).total,
            count_geodesics,
            lambda g: classify(g, range(1, g.edge_count + 1)).t_gp,
        ],
        ids=["census", "count", "classify"],
    )
    def test_many_components_cost_linear_time(self, total):
        # n/2 disjoint edges: 0.85 s at n = 2,000 when each source paid for n
        g = Graph(8000, [(2 * i, 2 * i + 1) for i in range(4000)])
        start = time.perf_counter()
        assert total(g) == 4000
        assert time.perf_counter() - start < 1.0


class TestCensus:
    def test_c10_paper_constants(self):
        c = census(cycle(10))
        assert c.total == 50
        assert set(c.per_edge) == {15}
        assert c.diameter == 5

    def test_k33(self):
        c = census(complete_bipartite(3, 3))
        assert c.total == 27
        assert set(c.per_edge) == {5}

    def test_single_edge(self):
        c = census(build_graph(2, [(0, 1)]))
        assert (c.total, c.per_edge, c.diameter) == (1, (1,), 1)
        assert c.by_length == {1: 1}

    def test_total_matches_by_length(self):
        c = census(cycle(9))
        assert c.total == sum(c.by_length.values())

    def test_cycle_per_edge_is_d_triangle(self):
        # every edge of C_n lies on l geodesics of length l, summed to d(d+1)/2
        for n in range(3, 21):
            d = n // 2
            c = census(cycle(n))
            assert set(c.per_edge) == {d * (d + 1) // 2}, n

    def test_diameter_is_largest_finite_bfs_distance(self):
        graphs = small_connected_catalog(5) + [g for _, g in beineke_graphs()] + [
            build_graph(5, [(0, 1), (2, 3), (3, 4)]),  # disconnected
            build_graph(4, []),  # edgeless
        ]
        assert len(graphs) == 41
        for g in graphs:
            largest = max(
                (d for u in range(g.vertex_count) for d in distances(g, u) if d != INFINITY),
                default=0,
            )
            assert census(g).diameter == largest, g.edges


class TestWalkMemo:
    """_walk keeps the last graph's walk; misses count the walks made."""

    def test_census_then_classify_walk_once(self):
        g = wheel(7)
        _walk.cache_clear()
        census(g)
        classify(g, range(1, g.edge_count + 1))
        enumerate_geodesics(g)
        assert _walk.cache_info().misses == 1

    def test_interleaved_graphs_give_fresh_results(self):
        c5, c6 = cycle(5), cycle(6)
        labels = range(1, c6.edge_count + 1)
        _walk.cache_clear()
        fresh_c5 = census(c5)
        _walk.cache_clear()
        fresh_c6 = classify(c6, labels)
        _walk.cache_clear()
        assert census(c5) == fresh_c5
        assert classify(c6, labels) == fresh_c6
        assert census(c5) == fresh_c5
        assert enumerate_geodesics(c6) == enumerate_geodesics(cycle(6))
        assert _walk.cache_info().misses == 4

    def test_equal_graphs_share_one_walk(self):
        a, b = wheel(6), wheel(6)
        assert a is not b and a == b
        _walk.cache_clear()
        assert census(a) == census(b)
        labels = range(1, a.edge_count + 1)
        assert classify(a, labels) == classify(b, labels)
        assert _walk(a) is _walk(b)
        assert _walk.cache_info().misses == 1

    def test_the_shared_walk_is_immutable(self):
        walk = _walk(complete_bipartite(3, 3))
        assert type(walk) is tuple and len(walk) == 6
        for u, trie in walk:
            assert type(trie) is tuple and trie[0] == (u, -1, -1, 0)
            assert all(type(node) is tuple for node in trie)


def random_graph(rng, max_n=8):
    n = rng.randint(1, max_n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if rng.random() < rng.choice([0.2, 0.4, 0.7])]
    return build_graph(n, edges)


class TestRandomGraphOracle:
    def test_geodesics_against_bfs(self):
        rng = random.Random(20240817)
        for _ in range(200):
            g = random_graph(rng)
            paths = enumerate_geodesics(g)
            dist_from = {u: distances(g, u) for u in range(g.vertex_count)}
            seen = set()
            for p in paths:
                u, v = p.endpoints
                assert u < v
                # walk the edges: consecutive, no repeated vertex
                at = u
                visited = {u}
                for eid in p.edge_ids:
                    a, b = g.edges[eid]
                    assert at in (a, b)
                    at = b if at == a else a
                    assert at not in visited
                    visited.add(at)
                assert at == v
                assert p.length == dist_from[u][v]
                key = (p.endpoints, p.edge_ids)
                assert key not in seen
                seen.add(key)
            # every reachable pair accounted for, each shortest path once
            assert len(paths) == count_geodesics(g)

    def test_handshake_identity(self):
        rng = random.Random(31137)
        for _ in range(60):
            g = random_graph(rng)
            c = census(g)
            assert sum(c.per_edge) == sum(l * k for l, k in c.by_length.items())

    def test_counting_fast_path_agrees(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng)
            assert count_geodesics(g) == len(enumerate_geodesics(g))


def test_enumeration_matches_networkx_on_the_graph_atlas():
    """Every graph of at most 7 vertices: the geodesics are exactly
    networkx's shortest paths between connected pairs, once each, sorted;
    and the census and the classifier's weights, for labels 1..m and that
    labeling rotated by one, are those recomputed from networkx's paths."""
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        paths = enumerate_geodesics(g)
        got = [(p.endpoints, p.edge_ids) for p in paths]
        assert got == sorted(got), g.edges
        assert len(set(got)) == len(got), g.edges
        expected = set()
        diameter = 0
        for u in h:
            for v, d in nx.single_source_shortest_path_length(h, u).items():
                diameter = max(diameter, d)
                if v > u:
                    for walk in nx.all_shortest_paths(h, u, v):
                        expected.add(((u, v), tuple(map(g.edge_id, walk, walk[1:]))))
        assert set(got) == expected, g.edges

        c = census(g)
        per_edge = Counter(eid for _, eids in expected for eid in eids)
        assert c.total == len(expected), g.edges
        assert count_geodesics(g) == len(expected), g.edges
        assert c.by_length == dict(Counter(len(eids) for _, eids in expected)), g.edges
        assert c.per_edge == tuple(per_edge[eid] for eid in range(g.edge_count)), g.edges
        assert c.diameter == diameter, g.edges
        plain = list(range(1, g.edge_count + 1))
        for labels in (plain, plain[1:] + plain[:1]):
            weights = sorted(sum(labels[eid] for eid in eids) for _, eids in expected)
            assert classify(g, labels).weight_multiset == tuple(weights), (g.edges, labels)


def test_graph_is_picklable():
    import pickle

    g = cycle(6)
    assert pickle.loads(pickle.dumps(g)) == g
