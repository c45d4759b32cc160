"""Graph construction, distances, geodesic enumeration, and census."""

import math
import random
import time
from collections import Counter

import pytest

from leechlab.errors import DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError
from leechlab.families import (
    beineke_graphs,
    complete,
    complete_bipartite,
    cycle,
    path,
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


# the geodesic total, each way it is computed
TOTALS = pytest.mark.parametrize(
    "total",
    [
        lambda g: census(g).total,
        count_geodesics,
        lambda g: classify(g, range(1, g.edge_count + 1)).t_gp,
    ],
    ids=["census", "count", "classify"],
)


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

    @TOTALS
    def test_many_components_cost_linear_time(self, total):
        # n/2 disjoint edges: 0.85 s at n = 2,000 when each source paid for n
        g = Graph(8000, [(2 * i, 2 * i + 1) for i in range(4000)])
        start = time.perf_counter()
        assert total(g) == 4000
        assert time.perf_counter() - start < 1.0

    @TOTALS
    def test_dense_graph_costs_linear_time(self, total):
        # each source stops at the layer of the last vertex above it, here
        # its neighbours; a whole BFS from each source took 2-3 s, n * m steps
        g = complete(400)
        _walk.cache_clear()
        start = time.perf_counter()
        assert total(g) == 79800
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


def assert_matches_networkx(nx, g):
    """The geodesics of g are exactly networkx's shortest paths between
    connected pairs, once each, in enumerate_geodesics' order; and the census
    and the classifier's weights, for labels 1..m and that labeling rotated by
    one, are those recomputed from networkx's paths."""
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    expected = []
    diameter = 0
    for u in h:
        for v, d in nx.single_source_shortest_path_length(h, u).items():
            diameter = max(diameter, d)
            if v > u:
                for walk in nx.all_shortest_paths(h, u, v):
                    expected.append(((u, v), tuple(map(g.edge_id, walk, walk[1:]))))
    got = [(p.endpoints, p.edge_ids) for p in enumerate_geodesics(g)]
    assert got == sorted(expected), g.edges

    c = census(g)
    per_edge = Counter(eid for _, eids in expected for eid in eids)
    assert c.total == len(expected), g.edges
    assert count_geodesics(g) == len(expected), g.edges
    assert c.by_length == dict(Counter(len(eids) for _, eids in expected)), g.edges
    assert list(c.by_length) == sorted(c.by_length), g.edges
    assert c.per_edge == tuple(per_edge[eid] for eid in range(g.edge_count)), g.edges
    assert c.diameter == diameter, g.edges
    plain = list(range(1, g.edge_count + 1))
    for labels in (plain, plain[1:] + plain[:1]):
        weights = sorted(sum(labels[eid] for eid in eids) for _, eids in expected)
        assert classify(g, labels).weight_multiset == tuple(weights), (g.edges, labels)


def test_enumeration_matches_networkx_on_the_graph_atlas():
    """Every graph of at most 7 vertices."""
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        assert_matches_networkx(nx, build_graph(h.number_of_nodes(), list(h.edges())))


def test_enumeration_matches_networkx_beyond_the_atlas():
    """Larger graphs, where a vertex pair has several long geodesics and the
    walk's layer order decides the order within the pair."""
    nx = pytest.importorskip("networkx")
    hs = [nx.convert_node_labels_to_integers(nx.hypercube_graph(3)), nx.petersen_graph()]
    hs += [
        nx.gnp_random_graph(n, p, seed=seed)
        for n, p, seed in [(8, 0.2, 1), (9, 0.3, 2), (10, 0.25, 3), (11, 0.4, 4), (12, 0.15, 5), (13, 0.3, 6)]
    ]
    assert sum(not nx.is_connected(h) for h in hs) == 3
    graphs = [build_graph(h.number_of_nodes(), list(h.edges())) for h in hs]
    graphs += [cycle(n) for n in range(8, 13)] + [wheel(8), complete_bipartite(4, 4)]
    # where the BFS stops earliest, and a K4 at the end of a 6-vertex tail
    # numbered from the tail's far end: the clique's sources stop one layer
    # out, where a whole BFS walked the tail
    tail = [(i, i + 1) for i in range(6)] + [(a, b) for a in range(6, 10) for b in range(a + 1, 10)]
    graphs += [complete(12), wheel(12), path(12), build_graph(10, tail)]
    for g in graphs:
        assert_matches_networkx(nx, g)


def pruned_trie_nodes(g):
    """The walk's trie nodes below the roots, after asserting that each trie
    is breadth first with every leaf below its root an owned geodesic, so
    that every node is a prefix of one, and that the owned nodes are the
    geodesics counted without the walk."""
    nodes = owned = 0
    for u, trie in _walk(g):
        parents = {p for _, p, _, _ in trie}
        for i, (x, p, _, length) in enumerate(trie[1:], 1):
            assert 0 <= p < i and length == trie[p][3] + 1, (g.edges, u, i)
            assert length >= trie[i - 1][3], (g.edges, u, i)
            assert i in parents or x > u, (g.edges, u, i)
            owned += x > u
        nodes += len(trie) - 1
    assert owned == census(g).total == count_geodesics(g), g.edges
    return nodes


class TestWalkPruning:
    """Each source's trie holds the prefixes of the geodesics it owns, and
    nothing else."""

    def test_family_tries_are_minimal(self):
        graphs = [cycle(n) for n in range(3, 13)] + [wheel(n) for n in range(4, 10)]
        graphs += [complete_bipartite(a, b) for a in range(1, 6) for b in range(1, 6)]
        for g in graphs:
            pruned_trie_nodes(g)

    def test_atlas_tries_are_minimal(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g():
            pruned_trie_nodes(build_graph(h.number_of_nodes(), list(h.edges())))

    def test_pinned_node_totals(self):
        # 50 and 125 geodesics; walked from both ends they took 100 and 250 nodes
        assert pruned_trie_nodes(cycle(10)) == 60
        assert pruned_trie_nodes(complete_bipartite(5, 5)) == 145


def test_graph_is_picklable():
    import pickle

    g = cycle(6)
    assert pickle.loads(pickle.dumps(g)) == g
