"""Family generators and the bundled graph6 assets."""

import itertools

import pytest

from leechlab import families
from leechlab.errors import CatalogMissingError, TooSmallError
from leechlab.formulas import edge_transitive_feasibility
from leechlab.graph import census


class TestGenerators:
    def test_cycle_edge_convention(self):
        g = families.cycle(5)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))

    def test_cycle_too_small(self):
        with pytest.raises(TooSmallError):
            families.cycle(2)

    def test_cycle_10_census(self):
        assert census(families.cycle(10)).total == 50

    def test_complete(self):
        g = families.complete(4)
        assert g.edge_count == 6
        assert census(g).total == 6  # diameter 1: geodesics are the edges

    def test_bipartite_vertex_split(self):
        g = families.complete_bipartite(2, 3)
        assert g.vertex_count == 5
        assert g.edges[0] == (0, 2)
        assert all(u < 2 <= v for u, v in g.edges)

    def test_bipartite_totals(self):
        assert census(families.complete_bipartite(3, 3)).total == 27
        assert census(families.complete_bipartite(5, 5)).total == 125

    def test_path(self):
        g = families.path(5)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_wheel_layout(self):
        g = families.wheel(5)
        # rim edges first, then spokes to the hub (vertex 4)
        assert g.edges[:4] == ((0, 1), (1, 2), (2, 3), (0, 3))
        assert g.edges[4:] == ((0, 4), (1, 4), (2, 4), (3, 4))

    def test_wheel_census_totals(self):
        assert census(families.wheel(5)).total == 14
        assert census(families.wheel(7)).total == 27
        assert census(families.wheel(4)).total == 6  # K_4, below the closed form's domain

    def test_prism_is_cubic(self):
        g = families.prism()
        assert g.vertex_count == 6
        assert g.edge_count == 9
        assert g.degrees() == (3, 3, 3, 3, 3, 3)

    def test_prism_matches_k33_degree_sequence(self):
        prism = families.prism()
        k33 = families.complete_bipartite(3, 3)
        assert sorted(prism.degrees()) == sorted(k33.degrees())

    def test_generators_are_deterministic(self):
        for make in (
            lambda: families.cycle(7),
            lambda: families.wheel(6),
            families.prism,
            lambda: families.complete_bipartite(3, 4),
        ):
            assert make().edges == make().edges


# each registry entry's spec pattern, generator and parameter grid
REGISTRY_CASES = {
    "cycle": ("cycle:{}", families.cycle, [(n,) for n in range(3, 13)]),
    "path": ("path:{}", families.path, [(n,) for n in range(1, 8)]),
    "complete": ("complete:{}", families.complete, [(n,) for n in range(1, 9)]),
    "knn": ("knn:{}", lambda n: families.complete_bipartite(n, n), [(n,) for n in range(1, 6)]),
    "kmn": (
        "kmn:{}x{}", families.complete_bipartite,
        [(m, n) for m in range(1, 5) for n in range(1, 5)],
    ),
    "wheel": ("wheel:{}", families.wheel, [(n,) for n in range(4, 12)]),
    "prism": ("prism", families.prism, [()]),
}


class TestRegistry:
    def test_cases_cover_every_family(self):
        assert set(REGISTRY_CASES) == set(families.FAMILIES)
        for name, family in families.FAMILIES.items():
            assert family.name == name

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    def test_spec_builds_the_generators_graph(self, name):
        pattern, make, grid = REGISTRY_CASES[name]
        for params in grid:
            g, family, parsed = families.parse_family(pattern.format(*params))
            assert (family, parsed) == (families.FAMILIES[name], params)
            assert g == make(*params)
            assert g.edges == make(*params).edges

    @pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
    def test_closed_form_matches_census(self, name):
        pattern, make, grid = REGISTRY_CASES[name]
        family = families.FAMILIES[name]
        checked = 0
        for params in grid:
            # the wheel's closed form starts at n = 5, K_n's at n = 2
            if family.tgp is None or (name, params) in (("wheel", (4,)), ("complete", (1,))):
                continue
            expected = family.tgp(*params)
            if expected is None:
                assert name == "kmn" and params[0] != params[1]
                continue
            assert expected == census(make(*params)).total, (name, params)
            checked += 1
        assert checked or family.tgp is None

    @pytest.mark.parametrize("name,ns", [("cycle", range(3, 13)), ("knn", range(1, 6))])
    def test_feasibility_matches_census(self, name, ns):
        family = families.FAMILIES[name]
        for n in ns:
            g = family.make(n)
            c = census(g)
            assert len(set(c.per_edge)) == 1
            expected = edge_transitive_feasibility(c.per_edge[0], c.total, g.edge_count)
            assert family.feasibility(n) == expected, (name, n)


# (order, size, sorted degree sequence) of the nine minimal forbidden
# subgraphs of line graphs, in bundled order with the claw first
BEINEKE_PROFILE = [
    ("claw", 4, 3, (1, 1, 1, 3)),
    ("beineke-2", 5, 7, (2, 3, 3, 3, 3)),
    ("beineke-3", 5, 9, (3, 3, 4, 4, 4)),
    ("beineke-4", 6, 7, (1, 1, 3, 3, 3, 3)),
    ("beineke-5", 6, 8, (2, 2, 3, 3, 3, 3)),
    ("beineke-6", 6, 9, (1, 3, 3, 3, 4, 4)),
    ("beineke-7", 6, 9, (2, 2, 3, 3, 4, 4)),
    ("beineke-8", 6, 10, (3, 3, 3, 3, 3, 5)),
    ("beineke-9", 6, 11, (3, 3, 3, 3, 5, 5)),
]


class TestBeinekeAsset:
    def test_nine_graphs_claw_first(self):
        graphs = families.beineke_graphs()
        assert len(graphs) == 9
        assert graphs[0][0] == "claw"
        got = [
            (name, g.vertex_count, g.edge_count, tuple(sorted(g.degrees())))
            for name, g in graphs
        ]
        assert got == BEINEKE_PROFILE

    def test_connected(self):
        from leechlab.graph import distances

        for _, g in families.beineke_graphs():
            assert all(d != float("inf") for d in distances(g, 0))


def _pair_index(i, j):
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def _connected_class_count(n):
    """Independent isomorphism-class enumeration by canonical bitmask."""
    perms = list(itertools.permutations(range(n)))
    pidx = [(i, j) for j in range(1, n) for i in range(j)]
    seen = set()
    for mask in range(1, 1 << len(pidx)):
        edges = [pidx[k] for k in range(len(pidx)) if mask >> k & 1]
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        reached, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            continue
        canon = min(
            sum(1 << _pair_index(p[i], p[j]) for i, j in edges) for p in perms
        )
        seen.add(canon)
    return len(seen)


class TestSmallCatalog:
    def test_thirty_graphs(self):
        graphs = families.small_connected_catalog(5)
        assert len(graphs) == 30
        by_order = {}
        for g in graphs:
            by_order[g.vertex_count] = by_order.get(g.vertex_count, 0) + 1
        assert by_order == {2: 1, 3: 2, 4: 6, 5: 21}

    def test_counts_against_independent_enumeration(self):
        for n in (2, 3, 4, 5):
            bundled = sum(
                1 for g in families.small_connected_catalog(5) if g.vertex_count == n
            )
            assert bundled == _connected_class_count(n)

    def test_all_connected_with_an_edge(self):
        from leechlab.graph import distances

        for g in families.small_connected_catalog(5):
            assert g.edge_count >= 1
            assert all(d != float("inf") for d in distances(g, 0))

    def test_pairwise_non_isomorphic_at_order_four(self):
        # canonical bitmask comparison over all vertex permutations
        graphs = [g for g in families.small_connected_catalog(4) if g.vertex_count == 4]
        canons = set()
        for g in graphs:
            canon = min(
                sum(1 << _pair_index(p[u], p[v]) for u, v in g.edges)
                for p in itertools.permutations(range(4))
            )
            canons.add(canon)
        assert len(canons) == len(graphs)

    def test_max_n_validated(self):
        assert len(families.small_connected_catalog(2)) == 1
        with pytest.raises(ValueError):
            families.small_connected_catalog(6)
        with pytest.raises(ValueError):
            families.small_connected_catalog(1)


class TestAssetIntegrity:
    def _fake_resources(self, tmp_path, manifest_text, payload: bytes):
        class FakeResources:
            @staticmethod
            def files(_pkg):
                return tmp_path

        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(manifest_text)
        (tmp_path / "data" / "beineke.g6").write_bytes(payload)
        return FakeResources

    def test_checksum_mismatch_raises(self, tmp_path, monkeypatch):
        manifest = (
            '{"files": {"beineke.g6": '
            '{"sha256": "0000", "count": 1, "names": ["claw"]}}}'
        )
        monkeypatch.setattr(
            families, "resources", self._fake_resources(tmp_path, manifest, b"Cs\n")
        )
        with pytest.raises(CatalogMissingError, match="checksum"):
            families.beineke_graphs()

    def test_comments_are_not_graphs(self, tmp_path, monkeypatch):
        import hashlib

        payload = b"# the claw\n\nCs # K1,3\n"
        manifest = (
            '{"files": {"beineke.g6": {"sha256": "%s", "count": 1, "names": ["claw"]}}}'
            % hashlib.sha256(payload).hexdigest()
        )
        monkeypatch.setattr(
            families, "resources", self._fake_resources(tmp_path, manifest, payload)
        )
        [(name, g)] = families.beineke_graphs()
        assert name == "claw" and sorted(g.degrees()) == [1, 1, 1, 3]

    def test_missing_file_raises(self, tmp_path, monkeypatch):
        class FakeResources:
            @staticmethod
            def files(_pkg):
                return tmp_path / "nowhere"

        monkeypatch.setattr(families, "resources", FakeResources)
        with pytest.raises(CatalogMissingError):
            families.small_connected_catalog(5)
