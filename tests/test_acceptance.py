"""Acceptance suite: every contract criterion, one test each, budgets pinned.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. The slow item is the exhaustive C_10 search (criterion 5), which
certifies non-existence within its proven bounds.
"""

import itertools
import random
import time

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
from leechlab.formulas import (
    cycle_feasibility,
    general_weighted_sum_identity,
    knn_feasibility,
    max_label_bound,
    tgp_complete,
    tgp_cycle,
    tgp_knn,
    tgp_wheel,
)
from leechlab.graph import build_graph, census, distances, enumerate_geodesics
from leechlab.labeling import Verdict, classify
from leechlab.search import (
    Mode,
    SearchConfig,
    Status,
    census_corpus,
    search,
    search_family_presets,
)


def test_criterion_01_closed_forms_match_census():
    start = time.monotonic()
    for n in range(3, 41):
        assert census(cycle(n)).total == tgp_cycle(n), f"cycle {n}"
    for n in range(1, 7):
        assert census(complete_bipartite(n, n)).total == tgp_knn(n) == n ** 3, f"knn {n}"
    for n in range(5, 13):
        assert census(wheel(n)).total == tgp_wheel(n) == (n - 1) * (n + 2) // 2, f"wheel {n}"
    for n in range(2, 10):
        assert census(complete(n)).total == tgp_complete(n) == n * (n - 1) // 2, f"K_{n}"
    assert time.monotonic() - start < 5.0


def test_criterion_02_cycle_feasibility_range():
    start = time.monotonic()
    feasible = [n for n in range(3, 201) if cycle_feasibility(n).feasible]
    assert feasible == [3, 4, 10]
    assert time.monotonic() - start < 1.0


def test_criterion_03_knn_feasibility_range():
    start = time.monotonic()
    feasible = [n for n in range(1, 201) if knn_feasibility(n).feasible]
    assert feasible == [1, 2, 5]
    witness = knn_feasibility(3)
    assert witness.required_total == 378
    assert witness.per_edge_count == 5
    assert "378" in witness.reason and "5" in witness.reason
    assert time.monotonic() - start < 1.0


def test_criterion_04_c10_census_constants():
    g = cycle(10)
    c = census(g)
    assert c.total == 50
    assert all(k == 15 for k in c.per_edge)
    coeffs, total = general_weighted_sum_identity(c)
    assert total == 1275
    assert len(set(coeffs)) == 1
    assert total // coeffs[0] == 85
    assert max_label_bound(g, c).max_label == 31


def test_criterion_05_c10_exhaustive_search():
    start = time.monotonic()
    out = search_family_presets("C10")
    elapsed = time.monotonic() - start
    # the preset must derive exactly the proven bounds
    assert out.max_label == 31
    assert out.forced_label_sum == 85
    assert out.status is Status.EXHAUSTED_NONE
    assert out.witnesses == ()
    assert elapsed <= 600.0, f"C10 exhaustion took {elapsed:.0f}s"


def test_criterion_06_small_cycles():
    for n in (3, 4):
        out = search(cycle(n))
        assert out.status is Status.FOUND, n
        assert classify(cycle(n), out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH
    for n in (5, 6, 7, 8, 9):
        start = time.monotonic()
        assert search(cycle(n)).status is Status.EXHAUSTED_NONE, n
        assert time.monotonic() - start <= 60.0, n


def test_criterion_07_wheels():
    for n in (5, 6):
        start = time.monotonic()
        out = search(wheel(n))
        assert out.status is Status.FOUND, n
        assert classify(wheel(n), out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH
        assert time.monotonic() - start <= 300.0
    start = time.monotonic()
    out = search(wheel(7), SearchConfig(mode=Mode.ALMOST))
    assert out.status is Status.FOUND
    assert classify(wheel(7), out.witnesses[0]).verdict is Verdict.ALMOST_GEODESIC_LEECH
    assert time.monotonic() - start <= 300.0


def test_criterion_08_degree_sequence_does_not_characterize():
    start = time.monotonic()
    k33 = complete_bipartite(3, 3)
    p = prism()
    assert sorted(k33.degrees()) == sorted(p.degrees())
    assert not knn_feasibility(3).feasible
    out = search(p)
    assert out.status is Status.FOUND
    assert classify(p, out.witnesses[0]).verdict is Verdict.GEODESIC_LEECH
    assert time.monotonic() - start <= 60.0


def test_criterion_09_beineke_census():
    start = time.monotonic()
    rows = list(census_corpus([g for _, g in beineke_graphs()]))
    verdicts = [r.verdict for r in rows]
    assert verdicts.count("leech") == 8
    assert verdicts.count("almost") == 1
    assert time.monotonic() - start <= 600.0


def test_criterion_10_small_graph_census():
    start = time.monotonic()
    graphs = small_connected_catalog(5)
    assert len(graphs) == 30
    rows = list(census_corpus(graphs))
    assert all(r.verdict in ("leech", "almost") for r in rows), [
        (r.index, r.verdict) for r in rows if r.verdict not in ("leech", "almost")
    ]
    assert time.monotonic() - start <= 600.0


def test_criterion_11_oracle_equivalence():
    start = time.monotonic()

    def naive_status(g, mode):
        t = len(enumerate_geodesics(g))
        target = (
            Verdict.GEODESIC_LEECH if mode is Mode.LEECH else Verdict.ALMOST_GEODESIC_LEECH
        )
        for labels in itertools.product(range(1, t + 1), repeat=g.edge_count):
            if classify(g, labels).verdict is target:
                return Status.FOUND
        return Status.EXHAUSTED_NONE

    cases = [cycle(3), cycle(4), build_graph(2, [(0, 1)]), path(3)]
    for g in cases:
        for mode in (Mode.LEECH, Mode.ALMOST):
            assert search(g, SearchConfig(mode=mode)).status is naive_status(g, mode), (
                g,
                mode,
            )
    assert time.monotonic() - start < 30.0


def test_criterion_12_property_suite():
    # enumeration vs BFS-distance oracle on 200 random graphs (n <= 8)
    rng = random.Random(987654321)
    for _ in range(200):
        n = rng.randint(1, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, [p for p in pairs if rng.random() < 0.45])
        dist_from = {u: distances(g, u) for u in range(n)}
        c = census(g)
        seen = set()
        for p in enumerate_geodesics(g):
            u, v = p.endpoints
            at, visited = u, {u}
            for eid in p.edge_ids:
                a, b = g.edges[eid]
                assert at in (a, b)
                at = b if at == a else a
                assert at not in visited
                visited.add(at)
            assert at == v
            assert p.length == dist_from[u][v]
            assert (p.endpoints, p.edge_ids) not in seen
            seen.add((p.endpoints, p.edge_ids))
        # handshake identity
        assert sum(c.per_edge) == sum(l * k for l, k in c.by_length.items())

    # classifier is invariant under cycle rotation and reflection
    g6 = cycle(6)
    base = [3, 1, 4, 1, 5, 9]
    reference = classify(g6, base).verdict
    for shift in range(6):
        rotated = base[shift:] + base[:shift]
        assert classify(g6, rotated).verdict is reference
        assert classify(g6, list(reversed(rotated))).verdict is reference

    # search witnesses re-verify through the classifier
    for g, mode, want in [
        (cycle(4), Mode.LEECH, Verdict.GEODESIC_LEECH),
        (prism(), Mode.LEECH, Verdict.GEODESIC_LEECH),
        (wheel(7), Mode.ALMOST, Verdict.ALMOST_GEODESIC_LEECH),
    ]:
        out = search(g, SearchConfig(mode=mode))
        assert out.status is Status.FOUND
        assert classify(g, out.witnesses[0]).verdict is want
