"""Closed forms, divisibility conditions, and the max-label bound."""

from fractions import Fraction

import pytest

from leechlab import formulas
from leechlab.errors import EmptyGraphError, FormulaDomainError, TooSmallError
from leechlab.families import complete, complete_bipartite, cycle, prism, wheel
from leechlab.formulas import (
    BoundArgument,
    as_even_cycle,
    cycle_feasibility,
    edge_transitive_feasibility,
    general_weighted_sum_identity,
    knn_feasibility,
    max_label_bound,
    tgp_complete,
    tgp_cycle,
    tgp_knn,
    tgp_wheel,
)
from leechlab.graph import build_graph, census


class TestClosedForms:
    def test_cycle_values(self):
        assert tgp_cycle(10) == 50
        assert tgp_cycle(5) == 10  # k(2k+1) with k=2
        assert tgp_cycle(3) == 3
        assert tgp_cycle(4) == 8

    def test_knn_values(self):
        assert tgp_knn(3) == 27
        assert tgp_knn(5) == 125

    def test_wheel_values(self):
        assert tgp_wheel(5) == 14
        assert tgp_wheel(6) == 20
        assert tgp_wheel(7) == 27

    def test_wheel_domain(self):
        with pytest.raises(FormulaDomainError):
            tgp_wheel(4)

    def test_complete(self):
        assert tgp_complete(4) == 6
        with pytest.raises(TooSmallError):
            tgp_complete(1)

    def test_cycle_too_small(self):
        with pytest.raises(TooSmallError):
            tgp_cycle(2)

    def test_agree_with_census(self):
        for n in range(3, 25):
            assert tgp_cycle(n) == census(cycle(n)).total
        for n in range(1, 6):
            assert tgp_knn(n) == census(complete_bipartite(n, n)).total
        for n in range(5, 11):
            assert tgp_wheel(n) == census(wheel(n)).total
        for n in range(2, 9):
            assert tgp_complete(n) == census(complete(n)).total


class TestEdgeTransitiveFeasibility:
    def test_k33_is_infeasible(self):
        res = edge_transitive_feasibility(k=5, t=27, m=9)
        assert not res.feasible
        assert res.required_total == 378
        assert res.reason == "378 not divisible by 5"
        assert res.required_label_sum == Fraction(378, 5)

    def test_k55_is_feasible(self):
        res = edge_transitive_feasibility(k=9, t=125, m=25)
        assert res.feasible
        assert res.required_label_sum == 875

    def test_c10_is_feasible(self):
        res = edge_transitive_feasibility(k=15, t=50, m=10)
        assert res.feasible
        assert res.required_label_sum == 85

    def test_distinct_label_floor(self):
        # k | T but T/k is too small for m distinct positive labels
        res = edge_transitive_feasibility(k=6, t=12, m=6)
        assert res.required_total == 78
        assert not res.feasible
        assert "below" in res.reason

    def test_preconditions(self):
        with pytest.raises(TooSmallError):
            edge_transitive_feasibility(k=0, t=5, m=3)
        with pytest.raises(TooSmallError):
            edge_transitive_feasibility(k=1, t=2, m=3)


class TestCycleFeasibility:
    def test_seven_by_direct_arithmetic(self):
        # independent oracle: t = 21, T = 21*22/2 = 231, per-edge k = 6
        assert 21 * 22 // 2 == 231
        assert 231 % 6 != 0
        res = cycle_feasibility(7)
        assert not res.feasible
        assert res.per_edge_count == 6
        assert res.required_total == 231

    def test_ten_and_four_feasible(self):
        assert cycle_feasibility(10).feasible
        assert cycle_feasibility(4).feasible

    def test_range_3_to_200(self):
        feasible = [n for n in range(3, 201) if cycle_feasibility(n).feasible]
        assert feasible == [3, 4, 10]


class TestKnnFeasibility:
    def test_small_values(self):
        assert not knn_feasibility(3).feasible
        assert knn_feasibility(5).feasible

    def test_four_by_direct_arithmetic(self):
        assert 64 * 65 // 2 == 2080
        assert 2080 % 7 != 0
        assert not knn_feasibility(4).feasible

    def test_range_1_to_200(self):
        feasible = [n for n in range(1, 201) if knn_feasibility(n).feasible]
        assert feasible == [1, 2, 5]


class TestWeightedSumIdentity:
    def test_c10(self):
        coeffs, total = general_weighted_sum_identity(census(cycle(10)))
        assert coeffs == (15,) * 10
        assert total == 1275
        assert total // coeffs[0] == 85

    def test_single_edge(self):
        coeffs, total = general_weighted_sum_identity(census(build_graph(2, [(0, 1)])))
        assert coeffs == (1,)
        assert total == 1

    def test_prism_from_enumeration(self):
        c = census(prism())
        coeffs, total = general_weighted_sum_identity(c)
        assert total == c.total * (c.total + 1) // 2
        assert sum(coeffs) == sum(l * k for l, k in c.by_length.items())

    def test_catalog_handshake(self):
        from leechlab.families import small_connected_catalog

        for g in small_connected_catalog(5):
            c = census(g)
            coeffs, _ = general_weighted_sum_identity(c)
            assert sum(coeffs) == sum(l * k for l, k in c.by_length.items())

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            general_weighted_sum_identity(census(build_graph(3, [])))


class TestEvenCycleDetection:
    def test_detects_even_cycles(self):
        assert as_even_cycle(cycle(4)) == 2
        assert as_even_cycle(cycle(10)) == 5

    def test_rejects_others(self):
        assert as_even_cycle(cycle(5)) is None
        assert as_even_cycle(prism()) is None
        two_triangles = build_graph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert as_even_cycle(two_triangles) is None

    def test_rejects_disjoint_even_cycles_and_small_graphs(self):
        two_squares = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        assert as_even_cycle(two_squares) is None
        assert as_even_cycle(cycle(3)) is None
        assert as_even_cycle(build_graph(2, [(0, 1)])) is None


class TestMaxLabelBound:
    def test_c10_gives_31(self):
        bound = max_label_bound(cycle(10), census(cycle(10)))
        assert bound.max_label == 31
        assert bound.argument is BoundArgument.EVEN_CYCLE_COMPLEMENT

    def test_complete_4_general(self):
        g = complete(4)
        bound = max_label_bound(g, census(g))
        assert bound.max_label == 6
        assert bound.argument is BoundArgument.SINGLE_EDGE_GEODESIC

    def test_c4_refined_bound_admits_known_labeling(self):
        g = cycle(4)
        bound = max_label_bound(g, census(g))
        assert bound.argument is BoundArgument.EVEN_CYCLE_COMPLEMENT
        assert bound.max_label <= 8
        # the known geodesic Leech labeling 1,6,2,3 must fit under the bound
        assert bound.max_label >= 6

    def test_never_exceeds_t_gp(self):
        for g in (cycle(4), cycle(6), cycle(10), prism(), wheel(5), complete(3)):
            c = census(g)
            bound = max_label_bound(g, c)
            assert 1 <= bound.max_label <= c.total
