"""Labelings and the Leech / almost / neither classifier."""

import itertools

import pytest

from leechlab.errors import LabelCountMismatchError, NonPositiveLabelError
from leechlab.families import cycle, path
from leechlab.graph import build_graph, census
from leechlab.labeling import Labeling, Verdict, classify, verdict_of


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


class TestLabeling:
    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveLabelError):
            Labeling((1, 0, 2))
        with pytest.raises(NonPositiveLabelError):
            Labeling((-3,))
        for labels in ((1.0, 2.0), (True, 2), (1, "2"), (1, None)):
            with pytest.raises(NonPositiveLabelError):
                Labeling(labels)
            with pytest.raises(NonPositiveLabelError):
                classify(build_graph(3, [(0, 1), (1, 2)]), labels)


@pytest.mark.parametrize(
    "weights, t, verdict",
    [
        ((1, 2, 3, 4, 5), 5, Verdict.GEODESIC_LEECH),
        ((5, 3, 1, 4, 2), 5, Verdict.GEODESIC_LEECH),  # any order; so never almost
        ((), 0, Verdict.GEODESIC_LEECH),
        ((1, 2, 2, 4, 5), 5, Verdict.ALMOST_GEODESIC_LEECH),  # 3 missing, 2 doubled
        ((1, 1, 2, 3, 4), 5, Verdict.ALMOST_GEODESIC_LEECH),  # 5 missing, 1 doubled
        ((1, 2, 2, 2, 5), 5, Verdict.NEITHER),  # tripled value
        ((1, 2, 2, 2, 3, 5), 6, Verdict.NEITHER),  # tripled value, one value missing
        ((1, 2, 3, 4, 6), 5, Verdict.NEITHER),  # overshoot
        ((1, 2, 3, 3, 6), 5, Verdict.NEITHER),  # doubled, but overshoot
        ((1, 2, 2, 3, 3), 5, Verdict.NEITHER),  # two doubled values
        ((1, 2, 3, 4), 5, Verdict.NEITHER),  # too few weights
    ],
)
def test_verdict_of_table(weights, t, verdict):
    assert verdict_of(weights, t) is verdict


class TestClassify:
    def test_triangle_leech(self):
        report = classify(triangle(), [1, 2, 3])
        assert report.verdict is Verdict.GEODESIC_LEECH
        assert report.weight_multiset == (1, 2, 3)
        assert report.missing == ()
        assert report.duplicates == ()

    def test_triangle_almost(self):
        report = classify(triangle(), [1, 2, 2])
        assert report.verdict is Verdict.ALMOST_GEODESIC_LEECH
        assert report.missing == (3,)
        assert report.duplicates == ((2, 2),)

    def test_triangle_neither_with_overshoot(self):
        report = classify(triangle(), [1, 2, 4])
        assert report.verdict is Verdict.NEITHER
        assert report.missing == (3,)
        assert report.overshoot == (4,)

    def test_c4_known_labeling(self):
        report = classify(cycle(4), [1, 6, 2, 3])
        assert report.verdict is Verdict.GEODESIC_LEECH
        assert report.weight_multiset == tuple(range(1, 9))

    def test_triple_repeat_is_neither(self):
        report = classify(triangle(), [2, 2, 2])
        assert report.verdict is Verdict.NEITHER

    def test_label_count_mismatch(self):
        with pytest.raises(LabelCountMismatchError, match="2 labels.*3 edges"):
            classify(triangle(), [1, 2])

    def test_too_many_labels(self):
        with pytest.raises(LabelCountMismatchError, match="4 labels.*3 edges"):
            classify(triangle(), [1, 2, 3, 4])

    def test_single_edge_weighs_its_label(self):
        report = classify(build_graph(2, [(1, 0)]), [5])
        assert report.t_gp == 1
        assert report.weight_multiset == (5,)

    def test_path_weights_add_labels(self):
        # P4 with all ones: three edges, two 2-edge geodesics, one 3-edge geodesic
        report = classify(path(4), [1, 1, 1])
        assert report.weight_multiset == (1, 1, 1, 2, 2, 3)

    def test_report_even_for_neither(self):
        report = classify(cycle(4), [1, 1, 1, 1])
        assert report.verdict is Verdict.NEITHER
        assert report.t_gp == 8
        assert report.weight_multiset == (1, 1, 1, 1, 2, 2, 2, 2)


# independent oracle for C_4: hard-coded geodesic structure, edges
# e0=(0,1) e1=(1,2) e2=(2,3) e3=(3,0)
C4_GEODESICS = [
    (0,), (1,), (2,), (3,),
    (0, 1), (2, 3),  # the two geodesics joining vertices 0 and 2
    (1, 2), (0, 3),  # the two geodesics joining vertices 1 and 3
]


def c4_oracle_verdict(labels):
    weights = sorted(sum(labels[e] for e in p) for p in C4_GEODESICS)
    if weights == list(range(1, 9)):
        return Verdict.GEODESIC_LEECH
    counts = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    missing = [v for v in range(1, 9) if v not in counts]
    doubles = [v for v, c in counts.items() if c == 2]
    triples = [v for v, c in counts.items() if c > 2]
    overshoot = [w for w in counts if w > 8]
    if len(missing) == 1 and len(doubles) == 1 and not triples and not overshoot:
        return Verdict.ALMOST_GEODESIC_LEECH
    return Verdict.NEITHER


class TestC4BruteForceOracle:
    def test_classifier_agrees_everywhere(self):
        g = cycle(4)
        for labels in itertools.product(range(1, 9), repeat=4):
            assert classify(g, labels).verdict is c4_oracle_verdict(labels), labels

    def test_weights_match_the_hard_coded_geodesics(self):
        g = cycle(4)
        for labels in ((1, 6, 2, 3), (9, 5, 1, 1), (2, 7, 4, 3)):
            expected = sorted(sum(labels[e] for e in p) for p in C4_GEODESICS)
            assert classify(g, labels).weight_multiset == tuple(expected), labels

    def test_exactly_eight_leech_labelings(self):
        solutions = [
            labels
            for labels in itertools.product(range(1, 9), repeat=4)
            if c4_oracle_verdict(labels) is Verdict.GEODESIC_LEECH
        ]
        assert len(solutions) == 8
        assert (1, 6, 2, 3) in solutions
        assert all(max(s) == 6 for s in solutions)
        assert all(sum(s) == 12 for s in solutions)


class TestClassifierInvariants:
    def test_leech_consequences(self):
        g = cycle(4)
        lab = Labeling((1, 6, 2, 3))
        report = classify(g, lab)
        assert report.verdict is Verdict.GEODESIC_LEECH
        # labels pairwise distinct, bounded by t_gp
        assert len(set(lab.labels)) == len(lab.labels)
        assert max(lab.labels) <= report.t_gp
        # weighted-sum identity
        c = census(g)
        t = report.t_gp
        assert sum(k * a for k, a in zip(c.per_edge, lab.labels)) == t * (t + 1) // 2

    def test_almost_sum_defect(self):
        g = triangle()
        lab = Labeling((1, 2, 2))
        report = classify(g, lab)
        assert report.verdict is Verdict.ALMOST_GEODESIC_LEECH
        c = census(g)
        t = report.t_gp
        weighted = sum(k * a for k, a in zip(c.per_edge, lab.labels))
        assert weighted == t * (t + 1) // 2 - report.missing[0] + report.duplicates[0][0]

    def test_rotation_invariance_on_cycles(self):
        g = cycle(4)
        base = [1, 6, 2, 3]
        for shift in range(4):
            rotated = base[shift:] + base[:shift]
            assert classify(g, rotated).verdict is Verdict.GEODESIC_LEECH
        g6 = cycle(6)
        ugly = [2, 2, 5, 1, 9, 4]
        verdicts = set()
        for shift in range(6):
            rotated = ugly[shift:] + ugly[:shift]
            verdicts.add(classify(g6, rotated).verdict)
            verdicts.add(classify(g6, list(reversed(rotated))).verdict)
        assert len(verdicts) == 1

    def test_independent_of_enumeration_order(self):
        # same graph built with a different edge order still classifies the
        # corresponding relabeled assignment identically
        g1 = cycle(4)
        g2 = build_graph(4, [(1, 2), (2, 3), (3, 0), (0, 1)])
        lab1 = [1, 6, 2, 3]
        lab2 = [6, 2, 3, 1]  # same edge values under g2's ids
        assert classify(g1, lab1).verdict is classify(g2, lab2).verdict
