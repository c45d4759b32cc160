"""Edge labelings, path weights, and the Leech / almost / neither classifier."""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import LabelCountMismatchError, NonPositiveLabelError
from .graph import Graph, _walk


class Verdict(enum.Enum):
    GEODESIC_LEECH = "leech"
    ALMOST_GEODESIC_LEECH = "almost"
    NEITHER = "neither"


@dataclass(frozen=True)
class Labeling:
    """Positive integer labels indexed by edge id."""

    labels: tuple[int, ...]

    def __post_init__(self):
        bad = [x for x in self.labels if isinstance(x, bool) or not isinstance(x, int) or x < 1]
        if bad:
            raise NonPositiveLabelError(f"labels must be positive integers, got {bad}")


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict plus the weight-multiset diagnostics behind it.

    missing lists the values of 1..t_gp absent from the multiset; duplicates
    lists (value, multiplicity) for every value occurring more than once;
    overshoot lists the distinct weights above t_gp.
    """

    verdict: Verdict
    t_gp: int
    weight_multiset: tuple[int, ...]
    missing: tuple[int, ...]
    duplicates: tuple[tuple[int, int], ...]
    overshoot: tuple[int, ...]


def verdict_of(weights, t: int) -> Verdict:
    """Verdict of a multiset of geodesic weights (or their Counter, read as
    is), given t_gp t.

    Geodesic Leech means the weights are exactly {1, ..., t}. Almost means
    every weight lies in 1..t, exactly one of those values is missing and
    exactly one weight occurs exactly twice. A value of multiplicity three
    or more is never almost.
    """
    counts = weights if isinstance(weights, Counter) else Counter(weights)
    if counts and (min(counts) < 1 or max(counts) > t):
        return Verdict.NEITHER
    repeats = counts.total() - len(counts)  # 1 when one value is doubled, and only then
    if repeats == 0 and len(counts) == t:
        return Verdict.GEODESIC_LEECH
    if repeats == 1 and len(counts) == t - 1:
        return Verdict.ALMOST_GEODESIC_LEECH
    return Verdict.NEITHER


def classify(g: Graph, lab: Labeling | Sequence[int]) -> ClassificationReport:
    """Classify a labeling as geodesic Leech, almost geodesic Leech, or neither.

    The verdict is verdict_of the geodesic weights; the report adds the
    missing, duplicated and overshooting values behind it.

    t_gp is always recomputed by enumeration (graph._walk), never from
    closed forms, so the classifier stays correct on arbitrary input graphs.
    """
    if not isinstance(lab, Labeling):
        lab = Labeling(tuple(lab))
    if len(lab.labels) != g.edge_count:
        raise LabelCountMismatchError(
            f"labeling has {len(lab.labels)} labels but graph has {g.edge_count} edges"
        )
    # each trie node weighs its parent's weight plus its last edge's label;
    # the label count matches g.edge_count, so every edge id indexes a label
    labels, weights = lab.labels, []
    for u, trie in _walk(g):
        node_weights = [0] * len(trie)
        for i in range(1, len(trie)):
            x, p, eid, _ = trie[i]
            node_weights[i] = w = node_weights[p] + labels[eid]
            if x > u:
                weights.append(w)
    weights.sort()
    t_gp = len(weights)
    counts = Counter(weights)  # its keys ascend, as the weights do
    missing = tuple(sorted(set(range(1, t_gp + 1)).difference(counts)))
    duplicates = tuple((v, c) for v, c in counts.items() if c > 1)
    overshoot = tuple(dict.fromkeys(weights[bisect_right(weights, t_gp):]))
    verdict = verdict_of(counts, t_gp)
    return ClassificationReport(verdict, t_gp, tuple(weights), missing, duplicates, overshoot)
