"""Closed-form geodesic path numbers and arithmetic necessary conditions.

A geodesic Leech labeling forces the double-counting identity

    sum_e k_e * a_e = T,  with  T = t(t+1)/2,

where t is the geodesic path number and k_e counts the geodesics through
edge e: summing the weights 1..t path by path must equal summing each label
once per geodesic it sits on. When every edge lies on the same number k of
geodesics (edge-transitive case) this pins the label sum to T/k, so k | T is
necessary. Distinct positive labels add the floor T/k >= m(m+1)/2. The
search and the CLI take T (_weight_total), the equal-count test
(_common_count), S = T/k (_forced_label_sum) and an even cycle's half floor
S - t (_half_floor) from here alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyGraphError, FormulaDomainError, TooSmallError
from .graph import INFINITY, GeodesicCensus, Graph, distances


def tgp_cycle(n: int) -> int:
    """Geodesic path number of the n-cycle: k(2k+1) for n=2k+1, 2k^2 for n=2k."""
    if n < 3:
        raise TooSmallError(f"cycle needs n >= 3, got {n}")
    k = n // 2
    return 2 * k * k if n % 2 == 0 else k * (2 * k + 1)


def tgp_knn(n: int) -> int:
    """Geodesic path number of K_{n,n}: n^2 edges plus n^3 - n^2 two-edge paths."""
    if n < 1:
        raise TooSmallError(f"K_nn needs n >= 1, got {n}")
    return n ** 3


def tgp_wheel(n: int) -> int:
    """Geodesic path number of the wheel on n vertices, (n-1)(n+2)/2.

    Valid for n >= 5 only: below that the wheel has diameter 1 and the
    two-edge-path counting behind the formula does not apply.
    """
    if n < 5:
        raise FormulaDomainError(f"wheel closed form requires n >= 5, got {n}")
    return (n - 1) * (n + 2) // 2


def tgp_complete(n: int) -> int:
    """Geodesic path number of K_n: diameter 1, so geodesics are the edges."""
    if n < 2:
        raise TooSmallError(f"complete graph formula needs n >= 2, got {n}")
    return n * (n - 1) // 2


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the divisibility necessary condition, with its witness.

    required_total is T = t(t+1)/2; required_label_sum is the exact rational
    T/k, which must be an integer at least m(m+1)/2 for a labeling to exist.
    """

    feasible: bool
    per_edge_count: int
    required_total: int
    required_label_sum: Fraction
    reason: str


class BoundArgument(enum.Enum):
    SINGLE_EDGE_GEODESIC = "single-edge-geodesic"
    EVEN_CYCLE_COMPLEMENT = "even-cycle-complement"


@dataclass(frozen=True)
class LabelBound:
    """Upper bound on any label a geodesic Leech labeling may use."""

    max_label: int
    argument: BoundArgument


def edge_transitive_feasibility(k: int, t: int, m: int) -> FeasibilityResult:
    """Necessary condition when every edge lies on exactly k geodesics."""
    if k < 1 or m < 1 or t < m:
        raise TooSmallError(f"need k >= 1 and t >= m >= 1, got k={k}, t={t}, m={m}")
    total = _weight_total(t)
    label_sum = Fraction(total, k)
    floor = m * (m + 1) // 2
    if label_sum.denominator != 1:
        feasible, reason = False, f"{total} not divisible by {k}"
    elif label_sum < floor:
        feasible, reason = False, (
            f"forced label sum {label_sum} is below {floor}, "
            f"the minimum for {m} distinct positive labels"
        )
    else:
        feasible, reason = True, f"{k} divides {total}; forced label sum {label_sum} >= {floor}"
    return FeasibilityResult(feasible, k, total, label_sum, reason)


def cycle_feasibility(n: int) -> FeasibilityResult:
    """Divisibility condition for C_n: every edge lies on d(d+1)/2 geodesics."""
    if n < 3:
        raise TooSmallError(f"cycle needs n >= 3, got {n}")
    d = n // 2
    return edge_transitive_feasibility(d * (d + 1) // 2, tgp_cycle(n), n)


def knn_feasibility(n: int) -> FeasibilityResult:
    """Divisibility condition for K_{n,n}: every edge lies on 2n-1 geodesics."""
    if n < 1:
        raise TooSmallError(f"K_nn needs n >= 1, got {n}")
    return edge_transitive_feasibility(2 * n - 1, tgp_knn(n), n * n)


def general_weighted_sum_identity(c: GeodesicCensus) -> tuple[tuple[int, ...], int]:
    """Coefficients and target of sum_e k_e * a_e = t(t+1)/2 for this census."""
    if not c.per_edge:
        raise EmptyGraphError("weighted-sum identity needs at least one edge")
    return c.per_edge, _weight_total(c.total)


def _weight_total(t: int) -> int:
    """T = t(t+1)/2, the sum of the weights 1..t of a Leech labeling."""
    return t * (t + 1) // 2


def _common_count(c: GeodesicCensus) -> int | None:
    """k when every edge lies on the same number k of geodesics, else None."""
    ks = set(c.per_edge)
    return ks.pop() if len(ks) == 1 else None


def _forced_label_sum(c: GeodesicCensus) -> int | None:
    """The label sum T/k forced when every edge lies on k geodesics, if k | T."""
    k = _common_count(c)
    target = _weight_total(c.total)
    return target // k if k is not None and target % k == 0 else None


def _half_floor(label_sum: int, t: int) -> int:
    """Least weight of either half of an even cycle between antipodal
    vertices: together they weigh label_sum, and the other weighs at most t."""
    return label_sum - t


def as_even_cycle(g: Graph) -> int | None:
    """Half-length k if g is a cycle on 2k vertices, else None.

    A connected graph whose every degree is 2 is a single cycle.
    """
    n = g.vertex_count
    if n < 4 or n % 2 or any(d != 2 for d in g.degrees()) or INFINITY in distances(g, 0):
        return None
    return n // 2


def max_label_bound(g: Graph, c: GeodesicCensus) -> LabelBound:
    """Largest label any geodesic Leech labeling of g could use.

    General case: an edge is itself a geodesic, so its label is one of the
    weights and cannot exceed t. For even cycles C_2k with an integral forced
    label sum S, a complement-counting argument sharpens this: the two halves
    of the cycle between antipodal vertices have weights summing to S, so
    every length-k geodesic weighs at least S - t. The k(k+1)/2 geodesics
    through the maximum-label edge weigh at least that label, the k length-k
    geodesics avoiding it weigh at least S - t, and all these weights are
    distinct values at most t; counting the room left pins the maximum label.
    """
    t = c.total
    if not c.per_edge:
        raise EmptyGraphError("label bound needs at least one edge")
    k = as_even_cycle(g)
    s = _forced_label_sum(c)
    if k is not None and s is not None:
        through = c.per_edge[0]  # geodesics containing a fixed edge, k(k+1)/2
        avoiders = k  # length-k geodesics avoiding it
        floor_k = _half_floor(s, t)  # minimum weight of a length-k geodesic
        candidates = [min(floor_k, t + 1 - through - avoiders)]
        if through + avoiders <= t - floor_k + 1 and t + 1 - through > floor_k:
            candidates.append(t + 1 - through)
        bound = max(1, min(max(candidates), t))
        return LabelBound(bound, BoundArgument.EVEN_CYCLE_COMPLEMENT)
    return LabelBound(t, BoundArgument.SINGLE_EDGE_GEODESIC)
