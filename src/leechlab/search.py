"""Exhaustive backtracking search for geodesic Leech and almost labelings.

The solver assigns labels edge by edge, most-constrained edge first (largest
per-edge geodesic count, ties by edge id), and prunes with:

  distinct_label      labels must be pairwise distinct in Leech mode
  sum_bound           the running weighted sum sum_e k_e*a_e must still be
                      able to land on T = t(t+1)/2 (Leech) or inside the
                      window [T-t+1, T+t-1] (almost); bounds pair large
                      coefficients with small respectively large labels
  sum_divisibility    the residue of the outstanding weighted sum must be
                      reachable with the remaining coefficients' gcd
  weight_bound        a completed geodesic may not weigh more than t
  weight_duplicate    duplicate weights are forbidden (Leech) or limited to
                      a single doubled value (almost)
  complement_window   on even cycles with a forced label sum S, the two
                      halves between antipodal vertices weigh S together,
                      so a completed half may not weigh less than S - t
  symmetry            a later edge b may not carry a smaller label than an
                      edge a when an automorphism fixing every edge before a
                      maps a onto b (lex-leader constraints; off under
                      find_all, so that the witness list stays complete)

Every rule only skips assignments that provably cannot reach a valid leaf,
or, for symmetry, leaves that an automorphism maps onto one still searched,
so an exhausted search is a certificate of non-existence within its bounds,
and disabling rules changes cost but never the outcome. Every leaf is
checked from scratch against the verdict definition, and every witness is
re-verified through the classifier before it is returned.
"""

from __future__ import annotations

import enum
import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from typing import Iterator

from .errors import ConfigInvalidError, EmptyGraphError, UnknownPresetError
from .families import beineke_graphs, complete, cycle, prism, wheel
from .formulas import as_even_cycle, max_label_bound
from .graph import Graph, _census_of, enumerate_geodesics, stabilizer_orbits
from .graphio import graph6_decode
from .labeling import Labeling, Verdict, classify, verdict_of

ALL_RULES = (
    "distinct_label",
    "sum_bound",
    "sum_divisibility",
    "weight_bound",
    "weight_duplicate",
    "complement_window",
    "symmetry",
)

_TIME_CHECK_MASK = 0xFFF


class Mode(enum.Enum):
    LEECH = "leech"
    ALMOST = "almost"


class Status(enum.Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    TIMED_OUT = "timed-out"
    NODE_LIMIT = "node-limit"


# the verdict a witness of each mode must earn
_TARGET = {Mode.LEECH: Verdict.GEODESIC_LEECH, Mode.ALMOST: Verdict.ALMOST_GEODESIC_LEECH}


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; None fields are derived from the graph at run time.

    max_label defaults to the proven label bound in Leech mode and to t_gp in
    almost mode. forced_label_sum defaults to T/k when every edge lies on the
    same number k of geodesics and k divides T (Leech mode only); it then
    restricts the plain label sum exactly.
    """

    mode: Mode = Mode.LEECH
    max_label: int | None = None
    forced_label_sum: int | None = None
    time_limit: float | None = None
    find_all: bool = False
    node_limit: int | None = None


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    witnesses: tuple[Labeling, ...]
    nodes_explored: int
    elapsed: float
    pruning_stats: dict[str, int]
    mode: Mode
    max_label: int
    forced_label_sum: int | None
    t_gp: int


class _Stop(Exception):
    def __init__(self, status: Status):
        self.status = status


def _validate_limits(time_limit, node_limit, workers: int) -> None:
    # not "<= 0": that is false for NaN, which would run with no limit at all
    if time_limit is not None and not time_limit > 0:
        raise ConfigInvalidError(f"time_limit must be positive, got {time_limit}")
    if node_limit is not None and node_limit < 1:
        raise ConfigInvalidError(f"node_limit must be >= 1, got {node_limit}")
    if workers < 1:
        raise ConfigInvalidError(f"workers must be >= 1, got {workers}")


def _validate(g: Graph, cfg: SearchConfig, workers: int) -> None:
    if g.edge_count == 0:
        raise EmptyGraphError("search needs a graph with at least one edge")
    if not isinstance(cfg.mode, Mode):
        raise ConfigInvalidError(f"unknown mode {cfg.mode!r}")
    if cfg.max_label is not None and cfg.max_label < 1:
        raise ConfigInvalidError(f"max_label must be >= 1, got {cfg.max_label}")
    _validate_limits(cfg.time_limit, cfg.node_limit, workers)
    m = g.edge_count
    if cfg.forced_label_sum is not None and cfg.forced_label_sum < m * (m + 1) // 2:
        raise ConfigInvalidError(
            f"forced_label_sum {cfg.forced_label_sum} is below the minimum "
            f"{m * (m + 1) // 2} for {m} labels"
        )


class _Prepared:
    """Static data shared by every node of one search."""

    __slots__ = (
        "g", "mode", "paths", "t", "m", "order", "k_by_depth",
        "suffix_gcd", "ks_desc_by_depth", "max_label", "plain_lo", "plain_hi",
        "weighted_lo", "weighted_hi", "forced_sum", "completed_at", "rules",
        "find_all", "time_limit", "node_limit", "leech", "symmetry",
    )

    def __init__(self, g: Graph, cfg: SearchConfig, derive_bounds: bool, disabled):
        self.g = g
        self.mode = cfg.mode
        self.leech = cfg.mode is Mode.LEECH
        self.find_all = cfg.find_all
        self.time_limit = cfg.time_limit
        self.node_limit = cfg.node_limit
        self.rules = frozenset(ALL_RULES) - frozenset(disabled)
        unknown = frozenset(disabled) - frozenset(ALL_RULES)
        if unknown:
            raise ConfigInvalidError(f"unknown pruning rules: {sorted(unknown)}")

        self.paths = enumerate_geodesics(g)
        c = _census_of(g, self.paths)
        per_edge = c.per_edge
        self.t = c.total
        self.m = g.edge_count

        self.order = sorted(range(self.m), key=lambda e: (-per_edge[e], e))
        pos = {eid: d for d, eid in enumerate(self.order)}
        self.k_by_depth = [per_edge[eid] for eid in self.order]
        self.suffix_gcd = [0] * (self.m + 1)
        for d in range(self.m - 1, -1, -1):
            self.suffix_gcd[d] = math.gcd(self.k_by_depth[d], self.suffix_gcd[d + 1])
        self.ks_desc_by_depth = [
            tuple(sorted(self.k_by_depth[d:], reverse=True)) for d in range(self.m + 1)
        ]

        t = self.t
        total = t * (t + 1) // 2
        if self.leech:
            self.weighted_lo = self.weighted_hi = total
        else:
            self.weighted_lo, self.weighted_hi = total - (t - 1), total + (t - 1)

        if cfg.max_label is not None:
            self.max_label = cfg.max_label
        elif self.leech and derive_bounds:
            self.max_label = max_label_bound(g, c).max_label
        else:
            self.max_label = t

        ks = set(per_edge)
        self.forced_sum = cfg.forced_label_sum
        if self.forced_sum is None and self.leech and derive_bounds and len(ks) == 1:
            k = ks.pop()
            if total % k == 0:
                self.forced_sum = total // k
        if self.forced_sum is not None:
            if self.leech:
                self.plain_lo = self.plain_hi = self.forced_sum
            else:
                if len(set(per_edge)) != 1:
                    raise ConfigInvalidError(
                        "forced_label_sum in almost mode needs every edge on the "
                        "same number of geodesics"
                    )
                k = per_edge[0]
                slack = (t - 1) // k
                self.plain_lo, self.plain_hi = self.forced_sum - slack, self.forced_sum + slack
        else:
            self.plain_lo = self.plain_hi = None

        # a completed geodesic's weight floor; raised for cycle halves when
        # the complement argument applies
        half = as_even_cycle(g)
        floors = {}
        if (
            half is not None
            and self.leech
            and self.forced_sum is not None
            and "complement_window" in self.rules
        ):
            floors = {half: self.forced_sum - t}
        grouped: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(self.m)]
        for p in self.paths:
            d = max(pos[eid] for eid in p.edge_ids)
            others = tuple(eid for eid in p.edge_ids if eid != self.order[d])
            grouped[d].append((others, floors.get(len(p.edge_ids), 1)))
        self.completed_at = [tuple(group) for group in grouped]

        # lex-leader constraints: label(order[d]) <= label(b) for each b in the
        # orbit of order[d] under the automorphisms fixing order[:d]; such a b
        # is never in order[:d], so it is assigned later and gets a floor
        floors: list[list[int]] = [[] for _ in range(self.m)]
        if "symmetry" in self.rules and not self.find_all:
            for d, orbit in enumerate(stabilizer_orbits(g, self.order)):
                for b in orbit:
                    if b != self.order[d]:
                        floors[pos[b]].append(self.order[d])
        self.symmetry = [tuple(f) for f in floors]


def _leaf_matches(prep: _Prepared, labels: list[int]) -> bool:
    """Authoritative leaf check, independent of which pruning rules ran."""
    weights = [sum(labels[e] for e in p.edge_ids) for p in prep.paths]
    return verdict_of(weights, prep.t) is _TARGET[prep.mode]


def _search_single(prep: _Prepared, first_values=None):
    """Depth-first search; returns (status, witnesses, nodes, stats)."""
    m, t = prep.m, prep.t
    order = prep.order
    k_by_depth = prep.k_by_depth
    completed_at = prep.completed_at
    max_label = prep.max_label
    rules = prep.rules
    leech = prep.leech
    check_distinct = leech and "distinct_label" in rules
    check_sum = "sum_bound" in rules
    check_gcd = "sum_divisibility" in rules
    check_wbound = "weight_bound" in rules
    check_wdup = "weight_duplicate" in rules
    dup_budget = 0 if leech else 1

    labels = [0] * m
    used_label = bytearray(max_label + 2)
    used_weight = bytearray(max(t + 2, max_label + 2))
    stats = {rule: 0 for rule in ALL_RULES}
    symmetry = prep.symmetry
    witnesses: list[Labeling] = []
    nodes = 0
    deadline = None if prep.time_limit is None else time.monotonic() + prep.time_limit
    node_limit = prep.node_limit

    weighted_lo, weighted_hi = prep.weighted_lo, prep.weighted_hi
    plain_lo, plain_hi = prep.plain_lo, prep.plain_hi
    suffix_gcd = prep.suffix_gcd
    ks_desc = prep.ks_desc_by_depth
    # the common coefficient of each suffix, 0 where they differ
    uniform_k = [ks[0] if ks and ks[0] == ks[-1] else 0 for ks in ks_desc]
    # the unused labels in ascending order, kept up to date by descend
    track_free = leech and check_sum
    free = list(range(1, max_label + 1))

    def remaining_bounds(depth: int, wsum: int, psum: int) -> bool:
        """True if the suffix can still hit the sum windows."""
        rem = m - depth
        if rem == 0:
            if not (weighted_lo <= wsum <= weighted_hi):
                return False
            if plain_lo is not None and not (plain_lo <= psum <= plain_hi):
                return False
            return True
        if check_gcd:
            gcd = suffix_gcd[depth]
            lo = weighted_lo - wsum
            if gcd > 0 and (lo + gcd - 1) // gcd * gcd > weighted_hi - wsum:
                stats["sum_divisibility"] += 1
                return False
        if not check_sum:
            return True
        if leech:
            if len(free) < rem:
                stats["sum_bound"] += 1
                return False
            asc, desc = free[:rem], free[-rem:]
            low, high = sum(asc), sum(desc)
            k = uniform_k[depth]
            if k:
                wmin, wmax = wsum + k * low, wsum + k * high
            else:
                ks = ks_desc[depth]
                wmin = wsum + sum(k * l for k, l in zip(ks, asc))
                wmax = wsum + sum(k * l for k, l in zip(ks, reversed(desc)))
            pmin, pmax = psum + low, psum + high
        else:
            ks = ks_desc[depth]
            wmin = wsum + sum(ks)
            wmax = wsum + max_label * sum(ks)
            pmin, pmax = psum + rem, psum + rem * max_label
        if wmin > weighted_hi or wmax < weighted_lo:
            stats["sum_bound"] += 1
            return False
        if plain_lo is not None and (pmin > plain_hi or pmax < plain_lo):
            stats["sum_bound"] += 1
            return False
        return True

    def descend(depth: int, wsum: int, psum: int, dups: int):
        nonlocal nodes
        if not remaining_bounds(depth, wsum, psum):
            return
        if depth == m:
            if _leaf_matches(prep, labels):
                witnesses.append(Labeling(tuple(labels)))
                if not prep.find_all:
                    raise _Stop(Status.FOUND)
            return
        eid = order[depth]
        k_d = k_by_depth[depth]
        # partial weights of the geodesics this edge completes; constant over
        # the candidate loop, so the weight window clips the value range once
        bases = []
        vlo, vhi = 1, max_label
        for others, floor in completed_at[depth]:
            base = 0
            for e in others:
                base += labels[e]
            bases.append(base)
            if check_wbound and t - base < vhi:
                vhi = t - base
            if floor - base > vlo:
                vlo = floor - base
        if vhi < max_label and check_wbound:
            stats["weight_bound"] += max_label - vhi
        if vlo > 1:
            stats["complement_window"] += vlo - 1
        for e in symmetry[depth]:
            if labels[e] > vlo:
                stats["symmetry"] += labels[e] - vlo
                vlo = labels[e]
        if first_values is not None and depth == 0:
            values = [v for v in first_values if vlo <= v <= vhi]
        else:
            values = range(vlo, vhi + 1)
        for v in values:
            if used_label[v]:
                if check_distinct:
                    stats["distinct_label"] += 1
                    continue
            nodes += 1
            if node_limit is not None and nodes >= node_limit:
                raise _Stop(Status.NODE_LIMIT)
            if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
                if time.monotonic() > deadline:
                    raise _Stop(Status.TIMED_OUT)
            labels[eid] = v
            new_dups = dups
            marked = 0
            ok = True
            for base in bases:
                w = v + base
                if w > t:
                    if check_wbound:
                        stats["weight_bound"] += 1
                        ok = False
                        break
                    continue
                if used_weight[w] and check_wdup:
                    new_dups += 1
                    if new_dups > dup_budget:
                        stats["weight_duplicate"] += 1
                        ok = False
                        break
                used_weight[w] += 1
                marked += 1
            if ok:
                if track_free and not used_label[v]:
                    del free[bisect_left(free, v)]
                used_label[v] += 1
                descend(depth + 1, wsum + k_d * v, psum + v, new_dups)
                used_label[v] -= 1
                if track_free and not used_label[v]:
                    insort(free, v)
            undone = 0
            for base in bases:
                if undone == marked:
                    break
                w = v + base
                if w <= t:
                    used_weight[w] -= 1
                    undone += 1
            labels[eid] = 0

    status = Status.EXHAUSTED_NONE
    try:
        descend(0, 0, 0, 0)
        if witnesses:
            status = Status.FOUND
    except _Stop as stop:
        status = stop.status
    return status, witnesses, nodes, stats


def _verify_witnesses(g: Graph, mode: Mode, witnesses) -> None:
    expected = _TARGET[mode]
    for w in witnesses:
        report = classify(g, w)
        if report.verdict is not expected:
            raise RuntimeError(
                f"search produced a witness that classifies {report.verdict.value}, "
                f"expected {expected.value}: {w.labels}"
            )


def _parallel_chunk(args):
    prep, chunk = args
    return _search_single(prep, first_values=chunk)


def search(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    workers: int = 1,
    derive_bounds: bool = True,
    disabled_rules=(),
) -> SearchOutcome:
    """Run the labeling search and return its outcome.

    workers > 1 splits the first edge's candidate labels across processes;
    node counts then aggregate over workers, but the status is identical to
    a single-worker run; workers < 1 raises ConfigInvalidError.
    derive_bounds=False skips deriving max_label and forced_label_sum from
    the counting arguments (both stay available as explicit config fields).
    disabled_rules names pruning rules to switch off, which affects cost
    only.
    """
    cfg = cfg or SearchConfig()
    _validate(g, cfg, workers)
    start = time.monotonic()
    prep = _Prepared(g, cfg, derive_bounds, disabled_rules)
    if workers == 1:
        status, witnesses, nodes, stats = _search_single(prep)
    else:
        values = list(range(1, prep.max_label + 1))
        chunks = [values[i::workers] for i in range(workers) if values[i::workers]]
        jobs = [(prep, chunk) for chunk in chunks]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_parallel_chunk, jobs))
        witnesses = sorted(
            {w for _, ws, _, _ in results for w in ws}, key=lambda w: w.labels
        )
        if not cfg.find_all and witnesses:
            witnesses = witnesses[:1]
        nodes = sum(n for _, _, n, _ in results)
        stats = {rule: sum(r[3][rule] for r in results) for rule in ALL_RULES}
        statuses = {r[0] for r in results}
        if witnesses:
            status = Status.FOUND
        elif Status.TIMED_OUT in statuses:
            status = Status.TIMED_OUT
        elif Status.NODE_LIMIT in statuses:
            status = Status.NODE_LIMIT
        else:
            status = Status.EXHAUSTED_NONE
    _verify_witnesses(g, cfg.mode, witnesses)
    return SearchOutcome(
        status=status,
        witnesses=tuple(witnesses),
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
        pruning_stats={k: v for k, v in stats.items() if v},
        mode=cfg.mode,
        max_label=prep.max_label,
        forced_label_sum=prep.forced_sum,
        t_gp=prep.t,
    )


_PRESETS: dict[str, tuple] = {
    "C10": (lambda: cycle(10), Mode.LEECH),
    "C5": (lambda: cycle(5), Mode.LEECH),
    "W5": (lambda: wheel(5), Mode.LEECH),
    "W6": (lambda: wheel(6), Mode.LEECH),
    "W7": (lambda: wheel(7), Mode.ALMOST),
    "prism": (prism, Mode.LEECH),
    "K4": (lambda: complete(4), Mode.LEECH),
}


def search_family_presets(name: str, *, workers: int = 1) -> SearchOutcome:
    """Run the search on a named preset with bounds derived from the formulas.

    Recognized: C10, C5, W5, W6, W7, prism, K4, and beineke_1 .. beineke_9.
    W7 runs in almost mode, everything else in Leech mode.
    """
    if name.startswith("beineke_"):
        try:
            idx = int(name.split("_", 1)[1])
        except ValueError:
            raise UnknownPresetError(name) from None
        graphs = beineke_graphs()
        if not 1 <= idx <= len(graphs):
            raise UnknownPresetError(name)
        g = graphs[idx - 1][1]
        return search(g, SearchConfig(mode=Mode.LEECH), workers=workers)
    if name not in _PRESETS:
        raise UnknownPresetError(name)
    factory, mode = _PRESETS[name]
    return search(factory(), SearchConfig(mode=mode), workers=workers)


@dataclass(frozen=True)
class CorpusRow:
    """Per-graph result of a corpus census run.

    An input that does not decode gives an error row with n, m and t_gp None;
    a graph whose search raises gives one with t_gp 0.
    """

    index: int
    n: int | None
    m: int | None
    t_gp: int | None
    verdict: str
    nodes: int
    millis: float
    witness: Labeling | None = None
    error: str | None = None


def _corpus_row(args) -> CorpusRow:
    index, item, time_limit, node_limit = args
    start = time.monotonic()
    g = None
    try:
        g = graph6_decode(item) if isinstance(item, str) else item
        cfg = SearchConfig(time_limit=time_limit, node_limit=node_limit)
        out = search(g, cfg)
        t_gp, nodes = out.t_gp, out.nodes_explored
        if out.status is Status.EXHAUSTED_NONE:
            # the limits are per graph: the almost search gets what is left
            time_left = None if time_limit is None else time_limit - (time.monotonic() - start)
            if time_left is not None and time_left <= 0:
                out = replace(out, status=Status.TIMED_OUT)
            else:
                nodes_left = None if node_limit is None else node_limit - nodes
                out = search(
                    g, replace(cfg, mode=Mode.ALMOST, time_limit=time_left, node_limit=nodes_left)
                )
                nodes += out.nodes_explored
        if out.status is Status.FOUND:
            verdict, witness = out.mode.value, out.witnesses[0]
        elif out.status is Status.EXHAUSTED_NONE:
            verdict, witness = "neither", None
        else:
            verdict, witness = "timeout", None
        return CorpusRow(
            index=index,
            n=g.vertex_count,
            m=g.edge_count,
            t_gp=t_gp,
            verdict=verdict,
            nodes=nodes,
            millis=(time.monotonic() - start) * 1000.0,
            witness=witness,
        )
    except Exception as exc:  # per-row isolation: the batch must continue
        decoded = g is not None
        return CorpusRow(
            index=index,
            n=g.vertex_count if decoded else None,
            m=g.edge_count if decoded else None,
            t_gp=0 if decoded else None,
            verdict="error",
            nodes=0,
            millis=(time.monotonic() - start) * 1000.0,
            error=str(exc),
        )


def census_corpus(
    graphs,
    *,
    time_limit: float | None = None,
    node_limit: int | None = None,
    workers: int = 1,
) -> Iterator[CorpusRow]:
    """Classify each graph as leech, almost, neither, timeout, or error.

    graphs holds Graphs or graph6 lines; a line that does not decode gives an
    error row and the batch goes on. Runs the Leech search first and the
    almost search only after exhaustion; time_limit and node_limit apply per
    graph, across both searches. The input is read in full before work
    starts, and rows stream out in input order, regardless of worker count.
    Invalid limits and worker counts below 1 raise ConfigInvalidError
    before any row runs.
    """
    _validate_limits(time_limit, node_limit, workers)
    jobs = [(i, g, time_limit, node_limit) for i, g in enumerate(graphs)]
    if workers == 1:
        return map(_corpus_row, jobs)
    return _pooled_rows(jobs, workers)


def _pooled_rows(jobs, workers: int) -> Iterator[CorpusRow]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_corpus_row, jobs)
