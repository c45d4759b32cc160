"""Exhaustive backtracking search for geodesic Leech and almost labelings.

The solver assigns labels edge by edge, in a fail-first order: largest
per-edge geodesic count first, ties by the geodesics the edge completes with
the edges before it (most first), then by edge id. It prunes with:

  distinct_label      labels must be pairwise distinct in Leech mode
  sum_bound           the running weighted sum sum_e k_e*a_e must still be
                      able to land on T = t(t+1)/2 (Leech) or inside the
                      window [T-t+1, T+t-1] (almost); fixed bounds per depth
                      pair the coefficients left, largest first, with labels
                      1, 2, ... and max_label, max_label-1, ... (Leech), or
                      with all 1 and all max_label (almost)
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
checked from scratch by _leaf_matches alone, its label sum against the
forced_label_sum window and its weights against the verdict definition, and
every witness is re-verified through the classifier before it is returned.

A node is one candidate label for the edge at some depth: a value inside the
window left after the weight_bound, complement_window and symmetry floors
that distinct_label does not reject. It counts whether or not its weights
then collide (weight_duplicate). node_limit stops the search at its N-th node
in search order, so such a search runs at one worker. Otherwise each first
label is one job at workers > 1, handed in ascending order to whichever
worker is idle; the jobs share one deadline, and unless find_all is set, a
job stops once a smaller first label has found a witness, so the witness is
the one a single worker finds first.

The kernel keeps the used weights (bits 1..t) and the used labels as int
bitsets and passes new ones down to each child, so nothing is undone on the
way back. At each node, every geodesic the edge completes adds one shift of
the weight set to a mask of the labels that collide once, and to one of the
labels that collide twice; one AND then rejects every colliding candidate,
and the loop visits only the survivors, in ascending order. The geodesics'
partial weights at a depth come from one straight-line function, compiled
from that depth's completed geodesics when the search first reaches it, in
the process that runs the search. With no node limit, deadline or early-stop
flag, a node counts its whole window before its first survivor, and a stop
takes back the part above the survivor it was in; otherwise counts are added
for each stretch of candidates up to the next survivor, just before the
search descends into it. Either way they are exact wherever the search stops.
The C10 preset (labels up to 31) takes 6,054,843 nodes at one worker.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from operator import mul
from typing import Iterator

from .errors import ConfigInvalidError, EmptyGraphError, UnknownPresetError
from .families import beineke_graphs, parse_family
from .formulas import _common_count, _forced_label_sum, _half_floor, _weight_total, as_even_cycle, max_label_bound
from .graph import Graph, census, enumerate_geodesics, stabilizer_orbits
from .graphio import _ascii_int, graph6_decode
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
    almost mode; a larger value is lowered to t_gp, since each edge is a
    geodesic. forced_label_sum defaults to T/k when every edge lies on the
    same number k of geodesics and k divides T (Leech mode only). It fixes
    the plain label sum, as an explicit value does on any graph in Leech
    mode; in almost mode one needs equal counts k and allows (t-1)//k slack.
    """

    mode: Mode = Mode.LEECH
    max_label: int | None = None
    forced_label_sum: int | None = None
    time_limit: float | None = None
    find_all: bool = False
    node_limit: int | None = None


@dataclass(frozen=True)
class SearchOutcome:
    """What a search found and what it cost.

    nodes_explored counts candidate labels inside each depth's window (after
    the weight_bound, complement_window and symmetry floors) that
    distinct_label lets through, whether or not their weights then collide;
    at workers > 1 it sums over the first-label jobs. A search with a
    node_limit runs at one worker, so its outcome, elapsed aside, is the same
    at every worker count. Unlimited searches return the same status and
    witnesses at every worker count, and exhausted ones the same
    nodes_explored and pruning_stats (the rules that cut anything, in
    ALL_RULES order). max_label is the bound the search used, at most t_gp.
    """

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
    def __init__(self, status: Status | None):
        self.status = status  # None: a job with a smaller first label found a witness


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
    # m distinct labels sum to at least m(m+1)/2; an almost labeling may
    # repeat labels, so in almost mode a sum too low only exhausts the search
    m, forced = g.edge_count, cfg.forced_label_sum
    if cfg.mode is Mode.LEECH and forced is not None and forced < m * (m + 1) // 2:
        raise ConfigInvalidError(
            f"forced_label_sum {forced} is below the minimum {m * (m + 1) // 2} for {m} labels"
        )


class _Prepared:
    """Static data shared by every node of one search, and its deadline."""

    __slots__ = (
        "mode", "paths", "t", "m", "order", "k_by_depth",
        "suffix_gcd", "suffix_sums", "max_label", "plain_lo", "plain_hi",
        "weighted_lo", "weighted_hi", "forced_sum", "completed_at", "rules",
        "find_all", "deadline", "node_limit", "leech", "symmetry",
    )

    def __init__(self, g: Graph, cfg: SearchConfig, derive_bounds: bool, disabled):
        self.mode = cfg.mode
        self.leech = cfg.mode is Mode.LEECH
        self.find_all = cfg.find_all
        self.node_limit = cfg.node_limit
        self.rules = frozenset(ALL_RULES) - frozenset(disabled)
        unknown = frozenset(disabled) - frozenset(ALL_RULES)
        if unknown:
            raise ConfigInvalidError(f"unknown pruning rules: {sorted(unknown)}")

        self.paths = enumerate_geodesics(g)
        c = census(g)  # off the same walk, which graph._walk keeps for classify
        self.t = t = c.total
        self.m = g.edge_count

        # fail-first order: most geodesics through the edge (k) first, ties
        # by the geodesics it completes with the edges already placed, then
        # by id. Each geodesic keeps its set of unplaced edges and counts for
        # the last one (a one-edge geodesic counts for none: it breaks no tie)
        unplaced = [set(p.edge_ids) for p in self.paths]
        through: list[list[set[int]]] = [[] for _ in range(self.m)]
        for edges in unplaced:
            for eid in edges:
                through[eid].append(edges)
        completes = [0] * self.m
        left = set(range(self.m))
        self.order = []
        while left:
            eid = min(left, key=lambda e: (-c.per_edge[e], -completes[e], e))
            left.remove(eid)
            self.order.append(eid)
            for edges in through[eid]:
                edges.remove(eid)
                if len(edges) == 1:
                    (last,) = edges
                    completes[last] += 1
        pos = {eid: d for d, eid in enumerate(self.order)}
        self.k_by_depth = [c.per_edge[eid] for eid in self.order]
        self.suffix_gcd = [0] * (self.m + 1)
        for d in range(self.m - 1, -1, -1):
            self.suffix_gcd[d] = math.gcd(self.k_by_depth[d], self.suffix_gcd[d + 1])

        total = _weight_total(t)
        slack = 0 if self.leech else t - 1  # how far an almost labeling's weights may sum from T
        self.weighted_lo, self.weighted_hi = total - slack, total + slack

        if cfg.max_label is not None:
            self.max_label = min(cfg.max_label, t)
        elif self.leech and derive_bounds:
            self.max_label = max_label_bound(g, c).max_label
        else:
            self.max_label = t

        # per depth d, the least and greatest sum_e k_e*a_e and sum_e a_e that
        # the edges order[d:] can still add: their coefficients, in descending
        # order, meet the labels 1, 2, 3, ... and max_label, max_label - 1, ...
        # where labels are distinct (Leech mode), all 1 and all max_label else;
        # a range shorter than the edges left has no Leech labeling to lose
        small = range(1, self.m + 1) if self.leech else [1] * self.m
        large = range(self.max_label, 0, -1) if self.leech else [self.max_label] * self.m
        self.suffix_sums = []
        for d in range(self.m):
            ks = sorted(self.k_by_depth[d:], reverse=True)
            self.suffix_sums.append((
                sum(map(mul, ks, small)), sum(map(mul, ks, large)),
                sum(small[:len(ks)]), sum(large[:len(ks)]),
            ))

        self.forced_sum = cfg.forced_label_sum
        if self.forced_sum is None and self.leech and derive_bounds:
            self.forced_sum = _forced_label_sum(c)
        if self.forced_sum is None:
            self.plain_lo = self.plain_hi = None
        elif self.leech:
            self.plain_lo = self.plain_hi = self.forced_sum
        else:
            k = _common_count(c)
            if k is None:
                raise ConfigInvalidError(
                    "forced_label_sum in almost mode needs every edge on the "
                    "same number of geodesics"
                )
            self.plain_lo = self.forced_sum - slack // k
            self.plain_hi = self.forced_sum + slack // k

        # a completed geodesic's weight floor; raised for cycle halves when
        # the complement argument applies
        half = as_even_cycle(g) if "complement_window" in self.rules else None
        floors = {}
        if half and self.leech and self.forced_sum is not None:
            floors = {half: _half_floor(self.forced_sum, t)}
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
        self.deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit


def _leaf_matches(prep: _Prepared, labels: list[int]) -> bool:
    """The one leaf check, whichever rules ran: the label sum window, then the
    verdict, which implies the weighted sum window (weights sum to sum_e k_e*a_e)."""
    if prep.plain_lo is not None and not prep.plain_lo <= sum(labels) <= prep.plain_hi:
        return False
    weights = [sum(labels[e] for e in p.edge_ids) for p in prep.paths]
    return verdict_of(weights, prep.t) is _TARGET[prep.mode]


def _compile_head(group):
    """One depth's geodesic arithmetic, compiled from its completed_at group:
    head(L, W, X) returns (any_hit, bases, basebits, vlo) for the labels L and
    weight set W. any_hit has bit v set if some base + v is in W; bases is the
    tuple of bases if X is true or a base repeats, so one mask is not enough,
    else None; basebits has a bit per base; vlo is the least label the weight
    floors allow. Each base is a base named before it plus one label: a
    geodesic less an end edge is one with the same last edge, completed here."""
    names = {frozenset(): "0"}
    body, bases, floors = [], [], []
    for others, floor in sorted(group, key=lambda x: len(x[0])):
        key = frozenset(others)
        if key not in names:
            cut = others[0] if key - {others[0]} in names else others[-1]
            prev = names[key - {cut}]
            names[key] = f"b{len(body)}"
            body.append(f"    {names[key]} = {'' if prev == '0' else prev + ' + '}L[{cut}]")
        b = names[key]
        bases.append(b)
        if floor > 1:
            floors.append(f"    if {floor} - {b} > lo: lo = {floor} - {b}")
    source = [
        "def head(L, W, X):", *body,
        "    bb = " + " | ".join("1" if b == "0" else f"1 << {b}" for b in bases),
        "    lo = 1", *floors,
        f"    if X or bb.bit_count() < {len(bases)}:",
        f"        return 0, ({', '.join(bases)},), bb, lo",
        "    return " + " | ".join("W" if b == "0" else f"W >> {b}" for b in bases) + ", None, bb, lo",
    ]
    namespace = {}
    exec(compile("\n".join(source), "<search head>", "exec"), namespace)
    return namespace["head"]


def _search_single(prep: _Prepared, first_values, found=None):
    """Depth-first search with the first edge's labels among first_values;
    returns (status, witnesses, nodes, stats). A job of a parallel search
    passes one first label and found, the shared least first label with a
    witness, and its status is None if a smaller label's witness stopped it."""
    m, t = prep.m, prep.t
    completed_at = prep.completed_at
    max_label = prep.max_label
    rules = prep.rules
    leech = prep.leech
    check_distinct = leech and "distinct_label" in rules
    check_wbound = "weight_bound" in rules
    check_wdup = "weight_duplicate" in rules
    dup_budget = 0 if leech else 1
    # bit w set for every weight 0..t; weights above t are never recorded
    tmask = (2 << t) - 1
    first_mask = sum(1 << v for v in set(first_values))

    # per depth: the edge, its count, the gcd of the counts left (the weighted
    # sum to go needs a multiple of it in [lo, hi]: (hi - wsum) % gcd <= hi - lo)
    # and the weighted and plain sums that can still reach their windows
    weighted_hi, span = prep.weighted_hi, prep.weighted_hi - prep.weighted_lo
    levels = []
    for d, (wmin, wmax, pmin, pmax) in enumerate(prep.suffix_sums):
        wlo, whi, plo, phi = -math.inf, math.inf, -math.inf, math.inf
        if "sum_bound" in rules:
            wlo, whi = prep.weighted_lo - wmax, weighted_hi - wmin
            if prep.plain_lo is not None:
                plo, phi = prep.plain_lo - pmax, prep.plain_hi - pmin
        gcd = prep.suffix_gcd[d] if "sum_divisibility" in rules else 1
        levels.append((prep.order[d], prep.k_by_depth[d], gcd, wlo, whi, plo, phi, prep.symmetry[d]))
    # a depth's head is compiled when the search first gets there
    heads = [None] * m

    labels = [0] * m
    witnesses: list[Labeling] = []
    nodes = distinct = rejected = 0
    cut_gcd = cut_sum = cut_wbound = cut_window = cut_symmetry = 0
    deadline, node_limit = prep.deadline, prep.node_limit
    first = first_values[0] if found is not None else None
    unchecked = node_limit is None and deadline is None and found is None

    def next_check() -> float:
        """The node count at which the next limit or time check falls due."""
        due = math.inf if node_limit is None else node_limit
        if deadline is not None or found is not None:
            due = min(due, (nodes | _TIME_CHECK_MASK) + 1)
        return due

    due = next_check()

    def count_singly(chunk: int, taken: int, bad: int) -> None:
        """Count the candidates of chunk one at a time, checking the limits."""
        nonlocal nodes, due, distinct, rejected
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            if low & taken:
                distinct += 1
                continue
            nodes += 1
            if nodes == node_limit:
                raise _Stop(Status.NODE_LIMIT)
            if nodes & _TIME_CHECK_MASK == 0:
                if deadline is not None and time.monotonic() > deadline:
                    raise _Stop(Status.TIMED_OUT)
                if found is not None and found.value < first:
                    raise _Stop(None)
            if low & bad:
                rejected += 1
        due = next_check()

    def exact_hits(bases, wmask: int) -> tuple[int, int]:
        """Masks of the labels whose weights collide at least once and twice:
        with a weight of an earlier geodesic (wmask), or, for a base that
        repeats at this node, with its first copy if that weight is at most t."""
        seen = any_hit = two_hit = 0
        for base in bases:
            bit = 1 << base
            hit = (tmask if seen & bit else wmask) >> base
            two_hit |= any_hit & hit
            any_hit |= hit
            seen |= bit
        return any_hit, two_hit

    def descend(depth: int, wsum: int, psum: int, dups: int, wmask: int, lmask: int):
        # wmask holds the weights of the completed geodesics and lmask the
        # labels used so far, a bit per value
        nonlocal nodes, distinct, rejected, cut_gcd, cut_sum, cut_wbound, cut_window, cut_symmetry
        if depth == m:
            if _leaf_matches(prep, labels):
                witnesses.append(Labeling(tuple(labels)))
                if not prep.find_all:
                    raise _Stop(Status.FOUND)
            return
        eid, k_d, gcd, wlo, whi, plo, phi, symmetry = levels[depth]
        if (weighted_hi - wsum) % gcd > span:
            cut_gcd += 1
            return
        if not (wlo <= wsum <= whi and plo <= psum <= phi):
            cut_sum += 1
            return
        head = heads[depth]
        if head is None:
            head = heads[depth] = _compile_head(completed_at[depth])
        # each geodesic this edge completes has a partial weight (its base)
        # that is fixed over the candidates, so label v gives it a taken
        # weight exactly when bit v of wmask >> base is set; the edge itself
        # (every edge is a geodesic) has base 0. One mask misses a repeated
        # base, and is not enough while one collision is within the budget
        any_hit, bases, basebits, vlo = head(labels, wmask, dups < dup_budget)
        two_hit = 0
        if bases:
            any_hit, two_hit = exact_hits(bases, wmask)
        # the largest base is the highest bit of basebits
        vhi = max_label
        if check_wbound and t + 1 - basebits.bit_length() < vhi:
            vhi = t + 1 - basebits.bit_length()
            cut_wbound += max_label - vhi
        if vlo > 1:
            cut_window += vlo - 1
        for e in symmetry:
            if labels[e] > vlo:
                cut_symmetry += labels[e] - vlo
                vlo = labels[e]
        if vlo > vhi:
            return
        window = (2 << vhi) - (1 << vlo)
        if depth == 0:
            window &= first_mask
        if not check_wdup:
            any_hit = two_hit = 0
        # a node is a candidate that distinct_label lets through; it is
        # rejected when its collisions exceed the duplicate budget left
        taken = window & lmask if check_distinct else 0
        bad = (any_hit if dups == dup_budget else two_hit) & window & ~taken
        survivors = window & ~(taken | bad)
        if unchecked:
            # no check can fall due: count the whole window now, and take back
            # the part above the current survivor if the search stops in it
            nodes += (window ^ taken).bit_count()
            distinct += taken.bit_count()
            rejected += bad.bit_count()
            low = 0
            try:
                while survivors:
                    low = survivors & -survivors
                    survivors ^= low
                    v = low.bit_length() - 1
                    labels[eid] = v
                    descend(
                        depth + 1, wsum + k_d * v, psum + v, dups + (any_hit >> v & 1),
                        wmask | (basebits << v) & tmask, lmask | low,
                    )
            except _Stop:
                above = window & -(low << 1)
                nodes -= (above & ~taken).bit_count()
                distinct -= (above & taken).bit_count()
                rejected -= (above & bad).bit_count()
                raise
            return
        # count each stretch of candidates up to the next survivor just before
        # descending into it, so counts are exact wherever the search stops
        nodes_mask = window & ~taken
        rest = window
        while rest:
            if survivors:
                low = survivors & -survivors
                survivors ^= low
                chunk = rest & ((low << 1) - 1)
            else:
                low, chunk = 0, rest
            rest ^= chunk
            n = (chunk & nodes_mask).bit_count()
            if nodes + n >= due:
                count_singly(chunk, taken, bad)
            else:
                nodes += n
                if taken:
                    distinct += (chunk & taken).bit_count()
                if bad:
                    rejected += (chunk & bad).bit_count()
            if not low:
                break
            v = low.bit_length() - 1
            labels[eid] = v
            descend(
                depth + 1, wsum + k_d * v, psum + v, dups + (any_hit >> v & 1),
                wmask | (basebits << v) & tmask, lmask | low,
            )

    status = Status.EXHAUSTED_NONE
    try:
        # a job that starts after the search has stopped ends at once
        if found is not None and found.value < first:
            raise _Stop(None)
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop(Status.TIMED_OUT)
        descend(0, 0, 0, 0, 0, 0)
        if witnesses:
            status = Status.FOUND
    except _Stop as stop:
        status = stop.status
    if found is not None and status is Status.FOUND and not prep.find_all:
        with found.get_lock():
            found.value = min(found.value, first)
    stats = dict(zip(ALL_RULES, (distinct, cut_sum, cut_gcd, cut_wbound, rejected, cut_window, cut_symmetry)))
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


_job = None  # in the pool's workers, the _Prepared and found of their search


def _start_worker(prep: _Prepared, found) -> None:
    global _job
    _job = prep, found


def _search_first(v: int):
    """One job of a parallel search: the subtree under first label v."""
    prep, found = _job
    return _search_single(prep, (v,), found)


def search(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    workers: int = 1,
    derive_bounds: bool = True,
    disabled_rules=(),
) -> SearchOutcome:
    """Run the labeling search and return its outcome.

    workers > 1 runs one job per first label, in ascending order, in a pool
    of processes that share one deadline; node counts sum over the jobs.
    Without limits the status and witnesses are those of a single-worker
    run. A node_limit runs the search at one worker whatever workers says,
    so it stops at the same node. workers < 1 raises ConfigInvalidError.
    find_all returns the witnesses sorted by labels, and FOUND only if no
    limit cut the list short. derive_bounds=False skips deriving max_label
    and forced_label_sum from the counting arguments (both stay available as
    explicit config fields). disabled_rules names pruning rules to switch
    off, which affects cost only.
    """
    cfg = cfg or SearchConfig()
    _validate(g, cfg, workers)
    start = time.monotonic()
    prep = _Prepared(g, cfg, derive_bounds, disabled_rules)
    # one worker takes every first label, in this process; more take one job
    # per label as each goes idle, unless the root's sum bounds, the same for
    # every label, cut it: a search with no first label tests them once. A
    # node limit counts nodes in single-worker search order, so it gets one
    values = range(1, prep.max_label + 1)
    workers = 1 if cfg.node_limit is not None else min(workers, len(values))
    results = [_search_single(prep, values if workers == 1 else ())]
    if workers > 1 and not results[0][3]["sum_bound"] + results[0][3]["sum_divisibility"]:
        from multiprocessing import Value

        found = Value("i", prep.max_label + 1)
        results = list(_pool_map(_search_first, values, workers, _start_worker, (prep, found)))
    if cfg.find_all:
        witnesses = sorted({w for _, ws, _, _ in results for w in ws}, key=lambda w: w.labels)
    else:
        # the least first label's witness, the one a single worker finds
        witnesses = next((ws for _, ws, _, _ in results if ws), [])
    nodes = sum(n for _, _, n, _ in results)
    stats = {rule: sum(r[3][rule] for r in results) for rule in ALL_RULES}
    statuses = {r[0] for r in results}
    # a limit outranks the witnesses of find_all, whose list it cut short; a
    # job stopped by a smaller label's witness (None) lands in the first case
    if witnesses and not cfg.find_all:
        status = Status.FOUND
    elif Status.TIMED_OUT in statuses:
        status = Status.TIMED_OUT
    elif Status.NODE_LIMIT in statuses:
        status = Status.NODE_LIMIT
    else:
        status = Status.FOUND if witnesses else Status.EXHAUSTED_NONE
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


_PRESETS: dict[str, tuple[str, Mode]] = {
    "C10": ("cycle:10", Mode.LEECH),
    "C5": ("cycle:5", Mode.LEECH),
    "W5": ("wheel:5", Mode.LEECH),
    "W6": ("wheel:6", Mode.LEECH),
    "W7": ("wheel:7", Mode.ALMOST),
    "prism": ("prism", Mode.LEECH),
    "K4": ("complete:4", Mode.LEECH),
}


def search_family_presets(name: str, *, workers: int = 1) -> SearchOutcome:
    """Run the search on a named preset with bounds derived from the formulas.

    Recognized: C10, C5, W5, W6, W7, prism, K4, and beineke_1 .. beineke_9
    (the index in ASCII digits). W7 runs in almost mode, everything else in
    Leech mode.
    """
    if name.startswith("beineke_"):
        idx = _ascii_int(name[len("beineke_"):])
        graphs = beineke_graphs()
        if idx is None or not 1 <= idx <= len(graphs):
            raise UnknownPresetError(name)
        return search(graphs[idx - 1][1], SearchConfig(mode=Mode.LEECH), workers=workers)
    if name not in _PRESETS:
        raise UnknownPresetError(name)
    spec, mode = _PRESETS[name]
    return search(parse_family(spec)[0], SearchConfig(mode=mode), workers=workers)


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
    return _pool_map(_corpus_row, jobs, workers)


def _pool_map(fn, jobs, workers: int, initializer=None, initargs=()) -> Iterator:
    """fn over jobs, results in input order: in this process when one worker
    or one job is left, else in a pool of min(workers, len(jobs)) processes,
    each started with initializer(*initargs) and handed one job at a time.
    A pool starts all its processes at the first job, so it gets no more
    than there are jobs."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, initializer=initializer, initargs=initargs) as pool:
        yield from pool.map(fn, jobs)
