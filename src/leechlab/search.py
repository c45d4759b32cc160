"""Exhaustive backtracking search for geodesic Leech and almost labelings.

The solver assigns labels edge by edge, in a fail-first order: largest
per-edge geodesic count first, ties by the geodesics the edge completes with
the edges before it (most first), then by its symmetry floors (most first),
then by edge id. The floors count whatever the rules, so one order serves
every search. It prunes with:

  distinct_label      a label may not equal a taken weight (Leech mode):
                      it is the weight of its edge, a one-edge geodesic
  sum_bound           an explicit forced_label_sum bounds the running label
                      sum sum_e a_e: the r edges left add at least 1 + ... + r
                      and at most max_label + ... + (max_label - r + 1)
                      (Leech), or r and r*max_label (almost), and must land
                      on the sum (Leech) or within (t-1)//k of it (almost)
  sum_divisibility    Leech mode: the weighted sum sum_e k_e*a_e is T =
                      t(t+1)/2, so T less its running value must be a
                      multiple of the gcd G of the coefficients k left. It
                      is always one of P = gcd(T, the k placed), so the test
                      is emitted only at depths where G does not divide P,
                      and the weighted sum only in searches with such a depth
  weight_bound        a completed geodesic may not weigh more than t
  weight_duplicate    duplicate weights are forbidden (Leech) or limited to
                      a single doubled value (almost)
  complement_window   on even cycles with a forced label sum S, the two
                      halves between antipodal vertices weigh S together,
                      so a completed half may not weigh less than S - t
  symmetry            a later edge b may not carry a smaller label than an
                      edge a when an automorphism fixing every edge before a
                      maps a onto b (lex-leader constraints; off under
                      find_all, so that the witness list stays complete).
                      When the automorphisms map the first edge onto every
                      edge, its label is the least label, so the root takes
                      label 1 alone (Leech) or labels up to 2 (almost). Some
                      geodesic of a Leech labeling weighs 1, and only a
                      single edge labeled 1 can. An almost labeling misses
                      at most one of 1..t, so some geodesic weighs 1 or 2:
                      an edge labeled 1 or 2, or two edges labeled 1

Every rule only skips assignments that provably cannot reach a valid leaf,
or, for symmetry, leaves that an automorphism maps onto one still searched,
so an exhausted search is a certificate of non-existence within its bounds,
and disabling rules changes cost but never the outcome. Every leaf is
checked from scratch by _leaf_matches alone, its label sum against an
explicit forced_label_sum's window and its weights against the verdict, and
every witness is re-verified through the classifier before it is returned.

A node is one candidate label for the edge at some depth: a value inside the
window left after the weight_bound, complement_window and symmetry floors
(and, at the root, the symmetry cap) that distinct_label does not reject. It
counts whether or not the weights of its longer geodesics then collide
(weight_duplicate). The root step runs once, in this process. At workers >
1, with no node limit (which stops at the N-th node in counting order,
below) and more than one first label, each root survivor is one pool job,
the subtree under it from depth 1, handed out in ascending order. The jobs
share one deadline; unless find_all is set, a job stops once a smaller first
label has a witness, and results are read in label order up to the first
witness, so the outcome, counts included, is one worker's.

The kernel keeps the used weights (bits 1..t), every label among them, as an
int bitset and passes a new one down to each child, so nothing is undone on
the way back. At each node, every geodesic the edge completes adds one shift
of the weight set to a mask of the labels that collide once, and to one of
the labels that collide twice; one AND then rejects every colliding
candidate, and the loop visits only the survivors, in ascending order. A
depth's whole node step, up to its survivor loop calling the next depth's, is
one generated straight-line function with mode and rules resolved, built when
the search first reaches the depth. Its code takes the depth's values as
closure cells, so a bounded per-process memo keeps one code object per shape
for all depths, searches and jobs. A step counts its whole window, all
candidates in ascending order, before it descends into any of them: this is
counting order, so a stopped search also counts the rest of each window on
its path. The node limit, the deadline and the early stop are read in one
poll, after a step counts, about every 4,096 nodes and at the limit; a stop
takes back only the candidates past the limit-th node. The C10 preset
(labels up to 31) takes 1,469,370 nodes at one worker.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import numbers
import time
import types
from dataclasses import dataclass, replace
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
    geodesic. forced_label_sum defaults to T/k when every edge lies on k
    geodesics and k | T (Leech mode only), which the verdict's weighted sum T
    enforces. An explicit value bounds the plain label sum: exactly in Leech
    mode; in almost mode it needs equal counts k and allows (t-1)//k slack.
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
    the weight_bound, complement_window and symmetry floors, and the root's
    symmetry cap) that distinct_label lets through, whether or not their
    longer geodesics' weights then collide. Each window is counted whole
    before the search descends into it, and a node_limit search stops at its
    N-th node in that order. The outcome, elapsed aside, is the same at every
    worker count unless a time limit cuts the search. pruning_stats holds the
    rules that cut anything, in ALL_RULES order. max_label is the bound used,
    at most t_gp; forced_label_sum the label sum, explicit or derived
    (held by the verdict's weighted sum).
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


def _check_values(**values) -> None:
    """Raise ConfigInvalidError unless each value is None or a positive int
    (time_limit: a positive real number; forced_label_sum: any int). A bool
    is an int, yet no count; 2.5 would run as 2; and "<= 0" is false for NaN,
    which would run with no limit at all."""
    for name, value in values.items():
        kind = numbers.Real if name == "time_limit" else int
        least = -math.inf if name == "forced_label_sum" else 0
        if value is not None and (isinstance(value, bool) or not isinstance(value, kind) or not value > least):
            what = ("a positive " if least == 0 else "an ") + ("real number" if kind is numbers.Real else "int")
            raise ConfigInvalidError(f"{name} must be {what}, got {value!r}")


def _validate(g: Graph, cfg: SearchConfig, workers: int) -> None:
    if g.edge_count == 0:
        raise EmptyGraphError("search needs a graph with at least one edge")
    if not isinstance(cfg.mode, Mode):
        raise ConfigInvalidError(f"unknown mode {cfg.mode!r}")
    _check_values(max_label=cfg.max_label, forced_label_sum=cfg.forced_label_sum, time_limit=cfg.time_limit,
                  node_limit=cfg.node_limit, workers=workers)
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
        "mode", "paths", "t", "m", "order", "k_by_depth", "divisors",
        "max_label", "plain_lo", "plain_hi", "forced_sum", "completed_at", "rules",
        "find_all", "deadline", "node_limit", "leech", "symmetry", "first_labels",
    )

    def __init__(self, g: Graph, cfg: SearchConfig, derive_bounds: bool, disabled):
        self.deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit  # set-up counts too
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
        # by its lex-leader floors, then by id. Each geodesic keeps its set
        # of unplaced edges and counts for the last one (a one-edge geodesic
        # counts for none: it breaks no tie). A placed edge a floors each b
        # in its orbit under the automorphisms fixing the edges before a:
        # label(a) <= label(b). Such a b is still unplaced, and a floor
        # prunes at the depth of its b, so edges with floors go early
        unplaced = [set(p.edge_ids) for p in self.paths]
        through: list[list[set[int]]] = [[] for _ in range(self.m)]
        for edges in unplaced:
            for eid in edges:
                through[eid].append(edges)
        completes = [0] * self.m
        leaders: list[list[int]] = [[] for _ in range(self.m)]  # each edge's floors
        left = set(range(self.m))
        self.order = []
        orbits = stabilizer_orbits(g, self.order)  # reads the order as it grows
        while left:
            eid = min(left, key=lambda e: (-c.per_edge[e], -completes[e], -len(leaders[e]), e))
            left.remove(eid)
            self.order.append(eid)
            for b in next(orbits):
                if b != eid:
                    leaders[b].append(eid)
            for edges in through[eid]:
                edges.remove(eid)
                if len(edges) == 1:
                    (last,) = edges
                    completes[last] += 1
        pos = {eid: d for d, eid in enumerate(self.order)}
        self.k_by_depth = k = [c.per_edge[eid] for eid in self.order]
        # each depth's divisor G where its test can cut (sum_divisibility), else 0
        rest = list(itertools.accumulate(reversed(k), math.gcd))[::-1]
        done = itertools.accumulate(k, math.gcd, initial=_weight_total(t))
        test = self.leech and "sum_divisibility" in self.rules
        self.divisors = [g if test and p % g else 0 for p, g in zip(done, rest)]

        if cfg.max_label is not None:
            self.max_label = min(cfg.max_label, t)
        elif self.leech and derive_bounds:
            self.max_label = max_label_bound(g, c).max_label
        else:
            self.max_label = t

        # an explicit label sum gets a window; a derived T/k is held by the
        # verdict, whose weights sum to T
        self.forced_sum = cfg.forced_label_sum
        self.plain_lo = self.plain_hi = None
        if self.forced_sum is not None:
            k = 1 if self.leech else _common_count(c)
            if k is None:
                raise ConfigInvalidError(
                    "forced_label_sum in almost mode needs every edge on the same number of geodesics"
                )
            # an almost labeling's weights sum to within t - 1 of T
            slack = 0 if self.leech else (t - 1) // k
            self.plain_lo, self.plain_hi = self.forced_sum - slack, self.forced_sum + slack
        elif self.leech and derive_bounds:
            self.forced_sum = _forced_label_sum(c)

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

        # the floors shape the order whatever the rules, so the first witness
        # does not depend on them, but apply only under the symmetry rule
        self.first_labels = range(1, self.max_label + 1)
        self.symmetry = [()] * self.m
        if "symmetry" in self.rules and not self.find_all:
            self.symmetry = [tuple(leaders[eid]) for eid in self.order]
            # an orbit of every edge makes label(order[0]) the least label,
            # which is 1 in a Leech labeling and at most 2 in an almost one
            if all(self.order[0] in f for f in self.symmetry[1:]):
                self.first_labels = range(1, min(1 if self.leech else 2, self.max_label) + 1)


def _leaf_matches(prep: _Prepared, labels: list[int]) -> bool:
    """The one leaf check, whichever rules ran: an explicit label sum's window,
    then the verdict, which implies the weighted sum T and so a derived T/k."""
    if prep.plain_lo is not None and not prep.plain_lo <= sum(labels) <= prep.plain_hi:
        return False
    weights = [sum(labels[e] for e in p.edge_ids) for p in prep.paths]
    return verdict_of(weights, prep.t) is _TARGET[prep.mode]


def _exact_hits(bases, wmask: int, tmask: int) -> tuple[int, int]:
    """Masks of the labels whose weights collide at least once and twice: with
    a weight of an earlier geodesic (wmask), or, for a base that repeats at
    this node, with its first copy if that weight is at most t (tmask)."""
    seen = any_hit = two_hit = 0
    for base in bases:
        bit = 1 << base
        hit = (tmask if seen & bit else wmask) >> base
        two_hit |= any_hit & hit
        any_hit |= hit
        seen |= bit
    return any_hit, two_hit


# the counts a node step adds to, in cells that every depth of a search shares
_COUNTS = ("nodes", *ALL_RULES)
# a node step's arguments, in this order, and what it passes its child for each
_CHILD = {"wsum": "wsum + K * v", "psum": "psum + v", "dups": "dups + (any_hit >> v & 1)",
          "wmask": "wmask | (bb << v) & TMASK"}


@functools.lru_cache(maxsize=512)
def _step_code(shape):
    """The code of one depth's whole node step, compiled once per shape and
    process. The source names every value of its search and depth (edge ids,
    bounds, floors, k, masks, the next depth) as a free variable, so the code
    serves every depth, search and job of its shape; _node_step binds them."""
    params, distinct, budget, wbound, divisor, lines, bases, floors, n_sym = shape
    name = {-1: "0", **{i: f"b{i}" for i in range(len(lines))}}  # base -1 is the edge's own
    free = "free" if distinct else "window"
    body = []
    if divisor:  # the weighted sum to go, T - wsum, is a multiple of G
        body += ["if (T - wsum) % G:", "    sum_divisibility += 1", "    return"]
    if "psum" in params:
        body += ["if psum < PLO or psum > PHI:", "    sum_bound += 1", "    return"]
    # each base is a base named before it plus one label
    body += [f"b{i} = {'' if prev < 0 else name[prev] + ' + '}labels[E{i}]" for i, prev in enumerate(lines)]
    body.append("bb = " + " | ".join(f"1 << {name[b]}" for b in bases))
    # the largest base is the highest bit of bb
    capped = ["hi = T1 - bb.bit_length()", "if hi < VMAX:", "    weight_bound += VMAX - hi", "else:", "    hi = VMAX"]
    body += capped if wbound else ["hi = VMAX"]
    body.append(f"lo = F0 - {name[floors[0]]}" if floors else "lo = 1")
    for j, b in enumerate(floors[1:], 1):
        body += [f"if F{j} - {name[b]} > lo:", f"    lo = F{j} - {name[b]}"]
    if floors:
        body += ["if lo > 1:", "    complement_window += lo - 1", "else:", "    lo = 1"]
    for j in range(n_sym):
        body += [f"s = labels[S{j}]", "if s > lo:", "    symmetry += s - lo", "    lo = s"]
    body += ["if lo > hi:", "    return", "window = (2 << hi) - (1 << lo)"]
    if distinct:
        body += ["taken = window & wmask", "free = window ^ taken", "distinct_label += taken.bit_count()"]
    survivors, bad = free, 0
    # free has lost every taken weight, so base -1 (the bare wmask) hits none of it
    hits = [b for b in bases if b >= 0 or not distinct]
    if budget is not None and hits:
        # label v gives a base a taken weight exactly when bit v of wmask >>
        # base is set; one mask misses a repeated base, and is not enough
        # while one collision is within the budget. Labels are positive, so a
        # base is above every base it is built on: bases that are all built
        # on one another never repeat
        up = {-1: {-1}}
        for i, prev in enumerate(lines):
            up[i] = up[prev] | {i}
        apart = all(a != b and (a in up[b] or b in up[a]) for a, b in itertools.combinations(hits, 2))
        exact = (["not dups"] if budget else []) + ([] if apart else [f"bb.bit_count() < {len(bases)}"])
        fast = "any_hit = " + " | ".join("wmask" if b < 0 else f"wmask >> b{b}" for b in hits)
        if exact:
            listed = ", ".join(name[b] for b in hits)
            body += [f"if {' or '.join(exact)}:", f"    any_hit, two_hit = _exact_hits(({listed},), wmask, TMASK)",
                     "else:", "    " + fast]
        else:
            body.append(fast)
        body += [f"bad = {'(any_hit if dups else two_hit)' if budget else 'any_hit'} & {free}",
                 "weight_duplicate += bad.bit_count()"]
        survivors, bad = f"{free} ^ bad", "bad"
    # weight_bound keeps every new weight at most t
    child = {**_CHILD, "wmask": "wmask | bb << v"} if wbound else _CHILD
    descend = f"v = low.bit_length() - 1; labels[EID] = v; nxt({', '.join(child[p] for p in params)})"
    # count the whole window, poll if one is due, then descend into the survivors
    body += [f"nodes += {free}.bit_count()", "if nodes >= due:", f"    poll({free}, {bad})",
             f"survivors = {survivors}", "while survivors:", "    low = survivors & -survivors", "    survivors ^= low",
             f"    {descend}"]
    names = [*_COUNTS, "labels", "due", "poll", "nxt", "EID", "K", "G", "T", "PLO", "PHI", "VMAX", "T1",
             "TMASK", *(f"E{i}" for i in range(len(lines))),
             *(f"F{j}" for j in range(len(floors))), *(f"S{j}" for j in range(n_sym))]
    source = "\n".join([
        f"def factory({', '.join(names)}):", f"    def step({', '.join(params)}):",
        f"        nonlocal {', '.join(_COUNTS)}", *("        " + line for line in body), "    return step",
    ])
    (factory,) = (c for c in compile(source, "<node step>", "exec").co_consts if isinstance(c, types.CodeType))
    (step,) = (c for c in factory.co_consts if isinstance(c, types.CodeType))
    return step


def _node_step(prep: _Prepared, d: int, shared: dict):
    """Depth d's node step, step(*params) with params a subsequence of
    _CHILD's keys, whose counts, labels, next depth (nxt), due and poll are
    the cells in shared; the root's labels stop at the symmetry cap. It
    counts its whole window, calls poll(free, bad) once the node count
    reaches due, then descends. It tests divisibility only where the test can
    cut, and takes wsum only if some depth does (sum_divisibility, above)."""
    rules, t = prep.rules, prep.t
    wdup = "weight_duplicate" in rules
    distinct = prep.leech and "distinct_label" in rules
    plain = "sum_bound" in rules and prep.plain_lo is not None
    params = tuple(p for p, on in zip(_CHILD, (any(prep.divisors), plain, wdup and not prep.leech, wdup or distinct)) if on)
    # name each geodesic's partial weight (its base) once: a geodesic less an
    # end edge is one with the same last edge, completed here and shorter
    names = {frozenset(): -1}
    cuts, lines, bases, floors, raised = [], [], [], [], []
    for others, floor in sorted(prep.completed_at[d], key=lambda x: len(x[0])):
        key = frozenset(others)
        if key not in names:
            cut = others[0] if key - {others[0]} in names else others[-1]
            lines.append(names[key - {cut}])
            cuts.append(cut)
            names[key] = len(lines) - 1
        bases.append(names[key])
        if floor > 1:
            floors.append(names[key])
            raised.append(floor)
    values = {
        "EID": prep.order[d], "K": prep.k_by_depth[d], "G": prep.divisors[d], "T": _weight_total(t),
        "VMAX": prep.max_label if d else len(prep.first_labels),
        "T1": t + 1, "TMASK": (2 << t) - 1,  # bit w for every weight 0..t
        **{f"E{i}": e for i, e in enumerate(cuts)}, **{f"F{j}": f for j, f in enumerate(raised)},
        **{f"S{j}": e for j, e in enumerate(prep.symmetry[d])},
    }
    if plain:
        # the r labels left add at least 1 + ... + r and at most top + ... +
        # (top - r + 1) when distinct (Leech mode), r and r * top else
        r, top = prep.m - d, prep.max_label
        least, most = (r * (r + 1) // 2, r * top - r * (r - 1) // 2) if prep.leech else (r, r * top)
        values.update(PLO=prep.plain_lo - most, PHI=prep.plain_hi - least)
    code = _step_code((
        params, distinct, (0 if prep.leech else 1) if wdup else None, "weight_bound" in rules,
        prep.divisors[d] > 0, tuple(lines), tuple(bases), tuple(floors), len(prep.symmetry[d]),
    ))
    closure = tuple(shared[n] if n in shared else types.CellType(values[n]) for n in code.co_freevars)
    return types.FunctionType(code, globals(), f"depth_{d}", None, closure)


def _search_single(prep: _Prepared, job=None, found=None, collect=None):
    """Depth-first search; returns (status, witnesses, nodes, stats). With no
    job it runs from the root, which descends into each survivor or, given a
    list collect, appends each survivor's job (label, depth 1's arguments)
    to it. A job of a parallel search runs the subtree under its first label
    from depth 1, with found, the shared least first label with a witness;
    its status is None if a smaller label's witness stopped it."""
    m = prep.m
    labels = [0] * m
    witnesses: list[Labeling] = []
    nodes = distinct_label = sum_bound = sum_divisibility = weight_bound = weight_duplicate = 0
    complement_window = symmetry = 0
    deadline, node_limit = prep.deadline, prep.node_limit or math.inf
    due = 0  # the first step polls, so a job that starts after a stop ends at once

    def poll(free: int, bad: int) -> None:
        """Stop at the node limit, taking back the candidates of free (the
        window just counted) past the limit-th and their rejections (bad),
        at the deadline, or once a smaller first label has a witness; else
        poll again 4,096 nodes on, or at the limit."""
        nonlocal nodes, weight_duplicate, due
        if nodes >= node_limit:
            while nodes > node_limit:
                top = 1 << free.bit_length() - 1
                free ^= top
                nodes -= 1
                weight_duplicate -= bool(top & bad)
            raise _Stop(Status.NODE_LIMIT)
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop(Status.TIMED_OUT)
        if found is not None and found.value < first:
            raise _Stop(None)
        due = min(nodes + 4096, node_limit)

    def leaf(*_) -> None:
        if _leaf_matches(prep, labels):
            witnesses.append(Labeling(tuple(labels)))
            if not prep.find_all:
                raise _Stop(Status.FOUND)

    def stats() -> dict[str, int]:
        counts = distinct_label, sum_bound, sum_divisibility, weight_bound, weight_duplicate, complement_window, symmetry
        return dict(zip(ALL_RULES, counts))

    # the node steps are built on these functions' own cells, so what they
    # count lands in the variables above; links[d] holds what depth d calls:
    # the leaf, or depth d + 1, which is built the first time it is reached
    shared = {n: c for f in (poll, leaf, stats) for n, c in zip(f.__code__.co_freevars, f.__closure__)}
    shared["poll"] = types.CellType(poll)
    links = [types.CellType(leaf) for _ in range(m)]

    def reach(d: int):
        def first_visit(*args):
            step = links[d - 1].cell_contents = _node_step(prep, d, {**shared, "nxt": links[d]})
            return step(*args)
        return first_visit

    for d in range(1, m):
        links[d - 1].cell_contents = reach(d)

    if job is None:
        nxt = links[0] if collect is None else types.CellType(
            lambda *args: collect.append((labels[prep.order[0]], args)))
        step = _node_step(prep, 0, {**shared, "nxt": nxt})
        first, args = None, [0] * step.__code__.co_argcount
    else:
        first, args = job
        labels[prep.order[0]] = first
        step = links[0].cell_contents  # depth 1, built on first reach
    status = Status.EXHAUSTED_NONE
    try:
        step(*args)
        if witnesses:
            status = Status.FOUND
    except _Stop as stop:
        status = stop.status
    if found is not None and status is Status.FOUND and not prep.find_all:
        with found.get_lock():
            found.value = min(found.value, first)
    return status, witnesses, nodes, stats()


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


def _search_first(job):
    """One job (label, args) of a parallel search: the subtree under a first label."""
    prep, found = _job
    return _search_single(prep, job, found)


def search(
    g: Graph,
    cfg: SearchConfig | None = None,
    *,
    workers: int = 1,
    derive_bounds: bool = True,
    disabled_rules=(),
) -> SearchOutcome:
    """Run the labeling search and return its outcome.

    The root step runs in this process. At workers > 1 each of its survivors
    is one job, the subtree under that first label, run in ascending order in
    a pool of processes that share one deadline, and the results are read in
    label order up to the first witness: the outcome, counts included, is
    that of a single-worker run unless a time limit cuts the search. A
    node_limit or a single first label keeps the whole search in this
    process. workers < 1 raises ConfigInvalidError. find_all returns the
    witnesses sorted by labels, and FOUND only if no limit cut the list
    short. derive_bounds=False skips deriving max_label and forced_label_sum
    from the counting arguments (both stay available as explicit config
    fields). disabled_rules names pruning rules to switch off, which affects
    cost only.
    """
    cfg = cfg or SearchConfig()
    _validate(g, cfg, workers)
    start = time.monotonic()
    prep = _Prepared(g, cfg, derive_bounds, disabled_rules)
    # a node limit counts nodes in single-worker counting order, so it keeps
    # the search here; a root cut leaves no jobs and so starts no pool
    jobs = [] if workers > 1 and cfg.node_limit is None and len(prep.first_labels) > 1 else None
    results = [_search_single(prep, collect=jobs)]
    if jobs:
        from multiprocessing import Value

        found = Value("i", prep.max_label + 1)
        # a job past the first witness counts what one worker never reaches
        for result in _pool_map(_search_first, jobs, workers, _start_worker, (prep, found)):
            results.append(result)
            if result[1] and not cfg.find_all:
                break
    witnesses = [w for _, ws, _, _ in results for w in ws]
    if cfg.find_all:
        witnesses.sort(key=lambda w: w.labels)
    nodes = sum(n for _, _, n, _ in results)
    stats = {rule: sum(r[3][rule] for r in results) for rule in ALL_RULES}
    if nodes:
        # the root's window was reached: the symmetry cap took the labels
        # above first_labels out of it
        stats["symmetry"] += prep.max_label - len(prep.first_labels)
    # a limit outranks the witnesses of find_all, whose list it cut short
    statuses = {r[0] for r in results}
    ranked = [Status.TIMED_OUT, Status.NODE_LIMIT, Status.FOUND, Status.EXHAUSTED_NONE]
    status = next(s for s in ([] if cfg.find_all else [Status.FOUND]) + ranked if s in statuses)
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
    _check_values(time_limit=time_limit, node_limit=node_limit, workers=workers)
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
