"""Immutable simple graphs, BFS distances, and exhaustive geodesic enumeration.

A geodesic is a path whose length equals the distance between its endpoints;
single edges are geodesics of length 1, single vertices are not geodesics.
Enumeration is the ground truth every closed-form count in this package is
checked against, so it is deliberately simple, and _walk alone does it: per
source, a BFS, then one depth-first walk down the BFS layers that makes each
geodesic a node of a path trie. Paths, census and weights are read off it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DuplicateEdgeError,
    SelfLoopError,
    VertexOutOfRangeError,
)

INFINITY = math.inf


class Graph:
    """Finite simple undirected graph with dense edge ids.

    Edge ids are 0..m-1 in the order the edges were supplied; that order is
    the positional convention used by labelings and labeling files.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("_n", "_edges", "_adj", "_edge_ids")

    def __init__(self, vertex_count: int, edge_list):
        if vertex_count < 0:
            raise VertexOutOfRangeError(f"vertex_count must be >= 0, got {vertex_count}")
        edges: list[tuple[int, int]] = []
        seen: dict[tuple[int, int], int] = {}
        for pair in edge_list:
            u, v = pair
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {vertex_count})"
                )
            if u == v:
                raise SelfLoopError(f"edge ({u}, {v}) is a self-loop")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"edge ({u}, {v}) duplicates edge id {seen[key]}")
            seen[key] = len(edges)
            edges.append(key)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        object.__setattr__(self, "_n", vertex_count)
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_edge_ids", seen)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (min, max) vertex pairs, indexed by edge id."""
        return self._edges

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[key]
        except KeyError:
            raise VertexOutOfRangeError(f"no edge ({u}, {v}) in graph") from None

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adj)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise VertexOutOfRangeError(f"vertex {v} outside [0, {self._n})")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self):
        return f"Graph(n={self._n}, m={len(self._edges)})"

    def __reduce__(self):
        # keeps instances picklable despite the immutability guard
        return (Graph, (self._n, list(self._edges)))


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path, stored as the edge-id sequence from the smaller endpoint.

    endpoints is (u, v) with u < v and edge_ids walks from u to v.
    """

    endpoints: tuple[int, int]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class GeodesicCensus:
    """Aggregate geodesic statistics for one graph.

    total is the geodesic path number; per_edge[e] counts the geodesics that
    contain edge id e; diameter is the largest finite pairwise distance
    (0 when no two vertices are connected).
    """

    total: int
    by_length: dict[int, int]
    per_edge: tuple[int, ...]
    diameter: int


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Construct a Graph, assigning edge ids in list order.

    Raises SelfLoopError, DuplicateEdgeError, or VertexOutOfRangeError naming
    the offending pair.
    """
    return Graph(vertex_count, edge_list)


def distances(g: Graph, source: int) -> list:
    """Unweighted shortest-path distances from source; INFINITY if unreachable."""
    g._check_vertex(source)
    dist = [INFINITY] * g.vertex_count
    _bfs(g._adj, source, dist)
    return dist


def _bfs(adj, source: int, dist: list) -> list[int]:
    """Write the distances from source into dist, which must hold INFINITY at
    every vertex it reaches, and return those vertices in the order BFS
    reached them, which is by distance. No other entry changes, so resetting
    just these readies dist for the next source."""
    dist[source] = 0
    order = [source]
    for x in order:  # the list grows as it is read: it is the BFS queue
        dw = dist[x] + 1
        for w, _ in adj[x]:
            if dist[w] == INFINITY:
                dist[w] = dw
                order.append(w)
    return order


def _walk(g: Graph):
    """Yield (u, trie) for each source u: the geodesics from u, as a trie.

    trie[0] = (u, -1, -1, 0) is the empty path; each later node (x, parent,
    eid, length) is node parent extended by edge eid to x. Each step goes one
    BFS layer of u further, so every path walked is a geodesic; taking edges
    by ascending id walks them in lexicographic order. The nodes with x > u
    are g's geodesics, each once. A source costs time in its component only.
    """
    # (neighbor, edge id) pairs by descending edge id: popped ascending
    down = [sorted(a, key=lambda p: p[1], reverse=True) for a in g._adj]
    dist = [INFINITY] * g.vertex_count
    for u in range(g.vertex_count):
        reached = _bfs(g._adj, u, dist)
        trie, stack = [], [(u, -1, -1, 0)]
        while stack:
            x, _, _, length = node = stack.pop()
            i, dw = len(trie), length + 1
            trie.append(node)
            for w, eid in down[x]:
                if dist[w] == dw:
                    stack.append((w, i, eid, dw))
        yield u, trie
        for x in reached:
            dist[x] = INFINITY


def enumerate_geodesics(g: Graph) -> list[GeodesicPath]:
    """Every geodesic of every unordered reachable vertex pair, exactly once.

    Paths start at the smaller endpoint; output is sorted by
    (min endpoint, max endpoint, edge-id sequence) and is deterministic.
    """
    return _paths_of(_walk(g))


def _paths_of(tries) -> list[GeodesicPath]:
    """The walk's geodesics as paths, sorted by a stable sort on endpoints."""
    out: list[GeodesicPath] = []
    for u, trie in tries:
        paths = [()]
        for _, p, eid, _ in trie[1:]:
            paths.append(paths[p] + (eid,))
        found = [GeodesicPath((u, x), path) for (x, *_), path in zip(trie, paths) if x > u]
        out += sorted(found, key=lambda p: p.endpoints[1])
    return out


def count_geodesics(g: Graph) -> int:
    """Geodesic path number from per-source shortest-path counts.

    A vertex at distance d from u is reached by as many geodesics as its
    neighbors at distance d - 1 together. No path is built, so this stays
    an independent cross-check of len(enumerate_geodesics(g)).
    """
    total = 0
    dist = [INFINITY] * g.vertex_count
    # only entries of reached vertices are read, each after this source wrote it
    ways = [0] * g.vertex_count
    for u in range(g.vertex_count):
        order = _bfs(g._adj, u, dist)
        ways[u] = 1
        for v in order[1:]:
            up = dist[v] - 1
            ways[v] = sum(ways[w] for w, _ in g._adj[v] if dist[w] == up)
        total += sum(ways[v] for v in order if v > u)
        for v in order:
            dist[v] = INFINITY
    return total


def stabilizer_orbits(g: Graph, order) -> list[tuple[int, ...]]:
    """Entry d: the orbit of edge order[d] under the automorphisms of g that
    map every edge of order[:d] onto itself (either way round), ascending.

    Automorphisms are adjacency-preserving vertex maps, found one at a time
    by backtracking; the group itself is never listed. Each map found stays
    in use for the later orbits it still fixes the edges of, and candidates
    are first filtered by colour refinement, which also ends the work early:
    once the fixed edges leave every vertex a colour of its own, only the
    identity is left and every further orbit is a single edge.
    """
    nbrs = [frozenset(w for w, _ in a) for a in g._adj]
    edges = g.edges
    marks: list[tuple[int, ...]] = [()] * g.vertex_count
    found: list[tuple[int, ...]] = []  # edge permutations of the maps found
    orbits: list[tuple[int, ...]] = []
    for d, e in enumerate(order):
        if d:
            prev = order[d - 1]
            found = [p for p in found if p[prev] == prev]
            for x in edges[prev]:
                marks[x] += (d - 1,)
        colors = _refine(nbrs, marks)
        if len(set(colors)) == len(colors):
            orbits.extend((x,) for x in order[d:])
            break
        orbit = _close({e}, found)
        pair = sorted(colors[x] for x in edges[e])
        for c, ends in enumerate(edges):
            if c in orbit or sorted(colors[x] for x in ends) != pair:
                continue
            vmap = _automorphism(nbrs, colors, edges[e], ends)
            if vmap is not None:
                found.append(tuple(g.edge_id(vmap[a], vmap[b]) for a, b in edges))
                orbit = _close(orbit, found)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _refine(nbrs, colors) -> list[int]:
    """Colour refinement to a stable partition; the colours are canonical,
    so every automorphism that preserves the input colours preserves them."""
    classes = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nb))) for v, nb in enumerate(nbrs)]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ids[s] for s in sigs]
        if len(ids) == classes:
            return colors
        classes = len(ids)


def _close(orbit, perms) -> set[int]:
    orbit = set(orbit)
    stack = list(orbit)
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in orbit:
                orbit.add(p[x])
                stack.append(p[x])
    return orbit


def _automorphism(nbrs, colors, src, dst) -> list[int] | None:
    """A colour-preserving automorphism taking edge src onto edge dst, as a
    vertex map, or None. Vertices are placed breadth first from src, so one
    with a placed neighbour can only go to a neighbour of that one's image."""
    n = len(nbrs)
    seq: list[tuple[int, int]] = [(v, -1) for v in src]  # (vertex, placed neighbour)
    seen = set(src)
    i = 0
    while len(seq) < n:
        if i == len(seq):  # a new component
            root = next(v for v in range(n) if v not in seen)
            seen.add(root)
            seq.append((root, -1))
        x = seq[i][0]
        for w in sorted(nbrs[x] - seen):
            seen.add(w)
            seq.append((w, x))
        i += 1
    image = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        x, parent = seq[i]
        cands = nbrs[image[parent]] if parent >= 0 else range(n)
        for y in cands:
            if used[y] or colors[y] != colors[x]:
                continue
            if any((z in nbrs[x]) != (image[z] in nbrs[y]) for z, _ in seq[:i]):
                continue
            image[x], used[y] = y, True
            if place(i + 1):
                return True
            image[x], used[y] = -1, False
        return False

    for a, b in (dst, dst[::-1]):
        if (colors[a], colors[b]) != (colors[src[0]], colors[src[1]]):
            continue
        image[src[0]], image[src[1]] = a, b
        used[a] = used[b] = True
        if place(2):
            return image
        used[a] = used[b] = False
    return None


def census(g: Graph) -> GeodesicCensus:
    """Full geodesic census, read off the geodesic walk."""
    return _census_of(g, _walk(g))


def _census_of(g: Graph, tries) -> GeodesicCensus:
    """Census of g from its walk. k_e sums, over the trie nodes whose last
    edge is e, the geodesics at or below them (one pass back from the last
    node, each adding its count to its parent's); the longest is a diameter.
    """
    per_edge = [0] * g.edge_count
    lengths: Counter[int] = Counter()
    for u, trie in tries:
        below = [x > u for x, *_ in trie]
        lengths.update(length for x, _, _, length in trie if x > u)
        for i in range(len(trie) - 1, 0, -1):
            if below[i]:
                _, p, eid, _ = trie[i]
                per_edge[eid] += below[i]
                below[p] += below[i]
    by_length = dict(sorted(lengths.items()))
    total, diameter = sum(by_length.values()), max(by_length, default=0)
    return GeodesicCensus(total, by_length, tuple(per_edge), diameter)
