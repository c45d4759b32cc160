"""Deterministic generators for the graph families under study.

Edge-order conventions are normative because labeling files are positional:

  cycle(n)                 edge i joins vertices i and (i+1) mod n
  complete(n)              lexicographic pairs (0,1), (0,2), ..., (n-2,n-1)
  complete_bipartite(m,n)  side A is 0..m-1, side B is m..m+n-1, pairs in
                           lexicographic order (0,m), (0,m+1), ...
  path(n)                  edge i joins vertices i and i+1
  wheel(n)                 rim 0..n-2 in cycle order (edge ids 0..n-2), hub
                           n-1, spokes (i, hub) afterwards in rim order
  prism()                  triangle 0,1,2, triangle 3,4,5, then the matching

FAMILIES maps each spec name to its generator and, where the paper proves
them, the closed-form t_gp and divisibility test; parse_family builds the
graph of a spec such as cycle:10, kmn:3x4 or prism from it, and
_parse_spec reads a spec without building the graph.

The nine minimal forbidden subgraphs of line graphs and the catalog of all
connected graphs on 2..5 vertices ship as graph6 assets with checksums, so
the census experiments run without an external graph database.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from . import formulas
from .errors import CatalogMissingError, ConfigInvalidError, TooSmallError
from .graph import Graph, build_graph
from .graphio import _ascii_int, _data_lines, graph6_decode


def cycle(n: int) -> Graph:
    if n < 3:
        raise TooSmallError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise TooSmallError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise TooSmallError(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise TooSmallError(f"complete bipartite needs both sides >= 1, got {m}, {n}")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def wheel(n: int) -> Graph:
    """Wheel on n vertices total: a cycle on n-1 vertices plus a hub."""
    if n < 4:
        raise TooSmallError(f"wheel needs n >= 4 vertices, got {n}")
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges.extend((i, rim) for i in range(rim))
    return build_graph(n, edges)


def prism() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching (cubic)."""
    return build_graph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )


@dataclass(frozen=True)
class Family:
    """A graph family as a spec names it.

    make, tgp and feasibility take arity integer parameters. tgp and
    feasibility are None without a closed form, and tgp returns None where
    its form does not reach (kmn with m != n).
    """

    name: str
    make: Callable[..., Graph]
    arity: int
    tgp: Callable[..., int | None] | None = None
    feasibility: Callable[[int], formulas.FeasibilityResult] | None = None

    @property
    def usage(self) -> str:
        return self.name + ("", ":N", ":MxN")[self.arity]


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("cycle", cycle, 1, formulas.tgp_cycle, formulas.cycle_feasibility),
    Family("path", path, 1),
    Family("complete", complete, 1, formulas.tgp_complete),
    Family("knn", lambda n: complete_bipartite(n, n), 1, formulas.tgp_knn, formulas.knn_feasibility),
    Family("kmn", complete_bipartite, 2, lambda m, n: formulas.tgp_knn(m) if m == n else None),
    Family("wheel", wheel, 1, formulas.tgp_wheel),
    Family("prism", prism, 0),
)}


def _parse_spec(spec: str) -> tuple[Family, tuple[int, ...]]:
    """The family and parameters a spec names, without building its graph.

    A spec is NAME, NAME:N or NAME:MxN, the name in any case and the
    parameters in ASCII digits. Raises ConfigInvalidError for an unknown
    name or a malformed parameter.
    """
    name, _, param = spec.partition(":")
    family = FAMILIES.get(name.lower())
    if family is None:
        raise ConfigInvalidError(
            f"unknown family {name.lower()!r} in {spec!r}; known: {', '.join(FAMILIES)}"
        )
    params = tuple(map(_ascii_int, param.split("x"))) if param else ()
    if len(params) != family.arity or None in params:
        raise ConfigInvalidError(
            f"malformed family spec {spec!r}: {family.name} takes {family.usage}, "
            "with parameters in ASCII digits"
        )
    return family, params


def parse_family(spec: str) -> tuple[Graph, Family, tuple[int, ...]]:
    """Build the graph a spec names; returns (graph, family, params)."""
    family, params = _parse_spec(spec)
    return family.make(*params), family, params


def _load_asset(filename: str) -> tuple[list[str], dict]:
    data_dir = resources.files(__package__) / "data"
    try:
        manifest = json.loads((data_dir / "manifest.json").read_text(encoding="ascii"))
        raw = (data_dir / filename).read_bytes()
    except (FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        raise CatalogMissingError(f"bundled asset {filename} unavailable: {exc}") from exc
    try:
        entry = manifest["files"][filename]
    except KeyError:
        raise CatalogMissingError(f"{filename} missing from asset manifest") from None
    digest = hashlib.sha256(raw).hexdigest()
    if digest != entry["sha256"]:
        raise CatalogMissingError(
            f"{filename} checksum mismatch: expected {entry['sha256']}, got {digest}"
        )
    lines = [line for _, line in _data_lines(raw.decode("ascii").splitlines())]
    if len(lines) != entry["count"]:
        raise CatalogMissingError(
            f"{filename} carries {len(lines)} graphs, manifest promises {entry['count']}"
        )
    return lines, entry


def beineke_graphs() -> list[tuple[str, Graph]]:
    """The nine minimal forbidden subgraphs of line graphs, claw first.

    Returns (stable name, graph) pairs in the bundled canonical order.
    """
    lines, entry = _load_asset("beineke.g6")
    names = entry["names"]
    if len(names) != len(lines):
        raise CatalogMissingError("beineke.g6 name list does not match graph count")
    return [(name, graph6_decode(line)) for name, line in zip(names, lines)]


def small_connected_catalog(max_n: int = 5) -> list[Graph]:
    """Every connected graph on 2..max_n vertices, once per isomorphism class.

    Only orders up to 5 are bundled.
    """
    if not 2 <= max_n <= 5:
        raise ValueError(f"catalog is bundled for 2 <= max_n <= 5, got {max_n}")
    lines, _ = _load_asset("small_connected_2_5.g6")
    graphs = [graph6_decode(line) for line in lines]
    return [g for g in graphs if g.vertex_count <= max_n]
