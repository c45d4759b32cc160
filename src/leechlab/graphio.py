"""File formats: edge-list text, positional labeling files, and graph6.

Edge-list format: first data line is "n m", followed by m lines "u v" with
0-based vertex indices. Labeling format: m whitespace-separated positive
integers matching edge ids positionally. In all three formats '#' starts a
comment ('#' is never a graph6 byte), and blank lines are skipped.

_data_lines is the package's one reader of lines and _ascii_int its one
reader of integers, for files, CLI flags, family specs and preset names
alike: an integer is a token of ASCII digits, without the signs, spaces,
underscores and other scripts' digits that int() would also take.

graph6 follows the standard ASCII encoding; only the single-byte order field
(n <= 62) is supported, which covers every corpus this package targets. The
upper-triangle adjacency bits are read column by column, so a decoded graph
gets edge ids ordered by (larger endpoint, smaller endpoint).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError
from .graph import Graph, build_graph
from .labeling import Labeling

GRAPH6_HEADER = ">>graph6<<"


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped content) of each line left non-blank
    once its '#' comment is cut off."""
    for lineno, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _ascii_int(token: str) -> int | None:
    """The value of a token of ASCII digits, else None, as for a token past
    int()'s digit limit; each caller raises its own error for None."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:
        return None


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a Graph."""
    pairs: list[tuple[int, int]] = []
    for lineno, line in _data_lines(text.splitlines()):
        pair = tuple(map(_ascii_int, line.split()))
        if len(pair) != 2 or None in pair:
            raise ParseError(f"expected two integers in ASCII digits, got {line!r}", lineno)
        pairs.append(pair)
    if not pairs:
        raise ParseError("empty edge-list file")
    (n, m), edges = pairs[0], pairs[1:]
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file contains {len(edges)}")
    return build_graph(n, edges)


def parse_labeling(text: str) -> Labeling:
    """Parse a positional labeling file (comments allowed, order significant)."""
    labels: list[int] = []
    for lineno, line in _data_lines(text.splitlines()):
        for token in line.split():
            label = _ascii_int(token)
            if label is None:
                raise ParseError(f"expected a label in ASCII digits, got {token!r}", lineno)
            labels.append(label)
    if not labels:
        raise ParseError("empty labeling file")
    return Labeling(tuple(labels))


def format_labeling(lab: Labeling) -> str:
    return " ".join(str(x) for x in lab.labels) + "\n"


def graph6_decode(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError(f"graph6 line contains bytes outside ASCII 63..126: {line!r}")
    n = data[0]
    if n == 63:
        raise ParseError("multi-byte graph6 order fields (n > 62) are not supported")
    bits_needed = n * (n - 1) // 2
    body = data[1:]
    if len(body) != (bits_needed + 5) // 6:
        raise ParseError(
            f"graph6 line for n={n} must carry {(bits_needed + 5) // 6} data bytes, got {len(body)}"
        )
    edges: list[tuple[int, int]] = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6]
            if byte >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    # padding bits must be zero
    if bits_needed % 6:
        byte = body[-1]
        if byte & ((1 << (6 - bits_needed % 6)) - 1):
            raise ParseError(f"graph6 line has non-zero padding bits: {line!r}")
    return build_graph(n, edges)


def load_graph(path: str) -> Graph:
    """Load a graph file, dispatching on extension (.g6 vs edge list)."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".g6"):
        first = next((line for _, line in _data_lines(text.splitlines())), "")
        return graph6_decode(first)
    return parse_edge_list(text)


def load_labeling(path: str) -> Labeling:
    with open(path, "r", encoding="ascii") as fh:
        return parse_labeling(fh.read())
