"""Command-line interface.

Commands:
  tgp       geodesic census of a graph, optionally checked against closed forms
  verify    classify a labeling file against a graph
  search    exhaustive labeling search; prints a witness or a certificate
  feasible  divisibility necessary condition, single graph or parameter range
  census    run a graph6 corpus through the search, one JSON row per graph;
            the input is read in full first, rows stream out in input order,
            and --time-limit / --node-limit apply per graph, across both the
            Leech and the almost search

Exit codes separate mathematical verdicts from operational errors so scripts
can assert results directly:

  0   geodesic Leech / witness found / condition feasible
  10  almost geodesic Leech
  20  neither / condition infeasible
  21  condition not applicable (edges lie on unequal geodesic counts)
  30  search exhausted, no labeling exists within bounds
  40  search timed out
  41  search hit its node limit
  64  usage or configuration error, argparse's own errors included
  65  unreadable or malformed input data
  70  closed-form cross-check mismatch
  74  output could not be written (a closed pipe, a full disk: any OSError
      outside the reading of input)

Graph sources are files (edge-list text, or .g6 for graph6) or --family
specs from families.FAMILIES: cycle:N, path:N, complete:N, knn:N, kmn:MxN,
wheel:N, prism (names in any case, parameters in ASCII digits).
LEECHLAB_WORKERS sets the default worker count; flags override it. Integers,
there as in flags, are ASCII digits (graphio's one integer reader), and a
malformed number exits 64 with one error line (from LEECHLAB_WORKERS, only in
search and census). Input files are read by graphio's one line reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import formulas
from .errors import (
    ConfigInvalidError,
    EmptyGraphError,
    FormulaDomainError,
    LeechLabError,
    TooSmallError,
    UnknownPresetError,
)
from .families import FAMILIES, Family, _parse_spec, parse_family
from .graph import Graph, census
from .graphio import _ascii_int, _data_lines, format_labeling, load_graph, load_labeling
from .labeling import Verdict, classify
from .search import Mode, SearchConfig, Status, census_corpus, search

SCHEMA = "leechlab/1"

EXIT_LEECH = 0
EXIT_ALMOST = 10
EXIT_NEITHER = 20
EXIT_NOT_APPLICABLE = 21
EXIT_EXHAUSTED = 30
EXIT_TIMEOUT = 40
EXIT_NODE_LIMIT = 41
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_MISMATCH = 70
EXIT_IO = 74

_VERDICT_EXIT = {
    Verdict.GEODESIC_LEECH: EXIT_LEECH,
    Verdict.ALMOST_GEODESIC_LEECH: EXIT_ALMOST,
    Verdict.NEITHER: EXIT_NEITHER,
}
_STATUS_EXIT = {
    Status.FOUND: EXIT_LEECH,
    Status.EXHAUSTED_NONE: EXIT_EXHAUSTED,
    Status.TIMED_OUT: EXIT_TIMEOUT,
    Status.NODE_LIMIT: EXIT_NODE_LIMIT,
}

_USAGE_ERRORS = (
    ConfigInvalidError,
    TooSmallError,
    FormulaDomainError,
    UnknownPresetError,
    EmptyGraphError,
)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(load, path):
    """load(path); an OSError is unreadable input, as main takes any other for a failed write."""
    try:
        return load(path)
    except OSError as exc:
        raise _CliError(str(exc), EXIT_DATA) from None


def _resolve_graph(args, inputs: list[str]) -> tuple[Graph, Family | None, tuple]:
    if args.family:
        if inputs:
            raise _CliError("give either --family or a graph file, not both", EXIT_USAGE)
        return parse_family(args.family)
    if not inputs:
        raise _CliError("a graph file or --family spec is required", EXIT_USAGE)
    return _read(load_graph, inputs[0]), None, ()


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": SCHEMA, **payload}))
    else:
        for line in text_lines:
            print(line)


def cmd_tgp(args) -> int:
    g, family, params = _resolve_graph(args, args.inputs)
    c = census(g)
    lines = [
        f"vertices: {g.vertex_count}",
        f"edges: {g.edge_count}",
        f"geodesic paths: {c.total}",
        f"diameter: {c.diameter}",
        "by length: " + ", ".join(f"{l}:{c.by_length[l]}" for l in sorted(c.by_length)),
        "per edge: " + " ".join(str(k) for k in c.per_edge),
    ]
    payload = {
        "command": "tgp",
        "n": g.vertex_count,
        "m": g.edge_count,
        "t_gp": c.total,
        "diameter": c.diameter,
        "by_length": {str(k): v for k, v in sorted(c.by_length.items())},
        "per_edge": list(c.per_edge),
    }
    if args.closed_form:
        if family is None:
            raise _CliError("--closed-form needs a --family source", EXIT_USAGE)
        expected = family.tgp(*params) if family.tgp else None
        if expected is None:
            raise _CliError(f"no closed form for family {family.name}", EXIT_USAGE)
        payload["closed_form"] = expected
        lines.append(f"closed form: {expected}")
        if expected != c.total:
            _emit(payload, args.json, lines)
            print(
                f"closed-form mismatch: census says {c.total}, formula says {expected}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    _emit(payload, args.json, lines)
    return 0


def _report_payload(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "t_gp": report.t_gp,
        "weight_multiset": list(report.weight_multiset),
        "missing": list(report.missing),
        "duplicates": [list(d) for d in report.duplicates],
        "overshoot": list(report.overshoot),
    }


def cmd_verify(args) -> int:
    if len(args.inputs) != (1 if args.family else 2):
        raise _CliError("usage: verify {GRAPH_FILE | --family SPEC} LABELING_FILE", EXIT_USAGE)
    g = _resolve_graph(args, args.inputs[:-1])[0]
    lab = _read(load_labeling, args.inputs[-1])
    report = classify(g, lab)
    lines = [
        f"verdict: {report.verdict.value}",
        f"t_gp: {report.t_gp}",
    ]
    if report.missing:
        lines.append("missing: " + " ".join(map(str, report.missing)))
    if report.duplicates:
        lines.append("duplicates: " + " ".join(f"{v}x{c}" for v, c in report.duplicates))
    if report.overshoot:
        lines.append("overshoot: " + " ".join(map(str, report.overshoot)))
    _emit({"command": "verify", **_report_payload(report)}, args.json, lines)
    return _VERDICT_EXIT[report.verdict]


def cmd_search(args) -> int:
    g = _resolve_graph(args, args.inputs)[0]
    cfg = SearchConfig(
        mode=Mode.ALMOST if args.almost else Mode.LEECH,
        max_label=args.max_label,
        forced_label_sum=args.sum,
        time_limit=args.time_limit,
        find_all=args.all,
        node_limit=args.node_limit,
    )
    out = search(g, cfg, workers=args.workers, derive_bounds=not args.seedless)
    payload = {
        "command": "search",
        "status": out.status.value,
        "mode": out.mode.value,
        "t_gp": out.t_gp,
        "max_label": out.max_label,
        "forced_label_sum": out.forced_label_sum,
        "nodes": out.nodes_explored,
        "elapsed_s": round(out.elapsed, 6),
        "pruning": out.pruning_stats,
        "witnesses": [list(w.labels) for w in out.witnesses],
    }
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}))
        return _STATUS_EXIT[out.status]
    # text output doubles as a labeling file: comments around the bare labels
    src = args.family if args.family else args.inputs[0]
    print(f"# search {src}: {out.status.value} (mode={out.mode.value}, t_gp={out.t_gp})")
    print(
        f"# bounds: max_label={out.max_label}"
        + (f", label_sum={out.forced_label_sum}" if out.forced_label_sum is not None else "")
    )
    print(f"# nodes={out.nodes_explored} elapsed={out.elapsed:.3f}s")
    if out.pruning_stats:
        print("# pruning: " + ", ".join(f"{k}={v}" for k, v in sorted(out.pruning_stats.items())))
    if out.witnesses:
        report = classify(g, out.witnesses[0])
        print(format_labeling(out.witnesses[0]), end="")
        print(f"# verifies: {report.verdict.value}")
        for extra in out.witnesses[1:]:
            print(f"# also: {format_labeling(extra)}", end="")
    return _STATUS_EXIT[out.status]


def _feasibility_payload(res) -> dict:
    return {
        "feasible": res.feasible,
        "per_edge_count": res.per_edge_count,
        "required_total": res.required_total,
        "required_label_sum": [
            res.required_label_sum.numerator,
            res.required_label_sum.denominator,
        ],
        "reason": res.reason,
    }


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    lo, hi = _ascii_int(lo), _ascii_int(hi)
    if not sep or lo is None or hi is None or lo > hi:
        raise _CliError(f"--range wants A..B in ASCII digits with A <= B, got {text!r}", EXIT_USAGE)
    return lo, hi


def cmd_feasible(args) -> int:
    if args.range:
        # only the name counts: the parameter of cycle:n is a placeholder
        name = (args.family or "").partition(":")[0].lower()
        family = FAMILIES.get(name)
        if family is None or family.feasibility is None:
            tested = " or ".join(f.name for f in FAMILIES.values() if f.feasibility)
            raise _CliError(f"--range needs --family {tested}, not {name!r}", EXIT_USAGE)
        lo, hi = _parse_range(args.range)
        feasible_ns = []
        rows = []
        for n in range(lo, hi + 1):
            res = family.feasibility(n)
            rows.append({"n": n, **_feasibility_payload(res)})
            if res.feasible:
                feasible_ns.append(n)
            if not args.json:
                print(f"n={n}: {'feasible' if res.feasible else 'infeasible'} ({res.reason})")
        if args.json:
            print(json.dumps({
                "schema": SCHEMA,
                "command": "feasible",
                "family": name,
                "range": [lo, hi],
                "rows": rows,
                "feasible_at": feasible_ns,
            }))
        else:
            print(f"feasible at: {' '.join(map(str, feasible_ns)) if feasible_ns else 'none'}")
        return 0

    # a closed-form test needs the spec alone, not the graph
    family, params = _parse_spec(args.family) if args.family and not args.inputs else (None, ())
    if family is not None and family.feasibility is not None:
        res = family.feasibility(*params)
        payload, lines = {"command": "feasible", "family": args.family}, []
    else:
        g = _resolve_graph(args, args.inputs)[0]
        c = census(g)
        coeffs, total = formulas.general_weighted_sum_identity(c)
        payload = {
            "command": "feasible",
            "t_gp": c.total,
            "required_total": total,
            "per_edge": list(coeffs),
        }
        lines = [
            f"t_gp: {c.total}",
            f"weighted-sum identity: sum k_e*a_e = {total}",
            "per edge: " + " ".join(map(str, coeffs)),
        ]
        k = formulas._common_count(c)
        if k is None:
            payload["applicable"] = False
            lines.append("divisibility test not applicable: edges lie on unequal geodesic counts")
            _emit(payload, args.json, lines)
            return EXIT_NOT_APPLICABLE
        res = formulas.edge_transitive_feasibility(k, c.total, g.edge_count)
    payload.update(_feasibility_payload(res))
    lines.append(f"{'feasible' if res.feasible else 'infeasible'}: {res.reason}")
    _emit(payload, args.json, lines)
    return EXIT_LEECH if res.feasible else EXIT_NEITHER


def _corpus_text(path: str) -> str:
    if path == "-":
        # strict ASCII, as for a file; a text-only stdin is held to it too
        stdin = getattr(sys.stdin, "buffer", None)
        return (stdin.read() if stdin is not None else sys.stdin.read().encode()).decode("ascii")
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def cmd_census(args) -> int:
    if not args.inputs:
        raise _CliError("census needs a graph6 file ('-' for stdin)", EXIT_USAGE)
    text = _read(_corpus_text, args.inputs[0])
    rows = census_corpus(
        [line for _, line in _data_lines(text.splitlines())],
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        workers=args.workers,
    )
    counts = Counter()
    for row in rows:
        out = {
            "index": row.index, "n": row.n, "m": row.m, "t_gp": row.t_gp,
            "verdict": row.verdict, "nodes": row.nodes, "millis": round(row.millis, 3),
        }
        if row.witness is not None:
            out["witness"] = list(row.witness.labels)
        if row.error is not None:
            out["error"] = row.error
        counts[row.verdict] += 1
        print(json.dumps(out), flush=True)
    summary = {key: counts[key] for key in ("leech", "almost", "neither", "timeout", "error")}
    print(json.dumps({"schema": SCHEMA, "command": "census", "summary": summary}))
    print(
        " ".join(f"{key}={value}" for key, value in summary.items()),
        file=sys.stderr,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Its own errors (an unknown flag, a missing value or subcommand) exit 64
    with one line; add_subparsers gives the subcommands this class too."""

    def error(self, message):
        raise _CliError(message, EXIT_USAGE)


def _count(name: str):
    """The argparse type of the integer >= 1 that name takes; it raises
    _CliError, not ValueError, so that the one error line names the flag."""
    def convert(text: str) -> int:
        value = _ascii_int(text)
        if value is None or value < 1:
            raise _CliError(f"{name} takes an integer >= 1 in ASCII digits, got {text!r}", EXIT_USAGE)
        return value
    return convert


def _seconds(text: str) -> float:
    """The argparse type of --time-limit, raising as _count's do; the search
    checks that the value is positive (NaN is not)."""
    try:  # float() also takes other scripts' digits: the text must be ASCII
        return float(text.encode("ascii"))
    except (UnicodeEncodeError, ValueError):
        raise _CliError(f"--time-limit takes a number of seconds, got {text!r}", EXIT_USAGE) from None


def _add_workers(p, note: str = "") -> None:
    # argparse converts a string default only for the command that runs and
    # after --help has had its turn, so a bad LEECHLAB_WORKERS fails search
    # and census alone
    p.add_argument(
        "--workers", type=_count("--workers (or LEECHLAB_WORKERS)"),
        default=os.environ.get("LEECHLAB_WORKERS") or "1",
        help="parallel workers (default from LEECHLAB_WORKERS, else 1)" + note,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leechlab",
        description="Geodesic Leech labeling toolkit: census, verification, and exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_json=True):
        p.add_argument("inputs", nargs="*", help="input file(s)")
        p.add_argument(
            "--family",
            help="family spec, one of " + ", ".join(f.usage for f in FAMILIES.values()),
        )
        if with_json:
            p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("tgp", help="geodesic census of a graph")
    add_common(p)
    p.add_argument("--closed-form", action="store_true", help="cross-check the census against the family's closed form")
    p.set_defaults(fn=cmd_tgp)

    p = sub.add_parser("verify", help="classify a labeling file against a graph")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="search for a (almost) geodesic Leech labeling")
    add_common(p)
    p.add_argument("--almost", action="store_true", help="search for an almost labeling instead")
    p.add_argument("--max-label", type=_count("--max-label"), default=None, help="largest label to try (default: proven bound)")
    p.add_argument("--sum", type=_count("--sum"), default=None, help="force the label sum (default: derived when valid)")
    p.add_argument("--time-limit", type=_seconds, default=None, help="wall-clock limit in seconds")
    p.add_argument("--node-limit", type=_count("--node-limit"), default=None, help="stop at this many nodes (candidate labels tried), each window counted whole before the search descends into it")
    p.add_argument("--all", action="store_true", help="collect every witness instead of stopping at the first")
    _add_workers(p, "; a search with --node-limit runs at one worker")
    p.add_argument("--seedless", action="store_true", help="do not derive bounds from counting arguments; search labels up to t_gp")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("feasible", help="divisibility necessary condition")
    add_common(p)
    p.add_argument("--range", help="evaluate a parameter range A..B (family cycle or knn)")
    p.set_defaults(fn=cmd_feasible)

    p = sub.add_parser("census", help="read a graph6 corpus in full, then stream one JSON row per graph in input order")
    add_common(p, with_json=False)
    _add_workers(p)
    p.add_argument("--time-limit", type=_seconds, default=None, help="per-graph wall-clock limit in seconds, across both searches")
    p.add_argument("--node-limit", type=_count("--node-limit"), default=None, help="per-graph node limit, across both searches")
    p.set_defaults(fn=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LeechLabError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # every read reports its own (_read), so this is a failed write or
        # flush of stdout: a closed pipe, a full disk
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
