"""The four benchmark workloads: set-up, one timed pass each, and the gates.

Nothing here imports leechlab at module level: setup() does, so that the
set-up time it reports includes the import.

A pass returns (attempted, failed) operations and raises GateError on any
wrong status, verdict or count. An operation is one search() call, one census
row or one sweep graph; it failed when it raised, returned an error row, or
hit a time or node limit.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
CORPUS = "order6.g6"

C10_MAX_LABEL = 15
C10_EXPECT = {"t_gp": 50, "max_label": 15, "forced_label_sum": 85}
CENSUS_TOTALS = {"leech": 90, "almost": 20, "neither": 2}
FAILED_VERDICTS = ("timeout", "error")


class GateError(Exception):
    """A workload produced a wrong result; the run must record no numbers."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def sweep_specs():
    """(name, family, parameter, closed form) of every geodesic-sweep graph."""
    specs = [(f"C{n}", "cycle", n, "tgp_cycle") for n in range(3, 101)]
    specs += [(f"K{n}", "complete", n, "tgp_complete") for n in range(2, 31)]
    specs += [(f"K{n},{n}", "complete_bipartite", n, "tgp_knn") for n in range(1, 21)]
    specs += [(f"W{n}", "wheel", n, "tgp_wheel") for n in range(5, 61)]
    return specs


def build_sweep(families) -> list[tuple]:
    """(name, graph, closed-form function name, parameter) in sweep_specs() order."""
    out = []
    for name, family, n, formula in sweep_specs():
        args = (n, n) if family == "complete_bipartite" else (n,)
        out.append((name, getattr(families, family)(*args), formula, n))
    return out


@dataclass
class Inputs:
    workers: int
    reference: dict
    graph: object = None                    # c10-proof, c10-proof-2w
    corpus: list = field(default_factory=list)   # census: rotated graph6 lines
    graphs: dict = field(default_factory=dict)   # census: graph6 -> Graph
    sweep: list = field(default_factory=list)    # sweep: (name, graph, formula, param)


def import_leechlab():
    """Import leechlab from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        leechlab = importlib.import_module("leechlab")
    except ImportError as exc:
        raise GateError(f"cannot import leechlab from {SRC}: {exc}") from None
    expect(
        Path(leechlab.__file__).resolve().is_relative_to(SRC.resolve()),
        f"leechlab was imported from {leechlab.__file__}, not from {SRC}",
    )
    importlib.import_module("leechlab.cli")
    return leechlab


def read_corpus(data_dir: Path = DATA) -> list[str]:
    """The order-6 corpus lines, after checking checksum and count."""
    manifest = json.loads((data_dir / "manifest.json").read_text())[CORPUS]
    body = (data_dir / CORPUS).read_bytes()
    expect(
        hashlib.sha256(body).hexdigest() == manifest["sha256"],
        f"{CORPUS} does not match its sha256 in manifest.json",
    )
    lines = body.decode("ascii").split()
    expect(len(lines) == manifest["count"], f"{CORPUS} holds {len(lines)} graphs, manifest says {manifest['count']}")
    return lines


def setup(name: str, seed: int) -> Inputs:
    """Everything before timed work: import, corpus check, input graphs.

    The seed only reorders the corpus and the sweep. It never relabels a search
    input: edge order breaks the kernel's ties, and relabeled C10 instances
    take 3 to 8 times as many nodes.
    """
    import_leechlab()
    families = importlib.import_module("leechlab.families")
    reference = json.loads((DATA / "reference.json").read_text())
    rng = random.Random(seed)
    if name in ("c10-proof", "c10-proof-2w"):
        return Inputs(2 if name.endswith("2w") else 1, reference, graph=families.cycle(10))
    if name == "census-order6":
        lines = read_corpus()
        decode = importlib.import_module("leechlab.graphio").graph6_decode
        graphs = {line: decode(line) for line in lines}
        # a rotation, not a shuffle: the CLI consumes rows in order from a
        # window of 4 per worker, so the three heavy rows run alone unless two
        # share a window, which a shuffle does in about a third of seeds and
        # which moves wall time by 17%; rotating keeps their atlas spacing
        start = rng.randrange(len(lines))
        return Inputs(2, reference, corpus=lines[start:] + lines[:start], graphs=graphs)
    if name == "geodesic-sweep":
        sweep = build_sweep(families)
        rng.shuffle(sweep)
        return Inputs(1, reference, sweep=sweep)
    raise ValueError(f"unknown workload {name!r}")


def run_pass(inp: Inputs, workers: int, in_process: bool = False) -> tuple[int, int]:
    """One timed pass of the workload; in_process keeps the CLI in this process."""
    if inp.graph is not None:
        return c10_pass(inp, workers)
    if inp.corpus:
        rows = census_in_process(inp, workers) if in_process else census_cli(inp, workers)
        return check_census(inp, rows)
    return sweep_pass(inp)


def c10_pass(inp: Inputs, workers: int) -> tuple[int, int]:
    leechlab = sys.modules["leechlab"]
    out = leechlab.search(inp.graph, leechlab.SearchConfig(max_label=C10_MAX_LABEL), workers=workers)
    failed = int(out.status.value in ("timed-out", "node-limit"))
    expect(out.status is leechlab.Status.EXHAUSTED_NONE, f"C10 search ended {out.status.value}")
    expect(not out.witnesses, f"C10 search returned witnesses {out.witnesses}")
    for key, value in C10_EXPECT.items():
        expect(getattr(out, key) == value, f"C10 search reports {key}={getattr(out, key)}, expected {value}")
    return 1, failed


def census_cli(inp: Inputs, workers: int) -> list[dict]:
    """`leechlab census - --workers N`, as a user runs it, in a child process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "leechlab.cli", "census", "-", "--workers", str(workers)],
        input="\n".join(inp.corpus) + "\n",
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=170,
    )
    expect(proc.returncode == 0, f"census exited {proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def census_in_process(inp: Inputs, workers: int) -> list[dict]:
    cli = sys.modules["leechlab.cli"]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("\n".join(inp.corpus) + "\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["census", "-", "--workers", str(workers)])
    finally:
        sys.stdin = stdin
    expect(code == 0, f"census exited {code}: {err.getvalue().strip()}")
    return [json.loads(line) for line in out.getvalue().splitlines()]


def count_failures(rows: list[dict]) -> int:
    return sum(1 for row in rows if row.get("verdict") in FAILED_VERDICTS)


def check_census(inp: Inputs, rows: list[dict]) -> tuple[int, int]:
    """Every verdict as in the reference, every witness re-classified."""
    leechlab = sys.modules["leechlab"]
    expect(bool(rows) and "summary" in rows[-1], "census printed no summary line")
    summary, rows = rows[-1]["summary"], rows[:-1]
    attempted, failed = len(rows), count_failures(rows)
    expect(attempted == len(inp.corpus), f"census printed {attempted} rows for {len(inp.corpus)} graphs")
    verdicts = inp.reference["census-order6"]["verdicts"]
    for row in rows:
        line = inp.corpus[row["index"]]
        expect(
            row["verdict"] == verdicts[line],
            f"census verdict {row['verdict']} for {line}, reference says {verdicts[line]}",
        )
        if row["verdict"] in ("leech", "almost"):
            expect("witness" in row, f"census row for {line} has no witness")
            report = leechlab.classify(inp.graphs[line], row["witness"])
            expect(
                report.verdict.value == row["verdict"],
                f"witness for {line} classifies {report.verdict.value}, row says {row['verdict']}",
            )
    totals = collections.Counter(row["verdict"] for row in rows)
    expect(dict(totals) == CENSUS_TOTALS, f"census totals {dict(totals)}, expected {CENSUS_TOTALS}")
    expected_summary = {**CENSUS_TOTALS, "timeout": 0, "error": 0}
    expect(summary == expected_summary, f"census summary {summary}, expected {expected_summary}")
    return attempted, failed


def sweep_digest(weights: dict[str, tuple]) -> str:
    """sha256 of every classify weight multiset, in sweep_specs() order."""
    text = json.dumps([[name, list(weights[name])] for name, *_ in sweep_specs()])
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_pass(inp: Inputs) -> tuple[int, int]:
    leechlab = sys.modules["leechlab"]
    weights = {}
    for name, g, formula, n in inp.sweep:
        enumerated = leechlab.census(g).total
        counted = leechlab.count_geodesics(g)
        closed = getattr(leechlab, formula)(n)
        expect(
            enumerated == counted == closed,
            f"{name}: census {enumerated}, count_geodesics {counted}, {formula} {closed}",
        )
        weights[name] = leechlab.classify(g, tuple(range(1, g.edge_count + 1))).weight_multiset
    digest = sweep_digest(weights)
    expected = inp.reference["geodesic-sweep"]["weights_sha256"]
    expect(digest == expected, f"classify weight digest {digest}, reference {expected}")
    return len(inp.sweep), 0
