"""Family spec golden transcript: what each --family spec builds and prints.

For a grid of specs with ASCII-digit parameters (every family, several sizes,
mixed-case names) the golden file pins the graph the spec builds (n and the
edge tuple, which fixes the edge ids) and the exit code and stdout of
`tgp --json`, `tgp --json --closed-form` and `feasible --json`. Specs that
are not accepted are pinned by their exit code. Print the current transcript
with `PYTHONPATH=src python tests/test_family_specs.py`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from leechlab.cli import main, parse_family

GOLDEN = Path(__file__).with_name("family_specs_golden.jsonl")

ACCEPTED = (
    "cycle:3", "cycle:4", "cycle:7", "cycle:10", "Cycle:5", "cycle:05",
    "path:1", "path:2", "path:5", "PATH:3",
    "complete:1", "complete:2", "complete:4", "complete:5", "Complete:3",
    "knn:1", "knn:2", "knn:3", "KNN:4",
    "kmn:1x1", "kmn:2x3", "kmn:3x2", "kmn:3x3", "KmN:1x4",
    "wheel:4", "wheel:5", "wheel:7", "Wheel:6",
    "prism", "prism:", "PRISM",
)
REJECTED = (
    "triangle:3", "cycle", "cycle:", "cycle:x", "cycle:5x5", "cycle:-3",
    "cycle:2", "path:0", "complete:0", "knn:0", "knn:2x2", "kmn:3", "kmn:3x",
    "kmn:x3", "kmn:2X3", "kmn:3x4x5", "kmn:0x3", "wheel:3", "prism:1",
)
COMMANDS = (("tgp", "--json"), ("tgp", "--json", "--closed-form"), ("feasible", "--json"))


def _run(argv) -> tuple[int, list[str]]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, stdout.getvalue().splitlines()


def transcript() -> str:
    out = []
    for spec in ACCEPTED:
        g = parse_family(spec)[0]
        out.append(json.dumps({"spec": spec, "n": g.vertex_count, "edges": g.edges}))
        for cmd in COMMANDS:
            code, lines = _run((cmd[0], "--family", spec, *cmd[1:]))
            out.append(json.dumps({"argv": cmd, "exit": code, "stdout": lines}))
    for spec in REJECTED:
        codes = [_run((cmd[0], "--family", spec, *cmd[1:]))[0] for cmd in COMMANDS]
        out.append(json.dumps({"spec": spec, "exits": codes}))
    return "\n".join(out) + "\n"


def test_family_specs_match_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
