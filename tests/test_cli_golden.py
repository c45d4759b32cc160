"""CLI golden transcript: the --json output of a fixed script of commands.

The golden file pins every output field except wall-clock timings, so a
refactor of the census pipeline, the geodesic data or the verdict must leave
the CLI's observable output unchanged, error rows included. Print the
current transcript with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from leechlab.cli import main, parse_family
from leechlab.families import beineke_graphs
from leechlab.labeling import classify

GOLDEN = Path(__file__).with_name("cli_golden.jsonl")
TIMING_FIELDS = ("millis", "elapsed_s")

# a graph6 line that does not decode, then the one-vertex edgeless graph
BAD_CORPUS = "~~~bogus\n@\n"

SCRIPT = (
    ("tgp", "--family", "cycle:10", "--json"),
    ("tgp", "--family", "wheel:6", "--json"),
    ("tgp", "--family", "prism", "--json"),
    ("search", "--family", "wheel:5", "--json"),
    ("search", "--family", "cycle:5", "--json"),
    ("census", "{beineke}", "--workers", "1"),
    ("census", "{beineke}", "--workers", "2"),
    ("census", "{bad}", "--workers", "1"),
    ("census", "{bad}", "--workers", "2"),
)


def _strip_timings(line: str) -> str:
    payload = json.loads(line)
    for key in TIMING_FIELDS:
        payload.pop(key, None)
    return json.dumps(payload)


def transcript() -> str:
    """Run SCRIPT in process; one line per command, then its stdout lines."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.g6"
        bad.write_text(BAD_CORPUS)
        files = {
            "{beineke}": str(resources.files("leechlab") / "data" / "beineke.g6"),
            "{bad}": str(bad),
        }
        out = []
        for argv in SCRIPT:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([files.get(arg, arg) for arg in argv])
            out.append(json.dumps({"argv": list(argv), "exit": code}))
            out.extend(_strip_timings(line) for line in stdout.getvalue().splitlines())
    return "\n".join(out) + "\n"


def test_cli_output_matches_golden():
    assert transcript() == GOLDEN.read_text()


def test_golden_witnesses_classify_as_their_rows():
    beineke = [g for _, g in beineke_graphs()]
    checked = 0
    for line in GOLDEN.read_text().splitlines():
        row = json.loads(line)
        if "argv" in row:
            argv = row["argv"]
            continue
        if argv[0] == "search":
            g = parse_family(argv[2])[0]
            for labels in row["witnesses"]:
                assert classify(g, labels).verdict.value == row["mode"]
                checked += 1
        elif "witness" in row:
            assert argv[1] == "{beineke}"
            assert classify(beineke[row["index"]], row["witness"]).verdict.value == row["verdict"]
            checked += 1
    assert checked == 19


if __name__ == "__main__":
    sys.stdout.write(transcript())
