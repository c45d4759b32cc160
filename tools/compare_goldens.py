"""Compare the regenerated golden transcripts with those of a git revision.

    PYTHONPATH=src python tools/compare_goldens.py [REV]

Reads tests/search_golden.jsonl and tests/cli_golden.jsonl as they are in
the working tree and as they were at REV (default HEAD), and checks, line by
line, that

  - every status, verdict and witness is unchanged;
  - every line of a search with no witness and no limit (exhausted, or
    neither in a census) is byte-identical, and so is every other line
    that reports no search;
  - every node-limit line still counts exactly its limit;
  - a line with a witness only gains nodes, at most m * max_label: one
    whole window per depth of its search.

Prints a summary per file and every line that fails a check, and exits 1 if
any does. Only costs may change: a re-pin that moves an outcome is a bug.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_search_golden import NODE_LIMIT, _runs  # noqa: E402

from leechlab.search import _Prepared  # noqa: E402

OUTCOMES = ("status", "verdict", "witnesses", "witness")


def _search_golden_bounds():
    """The most nodes each search_golden.jsonl line may gain: m * max_label."""
    for _, g, cfg, disabled, _ in _runs():
        yield g.edge_count * _Prepared(g, cfg, True, disabled).max_label


def _kind(line: dict) -> str:
    if "status" in line:
        return {"found": "found", "exhausted-none": "exhausted", "node-limit": "limit"}[line["status"]]
    if line.get("verdict") in ("leech", "almost"):
        return "found"
    return "exhausted" if line.get("verdict") == "neither" else "other"


def compare(name: str, rev: str) -> list[str]:
    old = subprocess.run(["git", "show", f"{rev}:tests/{name}"], cwd=ROOT, capture_output=True, text=True, check=True)
    old_lines = old.stdout.splitlines()
    new_lines = (ROOT / "tests" / name).read_text().splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(new_lines)} lines, {rev} has {len(old_lines)}"]
    if name == "search_golden.jsonl":
        bounds = list(_search_golden_bounds())
    else:  # search lines give max_label, census rows t_gp, the largest label there
        bounds = [None] * len(new_lines)
    errors, tally, gains = [], {}, []
    for i, (a, b, bound) in enumerate(zip(old_lines, new_lines, bounds), 1):
        was, now = json.loads(a), json.loads(b)
        kind = _kind(was)
        tally[kind] = tally.get(kind, 0) + 1
        where = f"{name}:{i}"
        if any(was.get(key) != now.get(key) for key in OUTCOMES):
            errors.append(f"{where}: outcome changed")
        elif kind in ("exhausted", "other"):
            if a != b:
                errors.append(f"{where}: {kind} line changed")
        elif kind == "limit":
            if now["nodes"] != NODE_LIMIT:
                errors.append(f"{where}: node-limit line at {now['nodes']} nodes")
        else:
            if bound is None:
                witness = (now.get("witnesses") or [now.get("witness")])[0]
                bound = len(witness) * now.get("max_label", now.get("t_gp"))
            gain = now["nodes"] - was["nodes"]
            if not 0 <= gain <= bound:
                errors.append(f"{where}: found line gains {gain} nodes, bound {bound}")
            gains.append(gain)
    kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(tally.items()))
    print(f"{name}: {len(new_lines)} lines ({kinds}); {len(errors)} failing; "
          f"{sum(g > 0 for g in gains)} of {len(gains)} found lines gain nodes, "
          f"{sum(gains):+,} in all, {max(gains, default=0):+,} at most; "
          f"node total {sum(json.loads(x).get('nodes', 0) for x in old_lines):,} -> "
          f"{sum(json.loads(x).get('nodes', 0) for x in new_lines):,}")
    return errors


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    errors = [e for name in ("search_golden.jsonl", "cli_golden.jsonl") for e in compare(name, rev)]
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
