"""Compare the regenerated golden transcripts with those of a git revision.

    PYTHONPATH=src python tools/compare_goldens.py [REV]
    PYTHONPATH=src python tools/compare_goldens.py --unlimited [REV]

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

Prints a summary per file, with how many lines changed their outcome, how
many found searches a node limit now cuts (a found line that is now a
node-limit line at exactly the limit) and how many changed only their cost,
and every line that fails a check, and exits 1 if any does. Only costs may
change: a re-pin that moves an outcome is a bug. A search that a node limit
now cuts may have only grown its tree, which --unlimited tells apart.

--unlimited checks a change that counts the same trees in a new unit, which
the checks above cannot tell from a change of tree. Every search of
tests/search_golden.jsonl runs again with no node limit, in the working tree
and in REV's tree (extracted with git archive into a temporary directory),
and each must keep, from one revision to the other,

  - its status and witnesses;
  - nodes + distinct_label and nodes - weight_duplicate: a candidate label
    either of the two rules may reject is counted once in each sum, as a
    node or as that rule's rejection;
  - every other rule's count.

The searches of cli_golden.jsonl already run unlimited, so its lines at the
two revisions are compared as they stand: every field but the costs must
match, and so must the sums where a line reports its pruning (census rows
report only nodes). A search that runs out of its TIME_LIMIT seconds at
either revision is listed and not compared. The summary per file counts
outcome changes and cost-only changes here too, so a change that moves
trees on purpose shows 0 outcome changes.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_search_golden import NODE_LIMIT, _runs  # noqa: E402

from leechlab.search import _Prepared  # noqa: E402

OUTCOMES = ("status", "verdict", "witnesses", "witness")
TIME_LIMIT = 60.0  # seconds per unlimited search: prism almost without weight_duplicate needs more


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


def _old_lines(name: str, rev: str) -> list[str]:
    old = subprocess.run(["git", "show", f"{rev}:tests/{name}"], cwd=ROOT, capture_output=True, text=True, check=True)
    return old.stdout.splitlines()


def compare(name: str, rev: str) -> list[str]:
    old_lines = _old_lines(name, rev)
    new_lines = (ROOT / "tests" / name).read_text().splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(new_lines)} lines, {rev} has {len(old_lines)}"]
    if name == "search_golden.jsonl":
        bounds = list(_search_golden_bounds())
    else:  # search lines give max_label, census rows t_gp, the largest label there
        bounds = [None] * len(new_lines)
    errors, tally, gains, outcome_changes, cut, cost_changes = [], {}, [], 0, 0, 0
    for i, (a, b, bound) in enumerate(zip(old_lines, new_lines, bounds), 1):
        was, now = json.loads(a), json.loads(b)
        kind = _kind(was)
        tally[kind] = tally.get(kind, 0) + 1
        where = f"{name}:{i}"
        outcome = any(was.get(key) != now.get(key) for key in OUTCOMES)
        limited = outcome and kind == "found" and now.get("status") == "node-limit" and now["nodes"] == NODE_LIMIT
        cut += limited
        outcome_changes += outcome and not limited
        cost_changes += not outcome and a != b
        if limited:
            errors.append(f"{where}: a node limit now cuts a found search: check with --unlimited")
        elif outcome:
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
          f"{outcome_changes} outcome changes, {cut} found searches now cut by the node limit, "
          f"{cost_changes} cost-only changes; "
          f"{sum(g > 0 for g in gains)} of {len(gains)} found lines gain nodes, "
          f"{sum(gains):+,} in all, {max(gains, default=0):+,} at most; "
          f"node total {sum(json.loads(x).get('nodes', 0) for x in old_lines):,} -> "
          f"{sum(json.loads(x).get('nodes', 0) for x in new_lines):,}")
    return errors


# run in a tree's own interpreter: its package, its _runs(), no node limit
UNLIMITED_RUNS = """
import json, sys
from dataclasses import replace
from test_search_golden import _runs
from leechlab.search import search
for name, g, cfg, disabled, workers in _runs():
    cfg = replace(cfg, node_limit=None, time_limit=float(sys.argv[1]))
    res = search(g, cfg, workers=workers, disabled_rules=disabled)
    print(json.dumps({
        "graph": name, "mode": cfg.mode.value, "off": list(disabled), "workers": workers,
        "status": res.status.value, "nodes": res.nodes_explored, "pruning": res.pruning_stats,
        "witnesses": [list(w.labels) for w in res.witnesses],
    }), flush=True)
"""


def _start_unlimited_runs(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    return subprocess.Popen([sys.executable, "-c", UNLIMITED_RUNS, str(TIME_LIMIT)],
                            cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def _tree_counts(line: dict) -> tuple:
    """The counts a change of node unit leaves alone: see the module docstring."""
    pruning = dict(line["pruning"])
    distinct, duplicate = pruning.pop("distinct_label", 0), pruning.pop("weight_duplicate", 0)
    return line["nodes"] + distinct, line["nodes"] - duplicate, pruning


def compare_unlimited(name: str, old_lines: list[str], new_lines: list[str]) -> list[str]:
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(new_lines)} lines, the old revision has {len(old_lines)}"]
    errors, timed_out, trees, totals, outcome_changes, cost_changes = [], [], 0, [0, 0], 0, 0
    for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        was, now = json.loads(a), json.loads(b)
        where = f"{name}:{i}"
        if "timed-out" in (was.get("status"), now.get("status")):
            timed_out.append(f"{where}: timed out ({was['status']} -> {now['status']}), not compared")
            continue
        totals[0] += was.get("nodes", 0)
        totals[1] += now.get("nodes", 0)
        costs = ("nodes", "pruning")
        outcome = {k: v for k, v in was.items() if k not in costs} != {k: v for k, v in now.items() if k not in costs}
        outcome_changes += outcome
        cost_changes += not outcome and was != now
        if outcome:
            errors.append(f"{where}: outcome changed")
        elif "pruning" in was and "pruning" in now:
            if _tree_counts(was) != _tree_counts(now):
                errors.append(f"{where}: tree changed, {_tree_counts(was)} -> {_tree_counts(now)}")
            trees += 1
    print(f"{name}: {len(new_lines)} lines; {len(errors)} failing; {outcome_changes} outcome changes, "
          f"{cost_changes} cost-only changes; {trees} trees compared, "
          f"{len(timed_out)} timed out; node total of the rest {totals[0]:,} -> {totals[1]:,}")
    for line in timed_out:
        print(line)
    return errors


def unlimited(rev: str) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        old, new = (_start_unlimited_runs(tree) for tree in (Path(tmp), ROOT))
        runs = [proc.communicate()[0].splitlines() for proc in (old, new)]
        if old.returncode or new.returncode:
            return [f"the unlimited runs exited {old.returncode} at {rev} and {new.returncode} here"]
    errors = compare_unlimited("search_golden.jsonl", *runs)
    name = "cli_golden.jsonl"
    return errors + compare_unlimited(name, _old_lines(name, rev), (ROOT / "tests" / name).read_text().splitlines())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--unlimited", action="store_true",
                        help="run every golden search with no node limit at both revisions")
    args = parser.parse_args(argv)
    if args.unlimited:
        errors = unlimited(args.rev)
    else:
        errors = [e for name in ("search_golden.jsonl", "cli_golden.jsonl") for e in compare(name, args.rev)]
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
