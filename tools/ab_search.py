"""Time named searches at a git revision and in the working tree, in one process.

    python3 tools/ab_search.py [REV] [--rounds N] [--search NAME ...] [--json]

Extracts REV (default HEAD) with git archive into a temporary directory and
imports its src/leechlab as the package leechlab_rev, and the working tree's
as leechlab_tree, so both trees run in one interpreter. Each search first
runs once on each side, which fills that tree's node-step memo as a repeated
benchmark pass finds it; then every round times it once on each side, the
side that goes first alternating from round to round. Prints, per search,
each side's median seconds, the ratio tree / rev, how many rounds each side
won (a tie counts for neither) and the nodes each side counted; --json
prints the same, with every round's time, as one JSON document.

A single bench/run.py run on a shared machine can drift by up to half over
minutes, so one run per side cannot show a gain of a few percent. Rounds
that alternate the sides within one process see the same drift on both.

Searches (standard library only; the order-6 corpus is the working tree's):

  c10-proof      search(cycle(10), SearchConfig(max_label=15)), 10 runs a round
  c10-preset     search_family_presets("C10"): labels up to 31, label sum 85
  census-order6  census_corpus over bench/data/order6.g6, in process, 1 worker
"""

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "bench" / "data" / "order6.g6"


def c10_proof(lib):
    g, cfg = lib.families.cycle(10), lib.SearchConfig(max_label=15)
    return lambda: sum(lib.search(g, cfg).nodes_explored for _ in range(10))


def c10_preset(lib):
    return lambda: lib.search_family_presets("C10").nodes_explored


def census_order6(lib):
    lines = CORPUS.read_text(encoding="ascii").split()
    return lambda: sum(row.nodes for row in lib.census_corpus(lines))


# each search builds its inputs once per tree and returns a call that runs it
# and returns the nodes it counted
SEARCHES = {"c10-proof": c10_proof, "c10-preset": c10_preset, "census-order6": census_order6}


def load(name: str, src: Path):
    """Import the package in src/leechlab under name, submodules included."""
    package = src / "leechlab"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(run) -> tuple[float, int]:
    start = time.perf_counter()
    nodes = run()
    return time.perf_counter() - start, nodes


def compare(runs: dict, rounds: int) -> dict:
    """runs: side -> the call to time; the rounds alternate which side goes first."""
    sides = list(runs)
    nodes = {side: runs[side]() for side in sides}  # warm-up, untimed
    times = {side: [] for side in sides}
    for i in range(rounds):
        for side in sides if i % 2 == 0 else sides[::-1]:
            seconds, nodes[side] = timed(runs[side])
            times[side].append(seconds)
    rev, tree = times["rev"], times["tree"]
    median = {side: statistics.median(times[side]) for side in sides}
    return {
        "rev_median_s": median["rev"], "tree_median_s": median["tree"], "ratio": median["tree"] / median["rev"],
        "tree_won": sum(t < r for r, t in zip(rev, tree)), "rev_won": sum(r < t for r, t in zip(rev, tree)),
        "nodes": nodes, "rev_s": rev, "tree_s": tree,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--search", action="append", choices=SEARCHES, help="a search to time (default: all)")
    parser.add_argument("--json", action="store_true", help="print one JSON document, every round included")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    commit = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        libs = {"rev": load("leechlab_rev", Path(tmp) / "src"), "tree": load("leechlab_tree", ROOT / "src")}
        for name in args.search or SEARCHES:
            results[name] = compare({side: SEARCHES[name](lib) for side, lib in libs.items()}, args.rounds)
    if args.json:
        print(json.dumps({"rev": commit, "rounds": args.rounds, "searches": results}, indent=1))
        return 0
    print(f"{args.rev} ({commit}) against the working tree, {args.rounds} rounds, median seconds a round")
    for name, r in results.items():
        print(f"{name:14} rev {r['rev_median_s']:.4f}  tree {r['tree_median_s']:.4f}  tree/rev {r['ratio']:.3f}  "
              f"tree faster in {r['tree_won']}, rev in {r['rev_won']}  "
              f"nodes {r['nodes']['rev']:,} / {r['nodes']['tree']:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
