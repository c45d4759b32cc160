#!/usr/bin/env python3
"""Rebuild bench/data/reference.json from the current leechlab.

The reference pins what the gates compare against: the census verdict of
every order-6 graph and the digest of the geodesic sweep's classify weight
multisets. Regenerate it only when a change is meant to alter those results,
and review the diff: the census totals must stay 90 leech, 20 almost and
2 neither, and no verdict may be timeout or error.

    python3 bench/make_reference.py
"""

import collections
import importlib
import json

import workloads


def main():
    leechlab = workloads.import_leechlab()
    lines = workloads.read_corpus()
    rows = workloads.census_cli(workloads.Inputs(2, {}, corpus=lines), 2)[:-1]
    verdicts = {lines[row["index"]]: row["verdict"] for row in rows}
    totals = collections.Counter(verdicts.values())
    if dict(totals) != workloads.CENSUS_TOTALS:
        raise SystemExit(f"census totals {dict(totals)}, expected {workloads.CENSUS_TOTALS}")
    families = importlib.import_module("leechlab.families")
    weights = {
        name: leechlab.classify(g, tuple(range(1, g.edge_count + 1))).weight_multiset
        for name, g, _, _ in workloads.build_sweep(families)
    }
    reference = {
        "census-order6": {"verdicts": dict(sorted(verdicts.items()))},
        "geodesic-sweep": {"weights_sha256": workloads.sweep_digest(weights)},
    }
    path = workloads.DATA / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}: census {dict(totals)}")


if __name__ == "__main__":
    main()
