#!/usr/bin/env python3
"""Rebuild the order-6 benchmark corpus and its manifest.

Writes bench/data/order6.g6, every connected graph on 6 vertices once per
isomorphism class (112 graphs), in the order of networkx.graph_atlas_g(),
one graph6 line each, and pins its sha256 and count in
bench/data/manifest.json. Needs networkx; the benchmark itself only reads
the committed files and checks them against the manifest.

    python3 bench/make_corpus.py
"""

import hashlib
import json
from pathlib import Path

import networkx as nx

DATA = Path(__file__).resolve().parent / "data"
CORPUS = "order6.g6"
EXPECTED_COUNT = 112


def order6_lines():
    graphs = [
        g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6 and nx.is_connected(g)
    ]
    return [nx.to_graph6_bytes(g, header=False).decode("ascii").strip() for g in graphs]


def main():
    lines = order6_lines()
    if len(lines) != EXPECTED_COUNT or len(set(lines)) != EXPECTED_COUNT:
        raise SystemExit(f"expected {EXPECTED_COUNT} distinct graphs, got {len(lines)}")
    body = ("\n".join(lines) + "\n").encode("ascii")
    (DATA / CORPUS).write_bytes(body)
    manifest = {
        CORPUS: {
            "sha256": hashlib.sha256(body).hexdigest(),
            "count": len(lines),
            "source": "networkx.graph_atlas_g(), connected graphs on 6 vertices",
        }
    }
    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(lines)} graphs to {DATA / CORPUS}")


if __name__ == "__main__":
    main()
