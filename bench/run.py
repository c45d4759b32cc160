#!/usr/bin/env python3
"""leechlab benchmark: one workload, timed, checked, one JSON result line.

    python3 bench/run.py --workload c10-proof --seed 1 --seconds 30 --trace 0

--trace 0 repeats untraced passes of the workload for about --seconds and
reports the end-to-end metrics (medians over passes). --trace 1 makes one
untraced pass at the workload's own worker count, one untraced and one traced
pass in a single process, and reports the per-layer metrics; spans go to
bench/.out/<workload>.spans.jsonl.gz, and on c10-proof a cProfile top-20 goes
to bench/.out/c10-proof.profile.txt. Every pass goes through the correctness
gate; on any mismatch the run prints the reason on stderr, prints no result
and exits 1. See bench/README.md for the metrics and why each workload is
there.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time

import workloads
from spans import LAYERS, Tracer, layer_calls, layer_metrics

OUT = workloads.BENCH / ".out"
# set-up probes after every pass, so that setup_s samples the machine over
# the whole run like wall_s does, not in one burst
SETUP_PROBES = 3

# the workloads, each with the layers that must record calls in its traced
# pass: a rename that silently zeroes one of them fails the run
EXPECTED_LAYERS = {
    "c10-proof": {"search", "graph", "formulas"},
    "c10-proof-2w": {"search", "graph", "formulas"},
    "census-order6": set(LAYERS),
    "geodesic-sweep": {"graph", "formulas", "labeling"},
}


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def timed_pass(inp, workers: int, in_process: bool = False) -> tuple[float, float, int, int]:
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    attempted, failed = workloads.run_pass(inp, workers, in_process)
    return time.perf_counter() - t0, cpu_seconds() - cpu0, attempted, failed


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, each importing cold."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise workloads.GateError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def measure(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics: medians over untraced passes, for about `seconds`."""
    inp = workloads.setup(name, seed)
    walls, cpus, setup, attempted, failed = [], [], [], 0, 0
    peak = None
    start = time.perf_counter()
    while True:
        wall, cpu, a, f = timed_pass(inp, inp.workers)
        walls.append(wall)
        cpus.append(cpu)
        attempted, failed = attempted + a, failed + f
        if peak is None:
            peak = peak_rss_mb()  # before the set-up probes add children of their own
        setup += setup_samples(name, seed)
        # start another pass only if it should end within the budget
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    print(f"{name}: {len(walls)} passes, wall {[round(w, 3) for w in walls]}, setup {[round(s, 4) for s in setup]}",
          file=sys.stderr)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }
    return metrics, attempted, failed


def profile_c10(inp) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workloads.run_pass(inp, 1)
    finally:
        profiler.disable()
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("tottime").print_stats(20)
    stats.sort_stats("cumulative").print_stats(20)
    (OUT / "c10-proof.profile.txt").write_text(text.getvalue())


def measure_traced(name: str, seed: int) -> tuple[dict, int, int]:
    """Per-layer metrics from one traced single-process pass."""
    inp = workloads.setup(name, seed)
    wall, cpu, attempted, failed = timed_pass(inp, inp.workers)
    cpu_util = cpu / (wall * inp.workers)
    if inp.workers > 1:
        wall, _, a, f = timed_pass(inp, 1, in_process=True)
        attempted, failed = attempted + a, failed + f
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, a, f = timed_pass(inp, 1, in_process=True)
    finally:
        tracer.uninstall()
    attempted, failed = attempted + a, failed + f
    calls = layer_calls(tracer.spans)
    silent = sorted(layer for layer in EXPECTED_LAYERS[name] if not calls[layer])
    if silent:
        raise workloads.GateError(f"traced pass recorded no calls into {silent}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}.spans.jsonl.gz")
    if name == "c10-proof":
        profile_c10(inp)
    metrics = layer_metrics(tracer.spans)
    metrics["pool.cpu_util"] = cpu_util
    metrics["trace.overhead_s"] = traced_wall - wall
    print(f"{name}: traced {traced_wall:.3f} s, untraced {wall:.3f} s, {len(tracer.spans)} spans", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=EXPECTED_LAYERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the seconds it took (used by the setup_s samples)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    try:
        if args.trace:
            metrics, attempted, failed = measure_traced(args.workload, args.seed)
        else:
            metrics, attempted, failed = measure(args.workload, args.seed, args.seconds)
    except workloads.GateError as exc:
        print(f"FAILED {args.workload}: {exc}", file=sys.stderr)
        return 1
    units = declared_units()
    for key, value in metrics.items():
        print(f"{key:36s} {value:>16.6f} {units[key]}")
    print(f"{'failed_frac':36s} {failed / attempted:>16.6f} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
