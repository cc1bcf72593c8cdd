#!/usr/bin/env python
"""Benchmark: swarm event-loop throughput at city scale.

Runs the :class:`~repro.netsim.swarm.SwarmScenario` at a 500-responder
population (the mid-point of the Sect. VIII sweep) and writes
``BENCH_swarm.json``:

* **rounds/s** — wall-clock throughput of the full per-round path
  (medium synthesis -> capture -> batched classification -> anchor-slot
  decode -> localization), at ``shards=1`` and ``shards=4``;
* **identification** — id rate and median ranging error of the run
  (sanity that the benchmark measured real decodes, not empty rounds);
* **shard check** — digests of both shard counts, compared;
* **host** — ``cores`` (``os.cpu_count()``) and ``revision``: the git
  commit of the measured ``repro`` sources, suffixed ``-dirty`` when
  their ``src/`` differs from that commit;
* **before/after** (with ``--before FILE``) — the ``shards=1`` rounds/s
  of a report this script wrote at an earlier revision next to this
  run's, with both revisions, core counts and digests, and the speedup.

Gates (non-zero exit, so CI can run this as the swarm smoke job):

* any shard divergence (``shards=1`` vs ``shards=4`` digests differ),
* zero identified responders (the loop measured nothing),
* throughput below ``ROUNDS_PER_S_FLOOR`` (a collapse, not a wobble —
  CI machines vary, so the floor is deliberately conservative).

Usage::

    PYTHONPATH=src python benchmarks/bench_swarm.py
    PYTHONPATH=src python benchmarks/bench_swarm.py --quick --out /tmp/b.json
    # before/after: measure an older checkout, then this one against it
    PYTHONPATH=../old/src python benchmarks/bench_swarm.py --out before.json
    PYTHONPATH=src python benchmarks/bench_swarm.py --before before.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.experiments.swarm_scale import swarm_config
from repro.netsim.swarm import SwarmScenario

#: Conservative wall-clock floor [rounds/s]: interactive runs measure
#: ~10-15 on a laptop-class core; below 1 the loop has collapsed.
ROUNDS_PER_S_FLOOR = 1.0

N_RESPONDERS = 500
SEED = 71


def source_revision() -> str:
    """Git commit of the checkout the imported ``repro`` comes from."""
    root = Path(repro.__file__).resolve().parents[2]

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        revision = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return revision + ("-dirty" if dirty else "")


def run_benchmark(epochs: int) -> dict:
    report: dict = {
        "n_responders": N_RESPONDERS,
        "epochs": epochs,
        "seed": SEED,
        "cores": os.cpu_count(),
        "revision": source_revision(),
        "shards": {},
    }
    digests = {}
    for shards in (1, 4):
        scenario = SwarmScenario(
            swarm_config(N_RESPONDERS), seed=SEED, shards=shards
        )
        start = time.perf_counter()
        result = scenario.run(epochs)
        elapsed = time.perf_counter() - start
        digests[shards] = result.digest()
        report["shards"][str(shards)] = {
            "rounds": result.rounds,
            "polled": result.polled,
            "identified": result.identified,
            "id_rate": result.id_rate,
            "median_abs_error_m": result.median_abs_error_m,
            "coverage": result.coverage,
            "elapsed_s": elapsed,
            "rounds_per_s": result.rounds / elapsed if elapsed > 0 else 0.0,
            "digest": result.digest(),
        }
    report["shard_divergence"] = digests[1] != digests[4]
    return report


def before_after(before: dict, after: dict) -> dict:
    """``shards=1`` rounds/s of an earlier report next to this one's."""

    def side(report: dict) -> dict:
        stats = report["shards"]["1"]
        return {
            "revision": report.get("revision", "unknown"),
            "cores": report.get("cores"),
            "rounds_per_s": stats["rounds_per_s"],
            "digest": stats["digest"],
        }

    old, new = side(before), side(after)
    return {
        "shards": 1,
        "before": old,
        "after": new,
        "speedup": new["rounds_per_s"] / old["rounds_per_s"],
        "same_digest": old["digest"] == new["digest"],
    }


def evaluate_gates(report: dict) -> list:
    failures = []
    if report["shard_divergence"]:
        failures.append("shards=1 and shards=4 digests diverge")
    for shards, stats in report["shards"].items():
        if stats["identified"] == 0:
            failures.append(f"shards={shards}: zero identified responders")
        if stats["rounds_per_s"] < ROUNDS_PER_S_FLOOR:
            failures.append(
                f"shards={shards}: {stats['rounds_per_s']:.2f} rounds/s "
                f"below floor {ROUNDS_PER_S_FLOOR}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Swarm event-loop throughput benchmark "
        f"({N_RESPONDERS} responders)."
    )
    parser.add_argument(
        "--epochs", type=int, default=10, help="swarm epochs per shard count"
    )
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI smoke"
    )
    parser.add_argument(
        "--out", default="BENCH_swarm.json", metavar="FILE",
        help="write the JSON report here",
    )
    parser.add_argument(
        "--before", metavar="FILE",
        help="a report this script wrote at an earlier revision: record "
        "its shards=1 rounds/s next to this run's",
    )
    args = parser.parse_args(argv)
    epochs = min(args.epochs, 4) if args.quick else args.epochs

    report = run_benchmark(epochs)
    if args.before:
        before = json.loads(Path(args.before).read_text())
        report["before_after"] = before_after(before, report)
    failures = evaluate_gates(report)
    report["failures"] = failures

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for shards, stats in report["shards"].items():
        print(
            f"shards={shards}: {stats['rounds_per_s']:.2f} rounds/s, "
            f"id rate {stats['id_rate']:.3f}, "
            f"med |err| {stats['median_abs_error_m']:.3f} m"
        )
    if "before_after" in report:
        pair = report["before_after"]
        print(
            f"shards=1 before/after: {pair['before']['rounds_per_s']:.2f} -> "
            f"{pair['after']['rounds_per_s']:.2f} rounds/s "
            f"({pair['speedup']:.2f}x, same digest: {pair['same_digest']})"
        )
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"all gates passed; report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
