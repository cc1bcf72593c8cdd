#!/usr/bin/env python3
"""Run one workload as two interleaved sets of seeds and compare them.

From the repository root::

    python3 perfbench/repeat.py --workload swarm-1500 --seeds 1-10 --out spreads.json

The first set runs the given seeds, the second the same number of seeds
that follow them (11-20 here); runs alternate between the sets, so a
slow spell of the host falls on both.  Each run is an untraced
``perfbench/run.py`` in its own process.  For every end-to-end metric
and set the report gives the values, their median and their spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It
also gives the drift: how much worse the second set's median is than
the first's, as a share of the first.

Exits non-zero if a run failed or was incorrect, if a spread exceeds
its metric's bound in ``BENCHMARK.json``, or if a drift does.  As in
the benchmark's contract, ``setup_s`` is held to its bound by drift
only: its spread over seeds measures cold starts (imports, page cache,
forks) that the host decides more than the program does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    worse = second - first if better == "lower" else first - second
    return worse / first


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="first set, e.g. 1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, HERE)
    import run

    run.import_program()
    sets = [args.seeds, [seed + len(args.seeds) for seed in args.seeds]]
    values: List[Dict[str, List[float]]] = [{}, {}]
    ok = True
    for pair in zip(*sets):
        for which, seed in enumerate(pair):
            result = run_once(args.workload, seed, spec["run_seconds"])
            ok = ok and result["correct"]
            print(
                f"set {which + 1} seed {seed}: "
                + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True,
            )
            for name, metric in result["metrics"].items():
                values[which].setdefault(name, []).append(metric["value"])

    summary = {}
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        series = [v.get(name, []) for v in values]
        if any(len(s) < 2 for s in series):
            ok = False
            continue
        medians = [statistics.median(s) for s in series]
        spreads = [spread(s) for s in series]
        moved = drift(medians[0], medians[1], entry["better"])
        within = moved <= bound and (name == "setup_s" or max(spreads) <= bound)
        ok = ok and within
        summary[name] = {
            "bound": bound,
            "sets": [
                {"seeds": s, "values": v, "median": m, "spread": q}
                for s, v, m, q in zip(sets, series, medians, spreads)
            ],
            "drift": moved,
            "within_bound": within,
        }
        print(
            f"{name:20s} medians={medians[0]:.5g}/{medians[1]:.5g} "
            f"spreads={spreads[0]:.3f}/{spreads[1]:.3f} drift={moved:+.3f} "
            f"bound={bound} {'ok' if within else 'OVER BOUND'}"
        )
    if args.out:
        env = run.environment(args.seeds[0])
        del env["seed"]  # the seeds are per set, above
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": args.workload, "env": env, "metrics": summary},
                handle,
                indent=2,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
