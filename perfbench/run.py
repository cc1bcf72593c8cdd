#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload swarm-1500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1 \\
        --out perfbench/results/run.json

A single-workload run prints each metric by name with its unit and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload in its own process (untraced, then traced when
``--trace 1``), states the tracing overhead, and writes the combined
report to ``--out``.  The exit code is non-zero when any correctness
check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads: the benchmark, not the
# library, chooses how many threads run.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swarm-1500", "serve-inproc", "serve-fleet")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> Dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"missing {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    Refuses to run against any other copy of the package, so a checkout
    without its sources fails instead of measuring something else.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"no program sources under {src}")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        _fail(f"imported repro from {repro.__file__}, not {src}")


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench_digest() -> str:
    """SHA-256 over ``BENCHMARK.json`` and the benchmark's sources.

    Names the benchmark code a report came from, also when the checkout
    is uncommitted or not a git repository.
    """
    digest = hashlib.sha256()
    names = ["BENCHMARK.json"] + sorted(
        os.path.join("perfbench", name) for name in os.listdir(HERE) if name.endswith(".py")
    )
    for name in names:
        digest.update(name.encode())
        with open(os.path.join(ROOT, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(seed: int) -> Dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": git_revision(),
        "bench_sha256": bench_digest(),
        "seed": seed,
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus its forked workers [MB].

    Workers are counted as ``workers`` times the largest reaped child,
    so pages they share copy-on-write with the parent count twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * children) / 1024.0


def run_workload(args: argparse.Namespace, spec: Dict) -> int:
    import_program()
    env = environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads_env"))
    out_dir = args.spans_dir
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    if args.workload == "swarm-1500":
        import swarm_workload

        report = swarm_workload.run(args.seed, args.seconds, bool(args.trace), out_dir)
    else:
        import serve_workload

        report = serve_workload.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)

    workers = report.pop("workers", 0)
    export = report.pop("trace_export", None)
    report["details"]["peak_rss_mb"] = peak_rss_mb(workers)
    if args.trace:
        wanted = spec["per_layer"]
        values = dict(report["per_layer"], **{"process.peak_rss_mb": report["details"]["peak_rss_mb"]})
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(export, handle, default=repr)
        print(f"spans: {path} (+{report.pop('worker_exports', 0)} worker files)")
    else:
        wanted = spec["end_to_end"]
        values = report["end_to_end"]

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        if not isinstance(value, (int, float)) or math.isnan(value):
            raise ValueError(f"metric {entry['name']} is not a number: {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    for name, ok in report["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(report["checks"].values())
    print(f"details: {json.dumps(report['details'], default=repr)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": args.workload, "trace": args.trace, "env": env, "metrics": metrics, **report},
                handle,
                indent=2,
                default=repr,
            )
    print(
        json.dumps(
            {"correct": correct, "attempted": int(report["attempted"]), "failed": int(report["failed"]), "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _child(args: argparse.Namespace, workload: str, trace: int) -> Optional[Dict]:
    """Run one workload in its own process; its report, or None on failure."""
    out = os.path.join(args.spans_dir, f"report-{workload}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--spans-dir", args.spans_dir, "--out", out,
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(completed.stderr)
    if not os.path.isfile(out):
        print(f"{workload} (trace {trace}) exited {completed.returncode} without a report")
        return None
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    report["exit_code"] = completed.returncode
    return report


def run_all(args: argparse.Namespace) -> int:
    import_program()
    os.makedirs(args.spans_dir, exist_ok=True)
    env = environment(args.seed)
    combined: Dict = {"env": env, "seconds": args.seconds, "workloads": {}}
    correct = True
    attempted = failed = 0
    flat: Dict[str, Dict] = {}
    for workload in WORKLOADS:
        entry: Dict = {}
        for trace in ((0, 1) if args.trace else (0,)):
            report = _child(args, workload, trace)
            if report is None or report["exit_code"] != 0:
                correct = False
            if report is None:
                continue
            entry["traced" if trace else "untraced"] = report
            attempted += report["attempted"]
            failed += report["failed"]
            print(f"[{workload}] {'traced' if trace else 'untraced'}")
            for name, metric in report["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
                flat[f"{workload}/{name}"] = metric
        if "untraced" in entry and "traced" in entry:
            plain = entry["untraced"]["metrics"]["throughput_per_s"]["value"]
            traced = entry["traced"]["metrics"]["trace.throughput_per_s"]["value"]
            entry["tracing_overhead"] = {
                "untraced_throughput_per_s": plain,
                "traced_throughput_per_s": traced,
                "difference_per_s": traced - plain,
                "share": 1.0 - traced / plain,
            }
            print(f"  tracing overhead: {100.0 * (1.0 - traced / plain):.1f} % of throughput")
        combined["workloads"][workload] = entry
    combined["correct"] = correct
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=2, default=repr)
        print(f"report: {args.out}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": flat}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full report (JSON) here")
    parser.add_argument(
        "--spans-dir", default=os.path.join(HERE, "out"),
        help="where traced runs write their spans",
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
