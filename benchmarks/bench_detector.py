#!/usr/bin/env python
"""Benchmark: spectrum-cached FFT detection engine vs the naive loop.

Times the search-and-subtract detector's execution engines on the
repository's hot workloads and writes ``BENCH_detector.json``:

* **table1** — the Table I / Fig. 4 shape: a 4-template bank, a
  1016-tap CIR, 8x upsampling, 4 extraction iterations.
* **fig7** — the overlap-study shape: a single template, 2 iterations.
* **batched** — 64 table1-shaped CIRs through
  :func:`repro.core.batch.detect_batch` at batch sizes 1, 8 and 64,
  compared against the serial fast path (one detect per CIR).
* **classifier** — the same 64 CIRs through the batched pulse-shape
  identification engine (:func:`repro.core.batch_id.classify_batch`) at
  batch sizes 1, 8 and 64, cold (plan build included) and warm,
  compared against serial
  :meth:`~repro.core.pulse_id.PulseShapeClassifier.classify` calls.
* **parallel_plan_reuse** — a ``run_trials(workers=2)`` sweep measuring
  the ``detector_plans`` cache hit rate across worker processes.

Every trial is detected with *both* engines and the results are compared
at ``rtol=1e-9``; any divergence (detection *or* classification) — or a
warm B=64 batched detection pass missing its throughput SLO (speedup
floor of 2.0x vs the serial fast path on multicore hosts, 1.5x on a
single core; plus an absolute 250 detections/s/core floor), or a B=64
batched classification run slower than 1.2x its serial reference, or a
worker-side plan-cache hit rate below 95 % — makes the script exit
non-zero, so CI can run it as a cheap end-to-end regression gate
(``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_detector.py
    PYTHONPATH=src python benchmarks/bench_detector.py --quick --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import detect_batch
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.runtime import MetricsRegistry, run_trials
from repro.runtime.cache import clear_all_caches, get_cache, template_bank
from repro.runtime.metrics import global_metrics
from repro.signal.sampling import place_pulse
from repro.signal.templates import PAPER_REGISTERS, TemplateBank

RTOL = 1e-9

#: Throughput SLO: the warm B=64 batched pass must *beat* the serial
#: fast path by at least this factor on multicore hosts, where the
#: row-parallel transforms (``workers=-1``) have cores to spread
#: across.
BATCH_SPEEDUP_FLOOR = 2.0

#: On a single-core host the batched win comes only from amortised
#: Python/FFT-dispatch overhead (no transform parallelism), so the
#: speedup floor is lower — but still a *speedup*, never parity.
SINGLE_CORE_SPEEDUP_FLOOR = 1.5

#: Absolute throughput SLO: warm B=64 table1-shaped detections per
#: second per core.  Catches "both paths got slower together", which a
#: relative speedup gate is blind to.
MIN_DETECTS_PER_S_PER_CORE = 250.0

#: Same gate for the batched classifier: the warm B=64 pass must stay
#: within 20 % of the serial classify loop (and should beat it).
CLASSIFIER_REGRESSION_FACTOR = 1.2

#: Minimum acceptable per-worker ``detector_plans`` hit rate in the
#: parallel executor: each worker builds the plan at most once.
MIN_PLAN_HIT_RATE = 0.95


def make_cirs(rng, n_trials, cir_length, bank, n_responses, noise_std):
    """Synthetic concurrent-ranging CIRs: pulses at random positions."""
    cirs = []
    margin = 16.0
    for _ in range(n_trials):
        cir = np.zeros(cir_length, dtype=complex)
        positions = np.sort(
            rng.uniform(margin, cir_length - margin, size=n_responses)
        )
        for k, position in enumerate(positions):
            template = bank[int(rng.integers(len(bank)))]
            amplitude = rng.uniform(0.4, 1.0) * np.exp(
                2j * np.pi * rng.random()
            )
            place_pulse(
                cir,
                template.samples.astype(complex),
                position,
                amplitude=amplitude,
                peak_index=template.peak_index,
            )
        cir += noise_std * (
            rng.standard_normal(cir_length)
            + 1j * rng.standard_normal(cir_length)
        ) / np.sqrt(2.0)
        cirs.append(cir)
    return cirs


def responses_equal(fast, naive):
    """The fast engine's detections must match the naive engine's."""
    if len(fast) != len(naive):
        return False
    for f, n in zip(fast, naive):
        if f.template_index != n.template_index:
            return False
        if not np.isclose(f.index, n.index, rtol=RTOL, atol=1e-9):
            return False
        if not np.isclose(f.amplitude, n.amplitude, rtol=RTOL, atol=1e-12):
            return False
        if not np.allclose(f.scores, n.scores, rtol=RTOL, atol=1e-12):
            return False
    return True


def classified_equal(batched, serial):
    """The batched classifier's outputs must match the serial ones."""
    if len(batched) != len(serial):
        return False
    for b, s in zip(batched, serial):
        if b.shape_index != s.shape_index:
            return False
        if np.isinf(b.confidence) or np.isinf(s.confidence):
            if b.confidence != s.confidence:
                return False
        elif not np.isclose(b.confidence, s.confidence, rtol=RTOL, atol=1e-12):
            return False
        if not responses_equal([b.response], [s.response]):
            return False
    return True


def bench_workload(name, bank, cirs, config, noise_std):
    """Time both engines over the trial set; verify equivalence."""
    fast_detector = SearchAndSubtract(bank, config)
    naive_detector = SearchAndSubtract(
        bank,
        SearchAndSubtractConfig(
            max_responses=config.max_responses,
            upsample_factor=config.upsample_factor,
            min_peak_snr=config.min_peak_snr,
            refine_subsample=config.refine_subsample,
            use_fast=False,
        ),
    )

    t0 = time.perf_counter()
    naive_results = [
        naive_detector.detect(cir, TS, noise_std=noise_std) for cir in cirs
    ]
    naive_s = time.perf_counter() - t0

    # The fast timing includes the one-off plan build: that is what a
    # Monte-Carlo run actually pays, amortised over its trials.
    t0 = time.perf_counter()
    fast_results = [
        fast_detector.detect(cir, TS, noise_std=noise_std) for cir in cirs
    ]
    fast_s = time.perf_counter() - t0

    divergences = sum(
        0 if responses_equal(f, n) else 1
        for f, n in zip(fast_results, naive_results)
    )
    return {
        "workload": name,
        "trials": len(cirs),
        "n_templates": len(list(bank)),
        "cir_length": len(cirs[0]),
        "upsample_factor": config.upsample_factor,
        "max_responses": config.max_responses,
        "naive_s": naive_s,
        "fast_s": fast_s,
        "speedup": naive_s / fast_s if fast_s > 0 else float("inf"),
        "naive_ms_per_detect": 1e3 * naive_s / len(cirs),
        "fast_ms_per_detect": 1e3 * fast_s / len(cirs),
        "divergences": divergences,
    }


def bench_batched(
    bank, config, noise_std, rng, batch_sizes=(1, 8, 64), n_trials=64
):
    """Time cross-trial batched detection against the serial fast path.

    The serial reference detects the same ``n_trials`` CIRs one at a
    time through the (already fast) spectrum-cached engine; each batched
    pass splits them into groups of B and runs one
    :func:`~repro.core.batch.detect_batch` call per group.  Per-trial
    results must match the serial reference at ``rtol=1e-9``.
    """
    cirs = np.stack(make_cirs(rng, n_trials, 1016, bank, 4, noise_std))
    detector = SearchAndSubtract(bank, config)

    # Same noise discipline as the batched side: the reference is the
    # fastest of three serial sweeps (the first also warms the plan).
    serial_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        serial_results = [
            detector.detect(cirs[b], TS, noise_std=noise_std)
            for b in range(n_trials)
        ]
        serial_s = min(serial_s, time.perf_counter() - t0)

    rows = []
    for batch_size in batch_sizes:
        def _pass():
            batched_results = []
            for start in range(0, n_trials, batch_size):
                batched_results.extend(
                    detect_batch(
                        cirs[start:start + batch_size],
                        bank,
                        TS,
                        config,
                        noise_std=noise_std,
                    )
                )
            return batched_results

        # Cold pass pays the one-off batch-plan build (scratch buffer
        # allocation); the warm passes are the steady state a
        # Monte-Carlo run amortises to.  The SLO gate judges the
        # *fastest* of three warm passes — a single pass is exposed to
        # scheduler noise that has nothing to do with the engine.
        t0 = time.perf_counter()
        batched_results = _pass()
        cold_s = time.perf_counter() - t0
        # Split each warm pass into its two engine stages via the
        # engine's own timers (filter-bank transforms vs vectorised
        # search-and-subtract extraction).
        metrics = global_metrics()
        filter_timer = metrics.timer("detector.batch_filter_pass")
        extract_timer = metrics.timer("detector.batch_extract")
        batched_s = filter_s = extract_s = float("inf")
        for _ in range(3):
            filter_before = filter_timer.total_s
            extract_before = extract_timer.total_s
            t0 = time.perf_counter()
            batched_results = _pass()
            warm_s = time.perf_counter() - t0
            if warm_s < batched_s:
                batched_s = warm_s
                filter_s = filter_timer.total_s - filter_before
                extract_s = extract_timer.total_s - extract_before

        divergences = sum(
            0 if responses_equal(batched, serial) else 1
            for batched, serial in zip(batched_results, serial_results)
        )
        rows.append(
            {
                "batch_size": batch_size,
                "cold_s": cold_s,
                "batched_s": batched_s,
                "filter_pass_s": filter_s,
                "batch_extract_s": extract_s,
                "ms_per_detect": 1e3 * batched_s / n_trials,
                "speedup_vs_serial_fast": (
                    serial_s / batched_s if batched_s > 0 else float("inf")
                ),
                "divergences": divergences,
            }
        )
    return {
        "workload": "table1",
        "trials": n_trials,
        "cir_length": int(cirs.shape[1]),
        "serial_fast_s": serial_s,
        "serial_fast_ms_per_detect": 1e3 * serial_s / n_trials,
        "batches": rows,
    }


def bench_classifier(
    bank, config, noise_std, rng, batch_sizes=(1, 8, 64), n_trials=64
):
    """Time the batched pulse-shape identification engine.

    The serial reference classifies the same ``n_trials`` CIRs one at a
    time through :class:`~repro.core.pulse_id.PulseShapeClassifier`;
    each batched pass splits them into groups of B and runs one
    :func:`~repro.core.batch_id.classify_batch` call per group.
    Per-trial classifications must match the serial reference at
    ``rtol=1e-9``.
    """
    cirs = np.stack(
        make_cirs(rng, n_trials, 1016, bank, config.max_responses, noise_std)
    )
    classifier = PulseShapeClassifier(bank, config)

    t0 = time.perf_counter()
    serial_results = [
        classifier.classify(cirs[b], TS, noise_std=noise_std)
        for b in range(n_trials)
    ]
    serial_s = time.perf_counter() - t0

    rows = []
    for batch_size in batch_sizes:
        def _pass():
            batched_results = []
            for start in range(0, n_trials, batch_size):
                batched_results.extend(
                    classify_batch(
                        cirs[start:start + batch_size],
                        bank,
                        TS,
                        config,
                        noise_std=noise_std,
                    )
                )
            return batched_results

        # Cold pass pays the one-off classifier-plan build; the warm
        # pass is the Monte-Carlo steady state the regression gate
        # judges.
        t0 = time.perf_counter()
        batched_results = _pass()
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched_results = _pass()
        batched_s = time.perf_counter() - t0

        divergences = sum(
            0 if classified_equal(batched, serial) else 1
            for batched, serial in zip(batched_results, serial_results)
        )
        rows.append(
            {
                "batch_size": batch_size,
                "cold_s": cold_s,
                "batched_s": batched_s,
                "ms_per_classify": 1e3 * batched_s / n_trials,
                "speedup_vs_serial": (
                    serial_s / batched_s if batched_s > 0 else float("inf")
                ),
                "divergences": divergences,
            }
        )
    return {
        "workload": "table1",
        "trials": n_trials,
        "cir_length": int(cirs.shape[1]),
        "n_templates": len(list(bank)),
        "serial_s": serial_s,
        "serial_ms_per_classify": 1e3 * serial_s / n_trials,
        "batches": rows,
    }


def _plan_reuse_trial(rng, index):
    """One table1-shaped detect; exercises worker-side plan reuse."""
    bank = template_bank(PAPER_REGISTERS)
    cir = make_cirs(rng, 1, 1016, bank, 4, 1e-3)[0]
    detector = SearchAndSubtract(
        bank, SearchAndSubtractConfig(max_responses=4, upsample_factor=8)
    )
    return len(detector.detect(cir, TS, noise_std=1e-3))


def bench_plan_reuse(trials=60, workers=2):
    """Measure the ``detector_plans`` hit rate across pool workers.

    Caches are cleared first, so each worker process pays exactly one
    plan build (its first trial) and every subsequent trial in that
    worker is a hit — the hit rate floor is ``1 - workers / trials``.
    Worker-side hits/misses travel back as cache deltas on the shared
    metrics registry.
    """
    clear_all_caches()
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    report = run_trials(
        _plan_reuse_trial, trials, seed=2018, workers=workers,
        metrics=metrics,
    )
    elapsed_s = time.perf_counter() - t0
    hits = metrics.counter("cache.detector_plans.hits").value
    misses = metrics.counter("cache.detector_plans.misses").value
    total = hits + misses
    return {
        "trials": trials,
        "workers": workers,
        "elapsed_s": elapsed_s,
        "trials_per_s": report.trials_per_s,
        "fallback_reason": report.run.fallback_reason,
        "detector_plans_hits": hits,
        "detector_plans_misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer trials (same equivalence checking)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_detector.json",
        help="output JSON path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    trials = 16 if args.quick else 60
    rng = np.random.default_rng(2018)
    clear_all_caches()

    bank4 = TemplateBank.paper_bank(4)
    bank1 = TemplateBank.paper_bank(1)
    workloads = [
        (
            "table1",
            bank4,
            make_cirs(rng, trials, 1016, bank4, 4, 1e-3),
            SearchAndSubtractConfig(max_responses=4, upsample_factor=8),
            1e-3,
        ),
        (
            "fig7",
            bank1,
            make_cirs(rng, trials, 1016, bank1, 2, 1e-3),
            SearchAndSubtractConfig(max_responses=2, upsample_factor=8),
            1e-3,
        ),
    ]

    results = []
    for name, bank, cirs, config, noise_std in workloads:
        result = bench_workload(name, bank, cirs, config, noise_std)
        results.append(result)
        print(
            f"{name:>8}: naive {result['naive_ms_per_detect']:.1f} ms/detect, "
            f"fast {result['fast_ms_per_detect']:.1f} ms/detect, "
            f"speedup {result['speedup']:.2f}x, "
            f"divergences {result['divergences']}/{result['trials']}"
        )

    batched = bench_batched(
        bank4,
        SearchAndSubtractConfig(max_responses=4, upsample_factor=8),
        1e-3,
        rng,
    )
    for row in batched["batches"]:
        print(
            f"batched B={row['batch_size']:>2}: "
            f"{row['ms_per_detect']:.2f} ms/detect "
            f"(filter {1e3 * row['filter_pass_s'] / batched['trials']:.2f} "
            f"+ extract "
            f"{1e3 * row['batch_extract_s'] / batched['trials']:.2f}), "
            f"{row['speedup_vs_serial_fast']:.2f}x vs serial fast, "
            f"divergences {row['divergences']}/{batched['trials']}"
        )

    classifier = bench_classifier(
        bank4,
        SearchAndSubtractConfig(max_responses=4, upsample_factor=8),
        1e-3,
        rng,
    )
    for row in classifier["batches"]:
        print(
            f"classifier B={row['batch_size']:>2}: "
            f"{row['ms_per_classify']:.2f} ms/classify, "
            f"{row['speedup_vs_serial']:.2f}x vs serial, "
            f"divergences {row['divergences']}/{classifier['trials']}"
        )

    hits, misses = get_cache("detector_plans").snapshot()
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    metrics = global_metrics()
    counters = {
        "fast_detects": metrics.counter("detector.fast_detects").value,
        "naive_detects": metrics.counter("detector.naive_detects").value,
        "incremental_updates": metrics.counter(
            "detector.incremental_updates"
        ).value,
        "batch_detects": metrics.counter("detector.batch_detects").value,
        "batch_trials": metrics.counter("detector.batch_trials").value,
        "batch_classifies": metrics.counter(
            "classifier.batch_classifies"
        ).value,
        "classifier_batch_trials": metrics.counter(
            "classifier.batch_trials"
        ).value,
    }

    # Last: this section clears the caches to force worker-side builds.
    plan_reuse = bench_plan_reuse()
    print(
        f"parallel plan reuse ({plan_reuse['workers']} workers, "
        f"{plan_reuse['trials']} trials): detector_plans hit rate "
        f"{plan_reuse['hit_rate']:.1%}"
    )

    cpu_count = os.cpu_count() or 1
    speedup_floor = (
        BATCH_SPEEDUP_FLOOR if cpu_count >= 2 else SINGLE_CORE_SPEEDUP_FLOOR
    )
    b64 = next(
        row for row in batched["batches"] if row["batch_size"] == 64
    )
    detects_per_s = (
        batched["trials"] / b64["batched_s"]
        if b64["batched_s"] > 0
        else float("inf")
    )
    slo = {
        "cpu_count": cpu_count,
        "speedup_floor": speedup_floor,
        "b64_speedup": b64["speedup_vs_serial_fast"],
        "detects_per_s": detects_per_s,
        "detects_per_s_per_core": detects_per_s / cpu_count,
        "min_detects_per_s_per_core": MIN_DETECTS_PER_S_PER_CORE,
    }
    print(
        f"throughput SLO ({cpu_count} core(s)): "
        f"B=64 speedup {slo['b64_speedup']:.2f}x (floor "
        f"{speedup_floor:.1f}x), "
        f"{slo['detects_per_s_per_core']:.0f} detects/s/core (floor "
        f"{MIN_DETECTS_PER_S_PER_CORE:.0f})"
    )

    report = {
        "benchmark": "detector",
        "quick": bool(args.quick),
        "workloads": results,
        "batched": batched,
        "classifier": classifier,
        "parallel_plan_reuse": plan_reuse,
        "plan_cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hit_rate,
        },
        "counters": counters,
        "slo": slo,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"plan cache hit rate: {hit_rate:.1%} ({hits} hits / {misses} misses)")
    print(f"wrote {out_path}")

    failed = False
    total_divergences = (
        sum(r["divergences"] for r in results)
        + sum(row["divergences"] for row in batched["batches"])
        + sum(row["divergences"] for row in classifier["batches"])
    )
    if total_divergences:
        print(
            f"ERROR: {total_divergences} engine divergences",
            file=sys.stderr,
        )
        failed = True
    if b64["speedup_vs_serial_fast"] < speedup_floor:
        print(
            f"ERROR: warm B=64 batched speedup "
            f"{b64['speedup_vs_serial_fast']:.2f}x below the "
            f"{speedup_floor:.1f}x floor for {cpu_count} core(s)",
            file=sys.stderr,
        )
        failed = True
    if slo["detects_per_s_per_core"] < MIN_DETECTS_PER_S_PER_CORE:
        print(
            f"ERROR: warm B=64 throughput "
            f"{slo['detects_per_s_per_core']:.0f} detects/s/core below "
            f"the {MIN_DETECTS_PER_S_PER_CORE:.0f} floor",
            file=sys.stderr,
        )
        failed = True
    c64 = next(
        row for row in classifier["batches"] if row["batch_size"] == 64
    )
    if c64["batched_s"] > CLASSIFIER_REGRESSION_FACTOR * classifier["serial_s"]:
        print(
            f"ERROR: B=64 batched classifier pass took "
            f"{c64['batched_s']:.3f}s, over "
            f"{CLASSIFIER_REGRESSION_FACTOR}x the serial classify loop "
            f"({classifier['serial_s']:.3f}s)",
            file=sys.stderr,
        )
        failed = True
    if plan_reuse["hit_rate"] < MIN_PLAN_HIT_RATE:
        print(
            f"ERROR: worker-side detector_plans hit rate "
            f"{plan_reuse['hit_rate']:.1%} below {MIN_PLAN_HIT_RATE:.0%}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
