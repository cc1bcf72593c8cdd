"""``swarm-1500``: the paper's Sect. VIII operating point, one process.

``SwarmScenario(swarm_config(1500), shards=1)`` runs scheduling beats
(every node moves, two initiators each poll up to 12 in-range
responders, their CIRs are rendered, captured, batch-classified,
decoded and turned into position fixes) as fast as it can.  It is the
one workload where CIR synthesis and batched extraction split the work
and ``repro.serve`` does none.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from typing import Dict, Optional

import numpy as np
from repro.experiments.swarm_scale import swarm_config
from repro.netsim.swarm import SwarmScenario
from repro.runtime.cache import clear_all_caches

from benchstats import quantile
from benchtrace import Patches, Tracer
import layers

N_RESPONDERS = 1500
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Beats every run measures at least: enough for a p90 with ten beats
#: beyond it, and the fixed prefix the quality figures come from (so
#: they depend on the seed alone, never on how fast the host is).
MIN_BEATS = 100
#: A run that cannot reach MIN_BEATS stops after this many seconds.
MAX_RUN_S = 150.0
#: Share of the traced wall time the layer self times may leave
#: unaccounted (the benchmark loop itself, between beats).  This checks
#: the span arithmetic only: on one thread the self times of a span tree
#: always add up to its root's duration.
UNATTRIBUTED_TOLERANCE = 0.02
#: Largest share of the traced wall time the residual spans may hold:
#: the self time of ``SwarmScenario.run`` (whatever its wrapped children
#: leave over) plus that of the benchmark's root span.  Work that no
#: wrapper covers lands there, so a layer that is no longer wrapped
#: shows as a jump past this bound.  It reads about 0.03 (2.6 ms per
#: round of scheduling at 10 rounds/s); CIR render alone is above 0.4.
RESIDUAL_TOLERANCE = 0.10


def _setup(seed: int):
    """One cold set-up: empty caches, build the scenario, run one beat."""
    clear_all_caches()
    started = time.perf_counter()
    scenario = SwarmScenario(swarm_config(N_RESPONDERS), seed=seed, shards=1)
    warm = scenario.run(1)
    return time.perf_counter() - started, scenario, warm.digest()


def run(seed: int, seconds: float, trace: bool, out_dir: Optional[str]) -> Dict:
    setups = [_setup(seed) for _ in range(SETUPS)]
    digests = {digest for _, _, digest in setups}
    scenario = setups[-1][1]
    setup_s = statistics.median(elapsed for elapsed, _, _ in setups)
    del setups

    tracer = Tracer()
    patches = Patches()
    if trace:
        layers.install(patches, tracer, out_dir)
    beats = []  # (wall seconds, SwarmResult) per beat
    failed_beats = 0
    # Exempt the set-up heap from collection (see README, "Set-up").
    gc.collect()
    gc.freeze()
    with patches:
        started = time.perf_counter()
        deadline = started + seconds
        while True:
            now = time.perf_counter()
            if (len(beats) >= MIN_BEATS and now >= deadline) or now - started >= MAX_RUN_S:
                break
            tracer.key = len(beats) + failed_beats
            root = tracer.open(layers.ROOT) if trace else None
            try:
                result = scenario.run(1)
            except Exception:  # a raising round fails its beat, not the run
                traceback.print_exc()
                failed_beats += 1
                continue
            finally:
                if root is not None:
                    tracer.close(root)
            beats.append((time.perf_counter() - now, result))
        wall = time.perf_counter() - started
    gc.unfreeze()

    results = [result for _, result in beats]
    quality = results[:MIN_BEATS]
    polled = sum(r.polled for r in quality)
    identified = sum(r.identified for r in quality)
    errors = [abs(e) for r in quality for e in r.errors_m]
    rounds = sum(r.rounds for r in results)
    empty = sum(r.empty_rounds for r in results)
    n_concurrent = scenario.config.n_concurrent
    attempted = rounds + empty + failed_beats * n_concurrent
    id_rate = identified / polled if polled else 0.0
    beat_ms = [1e3 * elapsed for elapsed, _ in beats]

    checks = {
        "digest_repeats": len(digests) == 1,
        "id_rate_positive": id_rate > 0.0,
        "min_beats_reached": len(quality) == MIN_BEATS,
    }
    report = {
        "checks": checks,
        "attempted": attempted,
        "failed": failed_beats * n_concurrent,
        "end_to_end": {
            "throughput_per_s": rounds / wall,
            "id_rate": id_rate,
            "setup_s": setup_s,
        },
        "details": {
            "beats": len(beats),
            "rounds": rounds,
            "empty_rounds": empty,
            "wall_s": wall,
            "quality_beats": len(quality),
            "polled": polled,
            "identified": identified,
            "median_err_m": float(np.median(errors)) if errors else float("nan"),
            "digest": next(iter(digests)) if len(digests) == 1 else sorted(digests),
        },
    }
    if trace:
        export = tracer.export()
        per_layer = layers.summarize([export], (started, started + wall), rounds)
        unattributed = 1.0 - per_layer.pop("trace.layer_self_s") / wall
        root_self = per_layer.pop("trace.root_self_s")
        residual = (per_layer["netsim.swarm.schedule.self_s"] * rounds + root_self) / wall
        per_layer.update(
            {
                "netsim.swarm.empty_round_frac": empty / (rounds + empty) if rounds + empty else 0.0,
                # The serving stack does no work on this workload.
                "serve.rejected_frac": 0.0,
                "serve.hop_ms_p50": 0.0,
                "serve.slo_rate_rps": 0.0,
                "latency.p50_ms": quantile(beat_ms, 0.5),
                "latency.p90_ms": quantile(beat_ms, 0.9),
                "serve.p99_ms": 0.0,
                "loadgen.late_ms_p99": 0.0,
                "quality.median_err_m": report["details"]["median_err_m"],
                "trace.throughput_per_s": rounds / wall,
                "trace.unattributed_frac": unattributed,
                "trace.residual_frac": residual,
            }
        )
        checks["self_times_sum_to_wall"] = abs(unattributed) <= UNATTRIBUTED_TOLERANCE
        checks["residual_within_tolerance"] = residual <= RESIDUAL_TOLERANCE
        report["per_layer"] = per_layer
        report["trace_export"] = export
    return report

