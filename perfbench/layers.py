"""Which public calls the traced run wraps, and how spans become metrics.

Every layer is a span name.  :func:`install` patches each public call
where its caller looks it up; :func:`summarize` turns the spans and
count events of one or more processes into the per-layer metrics,
normalised per operation (a swarm round or a served request) so runs of
different lengths compare.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from benchstats import self_times
from benchtrace import Patches, Tracer

#: Span names whose self time is reported as ``<name>.self_s`` [s/op].
SELF_TIME_LAYERS = (
    "channel.cir.render",
    "netsim.medium.channel_draw",
    "netsim.swarm.mobility",
    "netsim.swarm.schedule",
    "radio.dw1000.capture",
    "core.batch.filter_pass",
    "core.batch_extract.extract",
    "core.batch_id.classify",
    "protocol.concurrent.begin_round",
    "protocol.concurrent.finish_round",
    "core.scheme.decode",
    "localization.multilaterate",
    "localization.track",
    "serve.admission",
    "serve.engine.execute",
    "serve.wire.encode",
    "serve.wire.decode",
)

#: The benchmark's own root span around each timed unit of work.
ROOT = "bench.unit"

#: Serve load phases the micro-batcher figures are split by, with each
#: phase's (fill wait, mean batch size, deadline-flush share) metric
#: names.  The nominal rung flushes small batches on the deadline and
#: pairs with the nominal-rung latency; the capacity windows flush full
#: batches and pair with the capacity.
BATCH_PHASES = {
    "nominal": ("serve.batcher.fill_wait_s", "serve.batch_size_mean", "serve.flush_deadline_frac"),
    "capacity": ("serve.capacity.fill_wait_s", "serve.capacity.batch_size_mean", "serve.capacity.flush_deadline_frac"),
}


def _count_cirs(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.batch_id.cirs", len(args[0]))


def _count_taps(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("channel.cir.render.taps", len(args[0]))


def _count_engine(tracer: Tracer, args: tuple, result: Any) -> None:
    _outcomes, passes, fallbacks = result
    tracer.count("serve.engine_passes", passes)
    tracer.count("serve.batch_fallbacks", fallbacks)


def _request_key(position: int):
    """Span key of a call whose argument at ``position`` is a request."""

    def key_of(args: tuple) -> str:
        request = args[position]
        return f"{request.session_id}/{request.sequence}"

    return key_of


def install(patches: Patches, tracer: Tracer, out_dir: Optional[str]) -> None:
    """Wrap every layer boundary of both the swarm and the serve paths.

    ``out_dir`` receives one span file per forked serving worker, written
    when the worker exits.
    """
    import repro.netsim.swarm as swarm
    import repro.serve.engine as engine
    import repro.serve.supervisor as supervisor
    from repro.channel.cir import ChannelRealization
    from repro.core import batch_id
    from repro.core.batch import BatchDetectorPlan
    from repro.core.batch_id import BatchClassifierPlan
    from repro.core.scheme import CombinedScheme
    from repro.localization.tracking import ConstantVelocityTracker
    from repro.netsim.medium import Medium
    from repro.protocol.concurrent import ConcurrentRangingSession
    from repro.radio.dw1000 import DW1000Radio
    from repro.serve.batcher import MicroBatcher
    from repro.serve.service import RangingService
    from repro.serve.supervisor import RangingServer
    from repro.serve.wire import KIND_REQUEST, KIND_RESPONSE, FrameDecoder

    # Swarm round path.
    patches.wrap(tracer, swarm.SwarmScenario, "run", "netsim.swarm.schedule")
    patches.accumulate(tracer, swarm.MobilityTrace, "step", "netsim.swarm.mobility")
    patches.wrap(tracer, ConcurrentRangingSession, "begin_round", "protocol.concurrent.begin_round")
    patches.wrap(tracer, ConcurrentRangingSession, "finish_round", "protocol.concurrent.finish_round")
    patches.wrap(tracer, Medium, "channel_between", "netsim.medium.channel_draw")
    patches.wrap(tracer, DW1000Radio, "capture_cir", "radio.dw1000.capture")
    patches.wrap(tracer, ChannelRealization, "render", "channel.cir.render", _count_taps)
    patches.wrap(tracer, CombinedScheme, "decode_responses", "core.scheme.decode")
    patches.wrap(tracer, swarm, "multilaterate_robust", "localization.multilaterate")
    patches.wrap(tracer, ConstantVelocityTracker, "update", "localization.track")

    # Batched classification, shared by the swarm and the serving engine.
    patches.wrap(tracer, swarm, "classify_batch", "core.batch_id.classify", _count_cirs)
    patches.wrap(tracer, engine, "classify_batch", "core.batch_id.classify", _count_cirs)
    patches.wrap(tracer, BatchClassifierPlan, "filter_pass", "core.batch.filter_pass")
    patches.wrap(tracer, batch_id, "extract_responses_batch", "core.batch_extract.extract")

    # A classify call either reuses a plan (process cache or a shard's
    # private table) or builds one: every build constructs this class.
    patches.wrap(tracer, BatchDetectorPlan, "__init__", "core.batch.plan_build")

    # Serving path.
    patches.wrap(tracer, RangingService, "enqueue", "serve.admission", key_of=_request_key(1))
    patches.wrap(tracer, RangingServer, "enqueue", "serve.admission", key_of=_request_key(1))
    patches.wrap(tracer, engine.ShardEngine, "execute", "serve.engine.execute", _count_engine)

    original_fill = MicroBatcher.__dict__["fill"]

    async def fill(batcher, queue, first=None, *, into=None):
        import asyncio

        loop = asyncio.get_running_loop()
        called = loop.time()
        batch, cause, stopped = await original_fill(batcher, queue, first, into=into)
        if batch:
            # Time the batch stayed open after its first request was in
            # hand: from that request's enqueue (or this call, if the
            # request was already queued) to the flush.
            opened = max(called, batch[0].enqueued_at)
            tracer.count("serve.batches")
            tracer.count("serve.batch_items", len(batch))
            tracer.count("serve.fill_wait_s", loop.time() - opened)
            tracer.count("serve.flush_deadline", 1.0 if cause == "deadline" else 0.0)
        return batch, cause, stopped

    patches.set(MicroBatcher, "fill", fill)

    def count_bytes(t: Tracer, args: tuple, frame: bytes) -> None:
        if args[0] in (KIND_REQUEST, KIND_RESPONSE):
            t.count("serve.wire.bytes", len(frame))

    patches.wrap(tracer, supervisor, "encode_frame", "serve.wire.encode", count_bytes)
    patches.wrap(tracer, supervisor, "request_to_payload", "serve.wire.encode", key_of=_request_key(0))
    patches.wrap(tracer, supervisor, "outcome_to_payload", "serve.wire.encode")
    patches.wrap(tracer, supervisor, "request_from_payload", "serve.wire.decode")
    patches.wrap(tracer, supervisor, "outcome_from_payload", "serve.wire.decode")
    patches.wrap(tracer, FrameDecoder, "feed", "serve.wire.decode")

    original_worker = supervisor.__dict__["worker_main"]

    def worker_main(sock, siblings, worker_index, config):
        # A forked worker inherits the parent's spans; start clean and
        # hand this worker's own spans back through a file at exit.
        tracer.reset()
        try:
            original_worker(sock, siblings, worker_index, config)
        finally:
            if out_dir is not None:
                tracer.write(os.path.join(out_dir, f"worker-{os.getpid()}.json"))

    patches.set(supervisor, "worker_main", worker_main)


def _batcher_metrics(events: Sequence[Tuple[float, str, float]], names: Tuple[str, str, str]) -> Dict[str, float]:
    """Per-batch means of the micro-batcher's count events."""
    counts: Dict[str, float] = {}
    for _when, name, amount in events:
        counts[name] = counts.get(name, 0.0) + amount
    batches = counts.get("serve.batches", 0.0)
    sources = ("serve.fill_wait_s", "serve.batch_items", "serve.flush_deadline")
    return {
        metric: counts.get(source, 0.0) / batches if batches else 0.0
        for metric, source in zip(names, sources)
    }


def summarize(
    exports: Iterable[Dict[str, Any]],
    window: Tuple[float, float],
    ops: int,
    phases: Optional[Dict[str, Sequence[Tuple[float, float]]]] = None,
) -> Dict[str, float]:
    """Per-layer totals from one or more processes' tracer exports.

    Only spans and count events that start inside ``window`` (the timed
    region, in ``perf_counter`` seconds, which Linux shares across
    processes) are counted.  ``phases`` maps each name of
    :data:`BATCH_PHASES` to the intervals that phase ran in; the
    micro-batcher figures of a phase count only the batches flushed
    inside them (all zero without ``phases``).  Besides the per-layer
    metrics, the result holds ``trace.layer_self_s``, the layers' total
    self time, and ``trace.root_self_s``, the self time of the
    benchmark's own root spans [s], for the caller's checks against the
    traced wall time.
    """
    lo, hi = window
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    accumulated: Dict[str, float] = {}
    batch_events: Dict[str, List[Tuple[float, str, float]]] = {phase: [] for phase in BATCH_PHASES}
    for export in exports:
        spans = export["spans"]
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        for span, value in zip(spans, selfs):
            if lo <= span[1] <= hi:
                self_s[span[0]] = self_s.get(span[0], 0.0) + value
                calls[span[0]] = calls.get(span[0], 0) + 1
        for when, name, amount in export["events"]:
            if lo <= when <= hi:
                counts[name] = counts.get(name, 0.0) + amount
            for phase, intervals in (phases or {}).items():
                if any(start <= when <= end for start, end in intervals):
                    batch_events[phase].append((when, name, amount))
        for name, (_count, seconds) in export["accumulated"].items():
            accumulated[name] = accumulated.get(name, 0.0) + seconds

    # Mobility steps run inside SwarmScenario.run but carry no span of
    # their own: take their time out of the schedule's self time.
    mobility = accumulated.get("netsim.swarm.mobility", 0.0)
    if mobility:
        self_s["netsim.swarm.mobility"] = mobility
        self_s["netsim.swarm.schedule"] = self_s.get("netsim.swarm.schedule", 0.0) - mobility

    per_op = max(ops, 1)
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) / per_op for name in SELF_TIME_LAYERS}
    metrics["channel.cir.render.calls"] = calls.get("channel.cir.render", 0) / per_op
    metrics["channel.cir.render.taps"] = counts.get("channel.cir.render.taps", 0.0) / per_op
    classify_calls = calls.get("core.batch_id.classify", 0)
    metrics["core.batch_id.cirs_per_call"] = (
        counts.get("core.batch_id.cirs", 0.0) / classify_calls if classify_calls else 0.0
    )
    metrics["runtime.cache.plan_hit_ratio"] = (
        1.0 - calls.get("core.batch.plan_build", 0) / classify_calls if classify_calls else 0.0
    )
    for phase, names in BATCH_PHASES.items():
        metrics.update(_batcher_metrics(batch_events[phase], names))
    metrics["serve.engine_passes"] = counts.get("serve.engine_passes", 0.0) / per_op
    metrics["serve.batch_fallbacks"] = counts.get("serve.batch_fallbacks", 0.0) / per_op
    metrics["serve.wire.bytes_per_request"] = counts.get("serve.wire.bytes", 0.0) / per_op
    metrics["trace.layer_self_s"] = sum(
        value for name, value in self_s.items() if name != ROOT
    )
    metrics["trace.root_self_s"] = self_s.get(ROOT, 0.0)
    return metrics


def read_worker_exports(out_dir: str, pids: Iterable[int]) -> List[Dict[str, Any]]:
    """Span files the given forked workers wrote at exit (then removed)."""
    exports = []
    for pid in pids:
        path = os.path.join(out_dir, f"worker-{pid}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                exports.append(json.load(handle))
            os.remove(path)
    return exports
