"""The streaming concurrent-ranging service.

:class:`RangingService` is the long-running asyncio core that turns the
repository's offline engines into an online capability: thousands of
initiator sessions push :class:`~repro.serve.request.RangingRequest`
messages in, and a sharded worker pool funnels them through the
dynamic micro-batcher onto the batched detection/classification
engines.  The design in one paragraph:

* **Sharding** — ``session_id`` hashes to one of ``n_shards`` shards
  (stable CRC-32), each with its own bounded ingress queue, micro-
  batcher, and private engine plans.  A session's requests are served
  strictly FIFO because its shard consumes them in arrival order, one
  batch at a time.
* **Micro-batching** — each shard gathers requests until batch-full or
  deadline (:class:`~repro.serve.batcher.MicroBatcher`), then runs one
  batched engine pass on the service's thread pool; NumPy/SciPy release
  the GIL in the FFTs, so shards genuinely overlap.
* **Backpressure** — an ingress queue at its high-watermark rejects new
  requests with an explicit retry-after hint
  (:class:`~repro.serve.request.ServiceOverloadedError`) instead of
  buffering without bound; a request whose deadline expires while
  queued is shed without running the engine.
* **Graceful degradation** — a failing batched pass degrades to the
  serial per-item engine (never a lost request), mirroring the
  :class:`~repro.runtime.executor.BatchTrial` fallback contract.
* **Observability** — every decision increments the service's
  :class:`~repro.runtime.metrics.MetricsRegistry` (queue depth,
  batch-size distribution, flush causes, latency quantiles, shed and
  reject counts); :mod:`repro.serve.http` serves it as a live
  ``/metrics`` endpoint.

All bookkeeping runs on the event-loop thread; worker threads only
execute the (self-contained, per-shard) engine pass — so the metrics
registry and the completion bookkeeping never race.
"""

from __future__ import annotations

import asyncio
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Union

from repro.constants import CIR_LENGTH_PRF64
from repro.protocol.defense import DefensePlan, screen_responses
from repro.runtime.executor import choose_batch_size
from repro.runtime.metrics import MetricsRegistry
from repro.serve.batcher import STOP, MicroBatcher
from repro.serve.engine import EngineConfig, ShardEngine
from repro.serve.ratelimit import RateLimitConfig, SessionRateLimiter
from repro.serve.request import (
    RangingOutcome,
    RangingRequest,
    RateLimitedError,
    ServiceOverloadedError,
)
from repro.serve.wire import DEFAULT_MAX_FRAME_BYTES

__all__ = ["ServeConfig", "RangingService"]


@dataclass(frozen=True)
class ServeConfig:
    """**The** deployment configuration of the serving stack.

    One dataclass describes everything from a single in-process
    :class:`RangingService` to a supervised multi-process
    :class:`~repro.serve.supervisor.RangingServer` fleet — the
    :class:`~repro.serve.client.RangingClient` picks which to build
    from ``workers`` alone.  Everything validates eagerly in
    ``__post_init__`` so a bad deployment fails at configuration time,
    not mid-traffic.

    Parameters
    ----------
    n_shards:
        Worker shards (and engine threads) *per process*.  Sessions
        hash across them; more shards raise engine parallelism and
        reduce head-of-line blocking between sessions.
    batch_size:
        Micro-batch flush threshold per shard, or ``"auto"`` to size it
        from the engine workload shape via
        :func:`repro.runtime.executor.choose_batch_size`.
    max_batch_delay_s:
        Deadline-flush budget: the longest a pending request waits for
        its batch to fill before the shard flushes short.
    queue_depth:
        Per-shard ingress high-watermark.  A submit that would exceed
        it is rejected with ``retry_after_s`` — bounded memory and an
        explicit backpressure signal instead of unbounded buffering.
    default_deadline_s:
        Latency budget applied to requests that carry none.  ``None``
        disables shedding for such requests.
    retry_after_s:
        The hint carried by backpressure rejections (rate-limit
        rejections compute their own exact hint).
    engine:
        The :class:`~repro.serve.engine.EngineConfig` to range with —
        what used to be ``RangingService``'s separate first argument.
        Required to *build* a deployment; optional here so behaviour
        knobs can be described before the bank exists.
    workers:
        Worker *processes*.  ``0`` (default) runs the classic
        in-process service; ``>= 1`` means a multi-process
        :class:`~repro.serve.supervisor.RangingServer` deployment with
        this many forked workers, each running its own
        ``RangingService`` with ``n_shards`` shards.
    rate_limit:
        Optional per-session token bucket
        (:class:`~repro.serve.ratelimit.RateLimitConfig`) enforced
        ahead of the shard queues; ``None`` disables rate limiting.
    defense:
        Optional :class:`~repro.protocol.defense.DefensePlan` whose
        CIR-only anomaly checks *annotate* served outcomes
        (``annotations["defense"]``) — never mutate them, so streaming
        results stay byte-equal to offline runs.
    heartbeat_interval_s / heartbeat_timeout_s:
        Worker liveness cadence (multi-process only): workers beacon
        every interval; a worker silent past the timeout is killed and
        restarted with its pending requests re-homed.
    max_frame_bytes:
        Wire-protocol frame-size bound (multi-process only).
    """

    n_shards: int = 4
    batch_size: Union[int, str] = "auto"
    max_batch_delay_s: float = 0.005
    queue_depth: int = 256
    default_deadline_s: Optional[float] = 1.0
    retry_after_s: float = 0.05
    engine: Optional[EngineConfig] = None
    workers: int = 0
    rate_limit: Optional[RateLimitConfig] = None
    defense: Optional[DefensePlan] = None
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if isinstance(self.batch_size, str):
            if self.batch_size != "auto":
                raise ValueError(
                    "batch_size must be an int >= 1 or 'auto', got "
                    f"{self.batch_size!r}"
                )
        elif self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_batch_delay_s < 0:
            raise ValueError(
                "max_batch_delay_s must be >= 0, got "
                f"{self.max_batch_delay_s}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                "default_deadline_s must be positive or None, got "
                f"{self.default_deadline_s}"
            )
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        if self.engine is not None and not isinstance(
            self.engine, EngineConfig
        ):
            raise TypeError(
                "engine must be an EngineConfig or None, got "
                f"{type(self.engine).__name__}"
            )
        if not isinstance(self.workers, int) or isinstance(
            self.workers, bool
        ):
            raise TypeError(
                f"workers must be an int, got {type(self.workers).__name__}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.rate_limit is not None and not isinstance(
            self.rate_limit, RateLimitConfig
        ):
            raise TypeError(
                "rate_limit must be a RateLimitConfig or None, got "
                f"{type(self.rate_limit).__name__}"
            )
        if self.defense is not None and not isinstance(
            self.defense, DefensePlan
        ):
            raise TypeError(
                "defense must be a DefensePlan or None, got "
                f"{type(self.defense).__name__}"
            )
        if not self.heartbeat_interval_s > 0:
            raise ValueError(
                "heartbeat_interval_s must be positive, got "
                f"{self.heartbeat_interval_s}"
            )
        if not self.heartbeat_timeout_s > self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s, "
                f"got {self.heartbeat_timeout_s} <= "
                f"{self.heartbeat_interval_s}"
            )
        if self.max_frame_bytes < 1024:
            raise ValueError(
                "max_frame_bytes must be >= 1024, got "
                f"{self.max_frame_bytes}"
            )

    def resolved_engine(self) -> EngineConfig:
        """The engine to deploy; building a deployment requires one."""
        if self.engine is None:
            raise ValueError(
                "ServeConfig.engine is required to build a deployment "
                "(pass engine=EngineConfig(...))"
            )
        return self.engine

    def worker_local(self) -> "ServeConfig":
        """This config as seen *inside* one worker process.

        Workers run plain in-process services: no nested workers, and
        no rate limiting (admission control lives in the parent, which
        sees every session; a worker sees only its slice).
        """
        return replace(self, workers=0, rate_limit=None)


@dataclass
class _Envelope:
    """One in-flight request plus its service-side bookkeeping."""

    request: RangingRequest
    future: "asyncio.Future[RangingOutcome]"
    enqueued_at: float
    deadline: Optional[float]  # absolute loop time, None = never shed
    shard: int

    def annotations(self) -> Dict[str, Any]:
        """The request's annotations, copied for the outcome to own."""
        return (
            dict(self.request.annotations)
            if self.request.annotations
            else {}
        )


def _shard_of(session_id: str, n_shards: int) -> int:
    """Stable session → shard mapping (CRC-32 of the UTF-8 identity)."""
    return zlib.crc32(session_id.encode("utf-8")) % n_shards


class RangingService:
    """Micro-batching, sharded, backpressured ranging service.

    Build one with :meth:`build` from a :class:`ServeConfig` whose
    ``engine`` is set::

        service = RangingService.build(
            ServeConfig(engine=EngineConfig(bank, period), n_shards=4)
        )

    For ``workers >= 1`` use
    :class:`~repro.serve.supervisor.RangingServer` (or, better, the
    :class:`~repro.serve.client.RangingClient`, which picks for you).
    """

    def __init__(
        self,
        config: ServeConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(config, ServeConfig):
            raise TypeError(
                "RangingService needs a ServeConfig, got "
                f"{type(config).__name__}"
            )
        if config.workers >= 1:
            raise ValueError(
                f"ServeConfig.workers={config.workers} describes a "
                "multi-process deployment; build a RangingServer (or a "
                "RangingClient) instead of an in-process RangingService"
            )
        self.config = config
        self.engine = config.resolved_engine()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batch_size = self._resolve_batch_size()
        self._limiter = (
            SessionRateLimiter(config.rate_limit)
            if config.rate_limit is not None
            else None
        )
        self._queues: List["asyncio.Queue[object]"] = []
        self._engines: List[ShardEngine] = []
        self._tasks: List["asyncio.Task"] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending = 0
        self._started_at: Optional[float] = None
        self._closed = True

    @classmethod
    def build(
        cls,
        config: ServeConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "RangingService":
        """The one way to construct a service from the unified config."""
        return cls(config, metrics=metrics)

    def _resolve_batch_size(self) -> int:
        if self.config.batch_size != "auto":
            return int(self.config.batch_size)
        cir_length = self.engine.cir_length or CIR_LENGTH_PRF64
        # Auto-sizing reuses the runtime's workload heuristic: the
        # "trials" a shard can see at once is its queue depth, and each
        # shard sizes independently (workers=1) because shards do not
        # share batches.
        return choose_batch_size(
            self.config.queue_depth,
            cir_length,
            len(self.engine.bank),
            workers=1,
            upsample_factor=self.engine.config.upsample_factor,
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "RangingService":
        """Spin up shard loops and the engine thread pool."""
        if not self._closed:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._closed = False
        self._started_at = self._loop.time()
        self._pending = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.n_shards,
            thread_name_prefix="repro-serve",
        )
        self._queues = [
            asyncio.Queue(maxsize=self.config.queue_depth)
            for _ in range(self.config.n_shards)
        ]
        self._engines = [
            ShardEngine(self.engine) for _ in range(self.config.n_shards)
        ]
        self._tasks = [
            asyncio.ensure_future(self._shard_loop(shard))
            for shard in range(self.config.n_shards)
        ]
        metrics = self.metrics
        metrics.gauge("serve.shards").set(self.config.n_shards)
        metrics.gauge("serve.batch_size_max").set(self.batch_size)
        metrics.gauge("serve.queue_depth").set(0)
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` serves everything already accepted, then exits;
        ``drain=False`` cancels the shard loops and completes every
        still-pending request with status ``"cancelled"`` — in both
        modes every accepted request still reaches exactly one terminal
        status.
        """
        if self._closed and not self._tasks:
            return
        self._closed = True
        if drain:
            for queue in self._queues:
                await queue.put(STOP)
            await asyncio.gather(*self._tasks, return_exceptions=True)
        else:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            for queue in self._queues:
                while True:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is not STOP:
                        self._pending -= 1
                        self._complete_unserved(item, "cancelled")
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.metrics.gauge("serve.queue_depth").set(0)

    # -- ingress -------------------------------------------------------------

    def enqueue(
        self, request: RangingRequest
    ) -> "asyncio.Future[RangingOutcome]":
        """Accept a request (or refuse it) without awaiting its result.

        Returns the future that resolves to the request's
        :class:`RangingOutcome`; raises :class:`RateLimitedError` when
        the session's token bucket is empty,
        :class:`ServiceOverloadedError` when the target shard is at its
        high-watermark, and ``RuntimeError`` when the service is not
        accepting (never started, stopping, or stopped).
        """
        if self._closed or self._loop is None:
            raise RuntimeError("service is not accepting requests")
        metrics = self.metrics
        metrics.counter("serve.requests").inc()
        if self._limiter is not None:
            # Rate limiting fires before the queue check: an abusive
            # session is bounced before it can claim queue slots.
            retry_after = self._limiter.check(request.session_id)
            if retry_after > 0.0:
                metrics.counter("serve.rate_limited").inc()
                raise RateLimitedError(retry_after, request.session_id)
        shard = _shard_of(request.session_id, self.config.n_shards)
        queue = self._queues[shard]
        if queue.full():
            metrics.counter("serve.rejected").inc()
            raise ServiceOverloadedError(
                self.config.retry_after_s, shard, queue.qsize()
            )
        now = self._loop.time()
        budget = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        envelope = _Envelope(
            request=request,
            future=self._loop.create_future(),
            enqueued_at=now,
            deadline=None if budget is None else now + float(budget),
            shard=shard,
        )
        queue.put_nowait(envelope)
        self._pending += 1
        metrics.counter("serve.accepted").inc()
        metrics.gauge("serve.queue_depth").set(self._pending)
        return envelope.future

    async def submit(self, request: RangingRequest) -> RangingOutcome:
        """Accept a request and await its terminal result.

        Cancelling this coroutine cancels the underlying future; the
        shard loop notices and accounts the request as ``cancelled``
        (it is dropped before the engine runs when possible).
        """
        return await self.enqueue(request)

    # -- shard loop ----------------------------------------------------------

    async def _shard_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        batcher = MicroBatcher(self.batch_size, self.config.max_batch_delay_s)
        metrics = self.metrics
        loop = self._loop
        assert loop is not None
        held: List[_Envelope] = []
        drained = 0  # how many of `held` already left the pending count
        try:
            while True:
                drained = 0
                batch, cause, stopped = await batcher.fill(queue, into=held)
                if batch:
                    self._pending -= len(batch)
                    drained = len(batch)
                    metrics.gauge("serve.queue_depth").set(self._pending)
                    metrics.counter(f"serve.flush_{cause}").inc()
                    metrics.histogram("serve.batch_size").observe(len(batch))
                    await self._serve_batch(shard, batch, cause)
                held.clear()
                if stopped:
                    return
        except asyncio.CancelledError:
            # Non-drain stop: whatever this loop currently holds — a
            # partial batch cancelled inside fill() (``into`` keeps the
            # consumed items reachable) or one mid-engine — gets a
            # terminal "cancelled" status; guarded completes keep the
            # exactly-once invariant even for a batch already finishing
            # on the engine thread.
            self._pending -= max(0, len(held) - drained)
            for envelope in held:
                if not envelope.future.done():
                    self._complete_unserved(envelope, "cancelled")
            raise

    async def _serve_batch(
        self, shard: int, batch: List[_Envelope], cause: str
    ) -> None:
        loop = self._loop
        metrics = self.metrics
        assert loop is not None
        now = loop.time()
        live: List[_Envelope] = []
        for envelope in batch:
            if envelope.future.done():
                # Caller cancelled while queued; terminal state already
                # reached on their side.
                metrics.counter("serve.cancelled").inc()
            elif envelope.deadline is not None and now > envelope.deadline:
                self._complete_unserved(envelope, "shed")
            else:
                live.append(envelope)
        if not live:
            return
        engine = self._engines[shard]
        cirs = [envelope.request.cir for envelope in live]
        stds = [envelope.request.noise_std for envelope in live]
        started = loop.time()
        outcomes, passes, fallbacks = await loop.run_in_executor(
            self._executor, engine.execute, cirs, stds
        )
        elapsed = loop.time() - started
        metrics.timer("serve.engine").record(elapsed)
        metrics.counter("serve.batches").inc()
        metrics.counter("serve.engine_passes").inc(passes)
        metrics.counter("serve.engine_items").inc(len(live))
        if fallbacks:
            metrics.counter("serve.batch_fallbacks").inc(fallbacks)
        finished = loop.time()
        defense = self.config.defense
        for envelope, (ok, payload) in zip(live, outcomes):
            if envelope.future.done():
                metrics.counter("serve.cancelled").inc()
                continue
            latency = finished - envelope.enqueued_at
            request = envelope.request
            annotations = envelope.annotations()
            if ok:
                if defense is not None:
                    # Annotate-only: the defense screen never removes
                    # responses at this layer, so streaming results
                    # stay byte-equal to the offline engines.
                    flags = screen_responses(defense, request.cir, payload)
                    if flags:
                        metrics.counter("serve.defense_flagged").inc(
                            len(flags)
                        )
                        annotations["defense"] = {
                            "flags": [
                                {
                                    "responder_id": flag.responder_id,
                                    "reason": flag.reason,
                                    "value": flag.value,
                                }
                                for flag in flags
                            ]
                        }
                metrics.counter("serve.completed").inc()
                metrics.histogram("serve.latency_s").observe(latency)
                envelope.future.set_result(
                    RangingOutcome(
                        session_id=request.session_id,
                        sequence=request.sequence,
                        status="ok",
                        responses=payload,
                        latency_s=latency,
                        shard=envelope.shard,
                        batch_size=len(live),
                        flush_cause=cause,
                        annotations=annotations,
                    )
                )
            else:
                metrics.counter("serve.errors").inc()
                envelope.future.set_result(
                    RangingOutcome(
                        session_id=request.session_id,
                        sequence=request.sequence,
                        status="error",
                        latency_s=latency,
                        shard=envelope.shard,
                        batch_size=len(live),
                        flush_cause=cause,
                        error=str(payload),
                        annotations=annotations,
                    )
                )

    def _complete_unserved(self, envelope: _Envelope, status: str) -> None:
        """Terminal completion for a request the engine never served."""
        metrics = self.metrics
        if envelope.future.done():
            metrics.counter("serve.cancelled").inc()
            return
        loop = self._loop
        latency = (
            (loop.time() - envelope.enqueued_at) if loop is not None else 0.0
        )
        metrics.counter(f"serve.{status}").inc()
        request = envelope.request
        envelope.future.set_result(
            RangingOutcome(
                session_id=request.session_id,
                sequence=request.sequence,
                status=status,
                latency_s=latency,
                shard=envelope.shard,
                annotations=envelope.annotations(),
            )
        )

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests accepted but not yet terminal."""
        return self._pending

    def healthz(self) -> Dict[str, object]:
        """Liveness summary served by the ``/healthz`` endpoint."""
        if self._closed:
            status = "stopped" if not self._tasks else "draining"
        else:
            status = "ok"
        uptime = 0.0
        if self._loop is not None and self._started_at is not None:
            uptime = max(0.0, self._loop.time() - self._started_at)
        return {
            "status": status,
            "uptime_s": uptime,
            "shards": self.config.n_shards,
            "batch_size": self.batch_size,
            "queue_depth": self._pending,
            "mode": self.engine.mode,
        }
