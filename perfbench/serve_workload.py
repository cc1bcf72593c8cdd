"""``serve-inproc`` and ``serve-fleet``: Fig. 8 captures through the client.

One process and one scheduler coroutine drive an
:class:`~repro.serve.client.AsyncRangingClient` in classify mode with
the Fig. 8 nine-responder 1016-tap captures:

* a **closed loop** with a fixed number of outstanding requests gives
  the saturating capacity (ok/s);
* an **open loop** sends at fixed due times up a fixed ladder of rates.
  Each request is timed from its due time, so a stall delays every
  request queued behind it; the generator records how late it sent.
  The lowest rung is the nominal one, where the latency percentiles
  are read.

``serve-inproc`` runs the engine and micro-batcher in this process
(``workers=0, n_shards=2``); ``serve-fleet`` puts the same engine work
behind parent admission, the wire protocol and two forked workers
(``workers=2, n_shards=1``).  Every ok outcome is compared with the
offline :func:`~repro.core.batch_id.classify_batch` result for its
capture.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch_id import classify_batch
from repro.experiments.fig8_combined import BANK_REGISTERS, DETECTOR_CONFIG, build_session
from repro.runtime import template_bank
from repro.runtime.cache import clear_all_caches
from repro.serve import (
    AsyncRangingClient,
    EngineConfig,
    RangingRequest,
    ServeConfig,
    ServiceRejectedError,
)

from benchstats import INF, Accounting, backlog_grew, quantile, slo_rate
from benchtrace import Patches, Tracer
import layers

#: Deployment per workload; both run two engine threads in total.
DEPLOYMENTS = {
    "serve-inproc": {"workers": 0, "n_shards": 2},
    "serve-fleet": {"workers": 2, "n_shards": 1},
}
SETUPS = 5
POOL_SIZE = 16
#: Independent users of the open loop (sessions spread over shards).
SESSIONS = 64
#: Outstanding requests of the closed capacity loop: three full
#: micro-batches (the auto size is 64) over the two engine threads, so
#: batches flush full and no engine idles out the batch deadline.
CAPACITY_OUTSTANDING = 192
#: Closed-loop requests each submitter sends while warming up.
WARMUP_ROUNDS = 1
#: The timed run opens with this many blocks, each of capacity windows
#: then a segment of the nominal rung.  Capacity is ok/s over all windows.
BLOCKS = 3
WINDOWS_PER_BLOCK = 2
#: Share of ``--seconds`` each capacity window gets.
CAPACITY_WINDOW_SHARE = 0.06
#: The p99 latency limit: one ranging round at a 10 Hz update rate.
LIMIT_S = 0.100
#: Offered rates [req/s], climbed until one misses the limit.  The
#: first is the nominal rung, light enough that queueing does not
#: amplify the host's speed swings: it sends NOMINAL_REQUESTS, so its
#: p90 has 30 samples beyond it.  Every other rung sends RUNG_REQUESTS.
LADDER = (25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550)
NOMINAL_REQUESTS = 300
RUNG_REQUESTS = 120
#: Longest wait for a rung's requests to finish after the last is sent.
DRAIN_TIMEOUT_S = 30.0


class Pool:
    """Fig. 8 captures and their offline reference rows."""

    def __init__(self, seed: int) -> None:
        self.sessions = []
        self.pendings = []
        for index in range(POOL_SIZE):
            session = build_session(seed=seed * 100_003 + index)
            self.sessions.append(session)
            self.pendings.append(session.begin_round())
        self.cirs = [pending.cir for pending in self.pendings]
        self.noise = [pending.noise_std for pending in self.pendings]
        self.reference: List[list] = []

    def classify_offline(self) -> None:
        self.reference = classify_batch(
            np.stack(self.cirs),
            template_bank(BANK_REGISTERS),
            CIR_SAMPLING_PERIOD_S,
            config=DETECTOR_CONFIG,
            noise_std=self.noise,
        )

    def quality(self, rows: Dict[int, list], served: Dict[int, int]) -> Tuple[float, float]:
        """(identified / responders, median |error| [m]) of served outcomes.

        ``rows[i]`` is the responses the service returned for capture
        ``i`` and ``served[i]`` how many ok outcomes it returned for it;
        each capture's round is finished once from its served responses
        and weighted by that count.
        """
        identified = 0
        responders = 0
        errors = []
        for index, row in sorted(rows.items()):
            weight = served[index]
            result = self.sessions[index].finish_round(self.pendings[index], row)
            for outcome in result.outcomes:
                responders += weight
                if outcome.identified:
                    identified += weight
                    if outcome.error_m is not None:
                        errors += [abs(outcome.error_m)] * weight
        return identified / responders, float(np.median(errors)) if errors else math.nan


class Load:
    """Request bookkeeping shared by the closed and open loops."""

    def __init__(self, client, pool: Pool, rng: np.random.Generator) -> None:
        self.client = client
        self.pool = pool
        self.rng = rng
        self.accounting = Accounting()
        self.served: List[Tuple[int, object]] = []  # (pool index, outcome)
        self.ok_rows: Dict[int, list] = {}  # pool index -> served responses
        self.ok_counts: Dict[int, int] = {}  # pool index -> ok outcomes
        self.hops_ms: List[float] = []  # nominal rung only
        self.late_ms: List[float] = []
        self._sequences: Dict[str, int] = {}

    def request(self, session_id: str):
        index = int(self.rng.integers(POOL_SIZE))
        sequence = self._sequences.get(session_id, 0)
        self._sequences[session_id] = sequence + 1
        request = RangingRequest(
            session_id=session_id,
            sequence=sequence,
            cir=self.pool.cirs[index],
            noise_std=self.pool.noise[index],
        )
        return index, request

    def settle(self, index: int, outcome) -> bool:
        """Record a terminal outcome; True when it is ok."""
        self.served.append((index, outcome))
        if outcome.status != "ok":
            self.accounting.errored += 1
            return False
        return True

    def verify(self) -> None:
        """Compare every ok outcome with its offline reference row."""
        for index, outcome in self.served:
            if outcome.status != "ok":
                continue
            if list(outcome.responses) == list(self.pool.reference[index]):
                self.accounting.ok += 1
                self.ok_rows.setdefault(index, list(outcome.responses))
                self.ok_counts[index] = self.ok_counts.get(index, 0) + 1
            else:
                self.accounting.mismatched += 1
        self.served = []

    async def closed_loop(self, seconds: float) -> Tuple[int, float]:
        """(ok outcomes, elapsed s) with CAPACITY_OUTSTANDING in flight."""
        loop = asyncio.get_running_loop()
        stop_at = loop.time() + seconds
        ok = 0

        async def submitter(slot: int) -> None:
            nonlocal ok
            session_id = f"capacity-{slot}"
            while loop.time() < stop_at:
                index, request = self.request(session_id)
                self.accounting.sent += 1
                try:
                    outcome = await self.client.submit(request)
                except ServiceRejectedError:
                    self.accounting.refused += 1
                    continue
                ok += self.settle(index, outcome)

        started = loop.time()
        await asyncio.gather(*(submitter(slot) for slot in range(CAPACITY_OUTSTANDING)))
        return ok, loop.time() - started

    async def open_loop(self, rate: float, count: int, nominal: bool = False) -> Tuple[List[float], int]:
        """Send ``count`` requests at ``rate``; latency from each due time.

        Returns the latencies (``inf`` for a failed or refused request)
        and how many requests were still in flight when the last was sent.
        On the ``nominal`` rung it also records each ok request's hop:
        the latency seen here minus the one the engine's host reported.
        """
        loop = asyncio.get_running_loop()
        latencies = [INF] * count
        pending: List[asyncio.Future] = []
        completed = 0

        def on_done(k, index, due, sent, future):
            nonlocal completed
            completed += 1
            done = loop.time()
            if future.cancelled():
                self.accounting.errored += 1
                return
            error = future.exception()
            if error is not None:
                if isinstance(error, ServiceRejectedError):
                    self.accounting.refused += 1
                else:
                    self.accounting.errored += 1
                return
            outcome = future.result()
            if self.settle(index, outcome):
                latencies[k] = done - due
                if nominal:
                    self.hops_ms.append(1e3 * ((done - sent) - outcome.latency_s))

        origin = loop.time()
        for k in range(count):
            due = origin + k / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            index, request = self.request(f"user-{k % SESSIONS}")
            sent = loop.time()
            self.late_ms.append(1e3 * (sent - due))
            self.accounting.sent += 1
            try:
                future = self.client.enqueue(request)
            except ServiceRejectedError:
                self.accounting.refused += 1
                completed += 1
                continue
            future.add_done_callback(
                lambda f, k=k, i=index, d=due, s=sent: on_done(k, i, d, s, f)
            )
            pending.append(future)
        outstanding = count - completed
        if pending:
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
        # Yield once so every done-callback has run before reading.
        await asyncio.sleep(0)
        return latencies, outstanding


def rung(rate: float, latencies: List[float], outstanding: int) -> Dict:
    """One ladder rung's figures and whether it met the latency limit."""
    p99 = quantile(latencies, 0.99)
    grew = backlog_grew(outstanding, rate, LIMIT_S)
    return {
        "rate": rate,
        "requests": len(latencies),
        "p50_s": quantile(latencies, 0.5),
        "p90_s": quantile(latencies, 0.9),
        "p99_s": p99,
        "outstanding_at_end": outstanding,
        "backlog_grew": grew,
        "met": all(math.isfinite(v) for v in latencies) and p99 <= LIMIT_S and not grew,
    }


def _serve_config(workload: str, cir_length: int):
    engine = EngineConfig(
        template_bank(BANK_REGISTERS),
        CIR_SAMPLING_PERIOD_S,
        mode="classify",
        config=DETECTOR_CONFIG,
        cir_length=cir_length,
    )
    # No deadline shedding and deep queues: an overloaded rung shows as
    # a growing backlog and tail latency, not as refused requests.
    return ServeConfig(
        engine=engine,
        queue_depth=4096,
        default_deadline_s=None,
        **DEPLOYMENTS[workload],
    )


async def _setup(workload: str, seed: int):
    """One cold set-up: pool, deployment (fork), and a warm-up load.

    The warm-up is a fixed count of closed-loop requests with the
    capacity loop's concurrency, so the shard plans for the batch sizes
    the timed phases see exist before timing starts.
    """
    clear_all_caches()
    started = time.perf_counter()
    pool = Pool(seed)
    client = AsyncRangingClient(_serve_config(workload, len(pool.cirs[0])))
    await client.start()

    async def submitter(slot: int) -> None:
        for sequence in range(WARMUP_ROUNDS):
            index = (slot + sequence) % POOL_SIZE
            await client.submit_retrying(
                RangingRequest(
                    session_id=f"warm-{slot}",
                    sequence=sequence,
                    cir=pool.cirs[index],
                    noise_std=pool.noise[index],
                )
            )

    await asyncio.gather(*(submitter(slot) for slot in range(CAPACITY_OUTSTANDING)))
    return time.perf_counter() - started, pool, client


async def _run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Optional[str]) -> Dict:
    tracer = Tracer()
    patches = Patches()
    setup_times = []
    with patches:
        for attempt in range(SETUPS):
            if trace and attempt == SETUPS - 1:
                # Before the last set-up, so forked workers inherit it.
                layers.install(patches, tracer, out_dir)
            elapsed, pool, client = await _setup(workload, seed)
            setup_times.append(elapsed)
            if attempt < SETUPS - 1:
                await client.close()
        pool.classify_offline()
        worker_pids = [process.pid for process in getattr(client.deployment, "worker_processes", [])]

        load = Load(client, pool, np.random.default_rng((seed, 7)))
        # Exempt the set-up heap from collection (see README, "Set-up").
        gc.collect()
        gc.freeze()
        # When each phase ran, so traced batch figures can be split by it.
        phases: Dict[str, List[Tuple[float, float]]] = {"capacity": [], "nominal": []}
        started = time.perf_counter()
        try:
            # Capacity windows and nominal-rung segments alternate, so a
            # slow spell of the host touches a share of each, not all of one.
            windows: List[Tuple[int, float]] = []
            nominal_latencies: List[float] = []
            nominal_outstanding = 0
            for _ in range(BLOCKS):
                for _ in range(WINDOWS_PER_BLOCK):
                    begun = time.perf_counter()
                    windows.append(await load.closed_loop(CAPACITY_WINDOW_SHARE * seconds))
                    phases["capacity"].append((begun, time.perf_counter()))
                    load.verify()
                begun = time.perf_counter()
                latencies, outstanding = await load.open_loop(
                    float(LADDER[0]), NOMINAL_REQUESTS // BLOCKS, nominal=True
                )
                phases["nominal"].append((begun, time.perf_counter()))
                load.verify()
                nominal_latencies += latencies
                nominal_outstanding = max(nominal_outstanding, outstanding)
            capacity = sum(ok for ok, _ in windows) / sum(elapsed for _, elapsed in windows)
            rungs = [rung(float(LADDER[0]), nominal_latencies, nominal_outstanding)]
            for rate in LADDER[1:]:
                if not rungs[-1]["met"]:
                    break
                latencies, outstanding = await load.open_loop(float(rate), RUNG_REQUESTS)
                load.verify()
                rungs.append(rung(float(rate), latencies, outstanding))
            wall = time.perf_counter() - started
        finally:
            gc.unfreeze()
            await client.close()

    accounting = load.accounting
    id_rate, median_err = pool.quality(load.ok_rows, load.ok_counts)
    nominal = rungs[0]
    workers = DEPLOYMENTS[workload]["workers"]
    checks = {
        "outcomes_match_reference": accounting.mismatched == 0,
        "accounting_balanced": accounting.balanced,
    }
    report = {
        "checks": checks,
        "attempted": accounting.sent,
        "failed": accounting.failed,
        "workers": workers,
        "end_to_end": {
            "throughput_per_s": capacity,
            "id_rate": id_rate,
            "setup_s": statistics.median(setup_times),
        },
        "details": {
            "accounting": {
                "sent": accounting.sent,
                "ok": accounting.ok,
                "refused": accounting.refused,
                "errored": accounting.errored,
                "mismatched": accounting.mismatched,
                "fail_frac": accounting.fail_frac,
            },
            "capacity_windows_per_s": [ok / elapsed for ok, elapsed in windows],
            "rungs": rungs,
            "slo_rate_rps": slo_rate(
                [(r["rate"], r["p99_s"], r["met"]) for r in rungs], LIMIT_S
            ),
            "median_err_m": median_err,
            "wall_s": wall,
        },
    }
    if trace:
        exports = [tracer.export()]
        if out_dir is not None:
            exports += layers.read_worker_exports(out_dir, worker_pids)
        per_layer = layers.summarize(exports, (started, started + wall), accounting.sent, phases)
        per_layer.pop("trace.layer_self_s")
        per_layer.pop("trace.root_self_s")
        per_layer.update(
            {
                "netsim.swarm.empty_round_frac": 0.0,
                "serve.rejected_frac": accounting.refused / accounting.sent,
                "serve.hop_ms_p50": quantile(load.hops_ms, 0.5),
                "serve.slo_rate_rps": report["details"]["slo_rate_rps"],
                "latency.p50_ms": 1e3 * nominal["p50_s"],
                "latency.p90_ms": 1e3 * nominal["p90_s"],
                "serve.p99_ms": 1e3 * nominal["p99_s"],
                "loadgen.late_ms_p99": quantile(load.late_ms, 0.99),
                "quality.median_err_m": median_err,
                "trace.throughput_per_s": capacity,
                "trace.unattributed_frac": 0.0,
                "trace.residual_frac": 0.0,
            }
        )
        report["per_layer"] = per_layer
        report["trace_export"] = exports[0]
        report["worker_exports"] = len(exports) - 1
    return report


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Optional[str]) -> Dict:
    return asyncio.run(_run(workload, seed, seconds, trace, out_dir))
