"""Multi-process serving tests: the redesigned config/client API, the
supervised worker fleet, and the live swarm-ingest path.

The acceptance claims pinned here:

* **Streaming == offline across processes** — the same CIRs pushed
  through a 2-worker :class:`RangingServer` produce responses equal
  field-for-field to the in-process service *and* to a direct
  :func:`classify_batch` call (the in-process==offline leg is already
  pinned in ``tests/test_serve.py``; here the comparison is direct).
* **Exactly-once under worker death** — SIGKILLing a worker mid-stream
  loses zero accepted requests: supervision restarts the worker,
  re-homes its unanswered requests, and
  ``sent == ok + shed + error + cancelled`` still balances.
* **Admission split** — per-session rate limiting raises
  :class:`RateLimitedError`, queue/in-flight pressure raises
  :class:`ServiceOverloadedError`, and each bumps its own counter.
* **Annotations over the wire** — request annotations and
  annotate-only defense flags survive end to end without perturbing
  the responses.
* **Live swarm ingest** — a :class:`SwarmScenario` round-tripped
  through a multi-process :class:`RangingClient` yields a result digest
  byte-identical to the offline replayed-pool path.

Coroutines are driven with ``asyncio.run`` from sync tests (no
pytest-asyncio dependency); multi-process cases fork real workers, so
this module is a touch slower than the in-process suite.
"""

import asyncio

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtractConfig
from repro.netsim.swarm import SwarmConfig, SwarmScenario
from repro.protocol.defense import AnomalyDetectorConfig, DefensePlan
from repro.serve import (
    AsyncRangingClient,
    EngineConfig,
    RangingClient,
    RangingRequest,
    RangingServer,
    RangingService,
    RateLimitConfig,
    RateLimitedError,
    ServeConfig,
    ServiceOverloadedError,
    ServiceRejectedError,
    SessionRateLimiter,
    TERMINAL_STATUSES,
)
from repro.serve.loadgen import synthetic_pool
from repro.signal.templates import TemplateBank

TS = CIR_SAMPLING_PERIOD_S
BANK = TemplateBank.paper_bank(2)
CONFIG = SearchAndSubtractConfig()
POOL = synthetic_pool(BANK, pool_size=24, cir_length=257, seed=11)


def _engine(mode="classify"):
    return EngineConfig(BANK, TS, mode=mode, config=CONFIG, cir_length=257)


def _mp_config(**overrides):
    options = {
        "n_shards": 2,
        "batch_size": 4,
        "max_batch_delay_s": 0.002,
        "queue_depth": 64,
        "default_deadline_s": None,
        "engine": _engine(),
        "workers": 2,
    }
    options.update(overrides)
    return ServeConfig(**options)


def _requests(pool=POOL, sessions=6, annotate=False):
    return [
        RangingRequest(
            session_id=f"s-{k % sessions}",
            sequence=k // sessions,
            cir=cir,
            noise_std=noise_std,
            annotations={"k": k} if annotate else None,
        )
        for k, (cir, noise_std) in enumerate(pool)
    ]


def _counters(registry):
    return registry.snapshot()["counters"]


class TestServeConfigRedesign:
    def test_new_field_validation_is_eager(self):
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=-1)
        with pytest.raises(TypeError, match="workers"):
            ServeConfig(workers=True)
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            ServeConfig(
                heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5
            )
        with pytest.raises(ValueError, match="max_frame_bytes"):
            ServeConfig(max_frame_bytes=16)
        with pytest.raises(TypeError, match="rate_limit"):
            ServeConfig(rate_limit=3.0)
        with pytest.raises(TypeError, match="defense"):
            ServeConfig(defense="paranoid")
        with pytest.raises(TypeError, match="engine"):
            ServeConfig(engine="fast")

    def test_resolved_engine_requires_engine(self):
        with pytest.raises(ValueError, match="engine"):
            ServeConfig().resolved_engine()
        engine = _engine()
        assert ServeConfig(engine=engine).resolved_engine() is engine

    def test_worker_local_strips_parent_concerns(self):
        config = _mp_config(
            workers=4, rate_limit=RateLimitConfig(10.0, burst=2)
        )
        local = config.worker_local()
        assert local.workers == 0
        assert local.rate_limit is None
        assert local.n_shards == config.n_shards
        assert local.engine is config.engine

    def test_service_takes_only_a_serve_config(self):
        with pytest.raises(TypeError, match="ServeConfig"):
            RangingService(_engine())  # type: ignore[arg-type]

    def test_service_refuses_multiprocess_config(self):
        with pytest.raises(ValueError, match="RangingServer"):
            RangingService.build(_mp_config(workers=2))
        with pytest.raises(ValueError, match="workers"):
            RangingServer(_mp_config(workers=0))

    def test_client_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            AsyncRangingClient()
        with pytest.raises(ValueError, match="exactly one"):
            AsyncRangingClient(
                _mp_config(), service=object()  # type: ignore[arg-type]
            )


class TestRateLimiting:
    def test_token_bucket_refill_and_retry_hint(self):
        clock = [0.0]
        limiter = SessionRateLimiter(
            RateLimitConfig(rate_rps=2.0, burst=2.0),
            clock=lambda: clock[0],
        )
        assert limiter.check("a") == 0.0
        assert limiter.check("a") == 0.0
        hint = limiter.check("a")  # bucket empty
        assert hint == pytest.approx(0.5)
        clock[0] += 0.5  # one token refilled
        assert limiter.check("a") == 0.0
        assert limiter.check("b") == 0.0  # sessions are independent

    def test_session_lru_eviction(self):
        limiter = SessionRateLimiter(
            RateLimitConfig(rate_rps=1.0, burst=1.0, max_sessions=2),
            clock=lambda: 0.0,
        )
        for session in ("a", "b", "c"):
            limiter.check(session)
        assert len(limiter) == 2
        # "a" was evicted; its bucket is fresh again.
        assert limiter.check("a") == 0.0

    def test_in_process_rate_limit_vs_backpressure(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    n_shards=1,
                    batch_size=4,
                    engine=_engine(),
                    rate_limit=RateLimitConfig(rate_rps=5.0, burst=2.0),
                )
            )
            await service.start()
            try:
                futures, rate_limited = [], []
                for request in _requests(POOL[:6], sessions=1):
                    try:
                        futures.append(service.enqueue(request))
                    except RateLimitedError as error:
                        rate_limited.append(error)
                results = await asyncio.gather(*futures)
            finally:
                await service.stop(drain=True)
            return service, results, rate_limited

        service, results, rate_limited = asyncio.run(scenario())
        assert len(rate_limited) == 4  # burst of 2 admitted
        assert all(r.status == "ok" for r in results)
        for error in rate_limited:
            assert isinstance(error, ServiceRejectedError)
            assert not isinstance(error, ServiceOverloadedError)
            assert error.reason == "rate_limit"
            assert error.retry_after_s > 0.0
        counters = _counters(service.metrics)
        assert counters["serve.rate_limited"] == 4
        assert counters.get("serve.rejected", 0) == 0
        assert counters["serve.accepted"] == 2


class TestMultiProcess:
    def test_streaming_equals_offline_across_processes(self):
        requests = _requests(annotate=True)

        async def mp_run():
            async with AsyncRangingClient(_mp_config()) as client:
                health = client.healthz()
                outcomes = await asyncio.gather(
                    *(client.submit_retrying(r) for r in requests)
                )
            # After a drain stop the merged registry includes each
            # worker's *final* heartbeat snapshot, so the serve.*
            # counters are exact rather than one beacon behind.
            counters = _counters(client.metrics)
            return outcomes, health, counters

        async def in_process_run():
            async with AsyncRangingClient(_mp_config(workers=0)) as client:
                return await asyncio.gather(
                    *(client.submit_retrying(r) for r in requests)
                )

        mp_outcomes, health, counters = asyncio.run(mp_run())
        local_outcomes = asyncio.run(in_process_run())

        assert all(o.status == "ok" for o in mp_outcomes)
        assert [o.responses for o in mp_outcomes] == [
            o.responses for o in local_outcomes
        ]
        # Direct offline leg: one classify_batch over the same pool.
        stack = np.stack([cir for cir, _ in POOL])
        stds = [noise_std for _, noise_std in POOL]
        offline = classify_batch(stack, BANK, TS, config=CONFIG, noise_std=stds)
        assert [o.responses for o in mp_outcomes] == list(offline)
        for k, outcome in enumerate(mp_outcomes):
            assert outcome.worker >= 0  # stamped by a real worker
            assert outcome.annotations["k"] == k
        # Health + merged metrics cover both namespaces.
        assert health["workers"] == 2
        assert health["alive_workers"] == 2
        assert health["status"] == "ok"
        assert counters["server.accepted"] == len(requests)
        assert counters["server.completed"] == len(requests)
        assert counters["serve.completed"] == len(requests)

    def test_worker_kill_loses_no_accepted_requests(self):
        config = _mp_config(
            heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5
        )
        pool = synthetic_pool(BANK, pool_size=50, cir_length=257, seed=3)
        requests = _requests(pool, sessions=10)

        async def scenario():
            server = RangingServer(config)
            await server.start()
            try:
                futures = [server.enqueue(r) for r in requests]
                await asyncio.sleep(0.02)  # let the stream get going
                server.worker_processes[0].kill()
                outcomes = await asyncio.gather(*futures)
                restarts = server.restarts
            finally:
                await server.stop(drain=True)
            return outcomes, restarts, _counters(server.metrics)

        outcomes, restarts, counters = asyncio.run(scenario())
        assert restarts >= 1
        assert len(outcomes) == len(requests)
        assert all(o.status in TERMINAL_STATUSES for o in outcomes)
        assert all(o.status == "ok" for o in outcomes)
        # Exactly-once accounting: every accepted request reached one
        # terminal counter, despite the kill and the re-homing.
        terminal = (
            counters.get("server.completed", 0)
            + counters.get("server.shed", 0)
            + counters.get("server.errors", 0)
            + counters.get("server.cancelled", 0)
        )
        assert counters["server.accepted"] == len(requests)
        assert terminal == len(requests)
        assert counters["server.worker_restarts"] == restarts

    def test_parent_rate_limit_and_inflight_cap(self):
        config = _mp_config(
            workers=1,
            n_shards=1,
            queue_depth=4,
            rate_limit=RateLimitConfig(rate_rps=5.0, burst=2.0),
        )
        cir, noise_std = POOL[0]

        async def scenario():
            server = RangingServer(config)
            await server.start()
            try:
                futures, errors = [], []
                for k in range(8):
                    try:
                        futures.append(
                            server.enqueue(
                                RangingRequest("hammer", k, cir, noise_std)
                            )
                        )
                    except ServiceRejectedError as error:
                        errors.append(error)
                await asyncio.gather(*futures)
                counters = _counters(server.metrics)
            finally:
                await server.stop(drain=True)
            return errors, counters

        errors, counters = asyncio.run(scenario())
        assert len(errors) == 6
        assert all(isinstance(e, RateLimitedError) for e in errors)
        assert counters["server.rate_limited"] == 6
        assert counters.get("server.rejected", 0) == 0

        # The in-flight cap is the other admission path: no limiter,
        # one worker, and more submissions than queue_depth * n_shards.
        async def cap_scenario():
            server = RangingServer(
                _mp_config(workers=1, n_shards=1, queue_depth=2)
            )
            await server.start()
            try:
                futures, errors = [], []
                for k in range(8):
                    try:
                        futures.append(
                            server.enqueue(
                                RangingRequest(f"s-{k}", 0, cir, noise_std)
                            )
                        )
                    except ServiceOverloadedError as error:
                        errors.append(error)
                await asyncio.gather(*futures)
                counters = _counters(server.metrics)
            finally:
                await server.stop(drain=True)
            return errors, counters

        cap_errors, cap_counters = asyncio.run(cap_scenario())
        assert cap_errors, "in-flight cap never fired"
        assert all(e.reason == "backpressure" for e in cap_errors)
        assert cap_counters["server.rejected"] == len(cap_errors)

    def test_non_drain_stop_cancels_pending(self):
        async def scenario():
            server = RangingServer(_mp_config(workers=1))
            await server.start()
            futures = [
                server.enqueue(r) for r in _requests(POOL[:8], sessions=2)
            ]
            await server.stop(drain=False)
            outcomes = await asyncio.gather(*futures)
            return outcomes, _counters(server.metrics)

        outcomes, counters = asyncio.run(scenario())
        assert all(o.status in TERMINAL_STATUSES for o in outcomes)
        cancelled = [o for o in outcomes if o.status == "cancelled"]
        assert len(cancelled) == counters.get("server.cancelled", 0)
        terminal = (
            counters.get("server.completed", 0)
            + counters.get("server.shed", 0)
            + counters.get("server.errors", 0)
            + counters.get("server.cancelled", 0)
        )
        assert terminal == counters["server.accepted"]

    def test_sync_client_defense_annotations_survive_the_wire(self):
        defense = DefensePlan(
            anomaly=AnomalyDetectorConfig(min_confidence=1e9)
        )
        requests = _requests(POOL[:8], sessions=2, annotate=True)
        with RangingClient(_mp_config(workers=1)) as client:
            plain = client.submit_many(requests, timeout=60.0)
        with RangingClient(
            _mp_config(workers=1, defense=defense)
        ) as client:
            flagged = client.submit_many(requests, timeout=60.0)
            single = client.range(
                "extra", POOL[0][0], noise_std=POOL[0][1], timeout=60.0
            )
            health = client.healthz()
        assert all(o.status == "ok" for o in plain + flagged)
        # Annotate-only: the defense screen never perturbs responses.
        assert [o.responses for o in flagged] == [
            o.responses for o in plain
        ]
        assert any(
            o.annotations.get("defense", {}).get("flags")
            for o in flagged
            if o.responses
        )
        for k, outcome in enumerate(flagged):
            assert outcome.annotations["k"] == k
        assert single.status == "ok"
        assert single.sequence == 0
        assert health["workers"] == 1

    def test_swarm_live_ingest_matches_replayed_pool(self):
        config = SwarmConfig(
            n_responders=24,
            n_initiators=2,
            n_concurrent=2,
            n_shapes=4,
            window=4,
            max_responses=6,
        )
        offline = SwarmScenario(config, seed=7).run(4)
        live_scenario = SwarmScenario(config, seed=7)
        with RangingClient(live_scenario.serve_config(workers=2)) as client:
            live = live_scenario.run(4, service=client)
        assert live.digest() == offline.digest()
        assert live.rounds == offline.rounds
