"""Tests of the benchmark's own arithmetic and tracing helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math

import pytest

from benchstats import (
    INF,
    Accounting,
    backlog_grew,
    covered,
    quantile,
    self_times,
    slo_rate,
)
from benchtrace import Patches, Tracer
import layers


class TestQuantile:
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert quantile(values, 0.5) == 500
        assert quantile(values, 0.99) == 990  # ten samples lie beyond it
        assert quantile(values, 1.0) == 1000

    def test_failed_requests_count_as_infinite(self):
        values = [1.0] * 98 + [INF, INF]
        assert quantile(values, 0.98) == 1.0
        assert quantile(values, 0.99) == INF

    def test_empty_and_out_of_range(self):
        assert math.isnan(quantile([], 0.5))
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
        assert covered((0.0, 10.0), []) == 0.0
        assert covered((5.0, 6.0), [(0.0, 1.0)]) == 0.0

    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
        # Self times of a tree always add up to its root's duration.
        assert sum(self_times(spans)) == 10.0

    def test_overlapping_children_count_once(self):
        # Children on other threads may overlap; the parent loses their union.
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
        assert self_times(spans)[0] == 4.0


class TestSloRate:
    def test_interpolates_between_last_good_and_first_bad(self):
        rungs = [(100, 0.02, True), (200, 0.06, True), (300, 0.16, False), (400, 1.0, False)]
        # p99 crosses 0.1 s 40 % of the way from 200 to 300 req/s.
        assert slo_rate(rungs, 0.1) == pytest.approx(240.0)

    def test_infinite_miss_puts_crossing_on_last_good_rung(self):
        assert slo_rate([(100, 0.02, True), (200, INF, False)], 0.1) == 100

    def test_backlog_miss_below_limit_crosses_at_its_rate(self):
        # The rung missed through a growing backlog with p99 still under
        # the limit: its latency counts as the limit itself.
        assert slo_rate([(100, 0.02, True), (200, 0.05, False)], 0.1) == 200

    def test_all_met_and_none_met(self):
        assert slo_rate([(100, 0.02, True), (200, 0.03, True)], 0.1) == 200
        assert slo_rate([(100, 0.5, False), (200, 0.9, False)], 0.1) == 0.0
        assert slo_rate([], 0.1) == 0.0


class TestAccounting:
    def test_balance_and_fail_fraction(self):
        tally = Accounting(sent=10, ok=7, refused=1, errored=1, mismatched=1)
        assert tally.failed == 3
        assert tally.balanced
        assert tally.fail_frac == pytest.approx(0.3)

    def test_lost_request_unbalances(self):
        assert not Accounting(sent=10, ok=9).balanced

    def test_empty_run(self):
        assert Accounting().fail_frac == 0.0

    def test_backlog_rule(self):
        # 100 req/s under a 100 ms limit holds about 10 in flight.
        assert not backlog_grew(10, 100.0, 0.1)
        assert backlog_grew(11, 100.0, 0.1)


class _Target:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


class TestTracer:
    def test_wrapped_calls_nest_and_restore(self):
        tracer = Tracer()
        original = _Target.__dict__["outer"]
        with Patches() as patches:
            patches.wrap(tracer, _Target, "outer", "outer")
            patches.wrap(
                tracer, _Target, "inner", "inner",
                on_call=lambda t, args, result: t.count("inner.n", args[1]),
            )
            assert _Target().outer(3) == 7
        assert _Target.__dict__["outer"] is original
        names = [span.name for span in tracer.spans]
        assert names == ["outer", "inner"]
        assert tracer.spans[1].parent == 0
        assert [event[1:] for event in tracer.events] == [("inner.n", 3.0)]

    def test_accumulate_counts_without_spans(self):
        tracer = Tracer()
        with Patches() as patches:
            patches.accumulate(tracer, _Target, "inner", "inner")
            for n in range(5):
                _Target().inner(n)
        assert tracer.spans == []
        assert tracer.accumulated["inner"][0] == 5

    def test_summarize_windows_normalises_and_takes_out_mobility(self):
        export = {
            "spans": [
                [layers.ROOT, 0.0, 10.0, -1, 0],
                ["netsim.swarm.schedule", 0.0, 9.0, 0, 0],
                ["channel.cir.render", 1.0, 4.0, 1, 0],
                ["channel.cir.render", 20.0, 21.0, -1, 1],  # outside the window
            ],
            "events": [[2.0, "channel.cir.render.taps", 86.0], [20.5, "channel.cir.render.taps", 86.0]],
            "accumulated": {"netsim.swarm.mobility": [1500.0, 2.0]},
        }
        metrics = layers.summarize([export], (0.0, 10.0), ops=2)
        assert metrics["channel.cir.render.self_s"] == 1.5
        assert metrics["channel.cir.render.calls"] == 0.5
        assert metrics["channel.cir.render.taps"] == 43.0
        assert metrics["netsim.swarm.mobility.self_s"] == 1.0
        assert metrics["netsim.swarm.schedule.self_s"] == 2.0  # (9 - 3 - 2) / 2
        # Only the root's own second (0-1) is left out of the layers' total.
        assert metrics["trace.layer_self_s"] == 9.0
        assert metrics["trace.root_self_s"] == 1.0

    def test_summarize_splits_batcher_figures_by_phase(self):
        batch = lambda when, items, wait, deadline: [
            [when, "serve.batches", 1.0],
            [when, "serve.batch_items", float(items)],
            [when, "serve.fill_wait_s", wait],
            [when, "serve.flush_deadline", deadline],
        ]
        export = {
            "spans": [],
            "events": batch(1.0, 1, 0.005, 1.0) + batch(2.0, 3, 0.003, 1.0)
            + batch(5.0, 64, 0.001, 0.0) + batch(9.0, 64, 0.0, 0.0),  # 9.0: in no phase
            "accumulated": {},
        }
        phases = {"nominal": [(0.0, 3.0)], "capacity": [(4.0, 6.0)]}
        metrics = layers.summarize([export], (0.0, 10.0), ops=1, phases=phases)
        assert metrics["serve.batch_size_mean"] == 2.0
        assert metrics["serve.batcher.fill_wait_s"] == pytest.approx(0.004)
        assert metrics["serve.flush_deadline_frac"] == 1.0
        assert metrics["serve.capacity.batch_size_mean"] == 64.0
        assert metrics["serve.capacity.flush_deadline_frac"] == 0.0
        # Without phases (the swarm) every batcher figure reads 0.
        plain = layers.summarize([export], (0.0, 10.0), ops=1)
        assert plain["serve.batch_size_mean"] == plain["serve.capacity.batch_size_mean"] == 0.0


class TestRepeat:
    def test_spread_and_drift(self):
        import repeat

        # Quartiles of 1..9 are 2.5 and 7.5 around a median of 5.
        assert repeat.spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
        assert repeat.drift(10.0, 8.0, "higher") == pytest.approx(0.2)
        assert repeat.drift(10.0, 8.0, "lower") == pytest.approx(-0.2)
        assert repeat.drift(1.0, 1.25, "lower") == pytest.approx(0.25)
