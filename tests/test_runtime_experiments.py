"""Integration tests: experiments ported onto the runtime executor.

The headline guarantee: for a fixed master seed the ported experiments
produce *identical* metrics for any worker count — parallelism is a
pure throughput knob, never a statistics knob.
"""

import pytest

from repro.experiments import (
    ablation_amplitude,
    ablation_bank,
    ablation_detectors,
    ablation_upsampling,
    fig2_cir,
    fig4_detection,
    fig6_pulse_id,
    fig7_overlap,
    nlos_study,
    sect5_precision,
    sect8_scalability,
    table1_pulse_id,
)
from repro.runtime import MetricsRegistry


class TestSerialParallelEquality:
    def test_table1(self):
        serial = table1_pulse_id.run(trials=5, seed=17, workers=1)
        parallel = table1_pulse_id.run(trials=5, seed=17, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_sect5(self):
        serial = sect5_precision.run(trials=30, seed=29, workers=1)
        parallel = sect5_precision.run(trials=30, seed=29, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_fig7(self):
        serial = fig7_overlap.run(trials=10, seed=23, workers=1)
        parallel = fig7_overlap.run(trials=10, seed=23, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_fig4(self):
        serial = fig4_detection.run(trials=8, seed=11, workers=1)
        parallel = fig4_detection.run(trials=8, seed=11, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_fig6(self):
        serial = fig6_pulse_id.run(trials=10, seed=5, workers=1)
        parallel = fig6_pulse_id.run(trials=10, seed=5, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_fig2(self):
        serial = fig2_cir.run(trials=6, seed=2, workers=1)
        parallel = fig2_cir.run(trials=6, seed=2, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_sect8(self):
        serial = sect8_scalability.run(seed=0, workers=1)
        parallel = sect8_scalability.run(seed=0, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_nlos(self):
        serial = nlos_study.run(trials=6, seed=47, workers=1)
        parallel = nlos_study.run(trials=6, seed=47, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_ablation(self):
        serial = ablation_detectors.run(trials=8, seed=37, workers=1)
        parallel = ablation_detectors.run(trials=8, seed=37, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_fig2_exemplary_capture_unchanged_by_port(self):
        """The headline figure stays bit-stable: the Monte-Carlo layer
        added by the runtime port must not disturb the seed-2 capture."""
        result = fig2_cir.run(trials=2, seed=2)
        assert result.metric("detected_components").measured == 6.0

    def test_sect5_seed_changes_results(self):
        a = sect5_precision.run(trials=15, seed=29)
        b = sect5_precision.run(trials=15, seed=30)
        # Same shape of output either way...
        assert set(a.as_dict()) == set(b.as_dict())
        # ...but the continuous sigmas must move with the seed.
        assert a.as_dict() != b.as_dict()


class TestMetricsWiring:
    def test_table1_reports_throughput_and_cache(self):
        metrics = MetricsRegistry()
        table1_pulse_id.run(trials=3, seed=17, workers=1, metrics=metrics)
        # 10 cells x 3 trials.
        assert metrics.counter("runtime.trials").value == 30
        assert metrics.timer("runtime.wall_clock").count == 10
        text = metrics.render()
        assert "trials/s" in text
        assert "cache.templates hit rate" in text
        assert "total wall-clock" in text

    def test_sect5_accumulates_across_shapes(self):
        metrics = MetricsRegistry()
        sect5_precision.run(trials=10, seed=29, workers=1, metrics=metrics)
        # 3 shapes x 10 exchanges.
        assert metrics.counter("runtime.trials").value == 30
        assert metrics.counter("runtime.trials_failed").value == 0

    def test_fig4_reports_throughput(self):
        metrics = MetricsRegistry()
        fig4_detection.run(trials=4, seed=11, workers=1, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 4
        assert metrics.counter("runtime.trials_failed").value == 0
        assert "cache.templates hit rate" in metrics.render()

    def test_fig6_reports_throughput(self):
        metrics = MetricsRegistry()
        fig6_pulse_id.run(trials=4, seed=5, workers=1, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 4
        assert metrics.counter("runtime.trials_failed").value == 0

    def test_fig2_reports_throughput(self):
        metrics = MetricsRegistry()
        fig2_cir.run(trials=4, seed=2, workers=1, metrics=metrics)
        assert metrics.counter("runtime.trials").value == 4
        assert metrics.counter("runtime.trials_failed").value == 0

    def test_sect8_counts_sweep_rows(self):
        metrics = MetricsRegistry()
        sect8_scalability.run(seed=0, workers=1, metrics=metrics)
        # One trial per network size.
        assert metrics.counter("runtime.trials").value == 6
        assert metrics.counter("runtime.trials_failed").value == 0

    def test_fig7_counts_attempted_rounds(self):
        metrics = MetricsRegistry()
        result = fig7_overlap.run(trials=8, seed=23, workers=1, metrics=metrics)
        # Rejection sampling may attempt more rounds than evaluated trials.
        assert metrics.counter("runtime.trials").value >= 8
        assert result.metric("search_and_subtract_rate").measured >= 0.0


class TestBatchedExecution:
    """``batch_size`` is a throughput knob, never a statistics knob."""

    def test_ablation_batched_equals_serial(self):
        base = ablation_detectors.run(trials=8, seed=37, batch_size=1)
        batched = ablation_detectors.run(trials=8, seed=37, batch_size=4)
        assert base.as_dict() == batched.as_dict()

    def test_ablation_batched_parallel_equals_serial(self):
        base = ablation_detectors.run(trials=8, seed=37, batch_size=1)
        batched = ablation_detectors.run(
            trials=8, seed=37, workers=2, batch_size=4
        )
        assert base.as_dict() == batched.as_dict()

    def test_ablation_batched_counts_batches(self):
        metrics = MetricsRegistry()
        ablation_detectors.run(
            trials=8, seed=37, batch_size=4, metrics=metrics
        )
        # 7 separation cells x (8 trials / batches of 4).
        assert metrics.counter("runtime.batches").value == 14
        assert metrics.counter("runtime.batch_fallbacks").value == 0

    def test_nlos_reports_throughput(self):
        metrics = MetricsRegistry()
        nlos_study.run(trials=3, seed=47, metrics=metrics)
        # 4 environments x 3 rounds.
        assert metrics.counter("runtime.trials").value == 12
        assert metrics.counter("runtime.trials_failed").value == 0


class TestStatisticalSanity:
    """The ports keep the paper's qualitative results intact."""

    def test_table1_accuracy_band(self):
        result = table1_pulse_id.run(trials=20, seed=17, workers=2)
        for comparison in result.comparisons:
            assert comparison.measured > 85.0

    def test_sect5_sigma_band(self):
        result = sect5_precision.run(trials=150, seed=29, workers=2)
        for name in ("sigma_s1_m", "sigma_s2_m", "sigma_s3_m"):
            assert 0.015 < result.metric(name).measured < 0.04

    def test_fig7_search_beats_threshold(self):
        result = fig7_overlap.run(trials=60, seed=23, workers=2)
        search = result.metric("search_and_subtract_rate").measured
        threshold = result.metric("threshold_rate").measured
        assert search > threshold


class TestBatchedClassification:
    """The batched-classifier ports: fig8 and table1 run their rounds
    through :class:`repro.core.batch_id.ClassifyBatchTrial`, so worker
    count AND batch size (including ``"auto"``) are pure throughput
    knobs."""

    def test_table1_batched_equals_serial(self):
        base = table1_pulse_id.run(trials=5, seed=17, batch_size=1)
        batched = table1_pulse_id.run(trials=5, seed=17, batch_size=3)
        auto = table1_pulse_id.run(trials=5, seed=17, batch_size="auto")
        assert base.as_dict() == batched.as_dict() == auto.as_dict()

    def test_table1_batched_parallel_equals_serial(self):
        base = table1_pulse_id.run(trials=5, seed=17)
        batched = table1_pulse_id.run(
            trials=5, seed=17, workers=2, batch_size=2
        )
        assert base.as_dict() == batched.as_dict()

    def test_fig8_serial_parallel_batched_auto(self):
        from repro.experiments import fig8_combined

        base = fig8_combined.run(trials=6, seed=31, batch_size=1)
        batched = fig8_combined.run(trials=6, seed=31, batch_size=3)
        auto = fig8_combined.run(trials=6, seed=31, batch_size="auto")
        parallel = fig8_combined.run(
            trials=6, seed=31, workers=2, batch_size=2
        )
        assert (
            base.as_dict()
            == batched.as_dict()
            == auto.as_dict()
            == parallel.as_dict()
        )

    def test_fig8_build_session_compat(self):
        """Benchmarks/examples keep using the fixed-topology session."""
        from repro.experiments import fig8_combined

        session = fig8_combined.build_session(seed=31)
        outcome = session.run_round()
        assert len(outcome.outcomes) == fig8_combined.N_RESPONDERS

    def test_table1_counts_batched_classifier_passes(self):
        from repro.runtime import global_metrics

        before = global_metrics().counter("classifier.batch_classifies").value
        metrics = MetricsRegistry()
        table1_pulse_id.run(trials=4, seed=17, batch_size=4, metrics=metrics)
        after = global_metrics().counter("classifier.batch_classifies").value
        # 2 shapes x 5 distances x (4 trials / batches of 4).
        assert after - before >= 10
        assert metrics.counter("runtime.batches").value == 10
        assert metrics.counter("runtime.batch_fallbacks").value == 0

    def test_auto_resolves_to_real_batches(self):
        """``batch_size="auto"`` on the fig8 workload must pick B > 1
        (the acceptance criterion for workload-shaped batching)."""
        from repro.experiments import fig8_combined

        metrics = MetricsRegistry()
        fig8_combined.run(
            trials=8, seed=31, batch_size="auto", metrics=metrics
        )
        resolved = metrics.gauge("runtime.batch_size").value
        assert resolved > 1
        assert metrics.counter("runtime.batches").value < 8


class TestPortedAblations:
    """The three straggler ablations, newly on the standard run API."""

    def test_ablation_bank_serial_parallel(self):
        serial = ablation_bank.run(trials=10, seed=41, workers=1)
        parallel = ablation_bank.run(trials=10, seed=41, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_ablation_amplitude_serial_parallel(self):
        serial = ablation_amplitude.run(trials=4, seed=53, workers=1)
        parallel = ablation_amplitude.run(trials=4, seed=53, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_ablation_upsampling_serial_parallel(self):
        serial = ablation_upsampling.run(trials=6, seed=61, workers=1)
        parallel = ablation_upsampling.run(trials=6, seed=61, workers=2)
        assert serial.as_dict() == parallel.as_dict()

    def test_metric_names_preserved(self):
        """The ports keep every historical comparison name."""
        bank = ablation_bank.run(trials=5, seed=41)
        assert {"accuracy_3_shapes", "accuracy_64_shapes"} <= set(
            bank.as_dict()
        )
        amp = ablation_amplitude.run(trials=3, seed=53)
        assert {
            "plain_rmse_overlapping",
            "ls_rmse_overlapping",
            "plain_rmse_separated",
        } <= set(amp.as_dict())
        ups = ablation_upsampling.run(trials=5, seed=61)
        assert {
            "toa_std_1x_ps", "toa_std_8x_ps", "improvement_1x_to_8x"
        } <= set(ups.as_dict())

    def test_legacy_positional_calls_warn_and_work(self):
        for module, args in (
            (ablation_bank, (5, 41)),
            (ablation_amplitude, (3, 53)),
            (ablation_upsampling, (5, 61)),
        ):
            with pytest.warns(DeprecationWarning):
                legacy = module.run(*args)
            modern = module.run(trials=args[0], seed=args[1])
            assert legacy.as_dict() == modern.as_dict()
