"""Smoke/integration tests: every paper experiment runs and its headline
numbers land in the paper's neighbourhood (small trial counts — the
benchmark suite runs the full versions)."""

import pytest

from repro.experiments import (
    ablation_bank,
    ablation_detectors,
    fig1_bandwidth,
    fig2_cir,
    fig3_timing,
    fig4_detection,
    fig5_pulse_shapes,
    fig6_pulse_id,
    fig7_overlap,
    fig8_combined,
    localization_exp,
    sect5_precision,
    sect8_scalability,
    table1_pulse_id,
)


class TestFig1:
    def test_bandwidth_contrast(self):
        result = fig1_bandwidth.run()
        wide = result.metric("resolved_900MHz").measured
        narrow = result.metric("resolved_50MHz").measured
        assert wide >= 4
        assert narrow <= 1


class TestFig2:
    def test_six_components(self):
        result = fig2_cir.run()
        assert result.metric("detected_components").measured == 6
        assert result.metric("snr_db").measured > 20


class TestFig3:
    def test_min_delay_178_5us(self):
        result = fig3_timing.run()
        assert result.metric("min_delay_us").measured == pytest.approx(
            178.5, abs=0.5
        )
        assert result.metric("chosen_delta_resp_us").measured == 290.0


class TestFig4:
    def test_three_responders_detected(self):
        result = fig4_detection.run(trials=25, compensate_tx_quantization=True)
        assert result.metric("all_three_detected_rate").measured > 0.85
        for i, expected in enumerate((3.0, 6.0, 10.0), start=1):
            measured = result.metric(f"mean_distance_resp{i}_m").measured
            assert measured == pytest.approx(expected, abs=0.4)

    def test_pipeline_stages(self):
        stages = fig4_detection.pipeline_stages(seed=11)
        assert len(stages.detections) == 3
        assert stages.filter_output.max() > 0
        # Subtraction removes the dominant peak's energy.
        assert stages.after_first_subtraction.max() < stages.filter_output.max()


class TestFig5:
    def test_monotone_and_108_shapes(self):
        result = fig5_pulse_shapes.run()
        assert result.metric("width_monotone_in_register").measured == 1.0
        assert result.metric("supported_shapes").measured == 108


class TestFig6:
    def test_identification(self):
        result = fig6_pulse_id.run(trials=30)
        assert result.metric("both_detected_rate").measured > 0.9
        assert result.metric("both_identified_rate").measured > 0.9


class TestTable1:
    def test_high_accuracy(self):
        result = table1_pulse_id.run(trials=25)
        for comparison in result.comparisons:
            assert comparison.measured > 85.0  # percent


class TestFig7:
    def test_search_beats_threshold(self):
        result = fig7_overlap.run(trials=80)
        search = result.metric("search_and_subtract_rate").measured
        threshold = result.metric("threshold_rate").measured
        assert search > 0.8
        assert threshold < 0.65
        assert search > 1.3 * threshold


class TestSect5:
    def test_sigma_band(self):
        result = sect5_precision.run(trials=200)
        for name in ("sigma_s1_m", "sigma_s2_m", "sigma_s3_m"):
            sigma = result.metric(name).measured
            assert 0.015 < sigma < 0.04  # the paper's 2-3 cm band


class TestFig8:
    def test_nine_responders(self):
        result = fig8_combined.run(trials=10)
        assert result.metric("mean_identified_of_9").measured > 8.0
        assert result.metric("capacity").measured == 12


class TestSect8:
    def test_scalability_numbers(self):
        result = sect8_scalability.run()
        assert result.metric("n_rpm_75m").measured == 4
        assert result.metric("n_max_20m").measured >= 1500
        assert result.metric("scheduled_messages_n100").measured == 9900


class TestAblations:
    def test_detectors(self):
        result = ablation_detectors.run(trials=25)
        search = result.metric("mean_search_rate_overlapping").measured
        threshold = result.metric("mean_threshold_rate_overlapping").measured
        assert search > threshold

    def test_bank(self):
        result = ablation_bank.run(trials=25)
        assert result.metric("accuracy_3_shapes").measured > 0.9


class TestLocalization:
    def test_median_error(self):
        result = localization_exp.run(trials=6)
        assert result.metric("median_error_m").measured < 0.3


class TestRendering:
    def test_every_result_renders(self):
        result = fig3_timing.run()
        text = result.render()
        assert "Fig. 3" in text
        assert "measured" in text
