"""Differential property tests: every detection engine path agrees.

The detector ships with deliberately redundant implementations —

* search-and-subtract: the **naive** per-template re-filtering loop
  (``use_fast=False``), the **fast** spectrum-cached serial engine, and
  the **batched** cross-trial engine (:func:`repro.core.batch.detect_batch`);
* threshold baseline: the **naive** sample-by-sample scan
  (``use_fast=False``), the **fast** trigger-hopping scan, and the
  batched-upsampling :meth:`~repro.core.threshold.ThresholdDetector.detect_batch`.

The redundancy only buys confidence if the paths are continuously
proven equivalent, so this module hammers randomly generated CIRs —
odd and even lengths, fractional and edge-clipped pulse placements,
single- and multi-template banks — through every path and requires the
*same decisions* (response count, template choice) with numerics
matching at ``rtol <= 1e-9`` (in practice byte-identical on pocketfft
builds, but the tolerance keeps the suite platform-safe).

``TestPlanCacheBatchKey`` pins the cache-key regression: a batch-shaped
plan (which carries mutable ``(B, n_templates, fft_length)`` scratch)
must never be served where the single-CIR :class:`DetectorPlan` is
expected — not even at B=1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch import BatchDetectorPlan, batch_detector_plan, detect_batch
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.plan import DetectorPlan, detector_plan, plan_cache_key
from repro.core.threshold import ThresholdConfig, ThresholdDetector
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

TS = CIR_SAMPLING_PERIOD_S
RTOL = 1e-9

_PULSE = dw1000_pulse()
_BANK = TemplateBank.paper_bank(2)

#: Odd, even, prime, and power-of-two-unfriendly lengths: exercises the
#: ``next_fast_len`` padding and the upsampler's odd/even Nyquist split.
_LENGTHS = (257, 318, 509, 1016)


def _random_cir(
    rng: np.random.Generator,
    length: int,
    n_pulses: int,
    clipped: bool = False,
    noise: float = 0.01,
) -> np.ndarray:
    """A CIR with fractional-position pulses and complex white noise.

    ``clipped=True`` allows placements hanging off either edge of the
    buffer (``place_pulse`` clips the out-of-range part), the case where
    a sloppy window computation in any engine would first diverge.
    """
    cir = np.zeros(length, dtype=complex)
    template = _PULSE.samples.astype(complex)
    for _ in range(n_pulses):
        if clipped:
            position = float(rng.uniform(-20.0, length + 20.0))
        else:
            position = float(rng.uniform(40.0, length - 40.0))
        amplitude = rng.uniform(0.2, 1.0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi)
        )
        place_pulse(cir, template, position, amplitude)
    cir += noise * (
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
    ) / np.sqrt(2.0)
    return cir


def _assert_responses_close(got, want):
    """Same decisions, numerics within RTOL."""
    assert len(got) == len(want)
    for response, reference in zip(got, want):
        assert response.template_index == reference.template_index
        assert response.index == pytest.approx(
            reference.index, rel=RTOL, abs=1e-9
        )
        assert response.delay_s == pytest.approx(
            reference.delay_s, rel=RTOL, abs=1e-18
        )
        assert abs(response.amplitude - reference.amplitude) <= RTOL * max(
            1.0, abs(reference.amplitude)
        )
        assert len(response.scores) == len(reference.scores)
        for score, ref_score in zip(response.scores, reference.scores):
            assert score == pytest.approx(ref_score, rel=RTOL, abs=1e-12)


class TestSearchEnginesAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        n_pulses=st.integers(1, 3),
        clipped=st.booleans(),
    )
    def test_fast_matches_naive(self, seed, length, n_pulses, clipped):
        rng = np.random.default_rng(seed)
        cir = _random_cir(rng, length, n_pulses, clipped=clipped)
        fast = SearchAndSubtract(
            _BANK, SearchAndSubtractConfig(max_responses=n_pulses)
        ).detect(cir, TS, noise_std=0.01)
        naive = SearchAndSubtract(
            _BANK,
            SearchAndSubtractConfig(max_responses=n_pulses, use_fast=False),
        ).detect(cir, TS, noise_std=0.01)
        _assert_responses_close(fast, naive)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
        clipped=st.booleans(),
    )
    def test_batched_matches_fast(self, seed, length, batch, clipped):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        config = SearchAndSubtractConfig(max_responses=3)
        detector = SearchAndSubtract(_BANK, config)
        serial = [detector.detect(cirs[b], TS, noise_std=0.01) for b in range(batch)]
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from(_LENGTHS))
    def test_per_trial_noise_vector_matches_scalar_calls(self, seed, length):
        """A length-B noise vector means trial b sees noise_std[b]."""
        rng = np.random.default_rng(seed)
        cirs = np.stack([_random_cir(rng, length, 2) for _ in range(3)])
        stds = [0.005, 0.02, 0.08]
        config = SearchAndSubtractConfig(max_responses=2, min_peak_snr=4.0)
        detector = SearchAndSubtract(_PULSE, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b]) for b in range(3)
        ]
        batched = detect_batch(cirs, _PULSE, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)


class TestRaggedEarlyStop:
    """The vectorised extraction loop retires rows independently (the
    active-row mask): a row whose best peak falls under its noise gate
    stops iterating while its neighbours keep extracting.  These tests
    *force* that ragged termination with per-row noise floors spanning
    two orders of magnitude and require the batched results to stay
    differentially equal to B independent serial runs."""

    @staticmethod
    def _ragged_stds(batch: int):
        # gate = min_peak_snr * std * sqrt(upsample_factor); with
        # amplitudes in [0.2, 1.0] these four decades take rows from
        # "extract everything" down to "gated out before iteration 0".
        return [0.002 * (6.0 ** (b % 4)) for b in range(batch)]

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(5)
        batch = 4
        cirs = np.stack(
            [_random_cir(rng, 509, 3, noise=0.0) for _ in range(batch)]
        )
        stds = self._ragged_stds(batch)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        detector = SearchAndSubtract(_BANK, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b])
            for b in range(batch)
        ]
        # The sweep only exercises the mask if termination is *actually*
        # ragged — guard the fixture, not just the comparison.
        assert len({len(responses) for responses in serial}) > 1
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(2, 6),
        clipped=st.booleans(),
    )
    def test_ragged_sweep_matches_serial(self, seed, length, batch, clipped):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        stds = self._ragged_stds(batch)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        detector = SearchAndSubtract(_BANK, config)
        serial = [
            detector.detect(cirs[b], TS, noise_std=stds[b])
            for b in range(batch)
        ]
        batched = detect_batch(cirs, _BANK, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)

    def test_single_row_fully_gated(self):
        """B=1 whose only row gates out before iteration 0: the
        vectorised path must return ``[[]]``, not raise or hang."""
        rng = np.random.default_rng(9)
        cir = _random_cir(rng, 318, 2)
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        batched = detect_batch(
            cir[np.newaxis, :], _BANK, TS, config, noise_std=10.0
        )
        assert batched == [[]]

    def test_empty_batch_with_gates(self):
        """B=0 through the gated path stays the trivial empty list."""
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        assert detect_batch(
            np.zeros((0, 257)), _BANK, TS, config, noise_std=1.0
        ) == []


class TestThresholdEnginesAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        n_pulses=st.integers(1, 3),
        clipped=st.booleans(),
    )
    def test_fast_scan_matches_naive(self, seed, length, n_pulses, clipped):
        rng = np.random.default_rng(seed)
        cir = _random_cir(rng, length, n_pulses, clipped=clipped)
        fast = ThresholdDetector(
            _PULSE, ThresholdConfig(max_responses=n_pulses)
        ).detect(cir, TS, noise_std=0.01)
        naive = ThresholdDetector(
            _PULSE, ThresholdConfig(max_responses=n_pulses, use_fast=False)
        ).detect(cir, TS, noise_std=0.01)
        # The two scans walk the *same* upsampled magnitude array, so
        # their peaks must agree exactly — no tolerance.
        assert [r.index for r in fast] == [r.index for r in naive]
        assert [r.amplitude for r in fast] == [r.amplitude for r in naive]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
    )
    def test_batched_matches_serial(self, seed, length, batch):
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [_random_cir(rng, length, rng.integers(1, 4)) for _ in range(batch)]
        )
        detector = ThresholdDetector(_PULSE, ThresholdConfig(max_responses=3))
        serial = [detector.detect(cirs[b], TS, noise_std=0.01) for b in range(batch)]
        batched = detector.detect_batch(cirs, TS, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            _assert_responses_close(got, want)


class TestDegenerateBatches:
    def test_empty_batch_returns_empty(self):
        assert detect_batch(np.zeros((0, 256)), _PULSE, TS) == []
        detector = ThresholdDetector(_PULSE)
        assert detector.detect_batch(np.zeros((0, 256)), TS) == []

    def test_single_trial_batch_equals_serial(self):
        """B=1 is the degenerate batch the cache-key bug used to break:
        a warm single-CIR plan must not be served to the batch path."""
        rng = np.random.default_rng(3)
        cir = _random_cir(rng, 509, 2)
        detector = SearchAndSubtract(
            _BANK, SearchAndSubtractConfig(max_responses=2)
        )
        serial = detector.detect(cir, TS, noise_std=0.01)  # warms the plan
        batched = detect_batch(
            cir[np.newaxis, :], _BANK, TS,
            SearchAndSubtractConfig(max_responses=2), noise_std=0.01,
        )
        assert len(batched) == 1
        _assert_responses_close(batched[0], serial)

    def test_empty_template_bank_rejected(self):
        with pytest.raises(ValueError):
            detect_batch(np.zeros((2, 256)), [], TS)

    def test_1d_input_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="np.newaxis"):
            detect_batch(np.zeros(256, dtype=complex), _PULSE, TS)

    def test_all_zero_batch_detects_nothing(self):
        config = SearchAndSubtractConfig(max_responses=3, min_peak_snr=5.0)
        results = detect_batch(
            np.zeros((3, 257)), _PULSE, TS, config, noise_std=1.0
        )
        assert results == [[], [], []]
        detector = ThresholdDetector(_PULSE, ThresholdConfig(max_responses=3))
        assert detector.detect_batch(np.zeros((3, 257)), TS) == [[], [], []]

    def test_mismatched_noise_vector_rejected(self):
        with pytest.raises(ValueError):
            detect_batch(
                np.zeros((3, 257)), _PULSE, TS, noise_std=[0.1, 0.2]
            )


class TestPlanCacheBatchKey:
    """A batch plan must never be served to the single-CIR path (or to a
    different batch size) — the key includes the batch shape."""

    def test_single_and_batch_keys_differ(self):
        single = plan_cache_key([_PULSE], 509, 8, TS)
        assert single != plan_cache_key([_PULSE], 509, 8, TS, batch_size=1)
        assert single != plan_cache_key([_PULSE], 509, 8, TS, batch_size=64)

    def test_batch_sizes_key_separately(self):
        keys = {
            plan_cache_key([_PULSE], 509, 8, TS, batch_size=b)
            for b in (1, 2, 8, 64)
        }
        assert len(keys) == 4

    def test_same_shape_same_key(self):
        assert plan_cache_key([_PULSE], 509, 8, TS, batch_size=8) == (
            plan_cache_key([dw1000_pulse()], 509, 8, TS, batch_size=8)
        )

    def test_key_shape(self):
        """(kind, templates, N, U, period, batch shape) and nothing else."""
        key = plan_cache_key([_PULSE], 509, 8, TS, batch_size=4)
        assert len(key) == 6
        assert key[0] == "detector"
        assert len(key[1]) == 1
        assert key[2:] == (509, 8, float(TS), ("batch", 4))

    def test_plan_types_never_cross(self):
        """Warm both caches for one shape; each lookup must return its
        own plan type, with the batch plan wrapping the shared base."""
        base = detector_plan([_PULSE], 509, 8, TS)
        batch = batch_detector_plan([_PULSE], 509, 8, TS, batch_size=4)
        assert isinstance(base, DetectorPlan)
        assert isinstance(batch, BatchDetectorPlan)
        assert batch.base is base  # artifacts shared, wrapper distinct
        # Repeat lookups come from the cache and keep their types.
        assert detector_plan([_PULSE], 509, 8, TS) is base
        assert batch_detector_plan([_PULSE], 509, 8, TS, batch_size=4) is batch


class TestClassifierEnginesAgree:
    """Differential sweep for the batched classifier (Sect. V at scale).

    :func:`repro.core.batch_id.classify_batch` must equal B independent
    :meth:`PulseShapeClassifier.classify` calls — same response count
    and order, same winning shape indices, confidences and positions
    within ``rtol <= 1e-9``.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from(_LENGTHS),
        batch=st.integers(1, 5),
        clipped=st.booleans(),
    )
    def test_batched_matches_serial(self, seed, length, batch, clipped):
        from repro.core.batch_id import classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        bank = TemplateBank.paper_bank(3)
        rng = np.random.default_rng(seed)
        cirs = np.stack(
            [
                _random_cir(rng, length, rng.integers(1, 4), clipped=clipped)
                for _ in range(batch)
            ]
        )
        config = SearchAndSubtractConfig(max_responses=3)
        classifier = PulseShapeClassifier(bank, config)
        serial = [
            classifier.classify(cirs[b], TS, noise_std=0.01)
            for b in range(batch)
        ]
        batched = classify_batch(cirs, bank, TS, config, noise_std=0.01)
        assert len(batched) == batch
        for got, want in zip(batched, serial):
            self._assert_classified_close(got, want)

    @staticmethod
    def _assert_classified_close(got, want):
        assert len(got) == len(want)
        for classified, reference in zip(got, want):
            assert classified.shape_index == reference.shape_index
            assert classified.shape_name == reference.shape_name
            if np.isinf(reference.confidence):
                assert np.isinf(classified.confidence)
            else:
                assert classified.confidence == pytest.approx(
                    reference.confidence, rel=RTOL
                )
            _assert_responses_close(
                [classified.response], [reference.response]
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from(_LENGTHS))
    def test_per_trial_noise_vector_matches_scalar_calls(self, seed, length):
        from repro.core.batch_id import classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        bank = TemplateBank.paper_bank(2)
        rng = np.random.default_rng(seed)
        cirs = np.stack([_random_cir(rng, length, 2) for _ in range(3)])
        stds = [0.005, 0.02, 0.08]
        config = SearchAndSubtractConfig(max_responses=2, min_peak_snr=4.0)
        classifier = PulseShapeClassifier(bank, config)
        serial = [
            classifier.classify(cirs[b], TS, noise_std=stds[b])
            for b in range(3)
        ]
        batched = classify_batch(cirs, bank, TS, config, noise_std=stds)
        for got, want in zip(batched, serial):
            self._assert_classified_close(got, want)

    def test_empty_batch_returns_empty(self):
        from repro.core.batch_id import classify_batch

        assert classify_batch(np.zeros((0, 256)), _BANK, TS) == []

    def test_single_trial_batch_equals_serial(self):
        """B=1: the degenerate batch must round-trip the serial result
        (and must not be served a single-CIR or detector-family plan)."""
        from repro.core.batch_id import classify_batch
        from repro.core.pulse_id import PulseShapeClassifier

        rng = np.random.default_rng(7)
        cir = _random_cir(rng, 509, 2)
        config = SearchAndSubtractConfig(max_responses=2)
        serial = PulseShapeClassifier(_BANK, config).classify(
            cir, TS, noise_std=0.01
        )
        batched = classify_batch(
            cir[np.newaxis, :], _BANK, TS, config, noise_std=0.01
        )
        assert len(batched) == 1
        self._assert_classified_close(batched[0], serial)

    def test_single_template_bank_confidence_infinite(self):
        """A 1-template bank has no runner-up: confidence is inf on both
        paths and every response maps to shape 0."""
        from repro.core.batch_id import classify_batch

        bank = TemplateBank.paper_bank(1)
        rng = np.random.default_rng(11)
        cirs = np.stack([_random_cir(rng, 318, 1) for _ in range(2)])
        results = classify_batch(
            cirs, bank, TS, SearchAndSubtractConfig(max_responses=1),
            noise_std=0.01,
        )
        for trial in results:
            assert len(trial) == 1
            assert trial[0].shape_index == 0
            assert np.isinf(trial[0].confidence)

    def test_tied_scores_resolve_deterministically(self):
        """Ties (equal winning and runner-up scores) must resolve to
        ``np.argsort``'s descending-order winner with confidence 1.0 —
        the decision is deterministic, never platform- or path-
        dependent.  Both engines run the same shared decision core
        (:func:`repro.core.pulse_id.classify_responses`), so testing it
        once covers the serial and the batched path by construction."""
        from repro.core.detection import DetectedResponse
        from repro.core.pulse_id import classify_responses

        tied = DetectedResponse(
            index=100.0,
            delay_s=100.0 * TS,
            amplitude=1.0 + 0j,
            template_index=0,
            scores=(0.75, 0.75),
        )
        [classified] = classify_responses([tied])
        # np.argsort is stable ascending; reversed, the tie's winner is
        # the *last* maximal index — pinned here so any future change
        # (e.g. to a first-index rule) must consciously touch this test.
        assert classified.shape_index == 1
        assert classified.confidence == pytest.approx(1.0)

    def test_1d_input_rejected_with_guidance(self):
        from repro.core.batch_id import classify_batch

        with pytest.raises(ValueError, match="np.newaxis"):
            classify_batch(np.zeros(256, dtype=complex), _BANK, TS)

    def test_empty_bank_rejected(self):
        from repro.core.batch_id import classify_batch

        with pytest.raises(ValueError, match="non-empty"):
            classify_batch(np.zeros((2, 256)), [], TS)


class TestPlanFamilyKeys:
    """Classifier plans share the cache with detector plans; the
    ``kind`` discriminator must keep the two families apart at every
    batch shape."""

    def test_detector_and_classifier_keys_differ(self):
        for batch_size in (None, 1, 8):
            assert plan_cache_key(
                [_PULSE], 509, 8, TS, batch_size=batch_size
            ) != plan_cache_key(
                [_PULSE], 509, 8, TS, batch_size=batch_size,
                kind="classifier",
            )

    def test_classifier_plan_wraps_shared_batch_plan(self):
        from repro.core.batch_id import BatchClassifierPlan, batch_classifier_plan

        bank = TemplateBank.paper_bank(2)
        plan = batch_classifier_plan(bank, 509, 8, TS, batch_size=4)
        assert isinstance(plan, BatchClassifierPlan)
        assert plan.batch_size == 4
        assert plan.n_templates == 2
        # The wrapped detector plan is the *same* cached object the
        # batched detection path uses — artifacts shared, not copied.
        assert plan.detector is batch_detector_plan(
            list(bank), 509, 8, TS, 4
        )
        # Repeat lookups hit the classifier-family cache entry.
        assert batch_classifier_plan(bank, 509, 8, TS, batch_size=4) is plan

    def test_bank_size_mismatch_rejected(self):
        from repro.core.batch_id import BatchClassifierPlan

        detector = batch_detector_plan([_PULSE], 509, 8, TS, 2)
        with pytest.raises(ValueError, match="templates"):
            BatchClassifierPlan(detector, TemplateBank.paper_bank(3))


class TestExplicitPlanMustMatchCall:
    """An explicit ``plan=`` is checked against the call's bank and tap
    period, not only its (B, N, U) shape: a plan built for another bank
    or period would range the call with the wrong templates."""

    _OTHER_BANK = TemplateBank([0xA0, 0xB0, 0xFF])

    @staticmethod
    def _cirs():
        rng = np.random.default_rng(41)
        return np.stack([_random_cir(rng, 318, 2) for _ in range(2)])

    @staticmethod
    def _plan(bank, sampling_period_s=TS):
        base = detector_plan(list(bank), 318, 8, sampling_period_s)
        return BatchDetectorPlan(base, 2)

    def test_detect_rejects_other_bank(self):
        plan = self._plan(TemplateBank.paper_bank(3))
        with pytest.raises(ValueError, match="template bank"):
            detect_batch(self._cirs(), self._OTHER_BANK, TS, plan=plan)

    def test_detect_rejects_other_period(self):
        bank = TemplateBank.paper_bank(3)
        with pytest.raises(ValueError, match="tap period"):
            detect_batch(self._cirs(), bank, 2 * TS, plan=self._plan(bank))

    def test_classify_rejects_other_bank(self):
        from repro.core.batch_id import BatchClassifierPlan, classify_batch

        bank = TemplateBank.paper_bank(3)
        plan = BatchClassifierPlan(self._plan(bank), bank)
        with pytest.raises(ValueError, match="template bank"):
            classify_batch(self._cirs(), self._OTHER_BANK, TS, plan=plan)

    def test_classify_rejects_other_period(self):
        from repro.core.batch_id import BatchClassifierPlan, classify_batch

        bank = TemplateBank.paper_bank(3)
        plan = BatchClassifierPlan(self._plan(bank), bank)
        with pytest.raises(ValueError, match="tap period"):
            classify_batch(self._cirs(), bank, 2 * TS, plan=plan)

    def test_matching_plan_equals_cached_path(self):
        """An equal bank (another object) and the plan's own bank both
        pass the check and range exactly as the cached plan does."""
        from repro.core.batch_id import BatchClassifierPlan, classify_batch

        bank = TemplateBank.paper_bank(3)
        config = SearchAndSubtractConfig(max_responses=2)
        cirs = self._cirs()
        detector_plan_ = self._plan(bank)
        want = detect_batch(cirs, bank, TS, config, noise_std=0.01)
        got = detect_batch(
            cirs, TemplateBank.paper_bank(3), TS, config, noise_std=0.01,
            plan=detector_plan_,
        )
        assert got == want
        plan = BatchClassifierPlan(detector_plan_, bank)
        want = classify_batch(cirs, bank, TS, config, noise_std=0.01)
        for call_bank in (bank, TemplateBank.paper_bank(3)):
            got = classify_batch(
                cirs, call_bank, TS, config, noise_std=0.01, plan=plan
            )
            assert got == want
