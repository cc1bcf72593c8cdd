"""Spectrum-cached FFT detection plans (the fast matched-filter engine).

The search-and-subtract detector (paper Sect. IV) is the hot path of
every experiment in this repository.  The naive implementation pays, on
*every* ``detect()`` call and *every* iteration of the subtract loop:

* a full-length ``scipy.signal.correlate`` per template (each of which
  internally runs its own forward + inverse FFTs at its own padded
  size), and
* a fresh resampling of the whole template bank to the upsampled rate.

A :class:`DetectorPlan` precomputes everything that depends only on the
*shape* of the problem — the template bank, the CIR length, and the
upsampling factor — and keys it through :func:`repro.runtime.cache` so
thousands of Monte-Carlo trials share one plan per process:

* the templates resampled to the upsampled rate;
* their conjugate spectra, zero-padded to one shared
  ``scipy.fft.next_fast_len`` size and pre-multiplied with the
  peak-anchoring phase ramp, so the whole bank is evaluated as **one**
  forward FFT of the CIR times a 2-D spectrum matrix and **one** batched
  inverse FFT;
* the template <-> template cross-correlation table (peak-anchored, in a
  window of one template footprint), which turns step 5 of the paper's
  algorithm into an O(L_template) in-place update of all filter outputs
  instead of an O(N log N) re-filtering of the whole CIR;
* small-size conjugate spectra for the fractional-shift variant of the
  same update (sub-sample peak refinement shifts the subtrahend by a
  fraction of a sample, which a static table cannot represent exactly).

Numerical contract: the batched evaluation is the *same* linear
correlation the naive path computes (zero-padded, never circular — the
shared FFT length covers the full linear support), so fast and naive
detections agree to floating-point roundoff.  ``tests/test_detection_fast.py``
enforces this across bank sizes, CIR lengths, and SNRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.runtime.cache import get_cache
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse
from repro.signal.sampling import placed_segment

__all__ = ["DetectorPlan", "detector_plan", "plan_cache_key"]


def _anchored_spectra(
    templates: Sequence[Pulse], fft_length: int
) -> np.ndarray:
    """Conjugate template spectra with the peak-anchoring phase baked in.

    For a circular correlation at length ``L`` computed as
    ``ifft(fft(x, L) * conj(fft(s, L)))`` the output at index ``m`` is
    ``sum_j x[m + j] * conj(s[j])``.  The matched-filter convention of
    this repository anchors the output axis so a pulse peaking at signal
    index ``p`` maximises the output at ``p``; that is a circular delay
    by ``peak_index``, i.e. a multiplication of the spectrum with
    ``exp(-2j pi k peak / L)``.  Baking the ramp into the cached spectra
    makes the batched evaluation a single elementwise product.
    """
    spectra = np.empty((len(templates), fft_length), dtype=complex)
    freqs = np.fft.fftfreq(fft_length)
    for row, template in enumerate(templates):
        ramp = np.exp(-2j * np.pi * freqs * template.peak_index)
        spectra[row] = np.conj(sp_fft.fft(template.samples, fft_length)) * ramp
    return spectra


@dataclass(frozen=True)
class DetectorPlan:
    """Precomputed frequency-domain artifacts for one detection shape.

    A plan is immutable and shareable; build one with
    :func:`detector_plan` (which memoises through the runtime cache).

    Attributes
    ----------
    templates:
        The bank resampled to the fine (upsampled) rate, in bank order.
    cir_length:
        Native CIR length ``N`` the plan was built for.
    upsample_factor:
        FFT upsampling factor ``U`` (1 means "filter at the native rate").
    n_fine:
        ``N * U`` — length of the upsampled working signal and of every
        filter-bank output row.
    fft_length:
        Shared ``next_fast_len`` transform size covering the full linear
        correlation support of the longest template.
    spectra:
        ``(n_templates, fft_length)`` conjugate, peak-anchored template
        spectra — the 2-D spectrum matrix of the batched filter bank.
    small_fft_length:
        Transform size for the short update-window correlations.
    small_spectra:
        ``(n_templates, small_fft_length)`` conjugate, peak-anchored
        spectra used to correlate a placed segment against the bank.
    max_template_length:
        Longest fine-rate template (window-sizing constant).
    cross_correlations:
        Per-template ``(n_templates, window)`` arrays: entry ``t`` holds
        the peak-anchored correlation of template ``t`` with every bank
        template — the precomputed search-and-subtract update for
        integer-sample subtraction positions.
    """

    templates: Tuple[Pulse, ...]
    cir_length: int
    upsample_factor: int
    n_fine: int
    fft_length: int
    spectra: np.ndarray
    small_fft_length: int
    small_spectra: np.ndarray
    max_template_length: int
    cross_correlations: Tuple[np.ndarray, ...]

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        templates: Sequence[Pulse],
        cir_length: int,
        upsample_factor: int,
        sampling_period_s: float,
    ) -> "DetectorPlan":
        """Precompute all artifacts for a (bank, CIR length, factor) shape.

        ``sampling_period_s`` is the *native* CIR tap spacing; templates
        not already sampled at ``sampling_period_s / upsample_factor``
        are resampled (exactly mirroring the naive detector path).
        """
        if cir_length < 1:
            raise ValueError(f"cir_length must be >= 1, got {cir_length}")
        if upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {upsample_factor}"
            )
        if len(templates) == 0:
            raise ValueError("a detector plan needs at least one template")
        target = sampling_period_s / upsample_factor
        fine: List[Pulse] = []
        for template in templates:
            # atol=0: default atol (1e-8) would call any two sub-ns
            # periods "close" and silently skip the resampling.
            if np.isclose(
                template.sampling_period_s, target, rtol=1e-9, atol=0.0
            ):
                fine.append(template)
            else:
                fine.append(template.resampled(target))

        n_fine = cir_length * upsample_factor
        max_len = max(len(t.samples) for t in fine)
        # Full linear-correlation support: with this padding the circular
        # product equals the zero-padded linear correlation everywhere,
        # including the negative lags that the peak anchoring folds in.
        fft_length = sp_fft.next_fast_len(n_fine + max_len - 1)
        spectra = _anchored_spectra(fine, fft_length)

        # Short-window transform: must hold a placed segment (longest
        # template plus one padding sample) and one template footprint of
        # lag on either side without circular aliasing.
        seg_max = max_len + 1
        small_fft_length = sp_fft.next_fast_len(2 * max_len + seg_max)
        small_spectra = _anchored_spectra(fine, small_fft_length)

        plan = cls(
            templates=tuple(fine),
            cir_length=int(cir_length),
            upsample_factor=int(upsample_factor),
            n_fine=n_fine,
            fft_length=fft_length,
            spectra=spectra,
            small_fft_length=small_fft_length,
            small_spectra=small_spectra,
            max_template_length=max_len,
            cross_correlations=(),
        )
        # The integer-shift cross-correlation table is just the window
        # correlation of each template against the whole bank.
        table = tuple(
            plan.window_correlations(t.samples.astype(complex))[1]
            for t in fine
        )
        object.__setattr__(plan, "cross_correlations", table)
        return plan

    # -- batched filter bank -------------------------------------------------

    def filter_bank(self, working: np.ndarray) -> np.ndarray:
        """Matched-filter ``working`` against every template at once.

        ``working`` is the (upsampled) signal of length :attr:`n_fine`.
        Returns the ``(n_templates, n_fine)`` complex output matrix —
        identical (to roundoff) to calling
        :func:`repro.core.matched_filter.matched_filter` per template,
        but with one forward FFT and one batched inverse FFT total.
        """
        working = np.asarray(working)
        if working.ndim != 1:
            raise ValueError(
                f"expected a 1-D signal, got shape {working.shape}"
            )
        if len(working) != self.n_fine:
            raise ValueError(
                f"plan built for length {self.n_fine}, got {len(working)}"
            )
        forward = sp_fft.fft(working, self.fft_length)
        outputs = sp_fft.ifft(forward[np.newaxis, :] * self.spectra, axis=1)
        return np.ascontiguousarray(outputs[:, : self.n_fine])

    # -- incremental search-and-subtract updates -----------------------------

    def window_correlations(
        self, segment: np.ndarray
    ) -> Tuple[int, np.ndarray]:
        """Peak-anchored correlation of a short placed segment with the bank.

        For a segment ``e`` added into the working signal at buffer index
        ``d0``, every matched-filter output changes by
        ``amplitude * ordered[i, (n - d0) - offset]`` for output sample
        ``n`` — the *only* samples that change.  Returns
        ``(offset, ordered)`` where ``offset`` (negative) is the first
        affected output index relative to ``d0`` and ``ordered`` is the
        ``(n_templates, window)`` update matrix.

        One small forward FFT plus one small batched inverse FFT — this
        is the O(L_template) per-iteration cost of the incremental
        search-and-subtract.
        """
        segment = np.asarray(segment)
        if segment.ndim != 1:
            raise ValueError("segment must be a 1-D array")
        if len(segment) > self.max_template_length + 1:
            raise ValueError(
                f"segment of length {len(segment)} exceeds the plan's "
                f"window (max {self.max_template_length + 1})"
            )
        m = self.small_fft_length
        forward = sp_fft.fft(segment, m)
        aligned = sp_fft.ifft(forward[np.newaxis, :] * self.small_spectra, axis=1)
        lead = self.max_template_length - 1
        tail = self.max_template_length + len(segment) - 1
        # Negative lags live at the top of the circular buffer; stitching
        # them in front of the positive lags yields the linear window.
        ordered = np.concatenate(
            [aligned[:, m - lead:], aligned[:, :tail]], axis=1
        )
        return -lead, ordered

    def subtract_response(
        self,
        outputs: np.ndarray,
        template_index: int,
        position: float,
        amplitude: complex,
    ) -> Tuple[int, int]:
        """Apply step 5 of the paper's algorithm directly to ``outputs``.

        The naive detector places ``-amplitude * template`` into the
        working signal (via :func:`repro.signal.sampling.place_pulse`)
        and re-filters everything.  Because filtering is linear, the
        filter outputs change only by the correlation of that placed
        segment with each template — a window of one template footprint.
        This method computes exactly the segment ``place_pulse`` would
        place (same fractional shift, same clipping) and subtracts its
        ``amplitude``-scaled window correlations from ``outputs`` in
        place: O(L_template log L_template) per iteration instead of
        O(n_templates * N log N).

        Integer-sample positions with no clipping take the precomputed
        :attr:`cross_correlations` table directly; fractional or clipped
        placements correlate the exact shifted segment through the
        plan's small cached spectra.

        Returns the half-open ``(a, b)`` output range that changed
        (``a == b`` when the segment lies entirely outside the signal).
        """
        template = self.templates[template_index]
        samples = template.samples.astype(complex)
        start, segment = placed_segment(
            samples, position, template.peak_index
        )
        # Clip exactly as place_pulse would.
        src_start = max(0, -start)
        src_stop = len(segment) - max(
            0, start + len(segment) - self.n_fine
        )
        if src_start >= src_stop:
            return 0, 0  # entirely outside the signal: nothing changes
        unshifted = segment is samples  # no fractional part was applied
        if unshifted and src_start == 0 and src_stop == len(segment):
            offset = -(self.max_template_length - 1)
            ordered = self.cross_correlations[template_index]
            first = start + offset
        else:
            offset, ordered = self.window_correlations(
                segment[src_start:src_stop]
            )
            first = start + src_start + offset
        a = max(0, first)
        b = min(self.n_fine, first + ordered.shape[1])
        if a < b:
            outputs[:, a:b] -= amplitude * ordered[:, a - first : b - first]
        return a, b


def _template_key(template: Pulse) -> tuple:
    """A value-identity key for one template.

    ``(register, bandwidth, period)`` uniquely determines the sampled
    waveform for every pulse constructed through
    :mod:`repro.signal.pulses`; the raw sample bytes are included so
    hand-built :class:`Pulse` objects with custom samples can never
    collide with a synthesised one.
    """
    return (
        int(template.register),
        float(template.bandwidth_hz),
        float(template.sampling_period_s),
        template.samples.tobytes(),
    )


def plan_cache_key(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
    batch_size: int | None = None,
    kind: str = "detector",
) -> tuple:
    """The ``detector_plans`` cache key for one detection shape.

    The key *must* include the batch shape: a cross-trial
    :class:`~repro.core.batch.BatchDetectorPlan` carries batch-sized
    scratch buffers (and is a different type altogether), so serving a
    B=64 entry to the single-CIR path — or a single-CIR
    :class:`DetectorPlan` to ``detect_batch`` — would crash at best and
    silently corrupt outputs at worst.  ``batch_size=None`` denotes the
    single-CIR plan; the batched engine passes its B.  Even ``B == 1``
    must *not* collide with the single-CIR entry (the two are different
    types — a collision is exactly the "B plan served to the single-CIR
    path" bug, just in the other direction), hence the explicit
    ``"single"`` / ``("batch", B)`` discriminator rather than a bare
    integer.  ``tests/test_properties_detection.py::TestPlanCacheBatchKey``
    is the regression test that would have caught a key without this
    component.

    ``kind`` separates plan *families* sharing the cache: the default
    ``"detector"`` names the raw detection plans, while the batched
    pulse-id classifier (:mod:`repro.core.batch_id`) keys its
    :class:`~repro.core.batch_id.BatchClassifierPlan` wrappers under
    ``"classifier"`` so they can never shadow — or be shadowed by — a
    :class:`~repro.core.batch.BatchDetectorPlan` of the same shape.
    """
    return (
        str(kind),
        tuple(_template_key(t) for t in templates),
        int(cir_length),
        int(upsample_factor),
        float(sampling_period_s),
        "single" if batch_size is None else ("batch", int(batch_size)),
    )


def detector_plan(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
) -> DetectorPlan:
    """A memoised :class:`DetectorPlan` for a (bank, CIR length, factor).

    Plans are immutable; repeated trials with the same shape share one
    instance per process.  The ``detector_plans`` cache's hit rate shows
    up in the runtime metrics report, and plan builds are timed under
    ``detector.plan_build`` in the process-local
    :func:`repro.runtime.metrics.global_metrics` registry.
    """
    key = plan_cache_key(
        templates, cir_length, upsample_factor, sampling_period_s
    )

    def _build() -> DetectorPlan:
        with global_metrics().timer("detector.plan_build").time():
            return DetectorPlan.build(
                templates, cir_length, upsample_factor, sampling_period_s
            )

    return get_cache("detector_plans").get_or_create(key, _build)
