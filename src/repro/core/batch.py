"""Cross-trial batched detection: many CIRs through one FFT engine pass.

The spectrum-cached engine of :mod:`repro.core.plan` already collapses
the per-CIR filter bank into one forward FFT x 2-D spectrum matrix x
one batched inverse FFT.  This module batches across the *other* axis —
trials.  A Monte-Carlo experiment evaluating B independent CIRs of the
same shape (same template bank, CIR length, upsampling factor) stacks
them into a ``(B, N)`` array and pays:

* **one** batched upsampling transform
  (:func:`repro.signal.sampling.fft_upsample_batch`) instead of B,
* **one** ``(B, fft_length)`` forward FFT instead of B,
* **one** ``(B, n_templates, fft_length)`` batched inverse FFT instead
  of B,

then runs the search-and-subtract extraction *vectorised across the
batch dimension* (:func:`repro.core.batch_extract.extract_responses_batch`):
one argmax per iteration over the whole ``(B, n_templates * n_fine)``
magnitude view, an active-row mask for ragged early-stop, and grouped
batched small-FFT subtraction updates.  The decision arithmetic is
shared with the serial loop (same helpers, same expression order) and
pocketfft evaluates a row of a 2-D transform with the same kernel as
the 1-D call, so results are byte-identical in practice and bounded at
``rtol <= 1e-9`` by ``tests/test_properties_detection.py`` regardless.

All batch transforms are ``scipy.fft`` calls with ``workers=-1`` on
NumPy arrays.

Batch plans are memoised per ``(bank, CIR length, factor, B)`` shape in
the same ``detector_plans`` cache the single-CIR path uses; the key
*includes* the batch size (see :func:`repro.core.plan.plan_cache_key`),
so a B=64 plan — which carries ``(B, n_templates, fft_length)`` scratch
buffers and is not a :class:`~repro.core.plan.DetectorPlan` at all —
can never be served to the single-CIR path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy import fft as sp_fft

from repro.core.batch_extract import extract_responses_batch
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _per_trial_noise,
)
from repro.core.plan import DetectorPlan, plan_cache_key
from repro.runtime.cache import get_cache
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse

__all__ = ["BatchDetectorPlan", "batch_detector_plan", "detect_batch"]


class BatchDetectorPlan:
    """A :class:`DetectorPlan` extended with batch-shaped artifacts.

    Wraps the (cached, batch-independent) base plan and adds what only
    makes sense for a fixed batch size B: a preallocated
    ``(B, n_templates, fft_length)`` complex scratch buffer for the
    spectrum product, which at B=64 x 4 templates x ~9.4k bins is tens
    of megabytes we do not want to reallocate on every engine pass.

    Because the scratch buffer is mutated on every call, a batch plan is
    *not* shape-interchangeable: serving it where a different B (or the
    single-CIR :class:`DetectorPlan`) is expected would at best raise a
    broadcasting error and at worst silently alias another batch's
    spectra.  For the same reason :meth:`filter_bank`'s return value may
    alias the scratch buffer (the inverse FFT runs in place): it is
    valid — and freely mutable, the extraction loop writes into it —
    only until the next :meth:`filter_bank` call on the same plan, which
    refills the buffer from scratch.  :func:`detect_batch` and
    :func:`repro.core.batch_id.classify_batch` both consume the outputs
    fully before returning, so the contract is internal.  That is why
    :func:`repro.core.plan.plan_cache_key` keys plans by batch size —
    the regression test lives in
    ``tests/test_properties_detection.py::TestPlanCacheBatchKey``.
    """

    def __init__(self, base: DetectorPlan, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.base = base
        self.batch_size = int(batch_size)
        self._product = np.empty(
            (self.batch_size, len(base.templates), base.fft_length),
            dtype=complex,
        )
        self._magnitudes = np.empty(
            (self.batch_size, len(base.templates), base.n_fine),
            dtype=float,
        )
        # Upsampling pad scratch.  Only the head/tail spectrum blocks
        # (plus the split Nyquist bin) are ever written; the middle
        # stays zero from construction, so zeroing once here replaces a
        # ~8 MB memset per engine pass at B=64.
        self._padded = np.zeros(
            (self.batch_size, base.n_fine), dtype=complex
        )

    def magnitudes(self, outputs: np.ndarray) -> np.ndarray:
        """``np.abs(outputs)`` into the plan's reusable float scratch.

        The extraction loop consumes a ``(B, n_templates, n_fine)``
        magnitude tensor alongside the complex outputs; computing it
        into a preallocated buffer avoids another ~16 MB allocation per
        engine pass at B=64.  Same aliasing contract as
        :meth:`filter_bank`: the result is valid (and mutable) until the
        next call on this plan.
        """
        return np.abs(outputs, out=self._magnitudes)

    @property
    def n_templates(self) -> int:
        return len(self.base.templates)

    def filter_pass(self, cirs: np.ndarray) -> np.ndarray:
        """Upsample + matched-filter B native-rate CIRs in one pass.

        ``cirs`` is ``(B, cir_length)`` complex at the radio's tap rate;
        returns the ``(B, n_templates, n_fine)`` complex output tensor
        (same aliasing contract as :meth:`filter_bank`).  Equivalent to
        ``filter_bank(fft_upsample_batch(cirs, U))`` but with the
        spectrum zero-padding done into the plan's preallocated scratch.
        """
        cirs = np.asarray(cirs, dtype=complex)
        if cirs.shape != (self.batch_size, self.base.cir_length):
            raise ValueError(
                f"plan built for shape "
                f"{(self.batch_size, self.base.cir_length)}, got "
                f"{tuple(cirs.shape)}"
            )
        factor = self.base.upsample_factor
        if factor == 1:
            working = cirs  # read-only below; extraction mutates outputs only
        else:
            n = self.base.cir_length
            spectrum = sp_fft.fft(cirs, axis=1, workers=-1)
            padded = self._padded
            # Same spectrum split as fft_upsample_batch: positive
            # frequencies at the head, negative at the tail, an even
            # length's Nyquist bin shared half-and-half.
            half = (n + 1) // 2
            padded[:, :half] = spectrum[:, :half]
            if n > half:
                padded[:, -(n - half):] = spectrum[:, half:]
            if n % 2 == 0:
                padded[:, half] = spectrum[:, half] / 2.0
                padded[:, -half] = spectrum[:, half] / 2.0
            working = sp_fft.ifft(padded, axis=1, workers=-1)
            working *= factor
        return self.filter_bank(working)

    def filter_bank(self, working: np.ndarray) -> np.ndarray:
        """Matched-filter B upsampled signals against the whole bank.

        ``working`` is ``(B, n_fine)``; returns the
        ``(B, n_templates, n_fine)`` complex output tensor whose slice
        ``[b]`` equals ``self.base.filter_bank(working[b])`` — one
        forward FFT dispatch and one batched inverse FFT dispatch for
        the entire batch.

        Both dispatches pass ``workers=-1``: with B x n_templates
        independent rows the transforms row-parallelise trivially, and
        pocketfft's worker path evaluates each row with the same kernel
        as the serial call, so per-row results stay bit-identical (the
        property suite asserts ``rtol <= 1e-9`` regardless).  This is a
        batched-only win — the serial path has a single row per
        transform and nothing to parallelise over.
        """
        working = np.asarray(working)
        if working.ndim != 2:
            raise ValueError(
                f"expected a (B, n_fine) batch, got shape {working.shape}"
            )
        if working.shape != (self.batch_size, self.base.n_fine):
            raise ValueError(
                f"plan built for shape {(self.batch_size, self.base.n_fine)},"
                f" got {working.shape}"
            )
        forward = sp_fft.fft(
            working, self.base.fft_length, axis=1, workers=-1
        )
        np.multiply(
            forward[:, np.newaxis, :],
            self.base.spectra[np.newaxis, :, :],
            out=self._product,
        )
        # ``overwrite_x`` lets pocketfft transform the scratch buffer in
        # place instead of allocating a second (B, n_templates,
        # fft_length) tensor — at B=64 that is ~33 MB of allocation and
        # write traffic per engine pass, which is exactly what makes
        # large batches memory-bound.  The returned slice is a view
        # whose per-(b, t) rows are contiguous, which is all the
        # extraction loop touches; callers may mutate it freely because
        # the buffer is refilled from scratch on the next call (the
        # class docstring spells out the aliasing contract).
        outputs = sp_fft.ifft(self._product, axis=2, workers=-1,
                              overwrite_x=True)
        return outputs[:, :, : self.base.n_fine]


def _check_plan(
    plan: "BatchDetectorPlan",
    templates: Optional[Sequence[Pulse]],
    sampling_period_s: float,
    batch_size: int,
    cir_length: int,
    upsample_factor: int,
) -> None:
    """Reject an explicitly supplied plan that was built for another call.

    The plan must match the call's shape (B, N, U), its fine tap period
    ``sampling_period_s / U`` and, unless ``templates`` is ``None``
    (the caller already knows the bank is the plan's own), its template
    bank by ``(register, bandwidth)`` in bank order.
    """
    if (
        plan.batch_size != batch_size
        or plan.base.cir_length != cir_length
        or plan.base.upsample_factor != upsample_factor
    ):
        raise ValueError(
            "explicit plan shape (B="
            f"{plan.batch_size}, N={plan.base.cir_length}, "
            f"U={plan.base.upsample_factor}) does not match the call "
            f"(B={batch_size}, N={cir_length}, U={upsample_factor})"
        )
    built = plan.base.templates
    target = sampling_period_s / upsample_factor
    # The same tolerance DetectorPlan.build resamples by.
    if abs(built[0].sampling_period_s - target) > 1e-9 * abs(target):
        raise ValueError(
            "explicit plan was built for a fine tap period of "
            f"{built[0].sampling_period_s!r} s, the call needs {target!r} s"
        )
    if templates is not None and [
        (int(t.register), float(t.bandwidth_hz)) for t in templates
    ] != [(int(t.register), float(t.bandwidth_hz)) for t in built]:
        raise ValueError(
            "explicit plan was built for another template bank "
            f"(registers {[int(t.register) for t in built]}), the call "
            f"supplied registers {[int(t.register) for t in templates]}"
        )


def batch_detector_plan(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
    batch_size: int,
) -> BatchDetectorPlan:
    """A memoised :class:`BatchDetectorPlan` for a batched shape.

    The underlying :class:`DetectorPlan` artifacts (spectra,
    cross-correlation tables) are shared with the single-CIR path via
    its own cache entry; only the thin batch wrapper (plus its scratch
    buffer) is stored per batch size.  Both lookups count toward the
    ``detector_plans`` hit rate shown in the runtime metrics report.
    """
    from repro.core.plan import detector_plan

    key = plan_cache_key(
        templates, cir_length, upsample_factor, sampling_period_s,
        batch_size=batch_size,
    )

    def _build() -> BatchDetectorPlan:
        with global_metrics().timer("detector.batch_plan_build").time():
            base = detector_plan(
                templates, cir_length, upsample_factor, sampling_period_s
            )
            return BatchDetectorPlan(base, batch_size)

    return get_cache("detector_plans").get_or_create(key, _build)


def detect_batch(
    cirs,
    templates,
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None = None,
    noise_std=0.0,
    *,
    plan: BatchDetectorPlan | None = None,
) -> List[List[DetectedResponse]]:
    """Run search-and-subtract on B stacked CIRs in one batched pass.

    Parameters
    ----------
    cirs:
        ``(B, N)`` array (or sequence of B equal-length 1-D arrays) of
        complex CIR samples at the radio's native tap rate.  ``B == 0``
        returns ``[]``.
    templates:
        Template bank (a :class:`~repro.signal.templates.TemplateBank`,
        a single :class:`~repro.signal.pulses.Pulse`, or a sequence of
        pulses), exactly as accepted by
        :class:`~repro.core.detection.SearchAndSubtract`.
    sampling_period_s:
        Tap spacing of every CIR in the batch.
    config:
        Detector knobs; defaults to ``SearchAndSubtractConfig()``.
        ``use_fast`` is ignored here — this *is* the fast engine; use
        :meth:`SearchAndSubtract.detect_batch` for the escape hatch.
    noise_std:
        Scalar shared by all trials, or a length-B sequence of per-trial
        noise standard deviations (for the early-stop gate).
    plan:
        Optional explicit :class:`BatchDetectorPlan` to run on,
        bypassing the process-local plan cache.  The cache hands every
        same-shape caller the *same* plan object — whose scratch buffers
        are mutated on every pass — so concurrent engine passes from
        multiple threads (e.g. the :mod:`repro.serve` shard pool) must
        each bring a private plan instead.  The plan's shape (batch
        size, CIR length, upsample factor), fine tap period and
        template bank must match the call.

    Returns
    -------
    list of list of :class:`DetectedResponse`
        Entry ``b`` equals ``SearchAndSubtract(templates, config)
        .detect(cirs[b], sampling_period_s, noise_std=noise_std[b])``
        — same responses, same delay-ascending order.
    """
    if isinstance(templates, Pulse):
        templates = [templates]
    templates = list(templates)
    if len(templates) == 0:
        raise ValueError("detect_batch needs at least one template")
    config = config or SearchAndSubtractConfig()

    cirs = np.asarray(cirs, dtype=complex)
    if cirs.ndim == 1:
        raise ValueError(
            "detect_batch expects a (B, N) batch of CIRs; wrap a single "
            "CIR as cirs[np.newaxis, :] or call detect() instead"
        )
    if cirs.ndim != 2:
        raise ValueError(f"expected a (B, N) batch, got shape {cirs.shape}")
    batch_size, cir_length = cirs.shape
    if batch_size == 0:
        return []
    stds = _per_trial_noise(noise_std, batch_size)

    metrics = global_metrics()
    metrics.counter("detector.batch_detects").inc()
    metrics.counter("detector.batch_trials").inc(batch_size)
    if plan is None:
        plan = batch_detector_plan(
            templates,
            cir_length,
            config.upsample_factor,
            sampling_period_s,
            batch_size,
        )
    else:
        _check_plan(
            plan,
            templates,
            sampling_period_s,
            batch_size,
            cir_length,
            config.upsample_factor,
        )
    with metrics.timer("detector.batch_filter_pass").time():
        outputs = plan.filter_pass(cirs)
        magnitudes = plan.magnitudes(outputs)
    with metrics.timer("detector.batch_extract").time():
        results = extract_responses_batch(
            plan.base,
            outputs,
            magnitudes,
            config,
            sampling_period_s,
            stds,
        )
    for responses in results:
        responses.sort(key=lambda response: response.delay_s)
    return results
