"""Batch-vectorised search-and-subtract extraction.

:func:`repro.core.detection.extract_responses` runs the paper's
step 2–6 loop on *one* filter-bank output. The batched engines used to
call it per trial in a Python loop, which left ~45 % of a B=64 engine
pass in per-trial Python and per-call small FFTs. This module runs the
same loop *across* the batch dimension:

* **peak-pick** — one ``argmax`` over the ``(B, n_templates * n_fine)``
  magnitude view per iteration (C-order, so each row's winner index is
  exactly the serial ``np.unravel_index(np.argmax(...))`` pair);
* **ragged termination** — an active-row mask: the early-stop gate and
  ``max_responses`` fire per row, and a stopped row's result list is
  frozen exactly where the serial loop would have returned;
* **template subtraction** — fractional, unclipped placements (the
  common case under sub-sample refinement) are grouped per template and
  updated with *batched* small FFTs: one fractional-delay ifft over the
  group, one ``(R, m)`` forward FFT, one ``(R, n_templates, m)``
  inverse FFT — instead of R separate 1-D transform chains.  The
  per-group forward FFT of the zero-padded template is computed once
  per call (the serial path recomputes the identical transform on every
  subtraction).  Integer unclipped placements read the plan's
  precomputed cross-correlation table directly; clipped placements fall
  back to :meth:`~repro.core.plan.DetectorPlan.subtract_response` — the
  serial code itself — row by row.

Numerical contract: every elementwise operation mirrors the serial
expression order, batched transforms evaluate rows with the same
pocketfft kernels as the 1-D calls, and the response arithmetic is the
shared :func:`~repro.core.detection.build_response`.  The differential
suite (``tests/test_properties_detection.py``) pins batched == serial
at ``rtol <= 1e-9`` across ragged early-stop patterns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _parabolic_peak,
    build_response,
)
from repro.core.plan import DetectorPlan
from repro.runtime.metrics import global_metrics

__all__ = ["extract_responses_batch"]


def _subtract_fractional_group(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    template_index: int,
    group: List[Tuple[int, float, int, complex]],
    template_ffts: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Batched step-5 update for unclipped fractional placements.

    ``group`` holds ``(row, fraction, start, amplitude)`` for every
    active row that picked ``template_index`` this iteration with a
    fractional, fully-inside placement.  Equivalent to calling
    ``plan.subtract_response`` per row: the fractional delay and the
    window correlation are the same transforms, just stacked — each row
    of a 2-D pocketfft transform runs the same kernel as the 1-D call.
    """
    cached = template_ffts.get(template_index)
    if cached is None:
        template = plan.templates[template_index]
        samples = template.samples.astype(complex)
        padded = np.concatenate([samples, np.zeros(1, dtype=samples.dtype)])
        # Same spectrum fractional_delay computes per call; the phase
        # base folds the serial left-to-right ``-2j*pi*freqs`` product.
        cached = (
            np.fft.fft(padded),
            -2j * np.pi * np.fft.fftfreq(len(padded)),
        )
        template_ffts[template_index] = cached
    padded_fft, ramp_base = cached

    fractions = np.array([entry[1] for entry in group])
    ramps = np.exp(ramp_base[np.newaxis, :] * fractions[:, np.newaxis])
    shifted = np.fft.ifft(padded_fft[np.newaxis, :] * ramps, axis=1)

    m = plan.small_fft_length
    forward = sp_fft.fft(shifted, m, axis=1)
    # The product is a temporary: transform it in place.
    aligned = sp_fft.ifft(
        forward[:, np.newaxis, :] * plan.small_spectra[np.newaxis, :, :],
        axis=2,
        overwrite_x=True,
    )
    # The serial window is ``aligned`` rotated left by ``m - lead``: its
    # wrapped head ``aligned[m - lead:]`` covers outputs [start - lead,
    # start) and ``aligned[:tail]`` covers [start, start + tail).  Each
    # half is subtracted straight from ``aligned`` — no rotated copy.
    lead = plan.max_template_length - 1
    tail = plan.max_template_length + shifted.shape[1] - 1
    n_fine = plan.n_fine
    for k, (row, _fraction, start, amplitude) in enumerate(group):
        a = max(0, start - lead)
        b = min(n_fine, start + tail)
        if a >= b:
            continue
        split = min(max(a, start), b)
        if a < split:
            outputs[row, :, a:split] -= (
                amplitude * aligned[k, :, m - start + a:m - start + split]
            )
        if split < b:
            outputs[row, :, split:b] -= (
                amplitude * aligned[k, :, split - start:b - start]
            )
        np.abs(outputs[row, :, a:b], out=magnitudes[row, :, a:b])


def extract_responses_batch(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    config: SearchAndSubtractConfig,
    sampling_period_s: float,
    stds: Sequence[float],
    *,
    metric_prefix: str = "detector",
) -> List[List[DetectedResponse]]:
    """Search-and-subtract over a ``(B, n_templates, n_fine)`` tensor.

    ``outputs``/``magnitudes`` are consumed destructively (step-5
    updates write into them in place), exactly like the serial
    :func:`~repro.core.detection.extract_responses` consumes one trial's
    matrices.  ``stds`` carries one early-stop noise floor per row, so
    rows terminate independently (ragged).

    Returns one response list per row, in extraction (amplitude) order;
    callers sort by delay (paper step 7).  Entry ``b`` is identical to
    ``extract_responses(plan, outputs[b], magnitudes[b], ...)``.
    """
    metrics = global_metrics()
    n_rows, _n_templates, n_fine = magnitudes.shape
    results: List[List[DetectedResponse]] = [[] for _ in range(n_rows)]
    if n_rows == 0 or config.max_responses <= 0:
        return results

    factor = config.upsample_factor
    period = sampling_period_s / factor
    scale = np.sqrt(factor)
    # Same left-to-right product as the serial per-trial gate.
    gates = config.min_peak_snr * np.asarray(stds, dtype=float) * np.sqrt(factor)

    # C-order view: a row's flat argmax is the serial unravel_index pair.
    flat = magnitudes.reshape(n_rows, -1)
    active = np.ones(n_rows, dtype=bool)
    update_counter = metrics.counter(f"{metric_prefix}.incremental_updates")
    template_ffts: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    template_lengths = tuple(int(t.samples.shape[0]) for t in plan.templates)

    for iteration in range(config.max_responses):
        flat_indices = np.argmax(flat, axis=1)
        best = flat[np.arange(n_rows), flat_indices]
        stopped = (best <= 0.0) | ((gates > 0.0) & (best < gates))
        active = active & ~stopped
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        template_indices = flat_indices // n_fine
        peak_indices = flat_indices - template_indices * n_fine

        picked: Dict[int, Tuple[int, int, float, complex]] = {}
        for raw_row in rows:
            row = int(raw_row)
            t = int(template_indices[row])
            p = int(peak_indices[row])
            position = (
                _parabolic_peak(magnitudes[row, t], p)
                if config.refine_subsample
                else float(p)
            )
            amplitude = complex(outputs[row, t, p])
            picked[row] = (t, p, position, amplitude)
            results[row].append(
                build_response(
                    magnitudes[row], t, p, position, amplitude,
                    factor, period, scale,
                )
            )
        if iteration + 1 >= config.max_responses:
            break  # the final subtraction would never be observed

        with metrics.timer(f"{metric_prefix}.incremental_update").time():
            fractional_groups: Dict[int, List[Tuple[int, float, int, complex]]] = {}
            for row, (t, _p, position, amplitude) in picked.items():
                length = template_lengths[t]
                integer = int(np.floor(position))
                fraction = float(position - integer)
                start = integer - plan.templates[t].peak_index
                if fraction != 0.0:
                    if start >= 0 and start + length + 1 <= n_fine:
                        fractional_groups.setdefault(t, []).append(
                            (row, fraction, start, amplitude)
                        )
                        continue
                    a, b = plan.subtract_response(
                        outputs[row], t, position, amplitude
                    )
                elif start >= 0 and start + length <= n_fine:
                    # Integer, unclipped: precomputed table lookup.
                    first = start - (plan.max_template_length - 1)
                    ordered = plan.cross_correlations[t]
                    a = max(0, first)
                    b = min(n_fine, first + ordered.shape[1])
                    if a < b:
                        outputs[row, :, a:b] -= (
                            amplitude * ordered[:, a - first:b - first]
                        )
                else:
                    a, b = plan.subtract_response(
                        outputs[row], t, position, amplitude
                    )
                if a < b:
                    np.abs(outputs[row, :, a:b], out=magnitudes[row, :, a:b])
            for t, group in fractional_groups.items():
                _subtract_fractional_group(
                    plan, outputs, magnitudes, t, group, template_ffts
                )
        update_counter.inc(int(rows.size))
    return results
