"""Cross-trial batched pulse-shape identification (paper Sect. V at scale).

Responder identification is the same workload as detection — matched
filtering against the whole template bank — plus a per-response winner
pick, so it batches across trials exactly like
:mod:`repro.core.batch`: B independent CIRs of the same shape stack
into one ``(B, N)`` array and pay **one** batched upsampling transform,
**one** 2-D forward FFT, and **one** ``(B, n_templates, fft_length)``
batched inverse FFT, instead of B of each.  Extraction then runs
vectorised across the batch
(:func:`repro.core.batch_extract.extract_responses_batch` — argmax
peak-pick over the magnitude tensor, active-row mask for ragged
early-stop, grouped batched subtraction updates), and the winner pick
per response is the shared serial
:func:`repro.core.pulse_id.classify_responses`.

Because the decision arithmetic is shared with the serial
:class:`~repro.core.pulse_id.PulseShapeClassifier` code, batched and
serial classification can only diverge in the transforms — and those
are bounded at ``rtol <= 1e-9`` by the differential sweep in
``tests/test_properties_detection.py`` (observed: bit-identical).

Plans are memoised in the same ``detector_plans`` runtime cache as the
detection plans, under a key that discriminates both the batch shape
(``("batch", B)``) *and* the plan family (``kind="classifier"``), so a
classifier plan can never shadow a detector plan of the same shape (see
:func:`repro.core.plan.plan_cache_key`).

:class:`ClassifyBatchTrial` packages the whole pipeline for the trial
runtime: experiments supply picklable ``prepare``/``finish`` callables
and get a :class:`~repro.runtime.executor.BatchTrial` whose batched
form routes every group of trials through :func:`classify_batch` —
``run_trials(..., batch_size=B)`` (or ``batch_size="auto"`` via the
attached :class:`~repro.runtime.executor.WorkloadShape`) then exercises
the batched classifier end-to-end with unchanged per-trial seeding.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    BatchDetectorPlan,
    _check_plan,
    batch_detector_plan,
)
from repro.core.batch_extract import extract_responses_batch
from repro.core.detection import (
    SearchAndSubtractConfig,
    _per_trial_noise,
)
from repro.core.plan import plan_cache_key
from repro.core.pulse_id import (
    ClassifiedResponse,
    PulseShapeClassifier,
    classify_responses,
)
from repro.runtime.cache import get_cache
from repro.runtime.executor import BatchTrial, WorkloadShape
from repro.runtime.metrics import global_metrics
from repro.signal.templates import TemplateBank

__all__ = [
    "BatchClassifierPlan",
    "ClassifyBatchTrial",
    "batch_classifier_plan",
    "classify_batch",
]

#: ``prepare(rng, index) -> (cir, noise_std, context)``: everything a
#: trial does *before* classification (topology, channels, capture).
PrepareFn = Callable[
    [np.random.Generator, int], Tuple[np.ndarray, float, Any]
]

#: ``finish(classified, context, rng, index) -> value``: everything a
#: trial does *after* classification (decode, scoring).
FinishFn = Callable[
    [List[ClassifiedResponse], Any, np.random.Generator, int], Any
]


class BatchClassifierPlan:
    """A batched classification plan: detector plan + template bank.

    Thin by design — the heavy artifacts (template spectra,
    cross-correlation tables, the ``(B, n_templates, fft_length)``
    scratch buffer) all live on the wrapped
    :class:`~repro.core.batch.BatchDetectorPlan`, which is itself shared
    with the batched *detection* path through the cache.  What the
    classifier plan adds is the binding to a
    :class:`~repro.signal.templates.TemplateBank` (template index ←→
    responder identity, the paper's Sect. V mapping) so one memoised
    object captures the full identification shape.
    """

    def __init__(self, detector: BatchDetectorPlan, bank: TemplateBank) -> None:
        if len(bank) != detector.n_templates:
            raise ValueError(
                f"bank has {len(bank)} templates but the detector plan "
                f"was built for {detector.n_templates}"
            )
        self.detector = detector
        self.bank = bank

    @property
    def batch_size(self) -> int:
        return self.detector.batch_size

    @property
    def n_templates(self) -> int:
        return self.detector.n_templates

    def filter_pass(self, cirs: np.ndarray) -> np.ndarray:
        """Upsample + filter native-rate CIRs (see
        :meth:`BatchDetectorPlan.filter_pass`)."""
        return self.detector.filter_pass(cirs)

    def magnitudes(self, outputs: np.ndarray) -> np.ndarray:
        """Magnitude tensor in reusable scratch (see
        :meth:`BatchDetectorPlan.magnitudes`)."""
        return self.detector.magnitudes(outputs)


def batch_classifier_plan(
    bank: TemplateBank,
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
    batch_size: int,
) -> BatchClassifierPlan:
    """A memoised :class:`BatchClassifierPlan` for one batched shape.

    Three cache levels share work: the base
    :class:`~repro.core.plan.DetectorPlan` (spectra, correlation tables)
    is shared with *every* path of this shape; the
    :class:`~repro.core.batch.BatchDetectorPlan` (batch scratch) is
    shared with batched detection at the same B; only the
    classifier binding itself is stored per ``kind="classifier"`` key.
    All lookups count toward the ``detector_plans`` hit rate in the
    metrics report.
    """
    templates = list(bank)
    key = plan_cache_key(
        templates,
        cir_length,
        upsample_factor,
        sampling_period_s,
        batch_size=batch_size,
        kind="classifier",
    )

    def _build() -> BatchClassifierPlan:
        with global_metrics().timer("classifier.batch_plan_build").time():
            detector = batch_detector_plan(
                templates,
                cir_length,
                upsample_factor,
                sampling_period_s,
                batch_size,
            )
            return BatchClassifierPlan(detector, bank)

    return get_cache("detector_plans").get_or_create(key, _build)


def classify_batch(
    cirs,
    bank: TemplateBank,
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None = None,
    noise_std=0.0,
    *,
    plan: BatchClassifierPlan | None = None,
) -> List[List[ClassifiedResponse]]:
    """Jointly detect and identify responses in B stacked CIRs.

    Parameters
    ----------
    cirs:
        ``(B, N)`` array (or sequence of B equal-length 1-D arrays) of
        complex CIR samples at the radio's native tap rate.  ``B == 0``
        returns ``[]``.
    bank:
        The pulse-shape :class:`~repro.signal.templates.TemplateBank`
        whose index *is* the (partial) responder identity.
    sampling_period_s:
        Tap spacing of every CIR in the batch.
    config:
        Detector knobs; defaults to ``SearchAndSubtractConfig()``.
        ``use_fast`` is ignored here — this *is* the fast engine; use
        :meth:`PulseShapeClassifier.classify_batch` for the serial
        escape hatch.
    noise_std:
        Scalar shared by all trials, or a length-B sequence of per-trial
        noise standard deviations (for the early-stop gate).
    plan:
        Optional explicit :class:`BatchClassifierPlan`, bypassing the
        plan cache — required when several threads classify
        concurrently, because cached plans share mutable scratch (see
        :func:`repro.core.batch.detect_batch`).  The plan's shape, fine
        tap period and bank must match the call.

    Returns
    -------
    list of list of :class:`ClassifiedResponse`
        Entry ``b`` equals ``PulseShapeClassifier(bank, config)
        .classify(cirs[b], sampling_period_s, noise_std=noise_std[b])``
        — same responses in the same delay-ascending order, same shape
        indices, same confidences.
    """
    if len(bank) < 1:
        raise ValueError("classify_batch needs a non-empty template bank")
    config = config or SearchAndSubtractConfig()

    cirs = np.asarray(cirs, dtype=complex)
    if cirs.ndim == 1:
        raise ValueError(
            "classify_batch expects a (B, N) batch of CIRs; wrap a single "
            "CIR as cirs[np.newaxis, :] or call classify() instead"
        )
    if cirs.ndim != 2:
        raise ValueError(f"expected a (B, N) batch, got shape {cirs.shape}")
    batch_size, cir_length = cirs.shape
    if batch_size == 0:
        return []
    stds = _per_trial_noise(noise_std, batch_size)

    metrics = global_metrics()
    metrics.counter("classifier.batch_classifies").inc()
    metrics.counter("classifier.batch_trials").inc(batch_size)
    if plan is None:
        plan = batch_classifier_plan(
            bank,
            cir_length,
            config.upsample_factor,
            sampling_period_s,
            batch_size,
        )
    else:
        _check_plan(
            plan.detector,
            None if plan.bank is bank else list(bank),
            sampling_period_s,
            batch_size,
            cir_length,
            config.upsample_factor,
        )
    with metrics.timer("classifier.batch_filter_pass").time():
        outputs = plan.filter_pass(cirs)
        magnitudes = plan.magnitudes(outputs)
    with metrics.timer("classifier.batch_extract").time():
        extracted = extract_responses_batch(
            plan.detector.base,
            outputs,
            magnitudes,
            config,
            sampling_period_s,
            stds,
            metric_prefix="classifier",
        )
    results: List[List[ClassifiedResponse]] = []
    for responses in extracted:
        responses.sort(key=lambda response: response.delay_s)
        results.append(classify_responses(responses))
    return results


# -- runtime bridge ----------------------------------------------------------


def _classify_trial_single(
    rng: np.random.Generator,
    index: int,
    *,
    prepare: PrepareFn,
    finish: FinishFn,
    bank: TemplateBank,
    sampling_period_s: float,
    config: Optional[SearchAndSubtractConfig],
) -> Any:
    """One trial through the serial classifier (the reference path)."""
    cir, noise_std, context = prepare(rng, index)
    classifier = PulseShapeClassifier(bank, config)
    classified = classifier.classify(
        np.asarray(cir), sampling_period_s, noise_std=float(noise_std)
    )
    return finish(classified, context, rng, index)


def _classify_trial_batch(
    rngs: Sequence[np.random.Generator],
    indices: Sequence[int],
    *,
    prepare: PrepareFn,
    finish: FinishFn,
    bank: TemplateBank,
    sampling_period_s: float,
    config: Optional[SearchAndSubtractConfig],
) -> List[Any]:
    """A group of trials through one batched classifier pass.

    Per-trial random streams are untouched relative to the serial path:
    each trial's ``prepare`` consumes its own generator, classification
    consumes none, and ``finish`` resumes the same generator — so entry
    ``k`` equals ``_classify_trial_single(rngs[k], indices[k], ...)``
    exactly (the executor's :class:`BatchTrial` contract).
    """
    prepared = [
        prepare(rng, index) for rng, index in zip(rngs, indices)
    ]
    cirs = np.stack([np.asarray(cir) for cir, _, _ in prepared])
    stds = [float(noise_std) for _, noise_std, _ in prepared]
    batches = classify_batch(
        cirs, bank, sampling_period_s, config=config, noise_std=stds
    )
    return [
        finish(classified, context, rng, index)
        for classified, (_, _, context), rng, index in zip(
            batches, prepared, rngs, indices
        )
    ]


class ClassifyBatchTrial(BatchTrial):
    """A :class:`~repro.runtime.executor.BatchTrial` over the classifier.

    Experiments describe one trial as two picklable halves around the
    classification step::

        prepare(rng, index) -> (cir, noise_std, context)
        finish(classified, context, rng, index) -> value

    and the trial runs either serially (``prepare`` → serial
    :meth:`PulseShapeClassifier.classify` → ``finish``) or in groups
    through :func:`classify_batch` (all ``prepare`` calls, one batched
    engine pass over the stacked CIRs with a per-trial ``noise_std``
    vector, all ``finish`` calls).  Each trial keeps its own seed-child
    generator through both halves, so batched == serial byte-for-byte
    given the engine equivalence.

    ``cir_length`` (when known up front, e.g. the radio's fixed
    ``CIR_LENGTH_PRF64``) attaches a
    :class:`~repro.runtime.executor.WorkloadShape` so
    ``batch_size="auto"`` can size batches from the workload; without
    it, ``"auto"`` degrades to unbatched execution.

    Keep ``prepare``/``finish`` picklable (module-level functions or
    ``functools.partial`` over them) so the parallel executor can ship
    the trial to worker processes.
    """

    def __init__(
        self,
        prepare: PrepareFn,
        finish: FinishFn,
        bank: TemplateBank,
        sampling_period_s: float,
        config: Optional[SearchAndSubtractConfig] = None,
        cir_length: Optional[int] = None,
    ) -> None:
        from functools import partial

        bound = dict(
            prepare=prepare,
            finish=finish,
            bank=bank,
            sampling_period_s=float(sampling_period_s),
            config=config,
        )
        workload = None
        if cir_length is not None:
            factor = (config or SearchAndSubtractConfig()).upsample_factor
            workload = WorkloadShape(
                cir_length=int(cir_length),
                bank_size=len(bank),
                upsample_factor=factor,
            )
        BatchTrial.__init__(
            self,
            single=partial(_classify_trial_single, **bound),
            batch=partial(_classify_trial_batch, **bound),
            workload=workload,
        )
        # Frozen parent: expose the binding read-only for introspection.
        object.__setattr__(self, "bank", bank)
        object.__setattr__(self, "config", config)
        object.__setattr__(
            self, "sampling_period_s", float(sampling_period_s)
        )
