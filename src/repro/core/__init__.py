"""The paper's primary contribution: practical concurrent ranging.

* :mod:`repro.core.matched_filter` — the matched filter of Sect. IV
  (Eq. 3), aligned so output indices coincide with pulse-peak positions.
* :mod:`repro.core.detection` — the *search-and-subtract* response
  detector (Sect. IV, steps 1-7).
* :mod:`repro.core.plan` — spectrum-cached FFT detection plans: batched
  filter-bank spectra and cross-correlation tables that make the
  detector's fast path possible.
* :mod:`repro.core.batch` — cross-trial batched detection: B CIRs of
  one shape run through a single 2-D FFT engine pass
  (:func:`~repro.core.batch.detect_batch`), per-trial results identical
  to the serial fast path.
* :mod:`repro.core.batch_extract` — the batch-vectorised
  search-and-subtract extraction loop shared by both batched engines.
  Both batched engines run on NumPy with ``scipy.fft`` transforms.
* :mod:`repro.core.threshold` — the threshold-based baseline detector
  (Falsi et al., used as comparison in Sect. VI).
* :mod:`repro.core.pulse_id` — responder identification from pulse shape
  (Sect. V): a template-bank matched-filter classifier.
* :mod:`repro.core.batch_id` — cross-trial batched identification:
  B CIRs classified through one 2-D FFT engine pass
  (:func:`~repro.core.batch_id.classify_batch`), plus the
  :class:`~repro.core.batch_id.ClassifyBatchTrial` runtime bridge.
* :mod:`repro.core.engine` — the shared :class:`~repro.core.engine.Engine`
  / :class:`~repro.core.engine.ClassifierEngine` protocols every
  detector and classifier conforms to (uniform
  ``(cirs, sampling_period_s, noise_std)`` signatures).
* :mod:`repro.core.ranging` — SS-TWR (Eq. 2) and CIR-relative (Eq. 4)
  distance computation.
* :mod:`repro.core.alignment` — CIR-to-distance alignment using d_TWR
  (Sect. IV, step 1).
* :mod:`repro.core.rpm` — response position modulation (Sect. VII).
* :mod:`repro.core.scheme` — RPM x pulse shaping combined scheme
  (Sect. VIII).
"""

from repro.core.matched_filter import matched_filter
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtract,
    SearchAndSubtractConfig,
)
from repro.core.plan import DetectorPlan, detector_plan, plan_cache_key
from repro.core.batch import (
    BatchDetectorPlan,
    batch_detector_plan,
    detect_batch,
)
from repro.core.threshold import (
    ThresholdDetector,
    ThresholdConfig,
    detect_threshold_batch,
)
from repro.core.pulse_id import (
    PulseShapeClassifier,
    ClassifiedResponse,
    classify_responses,
)
from repro.core.batch_id import (
    BatchClassifierPlan,
    ClassifyBatchTrial,
    batch_classifier_plan,
    classify_batch,
)
from repro.core.engine import ClassifierEngine, Engine
from repro.core.ranging import (
    twr_distance,
    twr_distance_compensated,
    ds_twr_distance,
    concurrent_distances,
    sort_responses,
)
from repro.core.alignment import distance_axis, align_responses_to_distance
from repro.core.rpm import SlotPlan, paper_slot_count, safe_slot_count
from repro.core.scheme import CombinedScheme, ResponderAssignment

__all__ = [
    "matched_filter",
    "BatchClassifierPlan",
    "BatchDetectorPlan",
    "ClassifierEngine",
    "ClassifyBatchTrial",
    "DetectorPlan",
    "Engine",
    "batch_classifier_plan",
    "batch_detector_plan",
    "classify_batch",
    "classify_responses",
    "detect_batch",
    "detect_threshold_batch",
    "detector_plan",
    "plan_cache_key",
    "DetectedResponse",
    "SearchAndSubtract",
    "SearchAndSubtractConfig",
    "ThresholdDetector",
    "ThresholdConfig",
    "PulseShapeClassifier",
    "ClassifiedResponse",
    "twr_distance",
    "twr_distance_compensated",
    "ds_twr_distance",
    "concurrent_distances",
    "sort_responses",
    "distance_axis",
    "align_responses_to_distance",
    "SlotPlan",
    "paper_slot_count",
    "safe_slot_count",
    "CombinedScheme",
    "ResponderAssignment",
]
