"""The shared detection/classification engine API.

Every CIR-consuming engine in :mod:`repro.core` exposes the same
four-method surface with *uniform* signatures, so experiments, the
trial runtime, and the benchmarks can swap engines freely::

    detect(cir, sampling_period_s, noise_std=0.0)
        -> List[DetectedResponse]
    detect_batch(cirs, sampling_period_s, noise_std=0.0)
        -> List[List[DetectedResponse]]       # one list per stacked CIR

and, for engines that also decode responder identity (paper Sect. V)::

    classify(cir, sampling_period_s, noise_std=0.0)
        -> List[ClassifiedResponse]
    classify_batch(cirs, sampling_period_s, noise_std=0.0)
        -> List[List[ClassifiedResponse]]

Conventions shared by every implementation:

* ``cir`` is a 1-D complex array at the radio's native tap rate;
  ``cirs`` is a ``(B, N)`` stack (or sequence of B equal-length 1-D
  arrays) — ``B == 0`` returns ``[]``.
* ``noise_std`` is a scalar for the single-CIR forms; the batched forms
  also accept a length-B sequence of per-trial values.
* Batched results are *differentially equal* to the serial forms:
  entry ``b`` of ``detect_batch(cirs, ...)`` equals
  ``detect(cirs[b], ...)`` (enforced at ``rtol <= 1e-9`` by
  ``tests/test_properties_detection.py``).
* Responses come back sorted by delay ascending.
* The batched forms run their transforms on NumPy through
  ``scipy.fft`` (``workers=-1``).

The protocols are :func:`typing.runtime_checkable`, so
``isinstance(engine, Engine)`` verifies structural conformance (method
presence — signatures are checked by the API tests).  Conforming
implementations:

===============================================  =========  ============
engine                                            Engine     Classifier
===============================================  =========  ============
:class:`~repro.core.detection.SearchAndSubtract`  yes        no
:class:`~repro.core.threshold.ThresholdDetector`  yes        no
:class:`~repro.core.pulse_id.PulseShapeClassifier` yes       yes
===============================================  =========  ============
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

import numpy as np

from repro.core.detection import DetectedResponse
from repro.core.pulse_id import ClassifiedResponse

__all__ = ["Engine", "ClassifierEngine"]


@runtime_checkable
class Engine(Protocol):
    """Structural type of every detection engine in :mod:`repro.core`."""

    def detect(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[DetectedResponse]:
        """Detect responses in one CIR, sorted by delay ascending."""
        ...

    def detect_batch(
        self,
        cirs,
        sampling_period_s: float,
        noise_std=0.0,
    ) -> List[List[DetectedResponse]]:
        """Detect responses in B stacked CIRs; entry ``b`` equals
        ``detect(cirs[b], ...)``."""
        ...


@runtime_checkable
class ClassifierEngine(Engine, Protocol):
    """An :class:`Engine` that additionally decodes responder identity."""

    def classify(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[ClassifiedResponse]:
        """Detect and identify responses in one CIR."""
        ...

    def classify_batch(
        self,
        cirs,
        sampling_period_s: float,
        noise_std=0.0,
    ) -> List[List[ClassifiedResponse]]:
        """Detect and identify responses in B stacked CIRs; entry ``b``
        equals ``classify(cirs[b], ...)``."""
        ...
