"""Pure arithmetic behind the benchmark's metrics.

Everything here is deterministic and free of the program under test, so
``test_perfbench.py`` can pin it exactly: quantiles, self time, the
SLO-rate interpolation, and the request accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

INF = float("inf")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in ``[0, 1]``); NaN when empty.

    Nearest rank never interpolates, so a p99 over 1000 samples is one
    measured sample with exactly ten samples above it, and ``inf``
    entries (failed requests) are ordered correctly.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``.

    Parts are clipped to the interval first; overlapping parts count
    once, so the result never exceeds the interval's length.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in parts
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Sequence[Tuple[float, float, int]],
) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans[i]`` is ``(start, end, parent)`` with ``parent`` the index of
    the enclosing span or ``-1`` for a root.
    """
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered((start, end), children[i])
        for i, (start, end, _parent) in enumerate(spans)
    ]


def slo_rate(
    rungs: Sequence[Tuple[float, float, bool]], limit: float
) -> float:
    """Offered rate at which the tail latency crosses ``limit``.

    ``rungs`` holds ``(rate, tail_latency, met)`` in ascending rate
    order; ``met`` is False for a rung whose tail exceeded the limit,
    which failed requests, or whose backlog grew.  The crossing is
    interpolated linearly between the last rung that met the limit and
    the first that missed it; a missing rung's latency is taken as at
    least ``limit`` (an infinite one puts the crossing on the last good
    rung).  If no rung missed, the top rung is returned; if the first
    rung missed, 0.0.
    """
    last_good: Optional[Tuple[float, float]] = None
    for rate, tail, met in rungs:
        if met:
            last_good = (rate, tail)
            continue
        if last_good is None:
            return 0.0
        good_rate, good_tail = last_good
        bad_tail = max(tail, limit)
        if math.isinf(bad_tail) or bad_tail <= good_tail:
            return good_rate
        share = (limit - good_tail) / (bad_tail - good_tail)
        return good_rate + share * (rate - good_rate)
    return last_good[0] if last_good is not None else 0.0


@dataclass
class Accounting:
    """Terminal tally of the requests one run sent.

    ``sent == ok + failed`` must hold once the run has drained: a request
    is either an ok outcome equal to its reference, or failed (refused
    at admission, errored, shed, cancelled, or mismatching).
    """

    sent: int = 0
    ok: int = 0
    refused: int = 0
    errored: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.refused + self.errored + self.mismatched

    @property
    def balanced(self) -> bool:
        return self.sent == self.ok + self.failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.sent if self.sent else 0.0


def backlog_grew(outstanding: int, rate: float, limit: float) -> bool:
    """Whether a rung ended with more in flight than the limit allows.

    By Little's law a system meeting a latency limit ``L`` at rate ``R``
    holds about ``R * L`` requests in flight; more than that when the
    rung's last request is sent means arrivals outran service.
    """
    return outstanding > rate * limit

