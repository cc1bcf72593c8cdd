"""Tapped-delay-line channel model (paper Eq. 1).

The paper models the channel impulse response as

    h(t) = sum_k alpha_k * delta(t - tau_k) + nu(t)

with ``alpha_k``/``tau_k`` the complex amplitude and path delay of the
deterministic multipath components (specular reflections) and ``nu(t)``
the diffuse multipath.  :class:`ChannelRealization` holds one concrete
set of taps and can *render* the band-limited waveform a receiver sees
when a given pulse is transmitted through it — which is exactly the
physical signal the DW1000's CIR accumulator estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.signal.pulses import Pulse

#: Default exponential decay constant of the diffuse tail [ns].  Kulmer et
#: al. (paper ref. [8]) report diffuse decay constants of ~20 ns for the
#: office environments the paper measures in.
DIFFUSE_DECAY_NS = 20.0

#: Valid tap kinds, ordered roughly by determinism.
TAP_KINDS = ("los", "reflection", "diffuse")


@dataclass(frozen=True)
class ChannelTap:
    """One multipath component: a delayed, complex-scaled copy of the pulse.

    Attributes
    ----------
    delay_s:
        Path delay ``tau_k`` relative to the transmit instant.
    amplitude:
        Complex amplitude ``alpha_k`` (linear scale, not dB).
    kind:
        ``"los"`` for the direct path, ``"reflection"`` for specular
        (deterministic) components, ``"diffuse"`` for the random tail.
    order:
        Reflection order (0 for LOS, 1 for first-order reflections, ...).
    """

    delay_s: float
    amplitude: complex
    kind: str = "reflection"
    order: int = 1

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError(f"tap delay must be non-negative, got {self.delay_s}")
        if self.kind not in TAP_KINDS:
            raise ValueError(f"unknown tap kind {self.kind!r}; use one of {TAP_KINDS}")
        if self.order < 0:
            raise ValueError(f"reflection order must be >= 0, got {self.order}")

    @property
    def path_length_m(self) -> float:
        """Geometric path length implied by the delay."""
        from repro.constants import SPEED_OF_LIGHT

        return self.delay_s * SPEED_OF_LIGHT

    @property
    def power(self) -> float:
        """Tap power ``|alpha_k|^2``."""
        return abs(self.amplitude) ** 2

    def delayed(self, extra_delay_s: float) -> "ChannelTap":
        """A copy of this tap shifted later in time (used to compose the
        round-trip channel of a concurrent-ranging response)."""
        return ChannelTap(
            delay_s=self.delay_s + extra_delay_s,
            amplitude=self.amplitude,
            kind=self.kind,
            order=self.order,
        )

    def scaled(self, factor: complex) -> "ChannelTap":
        """A copy of this tap with the amplitude multiplied by ``factor``."""
        return ChannelTap(
            delay_s=self.delay_s,
            amplitude=self.amplitude * factor,
            kind=self.kind,
            order=self.order,
        )


class ChannelRealization:
    """A concrete channel: an ordered collection of taps.

    Taps are kept sorted by delay.  The realization is immutable from the
    outside; composition helpers return new instances.
    """

    def __init__(self, taps: Iterable[ChannelTap]) -> None:
        self._taps: tuple[ChannelTap, ...] = tuple(
            sorted(taps, key=lambda tap: tap.delay_s)
        )
        if len(self._taps) == 0:
            raise ValueError("a channel realization needs at least one tap")

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._taps)

    def __iter__(self):
        return iter(self._taps)

    def __getitem__(self, index: int) -> ChannelTap:
        return self._taps[index]

    @property
    def taps(self) -> tuple[ChannelTap, ...]:
        return self._taps

    # -- structural queries ---------------------------------------------------

    @property
    def first_path(self) -> ChannelTap:
        """The earliest tap (the direct path when LOS exists)."""
        return self._taps[0]

    @property
    def los_tap(self) -> ChannelTap | None:
        """The LOS tap, or ``None`` for NLOS channels."""
        for tap in self._taps:
            if tap.kind == "los":
                return tap
        return None

    @property
    def strongest_tap(self) -> ChannelTap:
        """The tap with the highest power.  In NLOS conditions this can be
        a reflection rather than the first path — the exact situation the
        paper's challenge IV warns about."""
        return max(self._taps, key=lambda tap: tap.power)

    @property
    def delay_spread_s(self) -> float:
        """RMS delay spread of the deterministic taps."""
        delays = np.array([tap.delay_s for tap in self._taps])
        powers = np.array([tap.power for tap in self._taps])
        total = powers.sum()
        if total == 0:
            return 0.0
        mean = float(np.sum(delays * powers) / total)
        return float(math.sqrt(np.sum(powers * (delays - mean) ** 2) / total))

    @property
    def excess_delay_s(self) -> float:
        """Maximum excess delay: last tap minus first tap."""
        return self._taps[-1].delay_s - self._taps[0].delay_s

    def total_power(self) -> float:
        return float(sum(tap.power for tap in self._taps))

    def specular_taps(self) -> List[ChannelTap]:
        return [tap for tap in self._taps if tap.kind != "diffuse"]

    # -- composition ----------------------------------------------------------

    def delayed(self, extra_delay_s: float) -> "ChannelRealization":
        """All taps shifted by a constant delay."""
        return ChannelRealization(tap.delayed(extra_delay_s) for tap in self._taps)

    def scaled(self, factor: complex) -> "ChannelRealization":
        """All taps scaled by a constant complex factor."""
        return ChannelRealization(tap.scaled(factor) for tap in self._taps)

    def merged(self, other: "ChannelRealization") -> "ChannelRealization":
        """Union of two realizations (e.g. two responders' signals
        superposing at the initiator)."""
        return ChannelRealization(list(self._taps) + list(other._taps))

    def without_los(self, attenuation: float = 0.0) -> "ChannelRealization":
        """An NLOS variant: the LOS tap is removed (``attenuation == 0``)
        or attenuated to ``attenuation`` times its amplitude."""
        taps = []
        for tap in self._taps:
            if tap.kind == "los":
                if attenuation > 0.0:
                    taps.append(tap.scaled(attenuation))
            else:
                taps.append(tap)
        if not taps:
            raise ValueError("removing the LOS tap left no channel taps")
        return ChannelRealization(taps)

    # -- rendering ------------------------------------------------------------

    def render(
        self,
        pulse: Pulse,
        n_samples: int,
        sampling_period_s: float | None = None,
        time_origin_s: float = 0.0,
    ) -> np.ndarray:
        """Render the band-limited received waveform into a complex buffer.

        Each tap contributes ``alpha_k * s(t - tau_k)``.  ``time_origin_s``
        maps buffer sample 0 to an absolute time, so a caller can window
        any part of the response.

        The result is bit-identical to calling
        :func:`~repro.signal.sampling.place_pulse` once per tap, but every
        fractionally delayed tap is shifted by one batched
        ``(n_taps, L + 1)`` FFT: the padded pulse's spectrum times the
        per-tap phase ramp, in the serial left-to-right product order.
        Taps are then added in tap order, so each buffer element sums in
        the same order, and clipped at the buffer edges as ``place_pulse``
        clips them.

        Returns a complex array of length ``n_samples``.
        """
        if sampling_period_s is None:
            sampling_period_s = pulse.sampling_period_s
        buffer = np.zeros(n_samples, dtype=complex)
        samples = pulse.samples
        length = len(samples)
        positions = (
            np.array([tap.delay_s for tap in self._taps], dtype=float)
            - time_origin_s
        ) / sampling_period_s
        integers = np.floor(positions)
        fractions = positions - integers
        fractional = fractions != 0.0
        starts = integers.astype(np.int64) - pulse.peak_index
        # Fractionally shifted taps carry one padding sample (see
        # placed_segment), so the shift cannot wrap energy around.
        lengths = length + fractional
        src_starts = np.maximum(0, -starts)
        src_stops = lengths - np.maximum(0, starts + lengths - n_samples)

        shifted = None
        if fractional.any():
            padded = np.concatenate([samples, np.zeros(1, dtype=samples.dtype)])
            base = -2j * np.pi * np.fft.fftfreq(length + 1)
            shifted = np.fft.ifft(
                np.fft.fft(padded)[np.newaxis, :]
                * np.exp(base[np.newaxis, :] * fractions[fractional][:, np.newaxis]),
                axis=1,
            )
            if np.isrealobj(samples):
                shifted = shifted.real
        rows = iter(() if shifted is None else shifted)
        for tap, is_fractional, start, src_start, src_stop in zip(
            self._taps,
            fractional.tolist(),
            starts.tolist(),
            src_starts.tolist(),
            src_stops.tolist(),
        ):
            segment = next(rows) if is_fractional else samples
            if src_start >= src_stop:
                continue  # the pulse lies entirely outside the buffer
            buffer[start + src_start:start + src_stop] += (
                tap.amplitude * segment[src_start:src_stop]
            )
        return buffer


def diffuse_tail_taps(
    onset_delay_s: float,
    total_power: float,
    rng: np.random.Generator,
    decay_ns: float = DIFFUSE_DECAY_NS,
    tap_spacing_ns: float = 1.0,
    duration_ns: float = 80.0,
) -> List[ChannelTap]:
    """Generate the diffuse multipath ``nu(t)`` as dense Rayleigh taps.

    Power decays exponentially after ``onset_delay_s`` with time constant
    ``decay_ns``; each tap has Rayleigh amplitude and uniform phase.  The
    sum of expected tap powers equals ``total_power``.
    """
    if total_power < 0:
        raise ValueError(f"diffuse power must be non-negative, got {total_power}")
    if total_power == 0:
        return []
    n_taps = max(1, int(duration_ns / tap_spacing_ns))
    offsets_ns = (np.arange(n_taps) + 0.5) * tap_spacing_ns
    profile = np.exp(-offsets_ns / decay_ns)
    profile = profile / profile.sum() * total_power
    amplitudes = np.sqrt(profile / 2.0) * (
        rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    )
    return [
        ChannelTap(
            delay_s=onset_delay_s + offsets_ns[i] * 1e-9,
            amplitude=complex(amplitudes[i]),
            kind="diffuse",
            order=2,
        )
        for i in range(n_taps)
    ]
