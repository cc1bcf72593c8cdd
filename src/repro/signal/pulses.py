"""UWB pulse synthesis with ``TC_PGDELAY``-controlled width.

The DW1000 does not document its transmitted pulse; the paper measured it
with an SMA-cable campaign (Sect. IV) and showed that the 8-bit
``TC_PGDELAY`` register widens the pulse, i.e. lowers the output bandwidth
(Fig. 5).  We model the *baseband-equivalent* pulse that appears in the
CIR as a raised-cosine pulse: its spectrum is strictly band-limited, so
even the widest-band (default) shape fits below the 499.2 MHz Nyquist
frequency of the 1.0016 ns CIR tap grid.  That matters physically — the
DW1000's accumulator can only represent what its sampling supports — and
numerically, because it makes fractional-delay placement and FFT
upsampling exact.

The register-to-width mapping is linear in the register offset from the
default value ``0x93``.  This is a modelling choice (the true mapping is
undocumented); the paper's algorithms only require that the mapping is
monotone and known to the initiator, which holds here by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.constants import (
    CIR_SAMPLING_PERIOD_S,
    TC_PGDELAY_DEFAULT,
    TC_PGDELAY_MAX,
)

#: Output bandwidth at the default register value [Hz] (paper: channel 7,
#: 900 MHz bandwidth).  This is the flat-band ("-3 dB-ish") bandwidth of
#: the raised-cosine spectrum; the absolute spectral edge is
#: ``BASE_BANDWIDTH_HZ * (1 + ROLLOFF) / 2`` per side.
BASE_BANDWIDTH_HZ = 900e6

#: Raised-cosine rolloff.  0.1 puts the default pulse's spectral edge at
#: +-495 MHz, just inside the 499.2 MHz Nyquist limit of the CIR grid.
ROLLOFF = 0.1

#: Relative pulse-width increase per register step above the default.
#: Chosen so that the register values shown in the paper's Fig. 5 span a
#: clearly distinguishable set of widths: 0xC8 -> ~2.6x, 0xE6 -> ~3.5x,
#: 0xF0 -> ~3.8x the default width.
WIDTH_SLOPE_PER_STEP = 0.03

#: Half-duration of a synthesised template, in units of ``1/bandwidth``.
#: Raised-cosine side lobes decay as 1/t^3; eight lobes keep truncation
#: error below -50 dB.
TEMPLATE_HALF_LOBES = 8.0


class RegisterRangeError(ValueError):
    """Raised when a TC_PGDELAY value is outside the usable range."""


def _check_register(register: int) -> int:
    """Validate a TC_PGDELAY register value and return it as ``int``.

    The paper notes that 0x93 is the lower limit for the employed
    configuration (narrower pulses would violate the spectral mask) and
    that the register is 8 bits wide, giving 108 usable shapes.
    """
    register = int(register)
    if not TC_PGDELAY_DEFAULT <= register <= TC_PGDELAY_MAX:
        raise RegisterRangeError(
            f"TC_PGDELAY must be in [0x{TC_PGDELAY_DEFAULT:02X}, "
            f"0x{TC_PGDELAY_MAX:02X}], got 0x{register:02X}"
        )
    return register


def pulse_width_factor(register: int) -> float:
    """Relative pulse width for a ``TC_PGDELAY`` value.

    Returns 1.0 for the default register ``0x93`` and grows linearly with
    the register offset.  Monotonicity of this mapping is what makes
    pulse-shape identification (paper Sect. V) possible.
    """
    register = _check_register(register)
    return 1.0 + WIDTH_SLOPE_PER_STEP * (register - TC_PGDELAY_DEFAULT)


def pulse_bandwidth_hz(register: int) -> float:
    """Effective output bandwidth for a ``TC_PGDELAY`` value [Hz].

    Widening the pulse shrinks the bandwidth proportionally; the default
    register maps to the paper's 900 MHz channel-7 bandwidth.
    """
    return BASE_BANDWIDTH_HZ / pulse_width_factor(register)


def raised_cosine_pulse(
    t: np.ndarray,
    bandwidth_hz: float,
    rolloff: float = ROLLOFF,
) -> np.ndarray:
    """Evaluate a raised-cosine (RC) pulse at times ``t`` [s].

    The RC pulse's spectrum is flat to ``(1 - rolloff) * B / 2``, rolls
    off cosinely, and is exactly zero beyond ``(1 + rolloff) * B / 2`` —
    a strictly band-limited stand-in for the measured DW1000 template
    with the same main-lobe/side-lobe structure (paper Fig. 5).

    Parameters
    ----------
    t:
        Sample times in seconds, zero-centred on the pulse peak.
    bandwidth_hz:
        Flat-band two-sided bandwidth ``B``; larger means narrower pulse.
    rolloff:
        Excess-bandwidth factor in [0, 1].
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    x = np.asarray(t, dtype=float) * bandwidth_hz
    with np.errstate(divide="ignore", invalid="ignore"):
        numerator = np.sinc(x) * np.cos(np.pi * rolloff * x)
        denominator = 1.0 - (2.0 * rolloff * x) ** 2
        values = numerator / denominator
    if rolloff > 0.0:
        # De L'Hopital limit at the removable singularity x = 1/(2*rolloff).
        singular = np.isclose(np.abs(x), 1.0 / (2.0 * rolloff), atol=1e-9)
        if np.any(singular):
            limit = (
                np.pi
                / 4.0
                * np.sinc(1.0 / (2.0 * rolloff))
            )
            values = np.where(singular, limit, values)
    return values


@dataclass(frozen=True)
class Pulse:
    """A sampled, unit-energy pulse template.

    Attributes
    ----------
    samples:
        Real-valued samples, normalised to unit energy
        (``sum(samples**2) == 1``), matching the paper's footnote that
        templates are scaled to unit energy.
    sampling_period_s:
        Sampling period of ``samples``.
    register:
        ``TC_PGDELAY`` value that produced this template.
    bandwidth_hz:
        Effective (flat-band) bandwidth of the pulse.
    """

    samples: np.ndarray
    sampling_period_s: float
    register: int
    bandwidth_hz: float

    def __post_init__(self) -> None:
        energy = float(np.sum(np.abs(self.samples) ** 2))
        if not np.isclose(energy, 1.0, atol=1e-6):
            raise ValueError(f"pulse template must have unit energy, got {energy}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        """Total duration of the sampled template."""
        return len(self.samples) * self.sampling_period_s

    @cached_property
    def peak_index(self) -> int:
        """Index of the template peak (its nominal arrival-time anchor).

        Computed once per pulse; the cached value lives in the instance
        ``__dict__`` (not a dataclass field), so equality and hashing
        ignore it and :meth:`__getstate__` leaves it out of pickles.
        """
        return int(np.argmax(np.abs(self.samples)))

    @property
    def width_3db_s(self) -> float:
        """Width of the main lobe at half power (-3 dB) in seconds.

        Uses linear interpolation between samples, so the value is smooth
        in the register even at coarse sampling.
        """
        mag = np.abs(self.samples)
        peak = self.peak_index
        half = mag[peak] / np.sqrt(2.0)

        def _crossing(indices: np.ndarray) -> float:
            """Distance in samples from the peak to the half-power point."""
            previous = peak
            for idx in indices:
                if mag[idx] < half:
                    # Linear interpolation between previous (above) and idx.
                    frac = (mag[previous] - half) / (mag[previous] - mag[idx])
                    return abs(int(previous) - peak) + frac
                previous = int(idx)
            return float(len(indices))

        right = _crossing(np.arange(peak + 1, len(mag)))
        left = _crossing(np.arange(peak - 1, -1, -1))
        return (left + right) * self.sampling_period_s

    def __getstate__(self) -> dict:
        """Pickle the dataclass fields only, not the cached peak index."""
        state = dict(self.__dict__)
        state.pop("peak_index", None)
        return state

    def energy(self) -> float:
        """Template energy (1.0 by construction)."""
        return float(np.sum(np.abs(self.samples) ** 2))

    def resampled(self, sampling_period_s: float) -> "Pulse":
        """Return the same analytic pulse sampled at a different rate."""
        return _sample_pulse(
            self.register, self.bandwidth_hz, sampling_period_s
        )


def _sample_pulse(
    register: int, bandwidth_hz: float, sampling_period_s: float
) -> Pulse:
    """Sample, truncate, and unit-energy-normalise the analytic pulse."""
    half_duration = TEMPLATE_HALF_LOBES / bandwidth_hz
    n_half = max(2, int(np.ceil(half_duration / sampling_period_s)))
    t = np.arange(-n_half, n_half + 1) * sampling_period_s
    samples = raised_cosine_pulse(t, bandwidth_hz)
    samples = samples / np.sqrt(np.sum(samples**2))
    return Pulse(
        samples=samples,
        sampling_period_s=sampling_period_s,
        register=register,
        bandwidth_hz=bandwidth_hz,
    )


def dw1000_pulse(
    register: int = TC_PGDELAY_DEFAULT,
    sampling_period_s: float = CIR_SAMPLING_PERIOD_S,
) -> Pulse:
    """Synthesise the DW1000 pulse template for a ``TC_PGDELAY`` value.

    The template is centred, long enough to include side lobes down to
    roughly -50 dB, and normalised to unit energy.

    Parameters
    ----------
    register:
        ``TC_PGDELAY`` value in ``[0x93, 0xFF]``.
    sampling_period_s:
        Sampling period; use the CIR period (1.0016 ns) for tap-rate
        templates or a fraction of it for upsampled processing.
    """
    register = _check_register(register)
    return _sample_pulse(register, pulse_bandwidth_hz(register), sampling_period_s)


def narrowband_pulse(
    bandwidth_hz: float,
    sampling_period_s: float = CIR_SAMPLING_PERIOD_S,
) -> Pulse:
    """Synthesise a pulse of arbitrary bandwidth (e.g. the 50 MHz pulse
    of the paper's Fig. 1b) for bandwidth-comparison experiments.

    The returned :class:`Pulse` reports the *default* register because
    narrowband pulses are outside the DW1000 register model; they exist
    only for the Fig. 1 comparison of UWB against narrowband systems.
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return _sample_pulse(TC_PGDELAY_DEFAULT, bandwidth_hz, sampling_period_s)
