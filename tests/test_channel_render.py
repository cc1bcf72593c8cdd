"""Differential tests: batched CIR rendering and copy-free subtraction.

:meth:`repro.channel.cir.ChannelRealization.render` shifts every
fractional tap with one batched FFT instead of one
:func:`~repro.signal.sampling.place_pulse` call per tap.  The oracle here
is that per-tap loop, kept only in this module, and the comparison is
``np.array_equal`` — bit identity, not a tolerance — across integer and
fractional positions, taps clipped at either buffer edge or lying wholly
outside it, real and complex pulses, and a hypothesis sweep.

The second half pins the batched fractional subtraction of
:mod:`repro.core.batch_extract`, which subtracts the two wrapped halves
of the small correlation window straight from the transform output
instead of building the rotated window first.  Each window position —
entirely in the tail half, straddling the split, clipped at 0 or at
``n_fine``, entirely in the lead half — must give the same outputs as
the serial window (:meth:`~repro.core.plan.DetectorPlan.window_correlations`
and, where the placement is unclipped,
:meth:`~repro.core.plan.DetectorPlan.subtract_response`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.cir import ChannelRealization, ChannelTap
from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch_extract import _subtract_fractional_group
from repro.core.plan import detector_plan
from repro.signal.pulses import Pulse, dw1000_pulse
from repro.signal.sampling import place_pulse, placed_segment
from repro.signal.templates import TemplateBank

TS = CIR_SAMPLING_PERIOD_S
#: A power-of-two period, so ``delay / period`` is exact and integer
#: tap positions really are integers.
EXACT_PERIOD_S = 2.0**-30

_REAL = dw1000_pulse(0xC8)
_COMPLEX = Pulse(
    samples=_REAL.samples * np.exp(0.7j),
    sampling_period_s=_REAL.sampling_period_s,
    register=_REAL.register,
    bandwidth_hz=_REAL.bandwidth_hz,
)


def _render_per_tap(channel, pulse, n_samples, sampling_period_s=None,
                    time_origin_s=0.0):
    """The serial oracle: one ``place_pulse`` per tap, in tap order."""
    if sampling_period_s is None:
        sampling_period_s = pulse.sampling_period_s
    buffer = np.zeros(n_samples, dtype=complex)
    for tap in channel:
        position = (tap.delay_s - time_origin_s) / sampling_period_s
        place_pulse(
            buffer,
            pulse.samples,
            position,
            amplitude=tap.amplitude,
            peak_index=pulse.peak_index,
        )
    return buffer


def _assert_renders_match(channel, pulse, n_samples, **kwargs):
    got = channel.render(pulse, n_samples, **kwargs)
    want = _render_per_tap(channel, pulse, n_samples, **kwargs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    return got


def _channel(positions):
    """Taps at the given sample positions of the exact grid (origin 0)."""
    return ChannelRealization(
        ChannelTap(
            delay_s=p * EXACT_PERIOD_S, amplitude=complex(1.0 - 0.1 * k, 0.3 * k)
        )
        for k, p in enumerate(positions)
    )


@pytest.mark.parametrize("pulse", [_REAL, _COMPLEX], ids=["real", "complex"])
class TestRenderMatchesPerTapLoop:
    def test_integer_positions(self, pulse):
        channel = _channel([20.0, 23.0, 31.0, 31.0])
        _assert_renders_match(
            channel, pulse, 64, sampling_period_s=EXACT_PERIOD_S
        )

    def test_fractional_positions(self, pulse):
        channel = _channel([20.25, 22.5, 22.75, 40.125])
        _assert_renders_match(
            channel, pulse, 80, sampling_period_s=EXACT_PERIOD_S
        )

    def test_mixed_integer_and_fractional(self, pulse):
        channel = _channel([18.0, 18.5, 19.0, 25.375, 30.0])
        _assert_renders_match(
            channel, pulse, 60, sampling_period_s=EXACT_PERIOD_S
        )

    def test_clipped_at_head(self, pulse):
        # Peaks near sample 0: the leading part of each pulse is cut.
        channel = _channel([1.0, 2.5, 4.75])
        got = _assert_renders_match(
            channel, pulse, 50, sampling_period_s=EXACT_PERIOD_S
        )
        assert np.any(got != 0)

    def test_clipped_at_tail(self, pulse):
        channel = _channel([45.0, 46.5, 49.25])
        got = _assert_renders_match(
            channel, pulse, 50, sampling_period_s=EXACT_PERIOD_S
        )
        assert np.any(got != 0)

    def test_wholly_outside_the_buffer(self, pulse):
        # Far before the buffer (via the time origin) and far past it.
        channel = _channel([10.0, 10.5, 500.0, 500.25])
        got = _assert_renders_match(
            channel,
            pulse,
            50,
            sampling_period_s=EXACT_PERIOD_S,
            time_origin_s=100.0 * EXACT_PERIOD_S,
        )
        assert not np.any(got)

    def test_single_tap(self, pulse):
        for position in (12.0, 12.375):
            _assert_renders_match(
                _channel([position]),
                pulse,
                40,
                sampling_period_s=EXACT_PERIOD_S,
            )

    def test_pulse_longer_than_buffer(self, pulse):
        channel = _channel([3.0, 4.5])
        _assert_renders_match(
            channel, pulse, 5, sampling_period_s=EXACT_PERIOD_S
        )

    def test_default_period_is_the_pulse_period(self, pulse):
        channel = ChannelRealization(
            [ChannelTap(30e-9, 1.0 + 0.5j, kind="los", order=0),
             ChannelTap(41.3e-9, 0.4 - 0.2j)]
        )
        _assert_renders_match(channel, pulse, 96, time_origin_s=3.1e-9)


_TAP = st.tuples(
    st.floats(min_value=0.0, max_value=400e-9),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestRenderSweep:
    @given(
        taps=st.lists(_TAP, min_size=1, max_size=40),
        origin_s=st.floats(min_value=-100e-9, max_value=350e-9),
        n_samples=st.integers(min_value=1, max_value=256),
        register=st.sampled_from([0x93, 0xC8, 0xF0]),
        complex_pulse=st.booleans(),
        on_grid=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_tap_loop(
        self, taps, origin_s, n_samples, register, complex_pulse, on_grid
    ):
        pulse = dw1000_pulse(register)
        if complex_pulse:
            pulse = Pulse(
                samples=pulse.samples * np.exp(-1.1j),
                sampling_period_s=pulse.sampling_period_s,
                register=pulse.register,
                bandwidth_hz=pulse.bandwidth_hz,
            )
        kwargs = {"time_origin_s": origin_s}
        if on_grid:
            # Snap delays and origin to an exact grid: integer positions.
            kwargs = {
                "sampling_period_s": EXACT_PERIOD_S,
                "time_origin_s": round(origin_s / EXACT_PERIOD_S)
                * EXACT_PERIOD_S,
            }
            taps = [
                (round(delay / EXACT_PERIOD_S) * EXACT_PERIOD_S, re, im)
                for delay, re, im in taps
            ]
        channel = ChannelRealization(
            ChannelTap(delay_s=delay, amplitude=complex(re, im))
            for delay, re, im in taps
        )
        _assert_renders_match(channel, pulse, n_samples, **kwargs)


# -- copy-free batched fractional subtraction --------------------------------

_BANK = list(TemplateBank.paper_bank(2))
_CIR_LENGTH = 256
_FACTOR = 2


def _plan():
    return detector_plan(_BANK, _CIR_LENGTH, _FACTOR, TS)


def _window_reference(plan, outputs, template_index, start, fraction,
                      amplitude):
    """The serial window: the rotated ``window_correlations`` matrix of
    the unclipped shifted segment, clipped to ``[0, n_fine)``."""
    template = plan.templates[template_index]
    position = float(start + template.peak_index) + fraction
    segment_start, segment = placed_segment(
        template.samples.astype(complex), position, template.peak_index
    )
    assert segment_start == start
    offset, ordered = plan.window_correlations(segment)
    first = start + offset
    a = max(0, first)
    b = min(plan.n_fine, first + ordered.shape[1])
    if a < b:
        outputs[:, a:b] -= amplitude * ordered[:, a - first:b - first]


def _case_starts(plan, template_index):
    """Window starts named by where the window lands."""
    length = len(plan.templates[template_index].samples)
    lead = plan.max_template_length - 1
    n_fine = plan.n_fine
    return {
        # a == start: nothing of the wrapped head is inside the signal.
        "tail-half-only": 0,
        "clipped-at-0": lead // 2,
        "straddling": lead + 3,
        # Last unclipped placement: the window runs past n_fine.
        "clipped-at-n_fine": n_fine - length - 1,
        # Past the signal end: only the wrapped head reaches back in.
        "lead-half-only": n_fine + lead // 2,
        "wholly-outside": n_fine + lead,
    }


@pytest.mark.parametrize(
    "case",
    [
        "tail-half-only",
        "clipped-at-0",
        "straddling",
        "clipped-at-n_fine",
        "lead-half-only",
        "wholly-outside",
    ],
)
@pytest.mark.parametrize("template_index", [0, 1])
def test_copy_free_window_matches_serial(case, template_index):
    plan = _plan()
    start = _case_starts(plan, template_index)[case]
    rng = np.random.default_rng(17)
    n_templates, n_fine = len(plan.templates), plan.n_fine
    original = rng.standard_normal((2, n_templates, n_fine)) + 1j * (
        rng.standard_normal((2, n_templates, n_fine))
    )
    outputs = original.copy()
    magnitudes = np.abs(outputs)
    want = original.copy()

    amplitude = complex(0.8, -0.35)
    position = float(start + plan.templates[template_index].peak_index) + 0.3
    fraction = position - np.floor(position)
    _subtract_fractional_group(
        plan, outputs, magnitudes, template_index,
        [(1, fraction, start, amplitude)], {},
    )
    _window_reference(plan, want[1], template_index, start, fraction, amplitude)

    assert np.array_equal(outputs, want)
    assert np.array_equal(magnitudes, np.abs(want))
    assert np.array_equal(outputs[0], original[0])  # other rows untouched
    if case == "wholly-outside":
        assert np.array_equal(outputs, original)

    length = len(plan.templates[template_index].samples)
    if start >= 0 and start + length + 1 <= n_fine:
        # Unclipped placement: the serial engine's own update agrees.
        serial = original[1].copy()
        plan.subtract_response(serial, template_index, position, amplitude)
        assert np.array_equal(outputs[1], serial)


def test_grouped_rows_match_one_at_a_time():
    """Several rows in one group: each equals its own serial update."""
    plan = _plan()
    rng = np.random.default_rng(5)
    n_templates, n_fine = len(plan.templates), plan.n_fine
    length = len(plan.templates[0].samples)
    starts = [0, 4, 20, n_fine - length - 1]
    outputs = rng.standard_normal((len(starts), n_templates, n_fine)) + 0j
    magnitudes = np.abs(outputs)
    serial = outputs.copy()
    group = []
    for row, start in enumerate(starts):
        position = float(start + plan.templates[0].peak_index) + 0.1 * (row + 1)
        fraction = position - np.floor(position)
        amplitude = complex(1.0, 0.2 * row)
        group.append((row, fraction, start, amplitude))
        plan.subtract_response(serial[row], 0, position, amplitude)
    _subtract_fractional_group(plan, outputs, magnitudes, 0, group, {})
    assert np.array_equal(outputs, serial)
    assert np.array_equal(magnitudes, np.abs(serial))
