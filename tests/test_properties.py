"""Property-based invariants of the transform pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dftkit import (
    Band,
    DspError,
    GainProfile,
    NoteMatch,
    Signal,
    Spectrum,
    build_gain_vector,
    dft_matrix,
    dft_naive,
    equalize,
    fft,
    identify_note,
    idft_naive,
    ifft,
    preset,
)

SMALL_POW2 = st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256])


def bounded_samples(n, bound=1.0):
    return arrays(
        dtype=np.float64,
        shape=n,
        elements=st.floats(
            min_value=-bound, max_value=bound, allow_nan=False, allow_infinity=False
        ),
    )


def signal_pairs():
    return SMALL_POW2.flatmap(
        lambda n: st.tuples(bounded_samples(n), bounded_samples(n))
    )


class TestTransformProperties:
    @given(signal_pairs(), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, pair, a, b):
        x, y = pair
        rate = 44100
        combined = dft_naive(Signal(a * x + b * y, rate)).bins
        separate = a * dft_naive(Signal(x, rate)).bins + b * dft_naive(Signal(y, rate)).bins
        assert np.max(np.abs(combined - separate)) <= 1e-9

    @given(SMALL_POW2.flatmap(bounded_samples))
    @settings(max_examples=100, deadline=None)
    def test_parseval_energy_identity(self, x):
        bins = fft(Signal(x, 44100)).bins
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(bins) ** 2)) / x.size
        assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, time_energy)

    @given(SMALL_POW2.flatmap(bounded_samples))
    @settings(max_examples=100, deadline=None)
    def test_real_input_gives_hermitian_spectrum(self, x):
        bins = fft(Signal(x, 44100)).bins
        mirrored = np.conj(bins[(-np.arange(x.size)) % x.size])
        assert np.max(np.abs(bins - mirrored)) <= 1e-9

    @given(SMALL_POW2.flatmap(bounded_samples))
    @settings(max_examples=100, deadline=None)
    def test_fast_path_matches_naive_path(self, x):
        signal = Signal(x, 44100)
        assert np.max(np.abs(fft(signal).bins - dft_naive(signal).bins)) <= 1e-9

    @given(SMALL_POW2.flatmap(bounded_samples))
    @settings(max_examples=100, deadline=None)
    def test_fast_round_trip_is_identity(self, x):
        back = ifft(fft(Signal(x, 44100)))
        assert np.max(np.abs(back.samples - x)) <= 1e-9

    @given(st.integers(1, 48).flatmap(bounded_samples))
    @settings(max_examples=50, deadline=None)
    def test_naive_round_trip_is_identity(self, x):
        back = idft_naive(dft_naive(Signal(x, 44100)))
        assert np.max(np.abs(back.samples - x)) <= 1e-9

    @given(st.integers(1, 32))
    @settings(max_examples=32, deadline=None)
    def test_matrix_is_symmetric_and_unitary(self, n):
        entries = dft_matrix(n).entries
        assert np.array_equal(entries, entries.T)
        product = entries @ entries.conj().T / n
        assert np.max(np.abs(product - np.eye(n))) <= 1e-9

    @given(st.integers(1, 32))
    @settings(max_examples=32, deadline=None)
    def test_matrix_product_matches_naive(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 1.0, n)
        via_matrix = dft_matrix(n).entries @ x
        via_sum = dft_naive(Signal(x, 44100)).bins
        assert np.max(np.abs(via_matrix - via_sum)) <= 1e-9

    @given(SMALL_POW2.flatmap(bounded_samples), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_time_shift_preserves_bin_magnitudes(self, x, shift):
        # circular shift changes only phase, never magnitude
        signal = Signal(x, 44100)
        shifted = Signal(np.roll(x, shift), 44100)
        assert np.max(
            np.abs(np.abs(fft(signal).bins) - np.abs(fft(shifted).bins))
        ) <= 1e-9


class TestEqualizerProperties:
    @given(st.integers(1, 300).flatmap(lambda n: bounded_samples(n, bound=0.9)))
    @settings(max_examples=50, deadline=None)
    def test_identity_preset_is_a_no_op(self, x):
        out = equalize(Signal(x, 44100), preset("identity"))
        assert np.max(np.abs(out.samples - x)) <= 1e-9

    @given(
        SMALL_POW2,
        st.floats(0.0, 10000.0),
        st.floats(1.0, 10000.0),
        st.floats(0.0, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_gain_vector_is_mirror_symmetric(self, n, low, width, gain):
        profile = GainProfile(bands=(Band(low, low + width, gain),))
        values = build_gain_vector(profile, n, 44100).values
        mirrored = values[(-np.arange(n)) % n]
        assert np.array_equal(values, mirrored)

    @given(
        st.sampled_from([8, 64, 256]).flatmap(lambda n: bounded_samples(n, bound=0.2)),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_single_band_acts_diagonally_on_the_spectrum(self, x, gain):
        # small amplitudes keep the output inside [-1, 1], so the final
        # clamp cannot disturb the algebra being checked
        signal = Signal(x, 44100)
        profile = GainProfile(bands=(Band(500.0, 4000.0, gain),))
        out = equalize(signal, profile)
        gains = build_gain_vector(profile, len(signal), signal.sample_rate).values
        expected = gains * fft(signal).bins
        assert np.max(np.abs(fft(out).bins - expected)) <= 1e-9


class TestNoteProperties:
    @given(st.integers(12, 119))
    @settings(max_examples=108, deadline=None)
    def test_exact_grid_frequencies_have_zero_deviation(self, midi):
        frequency = 440.0 * 2.0 ** ((midi - 69) / 12.0)
        match = identify_note(frequency)
        assert match is not None
        assert abs(match.deviation_cents) <= 1e-6
        assert match.reference_hz == pytest.approx(frequency)

    @given(st.integers(12, 119), st.floats(-49.0, 49.0))
    @settings(max_examples=100, deadline=None)
    def test_detuned_frequencies_snap_to_the_nearest_note(self, midi, cents):
        frequency = 440.0 * 2.0 ** ((midi - 69) / 12.0 + cents / 1200.0)
        match = identify_note(frequency)
        assert match is not None
        assert match.deviation_cents == pytest.approx(cents, abs=1e-6)

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_any_positive_finite_frequency_names_a_note_or_raises_dsp_error(self, frequency):
        try:
            match = identify_note(frequency)
        except DspError:
            return
        assert isinstance(match, NoteMatch)

    @given(st.integers(0, 127), st.integers(-30, 30))
    @settings(max_examples=300, deadline=None)
    def test_frequencies_at_semitone_midpoints_name_a_note(self, midi, ulps):
        frequency = 440.0 * 2.0 ** ((midi + 0.5 - 69) / 12.0)
        for _ in range(abs(ulps)):
            frequency = float(np.nextafter(frequency, np.inf if ulps > 0 else 0.0))
        match = identify_note(frequency)
        assert isinstance(match, NoteMatch)
        assert abs(match.deviation_cents) <= 50.0 + 1e-9
