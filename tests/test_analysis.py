"""Unit tests for spectrum inspection, peak picking, and note naming."""

import csv

import numpy as np
import pytest

from dftkit import (
    DspError,
    MagnitudeSpectrum,
    Signal,
    Spectrum,
    analyze,
    fft,
    find_peaks,
    identify_note,
    magnitude_spectrum,
    mix,
    pad_to_pow2,
    sine,
    write_spectrum_csv,
)


def make_mag(values, sample_rate=1000, source_n=None):
    """Half-spectrum fixture with one bin per Hz-ish step for easy reasoning."""
    values = np.asarray(values, dtype=np.float64)
    n = source_n if source_n is not None else 2 * (values.size - 1)
    return MagnitudeSpectrum(
        frequencies=np.arange(values.size) * (sample_rate / n),
        magnitudes=values,
        source_n=n,
        sample_rate=sample_rate,
    )


# ---------------------------------------------------------------------------
# Magnitude spectrum
# ---------------------------------------------------------------------------


class TestMagnitudeSpectrum:
    def test_half_length_and_frequencies(self):
        spectrum = Spectrum(np.arange(8) + 0j, 8000)
        mag = magnitude_spectrum(spectrum)
        assert len(mag) == 5
        assert mag.frequencies == pytest.approx([0, 1000, 2000, 3000, 4000])
        assert mag.bin_width_hz == pytest.approx(1000.0)

    def test_magnitudes_are_absolute_values(self):
        spectrum = Spectrum([3 + 4j, -5.0, 0.0, -5.0], 8000)
        mag = magnitude_spectrum(spectrum)
        assert mag.magnitudes == pytest.approx([5.0, 5.0, 0.0])

    def test_odd_length(self):
        mag = magnitude_spectrum(Spectrum([1.0, 2.0, 2.0], 9000))
        assert len(mag) == 2
        assert mag.frequencies == pytest.approx([0.0, 3000.0])


# ---------------------------------------------------------------------------
# Peak picking
# ---------------------------------------------------------------------------


class TestFindPeaks:
    def test_single_clear_peak(self):
        mag = make_mag([0, 1, 5, 1, 0, 0, 0, 0, 0])
        peaks = find_peaks(mag)
        assert [p.bin_index for p in peaks] == [2]
        assert peaks[0].magnitude == 5.0
        assert peaks[0].frequency_hz == pytest.approx(125.0)

    def test_threshold_drops_small_maxima(self):
        mag = make_mag([0, 1, 0, 10, 0, 4, 0, 0, 0])
        assert [p.bin_index for p in find_peaks(mag, relative_threshold=0.5)] == [3]
        assert [p.bin_index for p in find_peaks(mag, relative_threshold=0.3)] == [3, 5]

    def test_plateau_is_not_a_strict_maximum(self):
        mag = make_mag([0, 5, 5, 0, 0, 0, 0, 0, 0])
        assert find_peaks(mag) == []

    def test_edges_count_with_one_neighbor(self):
        mag = make_mag([9, 1, 0, 0, 0, 0, 0, 1, 8])
        assert [p.bin_index for p in find_peaks(mag, relative_threshold=0.5)] == [0, 8]

    def test_separation_keeps_the_larger_peak(self):
        # bins are 62.5 Hz apart here, so neighbors sit inside 100 Hz
        mag = make_mag([0, 6, 0, 9, 0, 0, 0, 0, 0], sample_rate=1000, source_n=16)
        peaks = find_peaks(mag, relative_threshold=0.1, min_separation_hz=150.0)
        assert [p.bin_index for p in peaks] == [3]

    def test_separation_tie_keeps_the_lower_bin(self):
        mag = make_mag([0, 7, 0, 7, 0, 0, 0, 0, 0], sample_rate=1000, source_n=16)
        peaks = find_peaks(mag, relative_threshold=0.1, min_separation_hz=150.0)
        assert [p.bin_index for p in peaks] == [1]

    def test_far_peaks_both_survive(self):
        mag = make_mag([0, 8, 0, 0, 0, 0, 0, 6, 0], sample_rate=1000, source_n=16)
        peaks = find_peaks(mag, relative_threshold=0.1, min_separation_hz=150.0)
        assert [p.bin_index for p in peaks] == [1, 7]

    def test_result_is_sorted_by_frequency(self):
        mag = make_mag([0, 4, 0, 9, 0, 6, 0, 5, 0])
        peaks = find_peaks(mag, relative_threshold=0.1, min_separation_hz=0.0)
        assert [p.bin_index for p in peaks] == [1, 3, 5, 7]

    def test_silence_yields_nothing(self):
        assert find_peaks(make_mag(np.zeros(9))) == []

    def test_rejects_bad_threshold(self):
        mag = make_mag([0, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DspError, match="threshold"):
            find_peaks(mag, relative_threshold=0.0)
        with pytest.raises(DspError, match="threshold"):
            find_peaks(mag, relative_threshold=1.5)

    def test_rejects_negative_separation(self):
        mag = make_mag([0, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DspError, match="separation"):
            find_peaks(mag, min_separation_hz=-1.0)

    def test_rejects_nan_separation(self):
        # a NaN separation fails every distance test, so the chord kept one peak
        chord = mix([sine(f, duration_s=0.5) for f in (261.63, 329.63, 392.0)])
        mag = magnitude_spectrum(fft(pad_to_pow2(chord)))
        assert len(find_peaks(mag, 0.5, 20.0)) == 3
        with pytest.raises(DspError, match="separation"):
            find_peaks(mag, 0.5, float("nan"))
        with pytest.raises(DspError, match="separation"):
            analyze(chord, 0.5, float("nan"))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        mag = make_mag(rng.uniform(0, 1, 129))
        first = find_peaks(mag, relative_threshold=0.2, min_separation_hz=10.0)
        second = find_peaks(mag, relative_threshold=0.2, min_separation_hz=10.0)
        assert first == second


# ---------------------------------------------------------------------------
# Note naming
# ---------------------------------------------------------------------------


class TestIdentifyNote:
    @pytest.mark.parametrize(
        "frequency,name",
        [
            (440.0, "A4"),
            (261.63, "C4"),
            (329.63, "E4"),
            (392.00, "G4"),
            (27.5, "A0"),
            (4186.01, "C8"),
            (466.16, "A#4"),
            (8.18, "C-1"),
        ],
    )
    def test_names_standard_pitches(self, frequency, name):
        match = identify_note(frequency)
        assert match is not None
        assert match.note_name == name

    def test_a4_is_exact(self):
        match = identify_note(440.0)
        assert match.reference_hz == pytest.approx(440.0)
        assert match.deviation_cents == pytest.approx(0.0, abs=1e-9)

    def test_deviation_sign(self):
        sharp = identify_note(442.0)
        flat = identify_note(438.0)
        assert sharp.note_name == "A4" and sharp.deviation_cents > 0
        assert flat.note_name == "A4" and flat.deviation_cents < 0

    def test_deviation_magnitude(self):
        # 446 Hz is 1200*log2(446/440) = 23.45 cents above A4
        match = identify_note(446.0)
        assert match.deviation_cents == pytest.approx(23.45, abs=0.01)

    def test_names_a_frequency_rounded_past_the_midpoint(self):
        # Between A4 and A#4, and over 50 cents from A#4 by rounding alone.
        match = identify_note(452.8929841231365)
        assert match.note_name == "A#4"
        assert -50.0 - 1e-9 <= match.deviation_cents < -50.0

    @pytest.mark.parametrize("bad", [0.0, -440.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(DspError, match="positive and finite"):
            identify_note(bad)

    # In turn: the ratio to A4 underflows to 0, the reference overflows, it is subnormal.
    @pytest.mark.parametrize("extreme", [5e-324, 1.79e308, 1e-320])
    def test_rejects_a_frequency_without_a_normal_reference(self, extreme):
        with pytest.raises(DspError, match="no normal reference pitch"):
            identify_note(extreme)


# ---------------------------------------------------------------------------
# End-to-end analysis
# ---------------------------------------------------------------------------


class TestAnalyze:
    def test_two_tone_recovery(self):
        signal = mix(
            [sine(440.0, duration_s=0.5), sine(880.0, duration_s=0.5)],
            normalize=True,
        )
        results = analyze(signal)
        names = [match.note_name for _, match in results]
        assert names == ["A4", "A5"]
        for peak, _ in results:
            width = signal.sample_rate / 32768
            expected = 440.0 if peak.frequency_hz < 600 else 880.0
            assert abs(peak.frequency_hz - expected) <= width

    def test_no_pad_requires_power_of_two(self):
        signal = sine(440.0, duration_s=1.0, sample_rate=44100)
        with pytest.raises(DspError, match="power of two"):
            analyze(signal, pad=False)

    def test_no_pad_accepts_power_of_two(self):
        signal = Signal(np.sin(2 * np.pi * 64 * np.arange(1024) / 1024), 1024)
        results = analyze(signal, pad=False)
        assert len(results) == 1
        assert results[0][0].bin_index == 64

    def test_silence_has_no_peaks(self):
        assert analyze(Signal(np.zeros(256), 8000)) == []


class TestSpectrumCsv:
    def test_header_and_rows(self, tmp_path):
        tone = sine(1000.0, duration_s=0.016, sample_rate=8000)  # 128 samples
        mag = magnitude_spectrum(fft(tone))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(mag, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["bin", "frequency_hz", "magnitude"]
        assert len(rows) == len(mag) + 1
        for index, row in enumerate(rows[1:]):
            assert int(row[0]) == index
            assert float(row[1]) == pytest.approx(mag.frequencies[index], rel=1e-6)
            assert float(row[2]) == pytest.approx(mag.magnitudes[index], rel=1e-6)
