"""Unit tests for gain profiles and frequency-domain equalization."""

import math
import tracemalloc

import numpy as np
import pytest

from dftkit import (
    Band,
    DspError,
    GainProfile,
    Signal,
    build_gain_vector,
    equalize,
    fft,
    load_profile,
    mix,
    parse_profile,
    preset,
    sine,
)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


class TestGainProfile:
    def test_gain_inside_band(self):
        profile = GainProfile(bands=(Band(100.0, 200.0, 0.5),))
        assert profile.gain_at(100.0) == 0.5  # low edge included
        assert profile.gain_at(150.0) == 0.5
        assert profile.gain_at(199.999) == 0.5

    def test_gain_outside_band_is_unity(self):
        profile = GainProfile(bands=(Band(100.0, 200.0, 0.5),))
        assert profile.gain_at(99.999) == 1.0
        assert profile.gain_at(200.0) == 1.0  # high edge excluded
        assert profile.gain_at(0.0) == 1.0

    def test_adjacent_bands_partition_cleanly(self):
        profile = GainProfile(bands=(Band(0.0, 100.0, 0.2), Band(100.0, 200.0, 0.8)))
        assert profile.gain_at(99.999) == 0.2
        assert profile.gain_at(100.0) == 0.8

    def test_rejects_overlapping_bands(self):
        with pytest.raises(DspError, match="overlaps"):
            GainProfile(bands=(Band(0.0, 150.0, 0.5), Band(100.0, 200.0, 0.5)))

    def test_rejects_unsorted_bands(self):
        with pytest.raises(DspError, match="sorted"):
            GainProfile(bands=(Band(500.0, 600.0, 0.5), Band(0.0, 100.0, 0.5)))

    def test_rejects_inverted_interval(self):
        with pytest.raises(DspError, match="interval"):
            GainProfile(bands=(Band(200.0, 100.0, 0.5),))

    def test_rejects_negative_frequency(self):
        with pytest.raises(DspError, match="interval"):
            GainProfile(bands=(Band(-10.0, 100.0, 0.5),))

    def test_rejects_negative_or_non_finite_gain(self):
        with pytest.raises(DspError, match="gain"):
            GainProfile(bands=(Band(0.0, 100.0, -0.1),))
        with pytest.raises(DspError, match="gain"):
            GainProfile(bands=(Band(0.0, 100.0, math.nan),))

    def test_empty_profile_passes_everything(self):
        profile = GainProfile(bands=())
        assert profile.gain_at(12345.0) == 1.0


class TestPresets:
    def test_treble_ladder(self):
        profile = preset("treble")
        assert profile.name == "treble"
        assert profile.gain_at(0.0) == 0.1
        assert profile.gain_at(159.999) == 0.1
        assert profile.gain_at(160.0) == 0.25
        assert profile.gain_at(500.0) == 0.5
        assert profile.gain_at(799.999) == 0.5
        assert profile.gain_at(800.0) == 1.0
        assert profile.gain_at(1000.0) == 1.0
        assert profile.gain_at(8000.0) == 1.0
        assert profile.gain_at(22050.0) == 1.0

    def test_bass_boost_is_the_reverse_ladder(self):
        profile = preset("bass-boost")
        assert profile.gain_at(0.0) == 1.0
        assert profile.gain_at(400.0) == 1.0
        assert profile.gain_at(500.0) == 0.5
        assert profile.gain_at(800.0) == 0.25
        assert profile.gain_at(1000.0) == 0.25
        assert profile.gain_at(8000.0) == 0.1
        assert profile.gain_at(22050.0) == 0.1

    def test_identity_has_no_bands(self):
        profile = preset("identity")
        assert profile.bands == ()
        assert profile.gain_at(440.0) == 1.0

    def test_unknown_name_lists_choices(self):
        with pytest.raises(DspError, match="identity.*treble.*bass-boost"):
            preset("flanger")


# ---------------------------------------------------------------------------
# Gain vectors
# ---------------------------------------------------------------------------


class TestBuildGainVector:
    def test_small_frozen_example(self):
        # n=8 at 8000 Hz puts bins at 0,1000,...,4000; [1000,3000) covers
        # bins 1 and 2, and their mirrors 7 and 6
        profile = GainProfile(bands=(Band(1000.0, 3000.0, 0.5),))
        values = build_gain_vector(profile, 8, 8000).values
        assert np.array_equal(values, [1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, 0.5])

    def test_chord_scale_frozen_example(self):
        # 160 Hz falls between bins 237 and 238 of a 65536-point transform
        # at 44100 Hz: bin 237 is 159.49 Hz, bin 238 is 160.16 Hz
        profile = GainProfile(bands=(Band(0.0, 160.0, 0.1),))
        values = build_gain_vector(profile, 65536, 44100).values
        assert np.all(values[: 237 + 1] == 0.1)
        assert np.all(values[238 : 65536 - 237] == 1.0)
        assert np.all(values[65536 - 237 :] == 0.1)

    def test_odd_length_mirror(self):
        profile = GainProfile(bands=(Band(0.0, 1500.0, 0.25),))
        values = build_gain_vector(profile, 5, 8000).values
        # bins at 0, 1600, 3200 Hz; only bin 0 is inside the band
        assert np.array_equal(values, [0.25, 1.0, 1.0, 1.0, 1.0])

    def test_nyquist_bin_is_its_own_mirror(self):
        profile = GainProfile(bands=(Band(3000.0, 5000.0, 0.5),))
        values = build_gain_vector(profile, 8, 8000).values
        assert values[4] == 0.5  # 4000 Hz
        assert np.array_equal(values, values[(-np.arange(8)) % 8])

    def test_rejects_bad_dimensions(self):
        profile = GainProfile(bands=())
        with pytest.raises(DspError, match="length"):
            build_gain_vector(profile, 0, 8000)
        for rate in (0, math.nan, math.inf, -math.inf, 44100.5, "44100", None, [8000], object()):
            with pytest.raises(DspError, match="sample rate must be a positive integer"):
                build_gain_vector(profile, 8, rate)


# ---------------------------------------------------------------------------
# Equalization
# ---------------------------------------------------------------------------


class TestEqualize:
    def test_identity_preset_returns_the_input(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.9, 0.9, 3000)  # deliberately not a power of two
        out = equalize(Signal(x, 44100), preset("identity"))
        assert len(out) == 3000
        assert out.sample_rate == 44100
        assert np.max(np.abs(out.samples - x)) <= 1e-9

    def test_band_scales_its_tone_and_spares_the_rest(self):
        # 1 Hz bins: 8192 samples at 8192 Hz, tones at exact bin centers
        low = sine(100.0, amplitude=0.4, sample_rate=8192)
        high = sine(2000.0, amplitude=0.4, sample_rate=8192)
        signal = mix([low, high])
        profile = GainProfile(bands=(Band(0.0, 160.0, 0.1),))
        out = equalize(signal, profile)
        before = np.abs(fft(signal).bins)
        after = np.abs(fft(out).bins)
        assert after[100] == pytest.approx(0.1 * before[100], rel=1e-9)
        assert after[2000] == pytest.approx(before[2000], rel=1e-9)

    def test_matches_per_bin_multiplication(self):
        rng = np.random.default_rng(9)
        signal = Signal(rng.uniform(-0.2, 0.2, 512), 44100)
        profile = preset("treble")
        out = equalize(signal, profile)
        gains = build_gain_vector(profile, 512, 44100).values
        expected = gains * fft(signal).bins
        assert np.max(np.abs(fft(out).bins - expected)) <= 1e-9

    def test_boost_is_clamped_to_unit_range(self):
        tone = sine(500.0, amplitude=0.9, sample_rate=8192)
        profile = GainProfile(bands=(Band(400.0, 600.0, 3.0),))
        out = equalize(tone, profile)
        assert np.max(out.samples) == 1.0
        assert np.min(out.samples) == -1.0

    def test_silence_stays_silent(self):
        out = equalize(Signal(np.zeros(100), 8000), preset("treble"))
        assert np.array_equal(out.samples, np.zeros(100))

    def test_output_length_matches_input(self):
        for n in (1, 7, 100, 1023, 1024):
            out = equalize(Signal(np.ones(n) * 0.1, 8000), preset("identity"))
            assert len(out) == n

    def test_peak_memory_is_bounded_by_the_padded_signal(self):
        # the full spectrum, the gains and the inverse's buffers: about 7 signals
        signal = Signal(np.random.default_rng(13).uniform(-1.0, 1.0, 2**16), 44100)
        tracemalloc.start()
        try:
            equalize(signal, preset("treble"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7.25 * signal.samples.nbytes


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------


class TestProfileParsing:
    def test_basic_lines(self):
        profile = parse_profile("0,160,0.1\n160,500,0.25\n")
        assert profile.bands == (Band(0.0, 160.0, 0.1), Band(160.0, 500.0, 0.25))

    def test_comments_and_blank_lines(self):
        text = "# full profile\n\n0,100,0.5  # cut the rumble\n\n200,300,2\n"
        profile = parse_profile(text)
        assert len(profile.bands) == 2
        assert profile.bands[1] == Band(200.0, 300.0, 2.0)

    def test_lines_are_sorted_by_frequency(self):
        profile = parse_profile("500,600,0.5\n0,100,0.25\n")
        assert profile.bands[0].low_hz == 0.0
        assert profile.bands[1].low_hz == 500.0

    def test_wrong_field_count_names_the_line(self):
        with pytest.raises(DspError, match="line 2"):
            parse_profile("0,100,0.5\n100,200\n")

    def test_non_numeric_names_the_line(self):
        with pytest.raises(DspError, match="line 3"):
            parse_profile("0,100,0.5\n# fine\n100,two hundred,0.5\n")

    def test_overlap_is_rejected_after_sorting(self):
        with pytest.raises(DspError, match="overlaps"):
            parse_profile("100,300,0.5\n0,200,0.5\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bands.profile"
        path.write_text("0,160,0.1\n160,500,0.25\n# done\n")
        profile = load_profile(path)
        assert len(profile.bands) == 2
        assert profile.name == str(path)

    def test_empty_file_is_the_identity(self):
        profile = parse_profile("# nothing but comments\n")
        assert profile.bands == ()
