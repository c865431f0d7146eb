"""Unit tests for tone generation and mixing."""

import tracemalloc

import numpy as np
import pytest

from dftkit import DspError, Signal, mix, sine


class TestSine:
    def test_one_cycle_values(self):
        # 1 Hz sampled 8 times over one second hits the eighth roots
        signal = sine(1.0, sample_rate=8)
        root = np.sqrt(2.0) / 2.0
        expected = [0.0, root, 1.0, root, 0.0, -root, -1.0, -root]
        assert signal.samples == pytest.approx(expected, abs=1e-12)

    def test_sample_count_rounds_half_up(self):
        assert len(sine(1.0, duration_s=1.0, sample_rate=44100)) == 44100
        assert len(sine(1.0, duration_s=0.5, sample_rate=3)) == 2  # 1.5 rounds up
        assert len(sine(1.0, duration_s=0.1, sample_rate=44100)) == 4410

    def test_amplitude_scales_linearly(self):
        loud = sine(440.0, amplitude=0.25, duration_s=0.01)
        quiet = sine(440.0, amplitude=0.125, duration_s=0.01)
        assert loud.samples == pytest.approx(2.0 * quiet.samples)

    def test_zero_frequency_is_silence(self):
        assert np.array_equal(sine(0.0, duration_s=0.01).samples, np.zeros(441))

    def test_rejects_at_and_above_nyquist(self):
        with pytest.raises(DspError, match="Nyquist"):
            sine(4000.0, sample_rate=8000)
        with pytest.raises(DspError, match="Nyquist"):
            sine(9000.0, sample_rate=8000)
        assert len(sine(3999.0, sample_rate=8000)) == 8000

    def test_rejects_negative_frequency(self):
        with pytest.raises(DspError, match="frequency"):
            sine(-440.0)

    def test_rejects_bad_rate(self):
        for rate in (0, -44100, np.inf, np.nan, 44100.5, "44100", None, [8000], object()):
            with pytest.raises(DspError, match="sample rate must be a positive integer"):
                sine(440.0, sample_rate=rate)

    def test_rejects_a_fractional_rate_before_building_the_tone(self):
        tracemalloc.start()
        try:
            with pytest.raises(DspError, match="sample rate must be a positive integer"):
                sine(440.0, duration_s=10.0, sample_rate=44100.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the tone would be 441,005 float64 samples, 3.5 MB

    def test_rejects_bad_duration(self):
        with pytest.raises(DspError, match="duration"):
            sine(440.0, duration_s=0.0)
        with pytest.raises(DspError, match="duration"):
            sine(440.0, duration_s=-1.0)
        with pytest.raises(DspError, match="duration"):
            sine(440.0, duration_s=float("inf"))

    def test_rejects_duration_shorter_than_one_sample(self):
        with pytest.raises(DspError, match="no samples"):
            sine(0.4, duration_s=0.2, sample_rate=2)

    def test_rejects_non_finite_amplitude(self):
        with pytest.raises(DspError, match="amplitude"):
            sine(440.0, amplitude=float("nan"))


class TestMix:
    def test_sums_sample_by_sample(self):
        a = Signal([0.1, 0.2, 0.3], 8000)
        b = Signal([0.3, 0.2, 0.1], 8000)
        out = mix([a, b])
        assert out.samples == pytest.approx([0.4, 0.4, 0.4])

    def test_zero_extends_shorter_signals(self):
        long = Signal([1.0, 1.0, 1.0, 1.0], 8000)
        short = Signal([1.0, 1.0], 8000)
        out = mix([long, short])
        assert out.samples == pytest.approx([2.0, 2.0, 1.0, 1.0])
        assert len(out) == 4

    def test_normalize_divides_by_count(self):
        tones = [Signal([0.9, -0.9], 8000) for _ in range(3)]
        out = mix(tones, normalize=True)
        assert out.samples == pytest.approx([0.9, -0.9])

    def test_normalized_unit_tones_stay_in_range(self):
        tones = [sine(f, duration_s=0.05) for f in (200.0, 300.0, 500.0)]
        out = mix(tones, normalize=True)
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_single_signal_passthrough(self):
        a = Signal([0.5, -0.5], 8000)
        assert np.array_equal(mix([a]).samples, a.samples)

    def test_rejects_empty_list(self):
        with pytest.raises(DspError, match="empty"):
            mix([])

    def test_rejects_mixed_rates(self):
        with pytest.raises(DspError, match="sample rates"):
            mix([Signal([0.0], 8000), Signal([0.0], 44100)])
