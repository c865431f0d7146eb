"""Unit tests for the transform core.

Expected vectors below were derived by hand from the definition
bins[k] = sum_j x[j] * exp(-2*pi*i*j*k/n) before any implementation
existed, so they are independent of the code under test.
"""

import threading
import tracemalloc

import numpy as np
import pytest

import dftkit.transform
from dftkit import (
    DEFAULT_NAIVE_LIMIT,
    Band,
    DftMatrix,
    DspError,
    GainProfile,
    Signal,
    Spectrum,
    analyze,
    dft_matrix,
    dft_naive,
    equalize,
    fft,
    idft_naive,
    ifft,
    next_pow2,
    omega,
    pad_to_pow2,
    preset,
)
from dftkit.cli import main
from test_oracles import REAL_KINDS, real_input

# sin ramp [0, 1, 0, -1]: bin 1 = -i*(n/2), bin 3 its conjugate, rest zero
SIN4_TIME = np.array([0.0, 1.0, 0.0, -1.0])
SIN4_BINS = np.array([0.0, -2.0j, 0.0, 2.0j])

# arithmetic ramp [1, 2, 3, 4], summed term by term with omega(4) = -i
RAMP4_TIME = np.array([1.0, 2.0, 3.0, 4.0])
RAMP4_BINS = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])


# ---------------------------------------------------------------------------
# Value containers
# ---------------------------------------------------------------------------


class TestSignal:
    def test_stores_float64(self):
        signal = Signal([1, 0, -1], 8000)
        assert signal.samples.dtype == np.float64
        assert len(signal) == 3
        assert signal.duration_s == pytest.approx(3 / 8000)

    def test_rejects_empty(self):
        with pytest.raises(DspError, match="at least one sample"):
            Signal([], 8000)

    def test_rejects_non_finite(self):
        with pytest.raises(DspError, match="finite"):
            Signal([0.0, np.nan], 8000)
        with pytest.raises(DspError, match="finite"):
            Signal([np.inf, 0.0], 8000)

    def test_rejects_2d(self):
        with pytest.raises(DspError, match="1-d"):
            Signal(np.zeros((2, 2)), 8000)

    def test_rejects_bad_rate(self):
        for rate in (0, -44100, np.inf, np.nan, None, [8000], object(), np.array([8000, 8000])):
            with pytest.raises(DspError, match="sample rate must be a positive integer"):
                Signal([1.0], rate)


class TestSpectrum:
    def test_stores_complex128(self):
        spectrum = Spectrum([1, 1j], 8000)
        assert spectrum.bins.dtype == np.complex128
        assert len(spectrum) == 2

    def test_rejects_empty(self):
        with pytest.raises(DspError, match="at least one bin"):
            Spectrum([], 8000)

    def test_rejects_non_finite(self):
        with pytest.raises(DspError, match="finite"):
            Spectrum([complex("nan")], 8000)

    def test_rejects_bad_rate(self):
        for rate in (0, -44100, np.inf, np.nan, None, [8000], object()):
            with pytest.raises(DspError, match="sample rate must be a positive integer"):
                Spectrum([1.0], rate)


# ---------------------------------------------------------------------------
# Roots of unity and the transform matrix
# ---------------------------------------------------------------------------


class TestOmega:
    def test_small_orders(self):
        assert omega(1) == pytest.approx(1.0)
        assert omega(2) == pytest.approx(-1.0)
        assert omega(4) == pytest.approx(-1.0j)
        root = np.sqrt(2.0) / 2.0
        assert omega(8) == pytest.approx(complex(root, -root))

    def test_unit_magnitude(self):
        for n in (3, 5, 7, 12, 100):
            assert abs(omega(n)) == pytest.approx(1.0)

    def test_nth_power_is_one(self):
        for n in (2, 3, 8, 13):
            assert omega(n) ** n == pytest.approx(1.0)

    def test_rejects_zero(self):
        with pytest.raises(DspError, match=">= 1"):
            omega(0)


class TestDftMatrix:
    def test_rejects_order_zero(self):
        with pytest.raises(DspError, match=">= 1"):
            dft_matrix(0)

    def test_order_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(dft_matrix(2).entries, expected, atol=1e-15)

    def test_order_four_rows(self):
        entries = dft_matrix(4).entries
        assert np.allclose(entries[0], [1, 1, 1, 1], atol=1e-15)
        assert np.allclose(entries[1], [1, -1j, -1, 1j], atol=1e-15)
        assert np.allclose(entries[2], [1, -1, 1, -1], atol=1e-15)
        assert np.allclose(entries[3], [1, 1j, -1, -1j], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 37, 64])
    def test_exactly_symmetric(self, n):
        entries = dft_matrix(n).entries
        assert np.array_equal(entries, entries.T)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_first_row_and_column_are_ones(self, n):
        entries = dft_matrix(n).entries
        assert np.array_equal(entries[0], np.ones(n))
        assert np.array_equal(entries[:, 0], np.ones(n))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
    def test_unitary_up_to_n(self, n):
        entries = dft_matrix(n).entries
        product = entries @ entries.conj().T / n
        assert np.max(np.abs(product - np.eye(n))) <= 1e-9

    def test_matches_naive_transform(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 1.0, 33)
        product = dft_matrix(33).entries @ x
        bins = dft_naive(Signal(x, 8000)).bins
        assert np.max(np.abs(product - bins)) <= 1e-9

    def test_rejects_above_limit(self):
        with pytest.raises(DspError, match="naive-path limit"):
            dft_matrix(DEFAULT_NAIVE_LIMIT + 1)
        assert dft_matrix(16, max_n=16).n == 16
        with pytest.raises(DspError, match="naive-path limit"):
            dft_matrix(17, max_n=16)

    def test_shape_validation(self):
        with pytest.raises(DspError, match="shape"):
            DftMatrix(n=3, entries=np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Naive transform pair
# ---------------------------------------------------------------------------


class TestDftNaive:
    def test_sin_ramp(self):
        bins = dft_naive(Signal(SIN4_TIME, 4)).bins
        assert np.max(np.abs(bins - SIN4_BINS)) <= 1e-9

    def test_arithmetic_ramp(self):
        bins = dft_naive(Signal(RAMP4_TIME, 4)).bins
        assert np.max(np.abs(bins - RAMP4_BINS)) <= 1e-9

    def test_constant_concentrates_in_bin_zero(self):
        bins = dft_naive(Signal(np.full(16, 0.75), 16)).bins
        assert bins[0] == pytest.approx(12.0)
        assert np.max(np.abs(bins[1:])) <= 1e-9

    def test_impulse_spreads_evenly(self):
        x = np.zeros(8)
        x[0] = 1.0
        bins = dft_naive(Signal(x, 8)).bins
        assert np.max(np.abs(bins - np.ones(8))) <= 1e-9

    def test_cosine_tone_hits_its_bin(self):
        n, cycle = 64, 3
        x = np.cos(2.0 * np.pi * cycle * np.arange(n) / n)
        bins = dft_naive(Signal(x, n)).bins
        assert bins[cycle] == pytest.approx(n / 2, abs=1e-9)
        assert bins[n - cycle] == pytest.approx(n / 2, abs=1e-9)
        rest = np.delete(bins, [cycle, n - cycle])
        assert np.max(np.abs(rest)) <= 1e-9

    def test_preserves_sample_rate(self):
        assert dft_naive(Signal(SIN4_TIME, 4410)).sample_rate == 4410

    def test_rejects_above_limit(self):
        signal = Signal(np.zeros(32) + 1.0, 8000)
        with pytest.raises(DspError, match="naive-path limit"):
            dft_naive(signal, max_n=16)

    def test_length_one_is_identity(self):
        assert dft_naive(Signal([0.5], 8000)).bins[0] == pytest.approx(0.5)


class TestIdftNaive:
    def test_sin_ramp_inverse(self):
        samples = idft_naive(Spectrum(SIN4_BINS, 4)).samples
        assert np.max(np.abs(samples - SIN4_TIME)) <= 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 100)
        back = idft_naive(dft_naive(Signal(x, 8000)))
        assert np.max(np.abs(back.samples - x)) <= 1e-9

    def test_rejects_non_hermitian_spectrum(self):
        with pytest.raises(DspError, match="Hermitian"):
            idft_naive(Spectrum([1.0, 1.0j, 0.0, 0.0], 8000))


# ---------------------------------------------------------------------------
# Fast transform pair
# ---------------------------------------------------------------------------


class TestFft:
    def test_sin_ramp(self):
        bins = fft(Signal(SIN4_TIME, 4)).bins
        assert np.max(np.abs(bins - SIN4_BINS)) <= 1e-9

    def test_arithmetic_ramp(self):
        bins = fft(Signal(RAMP4_TIME, 4)).bins
        assert np.max(np.abs(bins - RAMP4_BINS)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256, 2048])
    def test_matches_naive_on_random_input(self, n):
        rng = np.random.default_rng(n)
        signal = Signal(rng.uniform(-1.0, 1.0, n), 44100)
        assert np.max(np.abs(fft(signal).bins - dft_naive(signal).bins)) <= 1e-9

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_matches_reference_library(self, n):
        # independent cross-check on top of the naive-path oracle
        rng = np.random.default_rng(n + 1)
        x = rng.uniform(-1.0, 1.0, n)
        assert np.max(np.abs(fft(Signal(x, 44100)).bins - np.fft.fft(x))) <= 1e-9

    @pytest.mark.parametrize("n", [3, 5, 6, 100, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(DspError, match="power of two"):
            fft(Signal(np.ones(n), 8000))

    def test_error_names_nearest_powers(self):
        with pytest.raises(DspError, match="512 and 1024"):
            fft(Signal(np.ones(1000), 8000))


class TestIfft:
    def test_sin_ramp_inverse(self):
        samples = ifft(Spectrum(SIN4_BINS, 4)).samples
        assert np.max(np.abs(samples - SIN4_TIME)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 16, 512, 4096])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 1.0, n)
        back = ifft(fft(Signal(x, 44100)))
        assert np.max(np.abs(back.samples - x)) <= 1e-9

    def test_matches_naive_inverse(self):
        rng = np.random.default_rng(3)
        spectrum = fft(Signal(rng.uniform(-1.0, 1.0, 64), 8000))
        assert np.max(np.abs(ifft(spectrum).samples - idft_naive(spectrum).samples)) <= 1e-9

    def test_rejects_non_hermitian_spectrum(self):
        with pytest.raises(DspError, match="Hermitian"):
            ifft(Spectrum([1.0, 1.0j, 0.0, 0.0], 8000))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DspError, match="power of two"):
            ifft(Spectrum(np.ones(12), 8000))


# ---------------------------------------------------------------------------
# Padding helpers
# ---------------------------------------------------------------------------


class TestPadding:
    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(2) == 2
        assert next_pow2(3) == 4
        assert next_pow2(1000) == 1024
        assert next_pow2(1024) == 1024
        assert next_pow2(1025) == 2048

    def test_next_pow2_rejects_zero(self):
        with pytest.raises(DspError, match=">= 1"):
            next_pow2(0)

    def test_pad_extends_with_zeros(self):
        padded = pad_to_pow2(Signal([1.0, 2.0, 3.0], 8000))
        assert len(padded) == 4
        assert np.array_equal(padded.samples, [1.0, 2.0, 3.0, 0.0])
        assert padded.sample_rate == 8000

    def test_pad_is_identity_on_powers_of_two(self):
        signal = Signal(np.ones(64), 8000)
        assert pad_to_pow2(signal) is signal

    def test_refuses_a_signal_past_the_fast_limit_before_padding(self, monkeypatch):
        monkeypatch.setattr(dftkit.transform, "FFT_LIMIT", 1024)
        assert len(pad_to_pow2(Signal(np.ones(1000), 8000))) == 1024
        assert len(fft(Signal(np.ones(1000), 8000), pad=True)) == 1024
        at_limit = Signal(np.ones(1024), 8000)
        assert pad_to_pow2(at_limit) is at_limit
        assert len(fft(at_limit)) == len(fft(at_limit, pad=True)) == 1024
        signal = Signal(np.ones(1025), 8000)
        message = "^signal length 1025 exceeds the fast-path limit 1024$"
        tracemalloc.start()
        try:
            with pytest.raises(DspError, match=message):
                pad_to_pow2(signal)
            with pytest.raises(DspError, match=message):
                fft(signal, pad=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 8  # the padded copy alone would take 16 KiB, fft's bins 32 KiB
        with pytest.raises(DspError, match=message):
            analyze(signal)
        with pytest.raises(DspError, match=message):
            equalize(signal, preset("treble"))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fft_pads_as_pad_to_pow2_does(self, monkeypatch, cpus):
        # lengths 2**0 .. 2**20 and just above each power of two, every real input kind
        monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
        for exponent in range(21):
            n = 1 << exponent
            for length in (n, n + 1, n + 3) if exponent < 20 else (n,):
                for kind in REAL_KINDS:
                    rng = np.random.default_rng([length, REAL_KINDS.index(kind)])
                    signal = Signal(real_input(rng, length, kind), 8000)
                    expected = fft(pad_to_pow2(signal)).bins
                    assert fft(signal, pad=True).bins.tobytes() == expected.tobytes(), (length, kind)

    def test_fft_pads_with_zeros_whatever_the_allocator_hands_back(self, monkeypatch):
        # new arrays start as NaN here, so a padding tail left unwritten would show
        empty = np.empty

        def nan_filled(*args, **kwargs):
            array = empty(*args, **kwargs)
            if array.dtype.kind in "fc":
                array.fill(np.nan)
            return array

        monkeypatch.setattr(np, "empty", nan_filled)
        for length in (3, 5, 1000, 2**16 + 1, 2**17 + 5000):
            signal = Signal(np.random.default_rng(length).uniform(-1.0, 1.0, length), 8000)
            padded = np.zeros(next_pow2(length))
            padded[:length] = signal.samples
            expected = fft(Signal(padded, 8000)).bins
            assert fft(signal, pad=True).bins.tobytes() == expected.tobytes(), length

    def test_fft_without_pad_keeps_its_messages(self, monkeypatch):
        with pytest.raises(DspError, match=r"^length 1000 is not a power of two \(nearest are 512 and 1024\)"):
            fft(Signal(np.ones(1000), 8000))
        with pytest.raises(DspError, match="^length 1025 is not a power of two"):
            fft(Signal(np.ones(1025), 8000), pad=False)
        monkeypatch.setattr(dftkit.transform, "FFT_LIMIT", 1024)
        with pytest.raises(DspError, match="^signal length 2048 exceeds the fast-path limit 1024$"):
            fft(Signal(np.ones(2048), 8000))

    def test_padding_preserves_low_bins_scale(self):
        # zero padding refines the grid; bin 0 (the plain sum) is unchanged
        signal = Signal([0.25, 0.5, -0.25], 8000)
        padded = pad_to_pow2(signal)
        original_dc = dft_naive(signal).bins[0]
        padded_dc = fft(padded).bins[0]
        assert padded_dc == pytest.approx(original_dc, abs=1e-12)


# ---------------------------------------------------------------------------
# Twiddle tables
# ---------------------------------------------------------------------------


class TestTwiddleTableMemory:
    """Peak traced memory at 2**18 samples, in multiples of the padded signal.

    The kept tables hold one padded signal for the largest transform so
    far, the tiles of the short Pease stages, and one gather index per
    block size. A cold call builds them inside the measurement; a warm
    call finds them built and reads views.
    """

    signal = Signal(np.random.default_rng(13).uniform(-1.0, 1.0, 2**18), 44100)

    def peak_signals(self, call) -> float:
        tracemalloc.start()
        try:
            call(self.signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / self.signal.samples.nbytes

    def test_warm_equalize(self):
        equalize(self.signal, preset("treble"))
        assert self.peak_signals(lambda s: equalize(s, preset("treble"))) <= 5.5

    def test_cold_analyze(self, monkeypatch):
        monkeypatch.setattr(dftkit.transform, "_TABLES", {})
        assert self.peak_signals(analyze) <= 5.05

    def test_warm_analyze(self):
        analyze(self.signal)
        assert self.peak_signals(analyze) <= 4.05

    def test_two_threads_take_no_more_than_one(self, monkeypatch):
        # the caller allocates the scratch of both halves, so the helper allocates no array
        analyze(self.signal)
        peaks = {}
        for cpus in (1, 2):
            monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
            peaks[cpus] = self.peak_signals(analyze)
        assert peaks[2] <= peaks[1] + 0.01

    def test_ifft_keeps_one_signal_of_tables(self, monkeypatch):
        n = 2**16
        signal = Signal(np.random.default_rng(5).uniform(-1.0, 1.0, n), 8000)

        def kept_signals(call):
            monkeypatch.setattr(dftkit.transform, "_TABLES", {})
            monkeypatch.setattr(dftkit.transform, "_GATHERS", {})
            call()
            transform = dftkit.transform
            kept = {build.__name__: t.nbytes / (n * 8) for build, (_, t) in transform._TABLES.items()}
            kept.update({f"gather {nb}": g.nbytes / (n * 8) for nb, g in transform._GATHERS.items()})
            return kept

        spectrum = fft(signal)
        # the roots, R for the 2**15-point blocks (_BLOCK / 2 entries), 7 tiles of 256 twiddles
        # and the blocks' int64 gather index; no split twiddles
        tiles = 7 * 256 * 16 / (n * 8)
        expected = {"_roots": 1.0, "_ordered_roots": 0.5, "_tiles": tiles, f"gather {2**15}": 0.5}
        assert kept_signals(lambda: ifft(spectrum)) == expected
        assert 0.5 < kept_signals(lambda: fft(signal))["_split_twiddles"] <= 0.501  # n/4 + 1 entries

    def test_block_roots_stay_within_one_block(self, monkeypatch):
        transform = dftkit.transform
        values = np.random.default_rng(6).standard_normal(2**17).astype(np.complex128)
        for cpus in (1, 2):
            monkeypatch.setattr(transform, "_TABLES", {})
            monkeypatch.setattr(transform, "_CPUS", cpus)
            transform._fft_array(values)
            largest, table = transform._TABLES[transform._ordered_roots]
            assert (largest, table.size) == (transform._BLOCK, transform._BLOCK // 2)


class TestPipelineMemory:
    """Warm peak traced memory of analyze and equalize, in multiples of the padded signal.

    Neither holds the padded copy past fft, and the real split's and merge's
    temporaries are spans of _BLOCK / 2 bins, not n/4.
    """

    def peak_signals(self, call, length: int) -> float:
        signal = Signal(np.random.default_rng(length).uniform(-1.0, 1.0, length), 44100)
        call(signal)  # builds the kept tables
        tracemalloc.start()
        try:
            call(signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (next_pow2(length) * 8)

    def test_equalize(self):
        assert self.peak_signals(lambda s: equalize(s, preset("treble")), 2**17 + 1) <= 5.0

    def test_analyze(self):
        assert self.peak_signals(analyze, 2**18 + 5000) <= 4.25

    # fft transforms inside its n bins, which lend it their lower half as block buffers,
    # and equalize inverts inside them: the padded copy and the bins, then the bins and
    # the gain vector or the clamped output
    @pytest.mark.parametrize("length, bound", [(2**17 + 1, 3.75), (2**18, 3.25)])
    def test_equalize_in_place(self, length, bound):
        assert self.peak_signals(lambda s: equalize(s, preset("treble")), length) <= bound

    def test_analyze_in_place(self):
        assert self.peak_signals(analyze, 2**18 + 5000) <= 3.5

    # fft pads into the lower half of its bins, and the magnitudes or the half gains are the
    # only other large arrays beside them: analyze peaks at the bins and the magnitudes
    # (2.5), equalize at the bins and the gains (2.5) or, on a power of two, the output (3)
    def test_analyze_lets_the_spectrum_go_before_the_frequencies(self):
        assert self.peak_signals(analyze, 2**18 + 5000) <= 2.75

    @pytest.mark.parametrize("length", [2**17 + 1, 2**18 + 5000])
    def test_equalize_pads_inside_the_spectrum(self, length):
        assert self.peak_signals(lambda s: equalize(s, preset("treble")), length) <= 3.0

    def test_equalize_merges_inside_the_free_upper_half(self):
        # one span covers k = 1 .. n/4 at 2**16, so conj(X[m - k]) and the odd part took
        # n/4 bins each (0.5 signals apiece) beside the bins before they went there
        assert self.peak_signals(lambda s: equalize(s, preset("treble")), 2**16) < 3.506

    def test_fft_takes_its_block_buffers_from_its_bins(self):
        # the bins (2), but no block buffers of its own (0.5 on two threads), and warm,
        # no block index (0.125) or numpy iterator buffers
        assert self.peak_signals(fft, 2**18) <= 2.375

    @pytest.mark.parametrize("exponent", range(12, 21))
    def test_ifft_transforms_inside_its_conjugate(self, exponent):
        # the conjugated bins (2) are the FFT's input and block buffers, beside its result (2)
        n = 1 << exponent
        spectrum = fft(Signal(np.random.default_rng(n).uniform(-1.0, 1.0, n), 44100))
        ifft(spectrum)  # builds the kept tables
        tracemalloc.start()
        try:
            ifft(spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * 8) <= 4.1


class TestInputSafety:
    """The in-place transforms work in buffers they own, never in the caller's."""

    @pytest.fixture(params=[2**12, 2**16 + 1, 2**17])
    def signal(self, request):
        length = request.param
        return Signal(np.random.default_rng(length).uniform(-1.0, 1.0, length), 44100)

    def test_fft_and_ifft_leave_their_input(self, signal):
        padded = pad_to_pow2(signal)
        before = padded.samples.tobytes()
        spectrum = fft(padded)
        assert padded.samples.tobytes() == before
        assert not np.shares_memory(spectrum.bins, padded.samples)
        bins = spectrum.bins.tobytes()
        ifft(spectrum)
        assert spectrum.bins.tobytes() == bins

    def test_analyze_and_equalize_leave_their_input(self, signal):
        before = signal.samples.tobytes()
        analyze(signal)
        assert signal.samples.tobytes() == before
        equalized = equalize(signal, preset("treble"))
        assert signal.samples.tobytes() == before
        assert not np.shares_memory(equalized.samples, signal.samples)


class TestOverflow:
    """A transform that overflows raises DspError and emits no RuntimeWarning.

    pytest turns every warning into an error here, on the helper thread too.
    """

    huge = 1e308

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fft_equalize_and_ifft(self, monkeypatch, cpus):
        monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
        for n in (4, 2**17):  # 2**17 samples pack into 2**16 complex points, two blocks
            signal = Signal(np.full(n, self.huge), 8000)
            with pytest.raises(DspError, match="spectrum bins must all be finite"):
                fft(signal)
            with pytest.raises(DspError, match="spectrum bins must all be finite"):
                equalize(signal, preset("treble"))
        for n in (4, 2**16):
            with pytest.raises(DspError, match="signal samples must all be finite"):
                ifft(Spectrum(np.full(n, complex(self.huge)), 8000))

    def test_an_equalize_that_overflows_after_fft(self):
        # the spectrum is finite, the gains are not: the inverse's NaNs are refused
        signal = Signal(np.cos(np.arange(2**12)) * 1e300, 8000)
        profile = GainProfile(bands=(Band(low_hz=0.0, high_hz=1e9, gain=1e300),))
        with pytest.raises(DspError, match="signal samples must all be finite"):
            equalize(signal, profile)
        # the scaled bin 0 is -inf, and so is every sample of the inverse, which clamps to -1
        profile = GainProfile(bands=(Band(low_hz=0.0, high_hz=1000.0, gain=4.0),))
        assert equalize(Signal(np.full(4, -2e307), 8000), profile).samples.tolist() == [-1.0] * 4


# ---------------------------------------------------------------------------
# Butterflies on two threads
# ---------------------------------------------------------------------------


class TestTwoThreads:
    """Past one block, with two CPUs, _fft_array runs half its butterflies on a helper thread."""

    @pytest.mark.parametrize("block", [1 << 15, 16])
    def test_only_a_transform_of_more_than_one_block_splits(self, monkeypatch, block):
        # one helper for a half transform and then its half of the last stage's pairs;
        # the levels below the top run their halves in turn
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", 2)
        monkeypatch.setattr(transform, "_BLOCK", block)
        starts = []

        class Counted(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        for n, expected in ((block, 0), (2 * block, 1), (4 * block, 1)):
            starts.clear()
            transform._fft_array(np.ones(n, dtype=np.complex128))
            assert len(starts) == expected, n

    def test_helper_runs_no_traced_function(self, monkeypatch):
        # perfbench's span stack is per process, so every function it wraps
        # must run on the caller's thread
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", 2)
        monkeypatch.setattr(transform, "_GATHERS", {})  # so the blocks' gather index is built
        threads = {}

        def recorded(name):
            original = getattr(transform, name)

            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return original(*args, **kwargs)

            monkeypatch.setattr(transform, name, wrapper)

        for name in ("_bit_reversal", "_twiddles", "_fft_array", "_transform"):
            recorded(name)
        fft(Signal(np.random.default_rng(3).uniform(-1.0, 1.0, 2**17), 8000))
        caller = {threading.get_ident()}
        assert threads["_bit_reversal"] == threads["_twiddles"] == threads["_fft_array"] == caller
        assert len(threads["_transform"]) == 2  # the split ran, half of it on a helper

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_an_error_in_either_half_reaches_the_cli(self, tmp_path, capsys, monkeypatch, where):
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        assert main(["synth", str(wav), "--freqs", "440", "--duration", "2.0"]) == 0  # 2**17 padded
        capsys.readouterr()
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", 2)
        caller, butterfly = threading.get_ident(), transform._butterfly

        def failing(*args):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise MemoryError
            butterfly(*args)

        hooked = []
        monkeypatch.setattr(transform, "_butterfly", failing)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        threads = threading.active_count()
        code = main(["equalize", str(wav), str(out), "--preset", "treble"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["error: out of memory"]
        assert hooked == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("where", ["helper", "caller"])
    @pytest.mark.parametrize("stage", ["_transform", "_chunked"])
    def test_an_error_before_the_barrier_reaches_the_cli(
        self, tmp_path, capsys, monkeypatch, where, stage
    ):
        # 2**17 padded samples pack into two blocks, whose leaves run before the barrier;
        # 2**18 pack into four, and each side runs a stage wider than a block before it
        wav, out = tmp_path / "in.wav", tmp_path / "out.wav"
        duration = "2.0" if stage == "_transform" else "4.0"
        assert main(["synth", str(wav), "--freqs", "440", "--duration", duration]) == 0
        capsys.readouterr()
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", 2)
        codes, raised, original = [], [], getattr(transform, stage)
        # the CLI runs on a thread of its own, joined with a timeout, so that a hang fails
        argv = ["equalize", str(wav), str(out), "--preset", "treble"]
        runner = threading.Thread(target=lambda: codes.append(main(argv)))

        def failing(*args, **kwargs):
            leaf = stage == "_chunked" or args[1].size <= kwargs["gather"].size
            if leaf and (threading.get_ident() == runner.ident) == (where == "caller"):
                raised.append(threading.get_ident())
                raise MemoryError
            original(*args, **kwargs)

        monkeypatch.setattr(transform, stage, failing)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        threads = threading.active_count()
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
        assert codes == [1]
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
        assert len(raised) == 1 and (raised[0] == runner.ident) == (where == "caller")
        assert hooked == []
        assert threading.active_count() == threads

    def test_a_helper_that_cannot_start_leaves_the_one_thread_path(self, tmp_path, monkeypatch):
        transform = dftkit.transform
        signal = Signal(np.random.default_rng(8).uniform(-1.0, 1.0, 2**17), 8000)

        def outputs():  # fft and equalize split 2**16 packed points, ifft 2**17 points
            spectrum = fft(signal)
            inverse, equalized = ifft(spectrum), equalize(signal, preset("treble"))
            return spectrum.bins.tobytes(), inverse.samples.tobytes(), equalized.samples.tobytes()

        monkeypatch.setattr(transform, "_CPUS", 1)
        expected = outputs()
        refusals = []

        def refused(thread):
            refusals.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(transform, "_CPUS", 2)
        monkeypatch.setattr(threading.Thread, "start", refused)
        threads = threading.active_count()
        assert outputs() == expected
        assert len(refusals) == 4  # one split each in fft and ifft, two in equalize
        wav = tmp_path / "in.wav"
        assert main(["synth", str(wav), "--freqs", "440", "--duration", "2.0"]) == 0  # 2**17 padded
        assert main(["analyze", str(wav)]) == 0
        assert len(refusals) == 5
        assert threading.active_count() == threads


class TestSteadyState:
    """A warm _fft_array allocates only small objects beyond its output.

    It keeps its gather index per block size, multiplies its short Pease
    stages by kept tiles and runs with numpy's buffer size at _ROW, so
    numpy allocates no iterator buffer; the caller's size is restored.
    Its block buffers are the head of its input, which the caller gives up.
    """

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("exponent", [10, 15, 16, 17])
    def test_a_warm_transform_into_lent_buffers(self, monkeypatch, cpus, exponent):
        # the caller lends the output and gives its input up, as _rfft_array does
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", cpus)
        n = 1 << exponent
        values = np.random.default_rng(exponent).standard_normal(2 * n).view(np.complex128)
        out = np.empty(n, dtype=np.complex128)
        transform._fft_array(values, out)
        tracemalloc.start()
        try:
            transform._fft_array(values, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("exponent", [10, 15, 16, 17])
    def test_a_warm_transform_with_nothing_lent(self, monkeypatch, cpus, exponent):
        # the block buffers are the head of the input, which the caller gives up
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", cpus)
        n = 1 << exponent
        rng = np.random.default_rng(exponent)
        transform._fft_array(rng.standard_normal(2 * n).view(np.complex128))
        values = rng.standard_normal(2 * n).view(np.complex128)
        tracemalloc.start()
        try:
            result = transform._fft_array(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes < 32 * 1024

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_numpy_buffer_size_is_set_on_each_thread_and_restored(self, monkeypatch, cpus):
        transform = dftkit.transform
        monkeypatch.setattr(transform, "_CPUS", cpus)
        values = np.random.default_rng(9).standard_normal(2**17).view(np.complex128)  # two blocks
        sizes, original = {}, transform._transform

        def recorded(*args, **kwargs):
            sizes.setdefault(threading.get_ident(), set()).add(np.getbufsize())
            original(*args, **kwargs)

        def failing(*args):
            raise MemoryError

        monkeypatch.setattr(transform, "_transform", recorded)
        before = np.setbufsize(4096)
        try:
            transform._fft_array(values)
            assert np.getbufsize() == 4096
            assert list(sizes.values()) == [{transform._ROW}] * cpus  # the caller's and the helper's
            monkeypatch.setattr(transform, "_chunked", failing)
            with pytest.raises(MemoryError):
                transform._fft_array(values)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(before)
