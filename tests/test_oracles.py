"""Checks of rewritten code paths against the versions they replaced.

The oracles below are the earlier implementations, copied verbatim apart
from their names. Where the arithmetic is unchanged every comparison is
on raw bytes, so a changed signed zero or a last-bit rounding difference
counts as a failure. The real-input transform sums in a different order,
so it is held to tolerances fixed from float64 rounding instead.
"""

import contextlib
import csv
import io
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dftkit.cli
from dftkit import (
    DEFAULT_NAIVE_LIMIT,
    EPSILON,
    FFT_LIMIT,
    Band,
    DftMatrix,
    DspError,
    GainProfile,
    GainVector,
    MagnitudeSpectrum,
    Peak,
    Signal,
    Spectrum,
    WavMeta,
    build_gain_vector,
    dft_matrix,
    dft_naive,
    equalize,
    fft,
    find_peaks,
    identify_note,
    idft_naive,
    magnitude_spectrum,
    pad_to_pow2,
    preset,
    read_wav,
    write_spectrum_csv,
    write_wav,
)
from dftkit.analysis import _ROWS_PER_WRITE
from dftkit.cli import UsageError, main
from dftkit.transform import (
    _bit_reversal,
    _fft_array,
    _ifft_array,
    _require_power_of_two,
    _strip_imaginary,
)
from dftkit.wavio import _IEEE_FLOAT, _PCM

# ---------------------------------------------------------------------------
# Oracles: the loop implementations these paths replaced
# ---------------------------------------------------------------------------


def oracle_find_peaks(
    mag: MagnitudeSpectrum,
    relative_threshold: float = 0.5,
    min_separation_hz: float = 20.0,
) -> list[Peak]:
    if not 0.0 < relative_threshold <= 1.0:
        raise DspError(
            f"relative threshold must be in (0, 1], got {relative_threshold}"
        )
    if min_separation_hz < 0.0:
        raise DspError(f"minimum separation must be >= 0, got {min_separation_hz}")
    values = mag.magnitudes
    count = values.size
    ceiling = float(values.max(initial=0.0))
    if ceiling <= 0.0:
        return []
    floor = relative_threshold * ceiling

    candidates: list[tuple[float, int]] = []
    for k in range(count):
        if values[k] < floor:
            continue
        left_ok = k == 0 or values[k] > values[k - 1]
        right_ok = k == count - 1 or values[k] > values[k + 1]
        if left_ok and right_ok:
            candidates.append((-float(values[k]), k))
    candidates.sort()

    kept: list[int] = []
    for _, k in candidates:
        freq = mag.frequencies[k]
        if all(
            abs(freq - mag.frequencies[other]) >= min_separation_hz for other in kept
        ):
            kept.append(k)
    kept.sort()
    return [
        Peak(
            bin_index=k,
            frequency_hz=float(mag.frequencies[k]),
            magnitude=float(mag.magnitudes[k]),
        )
        for k in kept
    ]


def oracle_build_gain_vector(
    profile: GainProfile, n: int, sample_rate: int
) -> GainVector:
    if n < 1:
        raise DspError(f"transform length must be >= 1, got {n}")
    if sample_rate < 1:
        raise DspError(f"sample rate must be >= 1, got {sample_rate}")
    half = n // 2 + 1
    gains = np.ones(n, dtype=np.float64)
    for k in range(half):
        gains[k] = profile.gain_at(k * sample_rate / n)
    if n > 2:
        gains[half:] = gains[1 : (n - 1) // 2 + 1][::-1]
    return GainVector(values=gains, sample_rate=sample_rate)


def oracle_omega_powers(n: int) -> np.ndarray:
    """All n distinct powers of omega(n): table[m] = e^(-2*pi*i*m/n)."""
    return np.exp(-2j * np.pi * np.arange(n) / n)


def oracle_dft_matrix(n: int, max_n: int = DEFAULT_NAIVE_LIMIT) -> DftMatrix:
    """Materialize the full transform matrix.

    Exponents are reduced modulo n before the power table lookup, so
    entry (j, k) and entry (k, j) are the same float values and the
    phase stays exact even for large j*k.
    """
    if n < 1:
        raise DspError(f"transform order must be >= 1, got {n}")
    if n > max_n:
        raise DspError(f"matrix order {n} exceeds the naive-path limit {max_n}")
    powers = oracle_omega_powers(n)
    j = np.arange(n, dtype=np.int64)
    entries = np.empty((n, n), dtype=np.complex128)
    for k in range(n):  # row at a time keeps the index scratch at O(n)
        entries[k] = powers[(j * k) % n]
    return DftMatrix(n=n, entries=entries)


def oracle_dft_naive(signal: Signal, max_n: int = DEFAULT_NAIVE_LIMIT) -> Spectrum:
    """Forward transform by direct summation: bins[k] = sum_j x[j] * w^(jk).

    Equivalent to the matrix-vector product F @ x but accumulates one
    matrix row at a time, so memory stays O(n).
    """
    n = len(signal)
    if n > max_n:
        raise DspError(f"signal length {n} exceeds the naive-path limit {max_n}")
    powers = oracle_omega_powers(n)
    x = signal.samples.astype(np.complex128)
    j = np.arange(n, dtype=np.int64)
    bins = np.empty(n, dtype=np.complex128)
    for k in range(n):
        bins[k] = np.dot(powers[(j * k) % n], x)
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)


def oracle_idft_naive(spectrum: Spectrum, max_n: int = DEFAULT_NAIVE_LIMIT) -> Signal:
    """Inverse transform by direct summation, with the 1/n factor.

    samples[k] = (1/n) * sum_j bins[j] * e^(+2*pi*i*j*k/n)
    """
    n = len(spectrum)
    if n > max_n:
        raise DspError(f"spectrum length {n} exceeds the naive-path limit {max_n}")
    kernel = np.conj(oracle_omega_powers(n))
    j = np.arange(n, dtype=np.int64)
    time = np.empty(n, dtype=np.complex128)
    for k in range(n):
        time[k] = np.dot(kernel[(j * k) % n], spectrum.bins) / n
    return Signal(_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)


def oracle_bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    forward = np.arange(n, dtype=np.int64)
    reversed_idx = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        reversed_idx = (reversed_idx << 1) | (forward & 1)
        forward >>= 1
    return reversed_idx


def oracle_fft_array(values: np.ndarray) -> np.ndarray:
    n = values.size
    data = values[oracle_bit_reversal(n)]
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / size)
        view = data.reshape(n // size, size)
        upper = view[:, :half]
        lower = view[:, half:] * twiddle
        top = upper + lower
        bottom = upper - lower
        view[:, :half] = top
        view[:, half:] = bottom
        size *= 2
    return data


def oracle_ifft_array(values: np.ndarray) -> np.ndarray:
    return np.conj(_fft_array(np.conj(values))) / values.size


def oracle_fft(signal: Signal) -> Spectrum:
    n = len(signal)
    _require_power_of_two(n)
    if n > FFT_LIMIT:
        raise DspError(f"signal length {n} exceeds the fast-path limit {FFT_LIMIT}")
    bins = _fft_array(signal.samples.astype(np.complex128))
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)


def oracle_equalize(signal: Signal, profile: GainProfile) -> Signal:
    original_n = len(signal)
    padded = pad_to_pow2(signal)
    spectrum = oracle_fft(padded)
    gains = build_gain_vector(profile, len(padded), signal.sample_rate)
    shaped = spectrum.bins * gains.values

    time = oracle_ifft_array(shaped)
    reference = float(np.max(np.abs(time.real))) if time.size else 0.0
    residue = float(np.max(np.abs(time.imag)))
    if residue > EPSILON * max(reference, 1.0):
        raise DspError(
            f"equalized spectrum lost Hermitian symmetry (residue {residue:.3e})"
        )
    samples = np.clip(time.real[:original_n], -1.0, 1.0)
    return Signal(samples, signal.sample_rate)


def oracle_write_spectrum_csv(mag: MagnitudeSpectrum, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin", "frequency_hz", "magnitude"])
        for k in range(len(mag)):
            writer.writerow(
                [k, f"{mag.frequencies[k]:.8g}", f"{mag.magnitudes[k]:.8g}"]
            )


def oracle_cmd_analyze(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise UsageError(f"--threshold must be in (0, 1], got {args.threshold}")
    if not args.separation_hz >= 0.0:
        raise UsageError(f"--separation-hz must be >= 0, got {args.separation_hz}")
    signal, meta = read_wav(args.input)
    prepared = signal if args.no_pad else pad_to_pow2(signal)
    mag = magnitude_spectrum(fft(prepared))
    if args.csv:
        oracle_write_spectrum_csv(mag, args.csv)
    peaks = oracle_find_peaks(mag, args.threshold, args.separation_hz)

    print(
        f"{args.input}: {meta.sample_rate} Hz, {meta.frame_count} frames, "
        f"transform length {len(prepared)}, bin width {mag.bin_width_hz:.5g} Hz"
    )
    if not peaks:
        print("no peaks above threshold")
        return 0
    print(f"{'frequency_hz':>14} {'magnitude':>14} {'note':>6} {'cents':>8}")
    for peak in peaks:
        match = identify_note(peak.frequency_hz) if peak.frequency_hz > 0 else None
        note = match.note_name if match else "-"
        cents = f"{match.deviation_cents:+.2f}" if match else "-"
        print(
            f"{peak.frequency_hz:>14.4f} {peak.magnitude:>14.4f} {note:>6} {cents:>8}"
        )
    return 0


def oracle_write_wav(signal: Signal, path, bits_per_sample: int = 16) -> WavMeta:
    if bits_per_sample not in (16, 32):
        raise DspError(
            f"unsupported bit depth {bits_per_sample} (use 16 for PCM or 32 for float)"
        )
    channels = 1
    rate = signal.sample_rate
    block_align = channels * bits_per_sample // 8
    byte_rate = rate * block_align
    if byte_rate > 0xFFFFFFFF:  # the header stores it as a uint32
        raise DspError(f"sample rate {rate} Hz is too high for a {bits_per_sample}-bit WAV")
    samples = signal.samples
    if float(np.max(np.abs(samples))) > 1.0:
        raise DspError("samples exceed [-1, 1]; clamp or normalize before writing")

    if bits_per_sample == 16:
        quantized = np.clip(np.round(samples * 32768.0), -32768, 32767)
        payload = quantized.astype("<i2").tobytes()
        audio_format, encoding = _PCM, "pcm"
    else:
        payload = samples.astype("<f4").tobytes()
        audio_format, encoding = _IEEE_FLOAT, "float"

    frames = len(signal)

    if audio_format == _PCM:
        fmt_body = struct.pack(
            "<HHIIHH", audio_format, channels, rate, byte_rate, block_align,
            bits_per_sample,
        )
        chunks = [(b"fmt ", fmt_body), (b"data", payload)]
    else:
        # non-PCM fmt carries a zero-length extension and a fact chunk
        fmt_body = struct.pack(
            "<HHIIHHH", audio_format, channels, rate, byte_rate, block_align,
            bits_per_sample, 0,
        )
        fact_body = struct.pack("<I", frames)
        chunks = [(b"fmt ", fmt_body), (b"fact", fact_body), (b"data", payload)]

    riff_size = 4 + sum(8 + len(body) + (len(body) & 1) for _, body in chunks)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        for chunk_id, body in chunks:
            handle.write(struct.pack("<4sI", chunk_id, len(body)))
            handle.write(body)
            if len(body) & 1:
                handle.write(b"\x00")

    return WavMeta(
        channels=channels,
        bits_per_sample=bits_per_sample,
        sample_rate=rate,
        frame_count=frames,
        encoding=encoding,
    )


# ---------------------------------------------------------------------------
# Helpers and strategies
# ---------------------------------------------------------------------------


def peak_bytes(peaks):
    """Peaks as exact byte records, so -0.0 and 0.0 (or int subclasses) differ."""
    return [
        (type(p.bin_index), p.bin_index, struct.pack("<dd", p.frequency_hz, p.magnitude))
        for p in peaks
    ]


def half_spectrum(values, sample_rate):
    """A MagnitudeSpectrum laid out exactly as magnitude_spectrum lays it out."""
    values = np.asarray(values, dtype=np.float64)
    n = max(2 * (values.size - 1), 1)
    return MagnitudeSpectrum(
        frequencies=np.arange(values.size) * (sample_rate / n),
        magnitudes=values,
        source_n=n,
        sample_rate=sample_rate,
    )


RATES = st.sampled_from([1, 7, 1000, 8000, 22050, 44100, 48000, 96000])
THRESHOLDS = st.one_of(
    st.sampled_from([1.0, 0.5, 0.05, 1e-300]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)

# Small alphabets make plateaus and exact ties between separate peaks common.
PLATEAU_VALUES = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=200
)
RANDOM_VALUES = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
SILENT_VALUES = st.integers(min_value=1, max_value=64).map(lambda size: [0.0] * size)


@st.composite
def peak_cases(draw):
    values = draw(st.one_of(PLATEAU_VALUES, RANDOM_VALUES, SILENT_VALUES))
    mag = half_spectrum(values, draw(RATES))
    separation = draw(
        st.one_of(
            st.just(0.0),
            st.just(mag.bin_width_hz),  # one bin width: neighbours sit exactly on it
            st.just(2 * mag.bin_width_hz),
            st.floats(min_value=0.0, max_value=50 * mag.bin_width_hz),
        )
    )
    return mag, draw(THRESHOLDS), separation


# ---------------------------------------------------------------------------
# find_peaks
# ---------------------------------------------------------------------------


class TestFindPeaksOracle:
    @settings(max_examples=400, deadline=None)
    @given(peak_cases())
    def test_matches_the_loop_version(self, case):
        mag, threshold, separation = case
        expected = oracle_find_peaks(mag, threshold, separation)
        assert peak_bytes(find_peaks(mag, threshold, separation)) == peak_bytes(
            expected
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([256, 1024, 4096]),
        THRESHOLDS,
        st.sampled_from(
            [(0.0, "Hz"), (5.0, "Hz"), (20.0, "Hz"), (1.5, "bins"), (2.5, "bins"), (3.5, "bins")]
        ),
    )
    def test_matches_on_transformed_noise(self, seed, n, threshold, spacing):
        # Candidates are at least two bins apart, so 2.5 and 3.5 bin widths crowd many.
        rng = np.random.default_rng(seed)
        mag = magnitude_spectrum(fft(Signal(rng.uniform(-1.0, 1.0, n), 8000)))
        amount, unit = spacing
        separation = amount * mag.bin_width_hz if unit == "bins" else amount
        expected = oracle_find_peaks(mag, threshold, separation)
        assert peak_bytes(find_peaks(mag, threshold, separation)) == peak_bytes(
            expected
        )

    def test_exact_tie_keeps_the_lower_bin(self):
        mag = half_spectrum([0, 4, 0, 4, 0, 0, 0, 0, 0], 16)
        assert [p.bin_index for p in find_peaks(mag, 0.5, 2.5)] == [1]
        assert peak_bytes(find_peaks(mag, 0.5, 2.5)) == peak_bytes(
            oracle_find_peaks(mag, 0.5, 2.5)
        )

    def test_nearest_kept_neighbours_decide(self):
        # bins 2 and 8 are kept first; bin 5 is 3 bins from both
        mag = half_spectrum([0, 0, 9, 0, 0, 5, 0, 0, 8, 0, 0], 20)
        for separation in (2.0, 3.0, 4.0):
            assert peak_bytes(find_peaks(mag, 0.1, separation)) == peak_bytes(
                oracle_find_peaks(mag, 0.1, separation)
            )

    def test_a_dropped_peak_drops_nothing(self):
        # 9 drops 8, so 7 stays although 8 would have dropped it; likewise 5.
        mag = half_spectrum([0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 0, 0], 24)
        assert [p.bin_index for p in find_peaks(mag, 0.1, 2.5)] == [1, 5, 9]
        assert peak_bytes(find_peaks(mag, 0.1, 2.5)) == peak_bytes(
            oracle_find_peaks(mag, 0.1, 2.5)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(PLATEAU_VALUES, RANDOM_VALUES), RATES, THRESHOLDS, st.sampled_from([1e300, np.inf])
    )
    def test_a_separation_past_the_spectrum_keeps_one_peak(self, values, rate, threshold, separation):
        mag = half_spectrum(values, rate)
        assume(oracle_find_peaks(mag, threshold, 0.0))
        peaks = find_peaks(mag, threshold, separation)
        assert len(peaks) == 1
        assert peak_bytes(peaks) == peak_bytes(oracle_find_peaks(mag, threshold, separation))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([2, 3, 4, 6, 7, 9]),
                st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]),
            ),
            min_size=1,
            max_size=40,
        ),
        RATES,
        st.sampled_from([1.5, 3.5, 4.5, 5.0, 6.5]),
    )
    def test_matches_where_crowded_and_lone_candidates_alternate(self, spikes, rate, widths):
        # Spikes on a silent floor, each a drawn number of bins after the last:
        # gaps under the separation crowd them, wider gaps leave them alone.
        values = [0.0]
        for gap, height in spikes:
            values += [0.0] * (gap - 1) + [height]
        mag = half_spectrum(values + [0.0], rate)
        separation = widths * mag.bin_width_hz
        assert peak_bytes(find_peaks(mag, 0.05, separation)) == peak_bytes(
            oracle_find_peaks(mag, 0.05, separation)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(RANDOM_VALUES, PLATEAU_VALUES),
        RATES,
        THRESHOLDS,
        st.sampled_from(["zero", "smallest gap", "just above it"]),
    )
    def test_separation_at_the_smallest_candidate_gap(self, values, rate, threshold, which):
        # With separation 0 every strict local maximum above the floor is kept.
        mag = half_spectrum(values, rate)
        candidates = [p.bin_index for p in oracle_find_peaks(mag, threshold, 0.0)]
        assume(len(candidates) >= 2)
        gap = float(np.abs(np.diff(mag.frequencies[candidates])).min())
        separation = {
            "zero": 0.0,
            "smallest gap": gap,
            "just above it": float(np.nextafter(gap, np.inf)),
        }[which]
        peaks = find_peaks(mag, threshold, separation)
        assert peak_bytes(peaks) == peak_bytes(oracle_find_peaks(mag, threshold, separation))
        keeps_all = [p.bin_index for p in peaks] == candidates
        assert keeps_all == (which != "just above it")


# ---------------------------------------------------------------------------
# build_gain_vector
# ---------------------------------------------------------------------------


@st.composite
def profiles_on_grid(draw):
    """A profile, a length and a rate; some band edges land exactly on bins."""
    n = draw(st.integers(min_value=1, max_value=2048))
    rate = draw(
        st.one_of(
            RATES,
            st.integers(min_value=1, max_value=200_000),
            st.integers(min_value=2**30, max_value=2**60),  # products past 2**53
        )
    )
    bin_freqs = [k * rate / n for k in range(n // 2 + 1)]
    edge = st.one_of(
        st.sampled_from(bin_freqs),
        st.floats(min_value=0.0, max_value=float(rate), allow_nan=False),
    )
    edges = sorted(set(draw(st.lists(edge, min_size=0, max_size=8))))
    if draw(st.booleans()):
        edges.append(float("inf"))
    gains = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
    bands = tuple(
        Band(low, high, draw(gains))
        for low, high in zip(edges[0::2], edges[1::2])
    )
    return GainProfile(bands=bands), n, rate


class TestBuildGainVectorOracle:
    @settings(max_examples=300, deadline=None)
    @given(profiles_on_grid())
    def test_matches_the_loop_version(self, case):
        profile, n, rate = case
        expected = oracle_build_gain_vector(profile, n, rate)
        actual = build_gain_vector(profile, n, rate)
        assert actual.values.dtype == expected.values.dtype
        assert actual.values.tobytes() == expected.values.tobytes()
        assert actual.sample_rate == expected.sample_rate

    @settings(max_examples=300, deadline=None)
    @given(profiles_on_grid())
    def test_every_bin_takes_the_profile_gain(self, case):
        profile, n, rate = case
        values = build_gain_vector(profile, n, rate).values
        for k in range(n // 2 + 1):
            assert values[k] == profile.gain_at(k * rate / n)

    def test_band_edge_on_a_bin(self):
        # 8 bins at 8000 Hz put bin 2 at exactly 2000 Hz: in [2000, 3000), not in [0, 2000)
        profile = GainProfile(bands=(Band(0.0, 2000.0, 0.5), Band(2000.0, 3000.0, 2.0)))
        values = build_gain_vector(profile, 8, 8000).values
        assert values.tolist() == [0.5, 0.5, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5]
        assert values.tobytes() == oracle_build_gain_vector(profile, 8, 8000).values.tobytes()


# ---------------------------------------------------------------------------
# Naive transforms: the matrix, the forward and the inverse
# ---------------------------------------------------------------------------

# Every prime up to 300 is drawn often, and every power of two.
PRIMES = [p for p in range(2, 301) if all(p % d for d in range(2, int(p**0.5) + 1))]
NAIVE_ORDERS = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.sampled_from(PRIMES),
    st.sampled_from([1 << p for p in range(9)]),
)
NAIVE_KINDS = ["real", "complex", "signed-zeros", "small-integers", "wide"]


def naive_input(rng, n, kind):
    """n complex values; "wide" spans magnitudes from 1e-300 to 1e300."""
    if kind == "real":
        parts = np.stack([rng.standard_normal(n), rng.choice([0.0, -0.0], size=n)])
    elif kind == "complex":
        parts = rng.standard_normal((2, n))
    elif kind == "signed-zeros":
        parts = rng.choice([0.0, -0.0], size=(2, n))
    elif kind == "small-integers":
        parts = np.stack(
            [rng.integers(-3, 4, size=n).astype(np.float64), rng.choice([0.0, -0.0], size=n)]
        )
    else:
        parts = rng.choice([-1.0, 1.0], size=(2, n)) * 10.0 ** rng.uniform(-300, 300, (2, n))
    return parts[0] + 1j * parts[1]


def hermitian(values):
    """values with bin n-k set to the exact conjugate of bin k, and bin 0 (and n/2) real."""
    n = values.size
    out = values.copy()
    k = np.arange(1, (n + 1) // 2)
    out[n - k] = np.conj(out[k])
    out[0] = out[0].real
    if n % 2 == 0:
        out[n // 2] = out[n // 2].real
    return out


def naive_outcome(transform, *args):
    """Raw bytes and shape of the result, or the exception type and message."""
    try:
        result = transform(*args)
    except DspError as exc:
        return type(exc), str(exc)
    for field in ("entries", "bins", "samples"):
        if hasattr(result, field):
            values = getattr(result, field)
            return type(result), values.dtype, values.shape, values.tobytes()
    raise AssertionError(f"unexpected result {result!r}")


# The limit is the order itself, one below it, or the default.
LIMIT_OFFSETS = st.sampled_from([0, -1, None])


def limit_for(n, offset):
    return DEFAULT_NAIVE_LIMIT if offset is None else n + offset


@settings(max_examples=150, deadline=None)
@given(n=NAIVE_ORDERS, offset=LIMIT_OFFSETS)
def test_dft_matrix_matches_the_loop_version(n, offset):
    max_n = limit_for(n, offset)
    expected = naive_outcome(oracle_dft_matrix, n, max_n)
    assert naive_outcome(dft_matrix, n, max_n) == expected
    if offset == 0:
        assert expected[0] is DftMatrix and expected[2] == (n, n)


@pytest.mark.parametrize("n", [0, -1, -7])
@pytest.mark.parametrize("max_n", [-8, 0, DEFAULT_NAIVE_LIMIT])
def test_dft_matrix_rejects_orders_below_one_like_the_loop_version(n, max_n):
    expected = naive_outcome(oracle_dft_matrix, n, max_n)
    assert expected == (DspError, f"transform order must be >= 1, got {n}")
    assert naive_outcome(dft_matrix, n, max_n) == expected


@settings(max_examples=200, deadline=None)
@given(
    n=NAIVE_ORDERS,
    offset=LIMIT_OFFSETS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(NAIVE_KINDS),
)
def test_dft_naive_matches_the_loop_version(n, offset, seed, kind):
    samples = naive_input(np.random.default_rng(seed), n, kind).real
    max_n = limit_for(n, offset)
    expected = naive_outcome(oracle_dft_naive, Signal(samples, 8000), max_n)
    assert naive_outcome(dft_naive, Signal(samples, 8000), max_n) == expected
    if offset == -1:
        assert expected == (
            DspError,
            f"signal length {n} exceeds the naive-path limit {n - 1}",
        )


@settings(max_examples=300, deadline=None)
@given(
    n=NAIVE_ORDERS,
    offset=LIMIT_OFFSETS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(NAIVE_KINDS),
    symmetric=st.booleans(),
)
def test_idft_naive_matches_the_loop_version(n, offset, seed, kind, symmetric):
    bins = naive_input(np.random.default_rng(seed), n, kind)
    if symmetric:
        bins = hermitian(bins)
    max_n = limit_for(n, offset)
    expected = naive_outcome(oracle_idft_naive, Spectrum(bins, 8000), max_n)
    assert naive_outcome(idft_naive, Spectrum(bins, 8000), max_n) == expected
    if offset == -1:
        assert expected == (
            DspError,
            f"spectrum length {n} exceeds the naive-path limit {n - 1}",
        )


def test_non_hermitian_spectra_raise_like_the_loop_version():
    rng = np.random.default_rng(77)
    for n in (2, 3, 64, 257):
        bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = naive_outcome(oracle_idft_naive, Spectrum(bins, 8000))
        assert expected[0] is DspError and "not Hermitian-symmetric" in expected[1]
        assert naive_outcome(idft_naive, Spectrum(bins, 8000)) == expected


# ---------------------------------------------------------------------------
# Bit reversal and butterflies
# ---------------------------------------------------------------------------

POW2 = [1 << p for p in range(1, 14)]


@pytest.mark.parametrize("n", [1] + POW2)
def test_bit_reversal_matches_the_loop_version(n):
    expected = oracle_bit_reversal(n)
    actual = _bit_reversal(n)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def complex_input(rng, n, kind):
    if kind == "signed-zeros":
        parts = rng.choice([0.0, -0.0], size=(2, n))
    elif kind == "small-integers":
        parts = rng.integers(-2, 3, size=(2, n)).astype(np.float64)
    elif kind == "real":
        parts = np.stack([rng.uniform(-1.0, 1.0, n), np.zeros(n)])
    else:
        parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-8, 9)
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("n", POW2)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["signed-zeros", "small-integers", "real", "random"]),
)
def test_fft_array_matches_the_loop_version(n, seed, kind):
    values = complex_input(np.random.default_rng(seed), n, kind)
    expected = oracle_fft_array(values.copy())
    actual = _fft_array(values.copy())
    assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# write_spectrum_csv
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.one_of(RANDOM_VALUES, PLATEAU_VALUES, SILENT_VALUES), RATES)
def test_spectrum_csv_matches_the_loop_version(tmp_path_factory, values, rate):
    mag = half_spectrum(values, rate)
    folder = tmp_path_factory.mktemp("csv")
    oracle_write_spectrum_csv(mag, folder / "expected.csv")
    write_spectrum_csv(mag, folder / "actual.csv")
    assert (folder / "actual.csv").read_bytes() == (folder / "expected.csv").read_bytes()


# Values where %.8g might in principle format differently from format(x, ".8g").
AWKWARD_FLOATS = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            2.2250738585072014e-308,
            1e16,
            1e16 + 2.0,
            1.2345678912345e22,
            1.7976931348623157e308,
            12345678.0,
            123456789.0,
            -987654321.0,
            9.99999995e7,
            99999999.5,
            9.9999999e-5,
            float("inf"),
            float("-inf"),
            float("nan"),
        ]
    ),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.floats(allow_subnormal=True),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(AWKWARD_FLOATS, AWKWARD_FLOATS), min_size=1, max_size=40))
def test_spectrum_csv_formats_awkward_floats_like_the_loop_version(tmp_path_factory, rows):
    mag = MagnitudeSpectrum(
        frequencies=np.array([freq for freq, _ in rows]),
        magnitudes=np.array([m for _, m in rows]),
        source_n=2 * len(rows),
        sample_rate=8000,
    )
    folder = tmp_path_factory.mktemp("csv")
    oracle_write_spectrum_csv(mag, folder / "expected.csv")
    write_spectrum_csv(mag, folder / "actual.csv")
    assert (folder / "actual.csv").read_bytes() == (folder / "expected.csv").read_bytes()


@pytest.mark.parametrize(
    "rows",
    [1, _ROWS_PER_WRITE - 1, _ROWS_PER_WRITE, _ROWS_PER_WRITE + 1, 2 * _ROWS_PER_WRITE + 1],
)
def test_spectrum_csv_across_chunk_boundaries(tmp_path, rows):
    values = np.random.default_rng(rows).uniform(0.0, 1e3, rows)
    mag = half_spectrum(values, 44100)
    oracle_write_spectrum_csv(mag, tmp_path / "expected.csv")
    write_spectrum_csv(mag, tmp_path / "actual.csv")
    written = (tmp_path / "actual.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert written.count(b"\r\n") == rows + 1


# ---------------------------------------------------------------------------
# Real-input transform: fft, and the half-spectrum inverse behind equalize
# ---------------------------------------------------------------------------

# Both bounds are fixed from float64 rounding (about 1e-16 per operation,
# times a few log2(n) stages), not from observed gaps.
FFT_TOLERANCE = 1e-12
EQUALIZE_TOLERANCE = 1e-12

REAL_KINDS = ["uniform", "signed-zeros", "small-integers", "impulse", "tone", "wide"]


def real_input(rng, n, kind):
    """n real samples; all kinds but "wide" stay inside [-1, 1]."""
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0], size=n)
    if kind == "small-integers":
        return rng.integers(-1, 2, size=n).astype(np.float64)
    if kind == "impulse":
        values = np.zeros(n)
        values[rng.integers(n)] = rng.choice([-1.0, 1.0])
        return values
    if kind == "tone":
        cycles = rng.integers(0, n // 2 + 1)
        return np.cos(2.0 * np.pi * cycles * np.arange(n) / n + rng.uniform(0.0, 6.3))
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)


EXPONENTS = list(range(14))  # n = 2**0 .. 2**13


@st.composite
def profiles(draw):
    if draw(st.booleans()):
        return preset(draw(st.sampled_from(["identity", "treble", "bass-boost"])))
    edges = sorted(
        draw(st.sets(st.floats(min_value=0.0, max_value=30000.0), min_size=2, max_size=8))
    )
    gains = draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=len(edges)))
    return GainProfile(bands=tuple(Band(lo, hi, g) for lo, hi, g in zip(edges, edges[1:], gains)))


@pytest.mark.parametrize("exponent", EXPONENTS)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.sampled_from(REAL_KINDS))
def test_fft_matches_the_complex_path(exponent, seed, kind):
    signal = Signal(real_input(np.random.default_rng(seed), 1 << exponent, kind), 8000)
    expected = oracle_fft(signal).bins
    actual = fft(signal).bins
    assert actual.shape == expected.shape
    bound = FFT_TOLERANCE * max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= bound


@pytest.mark.parametrize("exponent", EXPONENTS)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.sampled_from(REAL_KINDS))
def test_fft_is_exactly_hermitian(exponent, seed, kind):
    n = 1 << exponent
    bins = fft(Signal(real_input(np.random.default_rng(seed), n, kind), 8000)).bins
    assert bins[0].imag == 0.0
    assert bins[n // 2].imag == 0.0
    # bins[n - k] is conj(bins[k]) bit for bit; k = n/2 is its own partner (real, above)
    k = np.arange(1, n)
    k = k[k != n // 2]
    assert bins[n - k].tobytes() == np.conj(bins[k]).tobytes()


@pytest.mark.parametrize("exponent", EXPONENTS)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(REAL_KINDS),
    gain_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_half_spectrum_inverse_matches_the_complex_inverse(exponent, seed, kind, gain_seed):
    # any Hermitian spectrum: a real signal's transform with real, mirrored gains
    n = 1 << exponent
    full = oracle_fft(Signal(real_input(np.random.default_rng(seed), n, kind), 8000)).bins
    gains = np.random.default_rng(gain_seed).uniform(0.0, 4.0, n // 2 + 1)
    full *= np.concatenate((gains, gains[1 : (n + 1) // 2][::-1]))
    expected = oracle_ifft_array(full).real
    actual = _ifft_array(full[: n // 2 + 1], n)
    assert actual.dtype == np.float64 and actual.shape == (n,)
    bound = FFT_TOLERANCE * max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= bound


@pytest.mark.parametrize("exponent", EXPONENTS)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from([kind for kind in REAL_KINDS if kind != "wide"]),
    profile=profiles(),
    rate=RATES,
    data=st.data(),
)
def test_equalize_matches_the_complex_path(exponent, seed, kind, profile, rate, data):
    n = 1 << exponent
    length = data.draw(st.integers(min_value=n // 2 + 1, max_value=n))  # pads to n
    signal = Signal(real_input(np.random.default_rng(seed), length, kind), rate)
    expected = oracle_equalize(signal, profile)
    actual = equalize(signal, profile)
    assert len(actual) == len(expected) == length
    assert actual.sample_rate == expected.sample_rate
    assert float(np.max(np.abs(actual.samples - expected.samples))) <= EQUALIZE_TOLERANCE


# ---------------------------------------------------------------------------
# The analyze command, now a caller of the library pipeline
# ---------------------------------------------------------------------------


def run_analyze(command, argv):
    """main(argv) with cmd_analyze replaced by command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(dftkit.cli, "cmd_analyze", command):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def analyze_outputs(command, folder, argv, csv_name):
    """run_analyze's result plus the CSV bytes, or None when no CSV was written."""
    if csv_name is None:
        return run_analyze(command, argv), None
    csv_path = folder / csv_name
    csv_path.unlink(missing_ok=True)
    result = run_analyze(command, argv + ["--csv", str(csv_path)])
    return result, csv_path.read_bytes() if csv_path.exists() else None


def analyze_input(rng, kind, length):
    """Samples inside [-1, 1]: silence, a DC offset, one to three tones, or noise."""
    if kind == "silence":
        return np.zeros(length)
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, length)
    k = np.arange(length)
    tones = sum(
        np.cos(2.0 * np.pi * rng.uniform(0.0, 0.5) * k + rng.uniform(0.0, 6.3))
        for _ in range(rng.integers(1, 4))
    )
    if kind == "dc":
        return 0.5 + 0.1 * tones / 3.0  # bin 0 is the largest peak
    return tones / 3.0


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One directory for every example: each writes the same few file names."""
    return tmp_path_factory.mktemp("outputs")


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["silence", "dc", "tones", "noise"]),
    length=st.one_of(
        st.sampled_from([1, 2, 64, 512]), st.integers(min_value=1, max_value=600)
    ),
    rate=RATES,
    bits=st.sampled_from([16, 32]),
    threshold=st.one_of(THRESHOLDS, st.sampled_from([0.0, 1.5, float("nan")])),
    separation=st.one_of(
        st.sampled_from([0.0, 20.0, -1.0, float("nan")]),
        st.floats(min_value=0.0, max_value=500.0),
    ),
    no_pad=st.booleans(),
    with_csv=st.booleans(),
)
def test_analyze_command_matches_the_step_by_step_version(
    folder, seed, kind, length, rate, bits, threshold, separation, no_pad, with_csv
):
    wav = folder / "input.wav"
    samples = analyze_input(np.random.default_rng(seed), kind, length)
    write_wav(Signal(samples, rate), wav, bits_per_sample=bits)
    argv = ["analyze", str(wav), "--threshold", repr(threshold)]
    argv += ["--separation-hz", repr(separation)] + (["--no-pad"] if no_pad else [])
    expected = analyze_outputs(
        oracle_cmd_analyze, folder, argv, "expected.csv" if with_csv else None
    )
    actual = analyze_outputs(
        dftkit.cli.cmd_analyze, folder, argv, "actual.csv" if with_csv else None
    )
    assert actual == expected


def test_dc_peak_prints_dashes_like_the_step_by_step_version(tmp_path):
    wav = tmp_path / "dc.wav"
    write_wav(Signal(0.25 + 0.05 * np.cos(2.0 * np.pi * np.arange(300) / 8), 8000), wav)
    argv = ["analyze", str(wav), "--threshold", "0.1"]
    expected = analyze_outputs(oracle_cmd_analyze, tmp_path, argv, "expected.csv")
    actual = analyze_outputs(dftkit.cli.cmd_analyze, tmp_path, argv, "actual.csv")
    assert actual == expected
    (code, stdout, _), _ = actual
    rows = [line.split() for line in stdout.splitlines()[2:]]
    assert code == 0 and rows[0][0] == "0.0000" and rows[0][2:] == ["-", "-"]
    assert rows[1][2] == "B5"  # 1000 Hz, named


def test_peak_table_across_write_chunks(tmp_path):
    # DC plus noise: every local maximum is a peak and bin 0 prints dashes.
    wav = tmp_path / "dense.wav"
    write_wav(Signal(0.3 + 0.6 * np.random.default_rng(0).uniform(-1, 1, 8192), 8000), wav)
    argv = ["analyze", str(wav), "--threshold", "1e-300", "--separation-hz", "0"]
    expected = run_analyze(oracle_cmd_analyze, argv)
    assert expected[1].count("\n") > 2 * _ROWS_PER_WRITE + 2
    assert expected[1].splitlines()[2].split()[2:] == ["-", "-"]
    for rows_per_write in (1, 2, 7, _ROWS_PER_WRITE):
        with mock.patch.object(dftkit.cli, "_ROWS_PER_WRITE", rows_per_write):
            assert run_analyze(dftkit.cli.cmd_analyze, argv) == expected


# ---------------------------------------------------------------------------
# write_wav with one format branch
# ---------------------------------------------------------------------------


def write_outcome(write, signal, path, bits):
    """The file bytes and returned meta, or the error and whether a file was left."""
    path.unlink(missing_ok=True)
    try:
        meta = write(signal, path, bits_per_sample=bits)
    except DspError as exc:
        return type(exc), str(exc), path.exists()
    return meta, path.read_bytes()


@st.composite
def wav_signals(draw):
    bits = draw(st.sampled_from([16, 32, 16, 32, 8, 24]))
    limit = 0xFFFFFFFF // (bits // 8)  # the largest rate whose byte rate fits a uint32
    rate = draw(
        st.one_of(
            RATES,
            st.integers(min_value=1, max_value=limit),
            st.sampled_from([limit, limit + 1]),
            st.integers(min_value=limit + 1, max_value=2**40),
        )
    )
    length = draw(st.integers(min_value=1, max_value=512))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "half-steps", "extremes", "over"]))
    if kind == "uniform":
        samples = rng.uniform(-1.0, 1.0, length)
    elif kind == "half-steps":  # exactly between two PCM-16 codes: rounding decides
        samples = (rng.integers(-32768, 32768, length) + 0.5) / 32768.0
        samples = np.clip(samples, -1.0, 1.0)
    elif kind == "extremes":
        samples = rng.choice([-1.0, 1.0, 0.0, -0.0, 32767 / 32768, -32767.5 / 32768], length)
    else:  # one sample just past full scale: both versions refuse
        samples = rng.uniform(-1.0, 1.0, length)
        samples[rng.integers(length)] = np.nextafter(1.0, 2.0)
    return Signal(samples, rate), bits


@settings(max_examples=300, deadline=None)
@given(wav_signals())
def test_write_wav_matches_the_two_branch_version(folder, case):
    signal, bits = case
    expected = write_outcome(oracle_write_wav, signal, folder / "expected.wav", bits)
    actual = write_outcome(write_wav, signal, folder / "actual.wav", bits)
    assert actual == expected
