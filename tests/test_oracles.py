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
import math
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dftkit.analysis
import dftkit.cli
import dftkit.transform
from dftkit import (
    A4_HZ,
    DEFAULT_NAIVE_LIMIT,
    EPSILON,
    FFT_LIMIT,
    Band,
    DftMatrix,
    DspError,
    GainProfile,
    GainVector,
    NOTE_NAMES,
    MagnitudeSpectrum,
    NoteMatch,
    Peak,
    Signal,
    Spectrum,
    WavFormatError,
    WavMeta,
    analyze,
    build_gain_vector,
    dft_matrix,
    dft_naive,
    equalize,
    fft,
    find_peaks,
    identify_note,
    idft_naive,
    ifft,
    magnitude_spectrum,
    next_pow2,
    pad_to_pow2,
    preset,
    read_wav,
    write_spectrum_csv,
    write_wav,
)
from dftkit.analysis import _ROWS_PER_WRITE, _note_fields
from dftkit.cli import BenchRow, UsageError, main
from dftkit.equalizer import _BAND_EDGES, _TREBLE_GAINS, PRESET_NAMES
from dftkit.transform import _bit_reversal, _fft_array, _ifft_array
from dftkit.wavio import _EXTENSIBLE, _IEEE_FLOAT, _PCM, _SUBFORMAT_TAIL

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


def oracle_identify_note(frequency_hz: float) -> NoteMatch:
    """Snap a frequency to the nearest equal-temperament note.

    |deviation_cents| passes 50 only by rounding, at the midpoint of two
    notes. Raises DspError when the reference pitch is not a positive
    normal float, as at the ends of the float range.
    """
    if not math.isfinite(frequency_hz) or frequency_hz <= 0.0:
        raise DspError(f"frequency must be positive and finite, got {frequency_hz}")
    # A ratio that underflows to 0 stands in as the smallest subnormal, rejected below.
    semitones = round(12.0 * math.log2(frequency_hz / A4_HZ or 5e-324))
    midi = 69 + semitones
    reference = A4_HZ * 2.0 ** (semitones / 12.0)
    if not 2.2250738585072014e-308 <= reference <= 1.7976931348623157e308:
        raise DspError(f"frequency {frequency_hz} Hz has no normal reference pitch")
    cents = 1200.0 * math.log2(frequency_hz / reference)
    name = f"{NOTE_NAMES[midi % 12]}{midi // 12 - 1}"
    return NoteMatch(note_name=name, reference_hz=reference, deviation_cents=cents)


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


def oracle_strip_imaginary(values: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Check the inverse-transform output is real and drop the imaginary part.

    The inverse of a Hermitian-symmetric spectrum is real up to rounding;
    a larger residue means the spectrum does not describe a real signal.
    """
    scale = float(np.max(np.abs(bins)))
    residue = float(np.max(np.abs(values.imag)))
    if residue > EPSILON * scale:
        raise DspError(
            "spectrum is not Hermitian-symmetric: imaginary residue "
            f"{residue:.3e} exceeds {EPSILON:.0e} * max|bin|"
        )
    return values.real.copy()


def oracle_require_power_of_two(n: int) -> None:
    if n >= 1 and (n & (n - 1)) == 0:
        return
    below = 1 << max(n.bit_length() - 1, 0)
    raise DspError(
        f"length {n} is not a power of two (nearest are {below} and {below * 2}); "
        "zero-pad or use the naive transform"
    )


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
    return Signal(oracle_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)


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


def oracle_split_twiddles(n: int) -> np.ndarray:
    cosines = np.cos(2.0 * np.pi / n * np.arange(n // 4 + 1))
    twiddles = np.empty(n // 4, dtype=np.complex128)
    twiddles.real = cosines[1:]
    twiddles.imag = -cosines[-2::-1]
    return twiddles


def oracle_rfft_array(samples: np.ndarray) -> np.ndarray:
    n = samples.size
    if n == 1:
        return samples.astype(np.complex128)
    m, h = n // 2, n // 4
    packed = oracle_fft_array(np.ascontiguousarray(samples).view(np.complex128))
    bins = np.empty(n, dtype=np.complex128)
    bins[0] = packed[0].real + packed[0].imag
    bins[m] = packed[0].real - packed[0].imag
    ahead = packed[1 : h + 1]  # Z[k], k = 1 .. n/4
    behind = np.conj(packed[m - h :][::-1])  # conj(Z[m - k])
    even = (ahead + behind) * 0.5
    odd = np.subtract(ahead, behind, out=behind)
    odd *= oracle_split_twiddles(n) * -0.5j  # w^k * O[k]
    np.conjugate(even - odd, out=bins[m - h : m][::-1])
    np.add(even, odd, out=bins[1 : h + 1])
    np.conjugate(bins[1:m][::-1], out=bins[m + 1 :])
    return bins


def oracle_half_ifft_array(half: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return half.real[:1].copy()
    m, h = n // 2, n // 4
    first, last = half[0].real, half[m].real
    packed = np.empty(m, dtype=np.complex128)  # conj(Z) / m
    packed[0] = complex((first + last) / n, (last - first) / n)
    ahead = half[1 : h + 1]  # X[k], k = 1 .. n/4
    behind = np.conj(half[m - h : m][::-1])  # conj(X[m - k])
    even = (ahead + behind) / n
    odd = np.subtract(ahead, behind, out=behind)
    odd *= np.conj(oracle_split_twiddles(n)) * (1j / n)  # i * O[k]
    np.subtract(even, odd, out=packed[m - h :][::-1])
    np.conjugate(even + odd, out=packed[1 : h + 1])
    time = oracle_fft_array(packed)
    np.negative(time.imag, out=time.imag)
    return time.view(np.float64)


def oracle_fft(signal: Signal) -> Spectrum:
    n = len(signal)
    oracle_require_power_of_two(n)
    if n > FFT_LIMIT:
        raise DspError(f"signal length {n} exceeds the fast-path limit {FFT_LIMIT}")
    bins = _fft_array(signal.samples.astype(np.complex128))
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)


def oracle_ifft(spectrum: Spectrum) -> Signal:
    """Fast inverse transform. Same contract as idft_naive, power-of-two lengths only.

    Any complex spectrum is accepted, so this takes the full n-point
    inverse, conj(fft(conj(X))) / n, and rejects a result that is not real.
    """
    n = len(spectrum)
    oracle_require_power_of_two(n)  # the fast-length check, as in oracle_fft
    if n > FFT_LIMIT:
        raise DspError(f"spectrum length {n} exceeds the fast-path limit {FFT_LIMIT}")
    time = np.conj(_fft_array(np.conj(spectrum.bins))) / n
    return Signal(oracle_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)


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


def oracle_product_equalize(signal: Signal, profile: GainProfile) -> Signal:
    original_n = len(signal)
    padded = pad_to_pow2(signal)
    n = len(padded)
    half = n // 2 + 1
    spectrum = fft(padded)
    gains = build_gain_vector(profile, n, signal.sample_rate)
    time = _ifft_array(np.resize(spectrum.bins[:half] * gains.values[:half], n))
    samples = np.clip(time.real[:original_n], -1.0, 1.0)
    return Signal(samples, signal.sample_rate)


def oracle_preset(name: str) -> GainProfile:
    if name == "identity":
        return GainProfile(bands=(), name="identity")
    if name == "treble":
        gains = _TREBLE_GAINS
    elif name == "bass-boost":
        gains = tuple(reversed(_TREBLE_GAINS))
    else:
        raise DspError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    bands = tuple(
        Band(low_hz=low, high_hz=high, gain=gain)
        for low, high, gain in zip(_BAND_EDGES, _BAND_EDGES[1:], gains)
    )
    return GainProfile(bands=bands, name=name)


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
        match = oracle_identify_note(peak.frequency_hz) if peak.frequency_hz > 0 else None
        note = match.note_name if match else "-"
        cents = f"{match.deviation_cents:+.2f}" if match else "-"
        print(
            f"{peak.frequency_hz:>14.4f} {peak.magnitude:>14.4f} {note:>6} {cents:>8}"
        )
    return 0


def oracle_cmd_bench(args, rows) -> int:
    print(f"{'n':>8} {'dft_naive_s':>14} {'fft_s':>14} {'ratio':>10}")
    for row in rows:
        print(
            f"{row.n:>8} {row.naive_s:>14.6f} {row.fft_s:>14.6f} {row.ratio:>10.1f}"
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("n,dft_naive_s,fft_s,ratio\n")
            for row in rows:
                handle.write(
                    f"{row.n},{row.naive_s:.8g},{row.fft_s:.8g},{row.ratio:.8g}\n"
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


def oracle_downmix_mono(channels: np.ndarray) -> np.ndarray:
    """Average a (frames, channels) array across channels; 1-d passes through."""
    array = np.asarray(channels, dtype=np.float64)
    if array.size == 0:
        raise DspError("cannot downmix an empty array")
    if array.ndim == 1:
        return array.copy()
    if array.ndim != 2:
        raise DspError(f"expected a 1-d or (frames, channels) array, got shape {array.shape}")
    return array.mean(axis=1)


def oracle_read_wav(path) -> tuple[Signal, WavMeta]:
    """Decode a WAV file to a mono Signal plus the file's stored layout.

    PCM-16 samples are scaled by 1/32768; float samples are clipped to
    [-1, 1]. A trailing partial frame is dropped; a truncated data chunk is an error.
    """
    with open(path, "rb") as handle:
        blob = handle.read()

    if len(blob) < 12 or blob[0:4] != b"RIFF":
        raise WavFormatError("not a RIFF file (missing RIFF magic)")
    if blob[8:12] != b"WAVE":
        raise WavFormatError("RIFF file is not WAVE format")

    fmt: tuple[int, int, int, int] | None = None
    data: bytes | None = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id = blob[offset : offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        body = blob[offset + 8 : offset + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(
                    f"fmt chunk too short ({len(body)} bytes, need at least 16)"
                )
            audio_format, channels, rate, _byte_rate, _align, bits = (
                struct.unpack_from("<HHIIHH", body, 0)
            )
            if audio_format == _EXTENSIBLE and body[26:40] == _SUBFORMAT_TAIL:
                (audio_format,) = struct.unpack_from("<H", body, 24)
            if audio_format == _PCM:
                if bits != 16:
                    raise WavFormatError(
                        f"unsupported PCM bit depth {bits} (only 16-bit PCM is supported)"
                    )
            elif audio_format == _IEEE_FLOAT:
                if bits != 32:
                    raise WavFormatError(
                        f"unsupported float bit depth {bits} (only 32-bit float is supported)"
                    )
            else:
                raise WavFormatError(
                    f"unsupported audio format code {audio_format} "
                    "(PCM=1 and IEEE float=3 are supported)"
                )
            if channels not in (1, 2):
                raise WavFormatError(
                    f"unsupported channel count {channels} (mono and stereo are supported)"
                )
            if rate < 1:
                raise WavFormatError(f"invalid sample rate {rate}")
            fmt = (audio_format, channels, rate, bits)
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError("data chunk appears before fmt chunk")
            if len(body) < size:
                raise WavFormatError(f"data chunk declares {size} bytes, {len(body)} present")
            data = body
        # any other chunk is skipped
        offset += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if data is None:
        raise WavFormatError("missing data chunk")

    audio_format, channels, rate, bits = fmt
    frame_size = (bits // 8) * channels
    frames = len(data) // frame_size
    if frames == 0:
        raise WavFormatError("data chunk contains no complete frames")
    usable = frames * frame_size

    if audio_format == _PCM:
        raw = np.frombuffer(data[:usable], dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
        encoding = "pcm"
    else:
        with np.errstate(invalid="ignore"):  # a NaN payload is rejected just below
            raw = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(raw)):
            raise WavFormatError("float data chunk contains non-finite samples")
        samples = np.clip(raw, -1.0, 1.0)
        encoding = "float"

    mono = oracle_downmix_mono(samples.reshape(frames, channels))
    meta = WavMeta(
        channels=channels,
        bits_per_sample=bits,
        sample_rate=rate,
        frame_count=frames,
        encoding=encoding,
    )
    return Signal(mono, rate), meta


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
    for n in (1, 2, 3, 64, 257, 4096):
        bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = naive_outcome(oracle_idft_naive, Spectrum(bins, 8000))
        assert expected[0] is DspError and "not Hermitian-symmetric" in expected[1]
        assert naive_outcome(idft_naive, Spectrum(bins, 8000)) == expected
        expected = naive_outcome(oracle_ifft, Spectrum(bins, 8000))
        if n & (n - 1) == 0:  # the fast inverse reaches the residue check
            assert expected[0] is DspError and "not Hermitian-symmetric" in expected[1]
        assert naive_outcome(ifft, Spectrum(bins, 8000)) == expected


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
    values = np.empty(n, dtype=np.complex128)
    values.real, values.imag = parts  # parts[0] + 1j * parts[1] would turn each -0.0 imaginary part into +0.0
    return values


# 2**16 .. 2**18 are more than one block, so they run on two threads
@pytest.mark.parametrize("n", POW2 + [1 << p for p in range(15, 19)])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["signed-zeros", "small-integers", "real", "random"]),
)
def test_fft_array_matches_the_loop_version(n, seed, kind):
    values = complex_input(np.random.default_rng(seed), n, kind)
    expected = oracle_fft_array(values.copy())
    with mock.patch.object(dftkit.transform, "_CPUS", 2):  # whatever CPUs this process may use
        actual = _fft_array(values.copy())
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("exponent", range(15, 21))
def test_two_thread_fft_array_matches_the_one_thread_path(monkeypatch, exponent):
    n = 1 << exponent
    for kind in ["signed-zeros", "small-integers", "real", "random"]:
        values = complex_input(np.random.default_rng(exponent), n, kind)
        monkeypatch.setattr(dftkit.transform, "_CPUS", 1)
        one = _fft_array(values.copy())
        monkeypatch.setattr(dftkit.transform, "_CPUS", 2)
        two = _fft_array(values.copy())
        assert one.tobytes() == two.tobytes(), kind


@pytest.mark.parametrize("exponent", range(16, 21))
def test_one_thread_fft_array_matches_the_loop_version(monkeypatch, exponent):
    # halves down to blocks of _BLOCK points, each wider stage in chunks, on one thread
    monkeypatch.setattr(dftkit.transform, "_CPUS", 1)
    n = 1 << exponent
    for kind in ["signed-zeros", "small-integers", "real", "random"]:
        values = complex_input(np.random.default_rng(exponent), n, kind)
        assert _fft_array(values.copy()).tobytes() == oracle_fft_array(values).tobytes(), kind


@pytest.mark.parametrize("block", [1, 2, 4, 16])
@pytest.mark.parametrize("cpus", [1, 2])
def test_small_blocks_match_the_loop_version(monkeypatch, block, cpus):
    # tiny blocks put block and chunk boundaries inside every small transform,
    # and with two CPUs every transform of more than one block splits
    monkeypatch.setattr(dftkit.transform, "_BLOCK", block)
    monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
    for exponent in range(13):
        n = 1 << exponent
        for kind in ["signed-zeros", "small-integers", "real", "random"]:
            values = complex_input(np.random.default_rng(exponent), n, kind)
            assert _fft_array(values.copy()).tobytes() == oracle_fft_array(values).tobytes(), (n, kind)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_kept_twiddle_tables_give_the_per_call_bits_in_any_order(monkeypatch, order):
    # A size read from a larger size's tables must match the tables built
    # for it alone, whichever sizes ran before it.
    monkeypatch.setattr(dftkit.transform, "_TABLES", {})
    exponents = range(21) if order == "ascending" else range(20, -1, -1)
    for exponent in exponents:
        n = 1 << exponent
        rng = np.random.default_rng(exponent)
        samples = rng.uniform(-1.0, 1.0, n)
        bins = oracle_rfft_array(samples)
        assert fft(Signal(samples, 8000)).bins.tobytes() == bins.tobytes(), n
        half = bins[: n // 2 + 1] * rng.uniform(0.0, 4.0, n // 2 + 1)
        assert _ifft_array(np.resize(half, n)).tobytes() == oracle_half_ifft_array(half, n).tobytes(), n
        values = complex_input(rng, n, "random")
        assert _fft_array(values.copy()).tobytes() == oracle_fft_array(values).tobytes(), n


def race_four_callers(monkeypatch, exponents, rounds):
    # Each round starts from empty tables, so the threads race to grow them.
    monkeypatch.setattr(dftkit.transform, "_CPUS", 2)
    sizes = [1 << exponent for exponent in exponents]
    inputs = {n: np.random.default_rng(n).uniform(-1.0, 1.0, n) for n in sizes}
    expected = {n: oracle_rfft_array(inputs[n]).tobytes() for n in sizes}
    failures = []

    def run(order):
        try:
            for n in order:
                if fft(Signal(inputs[n], 8000)).bins.tobytes() != expected[n]:
                    failures.append(n)
        except Exception as error:  # a thread's error would otherwise be lost
            failures.append(error)

    rng = np.random.default_rng(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            monkeypatch.setattr(dftkit.transform, "_TABLES", {})
            threads = [
                threading.Thread(target=run, args=(rng.permutation(sizes).tolist(),))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def test_threads_that_share_the_twiddle_tables_get_the_per_call_bits(monkeypatch):
    race_four_callers(monkeypatch, range(1, 15), rounds=40)


def test_callers_on_four_threads_get_the_per_call_bits_from_two_thread_transforms(monkeypatch):
    # fft of 2**16 .. 2**18 samples runs _fft_array on 2**15 .. 2**17 points, from 2**16 on two threads
    race_four_callers(monkeypatch, range(16, 19), rounds=4)


def test_twiddle_tables_are_read_only():
    transform = dftkit.transform
    fft(Signal(np.ones(16), 8000))  # builds both kept tables
    views = [transform._twiddles(transform._roots, 8), transform._twiddles(transform._split_twiddles, 16)]
    for table in views + [table for _, table in transform._TABLES.values()]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


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


@pytest.mark.parametrize("exponent", EXPONENTS[:13])  # n = 2**0 .. 2**12
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.sampled_from(REAL_KINDS))
def test_ifft_of_a_hermitian_spectrum_matches_the_two_step_version(exponent, seed, kind):
    spectrum = fft(Signal(real_input(np.random.default_rng(seed), 1 << exponent, kind), 8000))
    expected = naive_outcome(oracle_ifft, spectrum)
    assert expected[0] is Signal
    assert naive_outcome(ifft, spectrum) == expected


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
    actual = _ifft_array(full.copy())
    assert actual.dtype == np.float64 and actual.shape == (n,)
    bound = FFT_TOLERANCE * max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= bound


def assert_split_matches_the_one_pass_version(n, kind):
    rng = np.random.default_rng(n)
    samples = real_input(rng, n, kind)
    bins = oracle_rfft_array(samples)
    assert fft(Signal(samples, 8000)).bins.tobytes() == bins.tobytes(), (n, kind)
    half = bins[: n // 2 + 1] * rng.uniform(0.0, 4.0, n // 2 + 1)
    assert _ifft_array(np.resize(half, n)).tobytes() == oracle_half_ifft_array(half, n).tobytes(), (n, kind)


@pytest.mark.parametrize("span", [2, 4, 16])
def test_split_in_small_spans_matches_the_one_pass_version(monkeypatch, span):
    # the split and merge walk k = 1 .. n/4 in spans of _BLOCK / 2 bins; small spans
    # put span edges, the last span and k = n/4 (its own partner) in every small transform.
    # No span of one bin: numpy multiplies a one-element operand in its stride-0 loop,
    # whose bits differ, and the real span leaves none beyond n = 4's only span.
    monkeypatch.setattr(dftkit.transform, "_BLOCK", 2 * span)
    for exponent in range(13):
        for kind in REAL_KINDS:
            assert_split_matches_the_one_pass_version(1 << exponent, kind)


def test_split_in_real_spans_matches_the_one_pass_version():
    # 2**17 samples split in two spans of 2**14 bins
    for kind in REAL_KINDS:
        assert_split_matches_the_one_pass_version(1 << 17, kind)


@pytest.mark.parametrize("cpus", [1, 2])
def test_half_spectrum_inverse_reads_only_bins_up_to_n_over_2(monkeypatch, cpus):
    # it merges into the lower half and transforms into the upper half, whose
    # NaNs it must overwrite unread; 2**17 samples invert over two blocks
    monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
    for n in [1 << exponent for exponent in range(13)] + [1 << 17]:
        for kind in REAL_KINDS:
            rng = np.random.default_rng(n)
            bins = oracle_rfft_array(real_input(rng, n, kind))
            bins[: n // 2 + 1] *= rng.uniform(0.0, 4.0, n // 2 + 1)
            expected = oracle_half_ifft_array(bins[: n // 2 + 1], n)
            bins[n // 2 + 1 :] = np.nan
            actual = _ifft_array(bins)
            assert actual.tobytes() == expected.tobytes(), (n, kind)
            assert n < 2 or np.shares_memory(actual, bins), n


@pytest.mark.parametrize("cpus", [1, 2])
def test_equalize_across_blocks_matches_the_one_pass_version(monkeypatch, cpus):
    # from 2**17 samples the inverse of equalize runs over more than one block, from
    # the merged lower half into the upper half of the spectrum
    monkeypatch.setattr(dftkit.transform, "_CPUS", cpus)
    profile = preset("treble")
    for length in (1 << 17, (1 << 17) + 1):
        n = next_pow2(length)
        for kind in REAL_KINDS:
            samples = real_input(np.random.default_rng(length), length, kind)
            padded = np.zeros(n)
            padded[:length] = samples
            half = oracle_rfft_array(padded)[: n // 2 + 1]
            half *= build_gain_vector(profile, n, 44100).values[: n // 2 + 1]
            expected = np.clip(oracle_half_ifft_array(half, n)[:length], -1.0, 1.0)
            actual = equalize(Signal(samples, 44100), profile).samples
            assert actual.tobytes() == expected.tobytes(), (length, kind)


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


@settings(max_examples=400, deadline=None)
@given(
    length=st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=4096)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(REAL_KINDS),
    profile=profiles(),
    rate=st.sampled_from([8000, 44100, 48000]),
)
def test_equalize_matches_the_product_version(length, seed, kind, profile, rate):
    # gains multiplied in place into fft's half spectrum, bit for bit the separate product
    signal = Signal(real_input(np.random.default_rng(seed), length, kind), rate)
    before = signal.samples.tobytes()
    expected = oracle_product_equalize(signal, profile)
    actual = equalize(signal, profile)
    assert actual.samples.tobytes() == expected.samples.tobytes()
    assert signal.samples.tobytes() == before  # the input is never scaled in place
    assert actual.sample_rate == expected.sample_rate


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from([kind for kind in REAL_KINDS if kind != "wide"]),
    profile=profiles(),
    rate=st.sampled_from([8000, 44100, 48000]),
)
def test_equalize_matches_the_matrix_form(length, seed, kind, profile, rate):
    # the paper's operator F^-1 diag(g) F on the padded signal, with F^-1 = conj(F) / n
    signal = Signal(real_input(np.random.default_rng(seed), length, kind), rate)
    x = pad_to_pow2(signal).samples
    n = x.size
    F = dft_matrix(n).entries
    g = build_gain_vector(profile, n, rate).values
    expected = np.clip(np.real(np.conj(F) @ (g * (F @ x))) / n, -1.0, 1.0)[:length]
    actual = equalize(signal, profile).samples
    assert actual.shape == expected.shape
    assert float(np.max(np.abs(actual - expected))) <= EQUALIZE_TOLERANCE


@pytest.mark.parametrize("name", [*PRESET_NAMES, "Treble", "", "bass_boost"])
def test_preset_matches_the_branching_version(name):
    outcomes = []
    for build in (oracle_preset, preset):
        try:
            profile = build(name)
        except DspError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((profile.name, profile.bands))
    assert outcomes[0] == outcomes[1]


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
    dense = ["--threshold", "1e-300", "--separation-hz", "0"]
    noise = 0.6 * np.random.default_rng(0).uniform(-1, 1, 8192)
    cases = [
        # DC plus noise: every local maximum is a peak and bin 0 prints dashes.
        ("dc-and-noise.wav", 0.3 + noise, 16, dense, 2 * _ROWS_PER_WRITE, True),
        # A constant: the only peak is at 0 Hz, so the table is one row of dashes.
        ("constant.wav", np.full(256, 0.5), 16, [], 1, True),
        # Noise with its mean taken out, written as floats: no peak at 0 Hz.
        ("noise.wav", noise - noise.mean(), 32, dense, 2 * _ROWS_PER_WRITE, False),
    ]
    for name, samples, bits, flags, min_rows, dc_first in cases:
        wav = tmp_path / name
        write_wav(Signal(samples, 8000), wav, bits_per_sample=bits)
        argv = ["analyze", str(wav)] + flags
        expected = run_analyze(oracle_cmd_analyze, argv)
        rows = [line.split() for line in expected[1].splitlines()[2:]]
        assert (rows[0][2:] == ["-", "-"]) == dc_first, name
        assert len(rows) >= min_rows and all(row[2] != "-" for row in rows[1:]), name
        for rows_per_write in (1, 2, 7, _ROWS_PER_WRITE):
            with mock.patch.object(dftkit.analysis, "_ROWS_PER_WRITE", rows_per_write):
                assert run_analyze(dftkit.cli.cmd_analyze, argv) == expected, name


# Fixed timings, one of them with a ratio that overflows to inf.
BENCH_ROWS = [
    BenchRow(8, 1.5e-05, 2.5e-06),
    BenchRow(16, 0.000123456789123, 1e-06),
    BenchRow(64, 1e300, 1e-300),
    BenchRow(256, 0.0, 3.3333333333e-05),
    BenchRow(4096, 12.345678912345678, 0.0123456789),
]


def test_bench_command_matches_the_row_by_row_version(tmp_path, monkeypatch):
    monkeypatch.setattr(dftkit.cli, "run_bench", lambda sizes, repeats: BENCH_ROWS)
    argv = ["bench", "--sizes", "8,16", "--repeats", "1", "--csv", str(tmp_path / "bench.csv")]
    args = dftkit.cli.build_parser().parse_args(argv)

    def outputs(command, *extra):
        out = io.BytesIO()
        with contextlib.redirect_stdout(io.TextIOWrapper(out, encoding="utf-8")) as wrapper:
            code = command(args, *extra)
            wrapper.flush()
        return code, out.getvalue(), (tmp_path / "bench.csv").read_bytes()

    expected = outputs(oracle_cmd_bench, BENCH_ROWS)
    assert b" inf\n" in expected[1] and b",inf\n" in expected[2]
    for rows_per_write in (1, 2, 512):
        with mock.patch.object(dftkit.analysis, "_ROWS_PER_WRITE", rows_per_write):
            assert outputs(dftkit.cli.cmd_bench) == expected


def test_analyze_command_builds_no_peak_or_note_objects(tmp_path, monkeypatch):
    signal = Signal(np.random.default_rng(11).uniform(-1.0, 1.0, 2**14), 44100)
    wav = tmp_path / "noise.wav"
    write_wav(signal, wav)
    argv = ["analyze", str(wav), "--threshold", "0.01", "--separation-hz", "0"]
    expected = run_analyze(oracle_cmd_analyze, argv)
    pairs = analyze(signal, 0.01, 0.0)  # the library still hands out the objects
    assert len(pairs) > 2 * _ROWS_PER_WRITE and {type(peak) for peak, _ in pairs} == {Peak}
    assert {type(note) for _, note in pairs} <= {NoteMatch, type(None)}
    assert NoteMatch in {type(note) for _, note in pairs}

    def refuse(*args, **kwargs):
        raise AssertionError("the analyze command built a Peak or a NoteMatch")

    monkeypatch.setattr(dftkit.analysis, "Peak", refuse)
    monkeypatch.setattr(dftkit.analysis, "NoteMatch", refuse)
    assert run_analyze(dftkit.cli.cmd_analyze, argv) == expected
    assert expected[0] == 0


# ---------------------------------------------------------------------------
# Peaks and notes carried as columns
# ---------------------------------------------------------------------------


def exact_values(values):
    """Each value with its type, and floats as hex, so every bit counts."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def exact(obj):
    """A dataclass, or None, as an exact record of its type and fields."""
    return obj and (type(obj), exact_values(vars(obj).values()))


def oracle_analyze(signal: Signal, threshold: float, separation: float):
    """analyze's (Peak, NoteMatch | None) pairs, from the oracles."""
    mag = magnitude_spectrum(fft(pad_to_pow2(signal)))
    return [
        (peak, oracle_identify_note(peak.frequency_hz) if peak.frequency_hz > 0 else None)
        for peak in oracle_find_peaks(mag, threshold, separation)
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["silence", "dc", "tones", "noise"]),
    length=st.integers(min_value=1, max_value=1024),
    rate=st.one_of(RATES, st.integers(min_value=1, max_value=96000)),
    threshold=st.one_of(
        st.sampled_from([0.01, 0.05, 0.5, 1.0]), st.floats(min_value=0.01, max_value=1.0)
    ),
    separation=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0)),
)
def test_analyze_matches_the_peak_and_note_oracles(
    seed, kind, length, rate, threshold, separation
):
    signal = Signal(analyze_input(np.random.default_rng(seed), kind, length), rate)
    actual = analyze(signal, threshold, separation)
    expected = oracle_analyze(signal, threshold, separation)
    assert [(exact(p), exact(n)) for p, n in actual] == [
        (exact(p), exact(n)) for p, n in expected
    ]


def ulps_from(x: float, ulps: int) -> float:
    """The float ulps representable steps above positive x (below when negative)."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits + ulps))[0]


# Where rounding to the nearest semitone flips: midway between two MIDI notes.
NEAR_MIDPOINTS = st.builds(
    lambda midi, ulps: ulps_from(A4_HZ * 2.0 ** ((midi + 0.5 - 69) / 12.0), ulps),
    st.one_of(st.integers(min_value=0, max_value=127), st.integers(-12000, 12200)),
    st.integers(min_value=-30, max_value=30),
)
NOTE_FREQUENCIES = st.one_of(
    st.floats(min_value=1.0, max_value=30000.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    NEAR_MIDPOINTS,
    st.sampled_from([0.0, 5e-324, 1.79e308]),
)


def note_outcome(fields):
    """fields() as exact records, or the DspError message it raised."""
    try:
        rows = fields()
    except DspError as exc:
        return str(exc)
    return [row and exact_values(row) for row in rows]


@settings(max_examples=500, deadline=None)
@given(st.lists(NOTE_FREQUENCIES, min_size=1, max_size=40))
@example([5e-324])  # reference pitches past the ends of the float range
@example([1.79e308])
@example([0.0, 440.0, 440.0, 1.79e308])
def test_note_fields_match_the_identify_note_oracle(freqs):
    def fields_of(identify):
        return lambda: [vars(identify(f)).values() if f > 0 else None for f in freqs]

    expected = note_outcome(fields_of(oracle_identify_note))
    assert note_outcome(lambda: _note_fields(freqs)) == expected
    assert note_outcome(fields_of(identify_note)) == expected


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


# ---------------------------------------------------------------------------
# read_wav over a memoryview with one decode path
# ---------------------------------------------------------------------------


def read_outcome(read, path):
    """The sample bytes, rate and meta, or the error's type and message."""
    try:
        signal, meta = read(path)
    except WavFormatError as exc:
        return type(exc), str(exc)
    return signal.samples.tobytes(), signal.sample_rate, meta


def riff(chunks):
    body = b"".join(
        struct.pack("<4sI", chunk_id, len(data)) + data + b"\x00" * (len(data) & 1)
        for chunk_id, data in chunks
    )
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


# float-32 bit patterns worth a look: signed zeros, rails, subnormals, inf and NaNs
SPECIAL_F32 = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x3F800001,
    0x00000001, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F800001,
]
# Positions are taken modulo the file length; half land in the fmt and data headers.
MUTATION = st.tuples(
    st.sampled_from(["overwrite", "delete", "insert", "word"]),
    st.one_of(st.integers(min_value=12, max_value=47), st.integers(min_value=0, max_value=1024)),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def mutated(blob, mutations):
    for op, position, value in mutations:
        at = position % (len(blob) + 1)
        if op == "overwrite":
            blob = blob[:at] + bytes([value & 0xFF]) + blob[at + 1 :]
        elif op == "delete":
            blob = blob[:at] + blob[at + 1 + value % 4 :]
        elif op == "insert":
            blob = blob[:at] + value.to_bytes(4, "little")[: 1 + value % 4] + blob[at:]
        else:  # a whole little-endian size, rate or code field
            blob = blob[:at] + struct.pack("<I", value) + blob[at + 4 :]
    return blob


@st.composite
def wav_files(draw):
    """A WAV of 1-3 channels in a supported or unsupported encoding, plain or
    EXTENSIBLE, with a partial frame, extra chunks, a cut and byte mutations."""
    channels = draw(st.sampled_from([1, 2] * 3 + [3]))
    code, bits = draw(st.sampled_from([(1, 16), (3, 32)] * 4 + [(1, 8), (3, 64), (6, 8)]))
    rate = draw(st.sampled_from([8000, 44100, 1, 2**32 - 1] * 2 + [0]))
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * block % 2**32, block, bits)
    if draw(st.booleans()):  # usually the standard sub-format GUID tail
        tail = draw(st.sampled_from([_SUBFORMAT_TAIL] * 5 + [bytes(14)]))
        fmt = struct.pack("<H", _EXTENSIBLE) + fmt[2:]
        fmt += struct.pack("<HHIH", 22, bits, 0x3, code) + tail
    elif code != _PCM and draw(st.booleans()):
        fmt += bytes(2)  # a zero cbSize
    frames = draw(st.integers(min_value=0, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if bits == 32:
        words = rng.uniform(-1.5, 1.5, frames * channels).astype("<f4").view("<u4")
        specials = rng.random(words.size) < draw(st.sampled_from([0.0, 0.05, 0.5]))
        words[specials] = rng.choice(SPECIAL_F32, int(specials.sum()))
        payload = words.tobytes()
    else:
        payload = rng.integers(0, 256, frames * block, dtype=np.uint8).tobytes()
    payload += bytes(draw(st.integers(min_value=0, max_value=max(block - 1, 0))))
    chunks = [(b"fmt ", fmt), (b"data", payload)]
    extras = [(b"JUNK", bytes(7)), (b"LIST", b"INFOsomething"), (b"fact", bytes(4)),
              (b"fmt ", fmt), (b"fmt ", bytes(5)), (b"data", payload[:6])]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=2)):
        chunks.insert(draw(st.integers(min_value=0, max_value=len(chunks))), extra)
    blob = riff(chunks)
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        blob = blob[: draw(st.integers(min_value=0, max_value=len(blob)))]
    return mutated(blob, draw(st.one_of(st.just([]), st.lists(MUTATION, min_size=1, max_size=3))))


def chunk_ids(blob):
    """The chunk ids in file order, walked as the reader walks them."""
    ids, offset = [], 12
    while offset + 8 <= len(blob):
        chunk_id, size = struct.unpack_from("<4sI", blob, offset)
        ids.append(chunk_id)
        offset += 8 + size + (size & 1)
    return ids


@settings(max_examples=800, deadline=None)
@given(wav_files())
def test_read_wav_matches_the_copying_version(folder, blob):
    path = folder / "read.wav"
    path.write_bytes(blob)
    expected = read_outcome(oracle_read_wav, path)
    actual = read_outcome(read_wav, path)
    if actual == (WavFormatError, "fmt chunk appears after data chunk"):
        ids = chunk_ids(blob)  # the one new error: the old reader took the later fmt
        assert b"fmt " in ids[ids.index(b"data") :]
    else:
        assert actual == expected


# ---------------------------------------------------------------------------
# read_wav one channel at a time
# ---------------------------------------------------------------------------


def oracle_summing_downmix_mono(channels: np.ndarray) -> np.ndarray:
    """Average a (frames, channels) array across channels; 1-d passes through."""
    array = np.asarray(channels, dtype=np.float64)
    if array.size == 0:
        raise DspError("cannot downmix an empty array")
    if array.ndim == 1:
        return array.copy()
    if array.ndim != 2:
        raise DspError(f"expected a 1-d or (frames, channels) array, got shape {array.shape}")
    mono = array[:, 0] + 0.0  # mean's sum starts from +0.0, so -0.0 rows average to +0.0
    for column in range(1, array.shape[1]):
        mono += array[:, column]
    mono /= array.shape[1]
    return mono


def oracle_decode_all(data: bytes, audio_format: int, channels: int) -> np.ndarray:
    """read_wav's decode of a data chunk when it decoded every channel at once."""
    bits, dtype = (16, "<i2") if audio_format == _PCM else (32, "<f4")
    frames = len(data) // (bits // 8 * channels)
    with np.errstate(invalid="ignore"):  # a NaN payload is rejected just below
        samples = np.frombuffer(data, dtype, frames * channels).astype(np.float64)
    if audio_format == _PCM:
        samples /= 32768.0  # exact, and always inside [-1, 1)
    else:
        if not np.all(np.isfinite(samples)):
            raise WavFormatError("float data chunk contains non-finite samples")
        np.clip(samples, -1.0, 1.0, out=samples)

    if channels == 1:  # + 0.0 turns -0.0 into +0.0, as the downmix does
        mono = np.add(samples, 0.0, out=samples)
    else:
        mono = oracle_summing_downmix_mono(samples.reshape(frames, channels))
    return mono


def decode_outcome(decode):
    """The decoded sample bytes, or the error's type and message."""
    try:
        return decode().tobytes()
    except WavFormatError as exc:
        return type(exc), str(exc)


# float-32 words written into one channel: every third frame, or once for a non-finite one
FLOAT_WORDS = {
    "full-scale": 0xBF800000, "-0.0": 0x80000000, "over": 0x3FC00000,  # -1.0, -0.0, 1.5
    "nan": 0x7FC00000, "inf": 0x7F800000, "-inf": 0xFF800000, "signalling-nan": 0x7F800001,
}
# (case, channel); a mono file takes each case in its one channel
CHANNEL_CASES = [("plain", 0), ("-0.0 rows", 0)] + [
    (case, channel) for case in FLOAT_WORDS for channel in (0, 1)
]


def channel_payload(rng, frames, channels, code, case, channel):
    """The stored bytes of frames of noise, with the case's values in one channel."""
    column = min(channel, channels - 1)
    if code == _PCM:  # PCM has no -0.0 and never clips: its cases are the rails
        values = rng.integers(-32768, 32768, (frames, channels)).astype("<i2")
        if case != "plain":
            values[::3, column] = [-32768, 32767][channel]
        return values.tobytes()
    words = rng.uniform(-1.0, 1.0, (frames, channels)).astype("<f4").view("<u4")
    if case == "-0.0 rows":
        words[::2] = FLOAT_WORDS["-0.0"]
    elif "nan" in case or "inf" in case:
        words[rng.integers(frames), column] = FLOAT_WORDS[case]
    elif case != "plain":
        words[::3, column] = FLOAT_WORDS[case]
    return words.tobytes()


@pytest.mark.parametrize("frames", [1, 5, 1000, 2**15 + 3])  # 2**15 frames: 256 KiB a channel
@pytest.mark.parametrize("code", [_PCM, _IEEE_FLOAT], ids=["pcm16", "float32"])
@pytest.mark.parametrize("channels", [1, 2])
def test_read_wav_matches_the_decode_all_version(tmp_path, frames, code, channels):
    rng = np.random.default_rng(frames)
    path = tmp_path / "read.wav"
    block = channels * (2 if code == _PCM else 4)
    fmt = struct.pack("<HHIIHH", code, channels, 44100, 44100 * block, block, block // channels * 8)
    cases = CHANNEL_CASES if code == _IEEE_FLOAT else [("plain", 0), ("rail", 0), ("rail", 1)]
    for case, channel in cases:
        payload = channel_payload(rng, frames, channels, code, case, channel)
        path.write_bytes(riff([(b"fmt ", fmt), (b"data", payload)]))
        expected = decode_outcome(lambda: oracle_decode_all(payload, code, channels))
        actual = decode_outcome(lambda: read_wav(path)[0].samples)
        assert actual == expected, (case, channel)
        if "nan" in case or "inf" in case:
            message = "float data chunk contains non-finite samples"
            assert expected == (WavFormatError, message), (case, channel)
