"""Discrete Fourier transform core.

One normalization convention throughout: the forward sum carries no
prefactor, the inverse carries 1/n. The naive O(n^2) paths walk the
rows of one transform matrix F, so it is never materialized unless
asked for; the fast paths are an iterative radix-2 decimation-in-time
butterfly over bit-reversed input. Both inverses are conj(F conj(X)) / n
over their forward kernel.

The permutation is built by doubling and every stage reads its twiddles
from one table of n/2 roots, with the same bits as per-stage twiddles.

Real input takes half the work (Sorensen et al., IEEE TASSP 1987). With
m = n/2, the samples are packed as m complex points z[j] = x[2j] +
i*x[2j+1], whose m-point transform Z holds the transforms of the even
and odd samples, E and O:

    E[k] = (Z[k] + conj(Z[m-k])) / 2,   O[k] = (Z[k] - conj(Z[m-k])) / 2i
    X[k] = E[k] + w^k * O[k],           w = e^(-2*pi*i/n)

Since E and O are Hermitian and w^(m-k) = -conj(w^k), one twiddle gives
two bins: X[m-k] = conj(E[k] - w^k * O[k]), so only k <= n/4 is
computed. The inverse runs the same identities backwards.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPSILON",
    "DEFAULT_NAIVE_LIMIT",
    "FFT_LIMIT",
    "DspError",
    "Signal",
    "Spectrum",
    "DftMatrix",
    "omega",
    "dft_matrix",
    "dft_naive",
    "idft_naive",
    "fft",
    "ifft",
    "next_pow2",
    "pad_to_pow2",
]

# Library-wide comparison tolerance for float assertions and residue checks.
EPSILON = 1e-9

# The O(n^2) paths refuse lengths above this unless the caller raises the cap.
DEFAULT_NAIVE_LIMIT = 8192

# The fast paths allow up to 2**24 samples.
FFT_LIMIT = 1 << 24


class DspError(ValueError):
    """Invalid input to a toolkit operation."""


def _as_positive_int(value, what: str) -> int:
    coerced = int(value)
    if coerced != value or coerced <= 0:
        raise DspError(f"{what} must be a positive integer, got {value!r}")
    return coerced


@dataclass(frozen=True, eq=False)
class Signal:
    """Real amplitude samples at a fixed sample rate.

    Samples are stored as a float64 array; nominal range is [-1, 1] but
    only finiteness is enforced here.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise DspError("signal must be a 1-d sequence with at least one sample")
        if not np.all(np.isfinite(samples)):
            raise DspError("signal samples must all be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "sample_rate", _as_positive_int(self.sample_rate, "sample rate")
        )

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex Fourier coefficients of a signal, same length as the input.

    Bin k corresponds to the physical frequency k * sample_rate / n Hz
    for k up to n/2; the upper half mirrors it for real signals.
    """

    bins: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 1 or bins.size == 0:
            raise DspError("spectrum must be a 1-d sequence with at least one bin")
        if not np.all(np.isfinite(bins)):
            raise DspError("spectrum bins must all be finite")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(
            self, "sample_rate", _as_positive_int(self.sample_rate, "sample rate")
        )

    def __len__(self) -> int:
        return int(self.bins.size)


@dataclass(frozen=True, eq=False)
class DftMatrix:
    """The n x n transform matrix with entry(j, k) = omega(n) ** (j * k).

    Symmetric by construction and unitary up to the factor n. Row and
    column zero are all ones.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (self.n, self.n):
            raise DspError(
                f"matrix entries must have shape ({self.n}, {self.n}), got {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)


def omega(n: int) -> complex:
    """Primitive root e^(-2*pi*i/n); every matrix entry is one of its powers."""
    if n < 1:
        raise DspError(f"transform order must be >= 1, got {n}")
    angle = 2.0 * math.pi / n
    return complex(math.cos(angle), -math.sin(angle))


def _matrix_rows(n: int, max_n: int, what: str) -> Iterator[np.ndarray]:
    """Rows k = 0 .. n-1 of the transform matrix, one array at a time.

    The checks run on the call, not on the first row. Exponents are
    reduced modulo n before the power table lookup, so entry (j, k) and
    entry (k, j) are the same float values and the phase stays exact
    even for large j*k.
    """
    if n < 1:
        raise DspError(f"transform order must be >= 1, got {n}")
    if n > max_n:
        raise DspError(f"{what} {n} exceeds the naive-path limit {max_n}")
    powers = np.exp(-2j * np.pi * np.arange(n) / n)
    j = np.arange(n, dtype=np.int64)
    return (powers[(j * k) % n] for k in range(n))


def dft_matrix(n: int, max_n: int = DEFAULT_NAIVE_LIMIT) -> DftMatrix:
    """Materialize the full transform matrix, stacked from its rows."""
    rows = _matrix_rows(n, max_n, "matrix order")
    return DftMatrix(n=n, entries=np.fromiter(rows, np.dtype((np.complex128, n)), n))


def _naive_forward(values: np.ndarray, max_n: int, what: str) -> np.ndarray:
    """F @ values, one matrix row at a time, so memory stays O(n)."""
    rows = _matrix_rows(values.size, max_n, what)
    return np.fromiter((np.dot(row, values) for row in rows), np.complex128, values.size)


def dft_naive(signal: Signal, max_n: int = DEFAULT_NAIVE_LIMIT) -> Spectrum:
    """Forward transform by direct summation: bins[k] = sum_j x[j] * w^(jk)."""
    x = signal.samples.astype(np.complex128)
    return Spectrum(_naive_forward(x, max_n, "signal length"), signal.sample_rate)


def _strip_imaginary(values: np.ndarray, bins: np.ndarray) -> np.ndarray:
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


def idft_naive(spectrum: Spectrum, max_n: int = DEFAULT_NAIVE_LIMIT) -> Signal:
    """Inverse transform by direct summation, with the 1/n factor.

    samples[k] = (1/n) * sum_j bins[j] * e^(+2*pi*i*j*k/n), taken as
    conj(F @ conj(bins)) / n, the identity ifft uses.
    """
    n = len(spectrum)
    time = np.conj(_naive_forward(np.conj(spectrum.bins), max_n, "spectrum length")) / n
    return Signal(_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise DspError(f"length must be >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


def pad_to_pow2(signal: Signal) -> Signal:
    """Zero-extend a signal to the next power-of-two length (no-op if already there)."""
    n = len(signal)
    target = next_pow2(n)
    if target == n:
        return signal
    padded = np.zeros(target, dtype=np.float64)
    padded[:n] = signal.samples
    return Signal(padded, signal.sample_rate)


def _require_power_of_two(n: int) -> None:
    if n >= 1 and (n & (n - 1)) == 0:
        return
    below = 1 << max(n.bit_length() - 1, 0)
    raise DspError(
        f"length {n} is not a power of two (nearest are {below} and {below * 2}); "
        "zero-pad or use the naive transform"
    )


def _bit_reversal(n: int) -> np.ndarray:
    """Permutation indices that put a power-of-two range in bit-reversed order.

    Built by doubling: reversing m+1 bits of i puts the top bit of i at
    the bottom, so the order for 2m is 2*rev followed by 2*rev + 1.
    """
    reversed_idx = np.zeros(1, dtype=np.int64)
    while reversed_idx.size < n:
        reversed_idx = np.concatenate((2 * reversed_idx, 2 * reversed_idx + 1))
    return reversed_idx


def _fft_array(values: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT of a complex array.

    Butterflies are evaluated stage by stage on the bit-reversed input;
    each stage is a fixed sequence of vectorized operations, so the
    summation order (and hence the output bits) is deterministic.

    Twiddles come from one table e^(-2*pi*i*m/n), m < n/2, of which a
    stage of width size reads every (n/size)-th entry. Its angle
    2*pi*(m*n/size)/n differs from the per-stage 2*pi*m/size only by
    power-of-two factors, which scale a float exactly, so the bits agree.
    Butterflies write the difference, then the sum, in place: the same
    two roundings as going through temporaries.
    """
    n = values.size
    data = values[_bit_reversal(n)]
    table = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    size = 2
    while size <= n:
        half = size // 2
        view = data.reshape(n // size, size)
        upper = view[:, :half]
        lower = view[:, half:] * table[:: n // size]
        np.subtract(upper, lower, out=view[:, half:])
        np.add(upper, lower, out=upper)
        size *= 2
    return data


def _split_twiddles(n: int) -> np.ndarray:
    """w^k = e^(-2*pi*i*k/n) for k = 1 .. n/4, from one cosine table.

    sin(2*pi*k/n) = cos(2*pi*(n/4 - k)/n), so the sines are the cosines
    read backwards.
    """
    cosines = np.cos(2.0 * np.pi / n * np.arange(n // 4 + 1))
    twiddles = np.empty(n // 4, dtype=np.complex128)
    twiddles.real = cosines[1:]
    twiddles.imag = -cosines[-2::-1]
    return twiddles


def _rfft_array(samples: np.ndarray) -> np.ndarray:
    """All n bins of a real power-of-two signal from one n/2-point FFT.

    Bins 0 .. n/2 come from splitting the packed transform (module
    docstring); bins 0 and n/2 are real sums, and the upper half is the
    exact conjugate of the lower, so the result is Hermitian bit for bit.
    """
    n = samples.size
    if n == 1:
        return samples.astype(np.complex128)
    m, h = n // 2, n // 4
    packed = _fft_array(np.ascontiguousarray(samples).view(np.complex128))
    bins = np.empty(n, dtype=np.complex128)
    bins[0] = packed[0].real + packed[0].imag
    bins[m] = packed[0].real - packed[0].imag
    ahead = packed[1 : h + 1]  # Z[k], k = 1 .. n/4
    behind = np.conj(packed[m - h :][::-1])  # conj(Z[m - k])
    even = (ahead + behind) * 0.5
    odd = np.subtract(ahead, behind, out=behind)
    odd *= _split_twiddles(n) * -0.5j  # w^k * O[k]
    np.conjugate(even - odd, out=bins[m - h : m][::-1])
    np.add(even, odd, out=bins[1 : h + 1])
    np.conjugate(bins[1:m][::-1], out=bins[m + 1 :])
    return bins


def _ifft_array(half: np.ndarray, n: int) -> np.ndarray:
    """Real samples of an n-point signal from its bins 0 .. n/2.

    The split identities run backwards: for k <= n/4, E[k] and O[k] come
    from X[k] and conj(X[m-k]), Z[k] = E[k] + i*O[k] and Z[m-k] =
    conj(E[k] - i*O[k]). One n/2-point inverse of Z, taken as
    conj(fft(conj(Z))) with its 1/m and the split's 1/2 applied
    beforehand as one exact 1/n, gives the
    even samples as its real part and the odd ones as its imaginary
    part, so the interleaved output is a float view of it. The
    imaginary parts of bins 0 and n/2 are ignored, and the result is
    real by construction.
    """
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
    odd *= np.conj(_split_twiddles(n)) * (1j / n)  # i * O[k]
    np.subtract(even, odd, out=packed[m - h :][::-1])
    np.conjugate(even + odd, out=packed[1 : h + 1])
    time = _fft_array(packed)
    np.negative(time.imag, out=time.imag)
    return time.view(np.float64)


def _require_fast_length(n: int, what: str) -> None:
    _require_power_of_two(n)
    if n > FFT_LIMIT:
        raise DspError(f"{what} length {n} exceeds the fast-path limit {FFT_LIMIT}")


def fft(signal: Signal) -> Spectrum:
    """Fast forward transform. Same contract as dft_naive, power-of-two lengths only.

    The signal is real, so it goes through one n/2-point FFT of packed
    sample pairs (see _rfft_array); the spectrum is exactly Hermitian.
    """
    _require_fast_length(len(signal), "signal")
    return Spectrum(bins=_rfft_array(signal.samples), sample_rate=signal.sample_rate)


def ifft(spectrum: Spectrum) -> Signal:
    """Fast inverse transform. Same contract as idft_naive, power-of-two lengths only.

    Any complex spectrum is accepted, so this takes the full n-point
    inverse, conj(fft(conj(X))) / n, and rejects a result that is not real.
    """
    n = len(spectrum)
    _require_fast_length(n, "spectrum")
    time = np.conj(_fft_array(np.conj(spectrum.bins))) / n
    return Signal(_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)
