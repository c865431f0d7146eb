"""Discrete Fourier transform core.

One normalization convention throughout: the forward sum carries no
prefactor, the inverse carries 1/n. The naive O(n^2) paths walk the
transform matrix row by row so the full matrix is never materialized
unless asked for; the fast paths are an iterative radix-2
decimation-in-time butterfly over bit-reversed input.

The permutation is built by doubling and every stage reads its twiddles
from one table of n/2 roots, with the same bits as per-stage twiddles.
"""

from __future__ import annotations

import math
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


def _omega_powers(n: int) -> np.ndarray:
    """All n distinct powers of omega(n): table[m] = e^(-2*pi*i*m/n)."""
    return np.exp(-2j * np.pi * np.arange(n) / n)


def dft_matrix(n: int, max_n: int = DEFAULT_NAIVE_LIMIT) -> DftMatrix:
    """Materialize the full transform matrix.

    Exponents are reduced modulo n before the power table lookup, so
    entry (j, k) and entry (k, j) are the same float values and the
    phase stays exact even for large j*k.
    """
    if n < 1:
        raise DspError(f"transform order must be >= 1, got {n}")
    if n > max_n:
        raise DspError(f"matrix order {n} exceeds the naive-path limit {max_n}")
    powers = _omega_powers(n)
    j = np.arange(n, dtype=np.int64)
    entries = np.empty((n, n), dtype=np.complex128)
    for k in range(n):  # row at a time keeps the index scratch at O(n)
        entries[k] = powers[(j * k) % n]
    return DftMatrix(n=n, entries=entries)


def dft_naive(signal: Signal, max_n: int = DEFAULT_NAIVE_LIMIT) -> Spectrum:
    """Forward transform by direct summation: bins[k] = sum_j x[j] * w^(jk).

    Equivalent to the matrix-vector product F @ x but accumulates one
    matrix row at a time, so memory stays O(n).
    """
    n = len(signal)
    if n > max_n:
        raise DspError(f"signal length {n} exceeds the naive-path limit {max_n}")
    powers = _omega_powers(n)
    x = signal.samples.astype(np.complex128)
    j = np.arange(n, dtype=np.int64)
    bins = np.empty(n, dtype=np.complex128)
    for k in range(n):
        bins[k] = np.dot(powers[(j * k) % n], x)
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)


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

    samples[k] = (1/n) * sum_j bins[j] * e^(+2*pi*i*j*k/n)
    """
    n = len(spectrum)
    if n > max_n:
        raise DspError(f"spectrum length {n} exceeds the naive-path limit {max_n}")
    kernel = np.conj(_omega_powers(n))
    j = np.arange(n, dtype=np.int64)
    time = np.empty(n, dtype=np.complex128)
    for k in range(n):
        time[k] = np.dot(kernel[(j * k) % n], spectrum.bins) / n
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


def _ifft_array(values: np.ndarray) -> np.ndarray:
    """Inverse FFT via the conjugation identity: ifft(X) = conj(fft(conj(X))) / n."""
    return np.conj(_fft_array(np.conj(values))) / values.size


def fft(signal: Signal) -> Spectrum:
    """Fast forward transform. Same contract as dft_naive, power-of-two lengths only."""
    n = len(signal)
    _require_power_of_two(n)
    if n > FFT_LIMIT:
        raise DspError(f"signal length {n} exceeds the fast-path limit {FFT_LIMIT}")
    bins = _fft_array(signal.samples.astype(np.complex128))
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)


def ifft(spectrum: Spectrum) -> Signal:
    """Fast inverse transform. Same contract as idft_naive, power-of-two lengths only."""
    n = len(spectrum)
    _require_power_of_two(n)
    if n > FFT_LIMIT:
        raise DspError(f"spectrum length {n} exceeds the fast-path limit {FFT_LIMIT}")
    time = _ifft_array(spectrum.bins)
    return Signal(_strip_imaginary(time, spectrum.bins), spectrum.sample_rate)
