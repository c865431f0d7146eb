"""Discrete Fourier transform core.

One normalization convention throughout: the forward sum carries no
prefactor, the inverse carries 1/n. The naive O(n^2) paths walk the
rows of one transform matrix F, so it is never materialized unless
asked for; the fast paths are a radix-2 decimation-in-time FFT. Both
inverses are conj(F conj(X)) / n over their forward kernel.

The FFT is F_n P = [[I, D], [I, -D]] diag(F_{n/2}, F_{n/2}) (Van Loan,
Computational Frameworks for the FFT, SIAM 1992): the transforms of the
even and of the odd samples, then one stage of width n. It halves down
to blocks of at most _BLOCK points, run in the constant geometry of Pease
(An Adaptation of the Fast Fourier Transform for Parallel Processing,
J. ACM 15(2), 1968) with twiddles read as a prefix of one table of roots
in bit-reversed order; each wider stage runs in place in contiguous
chunks, so numpy sees no short rows. No twiddle but w = 1 reaches
numpy's complex multiply with stride 0 on the inner axis, whose loop for
that case rounds differently (see _fft_array).

Permutations are built by doubling. The twiddles are built once per
process, for the largest transform or block so far; a smaller power of
two reads views of them with the bits of its own tables (see _twiddles).
A block's gather index is built once per block size, and its stages of
fewer than _ROW twiddles read kept tiles, so a warm transform makes
numpy copy through no buffer (see _fft_array).

Each transform works inside the arrays it is given. The FFT's input is
given up, and its head is the block buffers, or it runs in place with
buffers its caller lends, so beyond a few small objects a warm FFT
allocates only its result. A transform of more than one block first
copies its samples into their blocks' slots in one transpose (see
_load_blocks). With two CPUs it runs its two halves, then the two
halves of its last stage's pairs, on the caller's thread and one
helper, which meet at a barrier between the two (see _in_halves).

Real input takes half the work (Sorensen et al., IEEE TASSP 1987). With
m = n/2, the samples are packed as m complex points z[j] = x[2j] +
i*x[2j+1], whose m-point transform Z holds the transforms of the even
and odd samples, E and O:

    E[k] = (Z[k] + conj(Z[m-k])) / 2,   O[k] = (Z[k] - conj(Z[m-k])) / 2i
    X[k] = E[k] + w^k * O[k],           w = e^(-2*pi*i/n)

Since E and O are Hermitian and w^(m-k) = -conj(w^k), one twiddle gives
two bins: X[m-k] = conj(E[k] - w^k * O[k]), so only k <= n/4 is
computed. The inverse runs the same identities backwards.

Both walk k = 1 .. n/4 in spans of _BLOCK/2 bins (see _spans), so their
temporaries are span-sized rather than n/4 points. Up to 2^16 points
there is one span. Both run in place. The forward packs the samples,
zero-extended, straight into the blocks' order in bins 0 .. n/2 - 1,
transforms Z there and splits it there pair by pair, with the block
buffers and span temporaries lent by its caller: fft lends the upper
half of its n bins and then fills it with the conjugates, equalize the
same without the fill, and analyze buffers of its own beside n/2 + 1
bins. The inverse merges into the lower half of n bins, with its span
temporaries in the upper, and transforms that into the upper.

Every complex product keeps its twiddle on the right, and never takes a
fresh temporary on the right. numpy's complex multiply is not bitwise
commutative: with numpy 2.4.6's AVX-512 loops, np.multiply(a, g) and
np.multiply(g, a) differ in the last bit in about a third of random
products. And numpy evaluates a * (fresh temporary) of 256 KiB or more,
its temporary-elision threshold, as temporary * a.
"""

from __future__ import annotations

import math
import os
import threading
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
    try:
        coerced = int(value)
    except (OverflowError, TypeError, ValueError):  # as for inf, NaN and None
        coerced = 0
    if coerced <= 0 or coerced != value:  # <= first: != on an array gives an array
        raise DspError(f"{what} must be a positive integer, got {value!r}")
    return coerced


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DspError(f"{what} must all be finite")


def _check_fields(obj, what: str, unit: str, dtype) -> None:
    """Coerce and check a frozen Signal's or Spectrum's `unit`s array and sample rate."""
    values = np.asarray(getattr(obj, unit + "s"), dtype=dtype)
    if values.ndim != 1 or values.size == 0:
        raise DspError(f"{what} must be a 1-d sequence with at least one {unit}")
    _require_finite(values, f"{what} {unit}s")
    object.__setattr__(obj, unit + "s", values)
    object.__setattr__(obj, "sample_rate", _as_positive_int(obj.sample_rate, "sample rate"))


@dataclass(frozen=True, eq=False)
class Signal:
    """Real amplitude samples at a fixed sample rate.

    Samples are stored as a float64 array; nominal range is [-1, 1] but
    only finiteness is enforced here.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        _check_fields(self, "signal", "sample", np.float64)

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
        _check_fields(self, "spectrum", "bin", np.complex128)

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


def _inverse(spectrum: Spectrum, forward) -> Signal:
    """conj(forward(conj(bins))) / n, checked to be real.

    The inverse of a Hermitian-symmetric spectrum is real up to rounding;
    a larger residue means the spectrum does not describe a real signal.
    """
    bins = spectrum.bins
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, unwarned
        time = np.conj(forward(np.conj(bins))) / bins.size
        scale = float(np.max(np.abs(bins)))
        residue = float(np.max(np.abs(time.imag)))
    if residue > EPSILON * scale:
        raise DspError(
            "spectrum is not Hermitian-symmetric: imaginary residue "
            f"{residue:.3e} exceeds {EPSILON:.0e} * max|bin|"
        )
    return Signal(time.real.copy(), spectrum.sample_rate)


def idft_naive(spectrum: Spectrum, max_n: int = DEFAULT_NAIVE_LIMIT) -> Signal:
    """Inverse transform by direct summation, with the 1/n factor.

    samples[k] = (1/n) * sum_j bins[j] * e^(+2*pi*i*j*k/n), taken as
    conj(F @ conj(bins)) / n, the identity ifft uses.
    """
    return _inverse(spectrum, lambda bins: _naive_forward(bins, max_n, "spectrum length"))


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise DspError(f"length must be >= 1, got {n}")
    return 1 << (int(n) - 1).bit_length()


def pad_to_pow2(signal: Signal) -> Signal:
    """Zero-extend a signal to the next power-of-two length (no-op if already there)."""
    n = len(signal)
    target = _fast_length(n, "signal", pad=True)
    if target == n:
        return signal
    padded = np.zeros(target, dtype=np.float64)
    padded[:n] = signal.samples
    return Signal(padded, signal.sample_rate)


def _bit_reversal(n: int) -> np.ndarray:
    """Permutation indices that put a power-of-two range in bit-reversed order.

    Built by doubling in one array: reversing m+1 bits of i puts the top
    bit of i at the bottom, so the order for 2m is 2*rev followed by 2*rev + 1.
    """
    reversed_idx = np.zeros(n, dtype=np.int64)
    size = 1
    while size < n:
        upper = np.multiply(reversed_idx[:size], 2, out=reversed_idx[size : 2 * size])
        upper += 1
        reversed_idx[:size] *= 2
        size *= 2
    return reversed_idx


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_BLOCK = 1 << 15  # _fft_array runs its first stages on blocks of at most this many points
_ROW = 256  # the row length of a block's short stages, and numpy's buffer size in a transform
_LOAD = 2048  # the blocked load copies this many samples of every block at a time


def _butterfly(upper: np.ndarray, lower: np.ndarray, w: np.ndarray, scratch: np.ndarray) -> None:
    """upper, lower = upper + w*lower, upper - w*lower, in place through scratch."""
    np.multiply(lower, w, out=scratch)
    np.subtract(upper, scratch, out=lower)
    np.add(upper, scratch, out=upper)


def _chunked(upper: np.ndarray, lower: np.ndarray, w: np.ndarray, scratch: np.ndarray) -> None:
    """_butterfly over contiguous 1-d chunks of at most scratch.size pairs."""
    step = min(upper.size, scratch.size)
    for start in range(0, upper.size, step):
        part = slice(start, start + step)
        _butterfly(upper[part], lower[part], w[part], scratch[:step])


def _transform(values, data, scratch, *, gather, tiles, ordered, roots) -> None:
    """The DFT of values into data: the DFTs of its halves, then one stage, down to blocks.

    Past one block, values is data, already in block order (see _load_blocks). A block of
    gather.size points runs in Pease form between data and the buffer, which holds the last
    stage, starting from values; gather puts it in order. The tables are those of
    _fft_array's docstring.
    """
    nb = gather.size
    if data.size > nb:
        tables = {"gather": gather, "tiles": tiles, "ordered": ordered, "roots": roots}
        # the even samples' DFT in data's first half, the odd samples' in its second
        for half in data.reshape(2, -1):
            _transform(half, half, scratch, **tables)
        _chunked(*data.reshape(2, -1), roots[:: roots.size * 2 // data.size], scratch)
        return
    # start where the log2(nb) stages, alternating, end in the buffer
    source, target = (data, scratch) if nb.bit_length() % 2 == 0 else (scratch, data)
    if source is not values:
        source[:] = values
    h, width = 1, min(_ROW, nb // 2)
    while h < nb:
        upper, lower = source[: nb // 2], source[nb // 2 :]
        twiddles = tiles[h.bit_length() - 2, :width] if 1 < h < _ROW else ordered[:h]
        rows = lower.reshape(-1, twiddles.size)
        rows *= twiddles
        np.add(upper, lower, out=target[0::2])
        np.subtract(upper, lower, out=target[1::2])
        source, target, h = target, source, h * 2
    np.take(scratch, gather, out=data, mode="clip")  # "raise" would buffer the output


def _load_blocks(samples: np.ndarray, data: np.ndarray, nb: int) -> None:
    """data's m points get z[j] = x[2j] + i*x[2j+1], x the float64 samples zero-extended to 2m.

    Block k gets z[rev(k) :: m/nb], rev reversing b = log2(m/nb) bits. That is the order
    the halving leaves, and one transpose (Bailey, FFTs in External or Hierarchical Memory,
    J. Supercomputing 4, 1990): data.reshape((2,)*b + (nb,)) is z.reshape((nb,) + (2,)*b).T,
    copied _LOAD samples of every block at a time, so no block reads its samples at a
    stride and no z is made. The samples end in one column of 2**b points, the zeros'
    first: it is zeroed with the columns past it, then gets the pairs left and, for an odd
    count, the last sample as a half pair.
    """
    b = (data.size // nb).bit_length() - 1
    target = data.reshape((2,) * b + (nb,))
    pairs = samples[: samples.size // 2 * 2].view(np.complex128)
    full = pairs.size >> b  # the columns the samples fill
    for start in range(0, full, _LOAD):
        stop = min(start + _LOAD, full)
        target[..., start:stop] = pairs[start << b : stop << b].reshape((-1,) + (2,) * b).T
    if full < nb:
        target[..., full:] = 0.0
        column = target[..., full].T  # its flat index is the point's in z, less full << b
        rest = pairs[full << b :]
        column.flat[: rest.size] = rest
        if samples.size % 2:
            column.flat[rest.size] = samples[-1]


def _in_halves(data: np.ndarray, scratch: np.ndarray, tables: dict) -> bool:
    """_transform of data over two threads; False, having done nothing, if none can start.

    This thread runs the DFT of data's first half and one helper the second, each in its
    row of scratch (numpy releases the GIL in its ufuncs); both meet at a barrier, then each
    runs its half of the last stage's pairs. An error on either side aborts the barrier, so
    the other stops there rather than wait, and it is raised here once the helper ends. The
    caller has built every table and both block buffers, so the helper allocates no array
    and calls only _transform, _chunked and _butterfly. numpy's floating-point error state
    and buffer size are per thread, so the helper sets the caller's, and they end with it.
    """
    halves, pairs = data.reshape(2, -1), data.reshape(2, 2, -1)
    twiddles = tables["roots"].reshape(2, -1)  # the last stage's
    barrier, errors, state = threading.Barrier(2), [], np.geterr()

    def run(side: int) -> None:
        try:
            _transform(halves[side], halves[side], scratch[side], **tables)
            barrier.wait()
            _chunked(pairs[0, side], pairs[1, side], twiddles[side], scratch[side])
        except threading.BrokenBarrierError:  # the other side failed, and reports it
            pass
        except BaseException as error:  # raised below, not lost to excepthook
            barrier.abort()
            errors.append(error)

    def helper() -> None:
        np.seterr(**state)
        np.setbufsize(_ROW)
        run(1)

    thread = threading.Thread(target=helper)
    try:
        thread.start()
    except RuntimeError:  # "can't start new thread"
        return False
    try:
        run(0)
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return True


_GATHERS = {}  # nb -> _bit_reversal(nb), writeable (see _fft_array) and never handed out


def _block_buffers(n: int) -> int:
    """The points of block buffers an n-point _fft_array runs in: a block, or one per thread."""
    nb = min(n, _BLOCK)
    return 2 * nb if n > max(nb, 2) and _CPUS >= 2 else nb  # _BLOCK = 1: a 2-point last stage


def _fft_array(
    values: np.ndarray, out: np.ndarray | None = None, *, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Radix-2 decimation-in-time FFT of a contiguous complex128 power-of-two array.

    Without scratch, the caller gives values up, and its head is the block
    buffers: the blocks' load, or a single block's first copy, reads
    values in full before any buffer is written. The transform is written
    to out and returned: out belongs to the caller, a contiguous
    complex128 array of the same size that does not overlap values;
    without it, to a new array. With scratch, values is already in block
    order (see _load_blocks) and is transformed in place, and the block
    buffers are the head of scratch, which the caller lends: at least
    _block_buffers(n) points that overlap nothing else here. A warm call
    allocates only a few small objects beyond out.

    Every butterfly is the one fixed sequence t = w*lower, upper + t,
    upper - t, with the same twiddle bits whatever the layout, so the
    output bits do not depend on how the stages are scheduled.

    A block runs in Pease's constant geometry: each stage pairs the two
    contiguous halves of its source and writes sums and differences to
    the even and odd slots of its target, so every operand is 1-d
    contiguous or strided. The twiddles of the stage of width 2h are the
    first h entries of one table R of roots in bit-reversed order,
    multiplied row by row into the lower half seen as rows of h, so no
    twiddle reaches numpy's complex multiply with stride 0 on the inner
    axis (as a 0-d scalar, or one per column), which takes another inner
    loop with other bits. The one exception is the stage of width 2: it
    still multiplies by w = 1, which keeps the signs of zeros, and that
    product is exact in either loop. For 1 < h < _ROW the rows are _ROW
    entries long instead (or the whole lower half, if shorter), times a
    tile that holds R[:h] repeated: the same products, and the transform
    runs with numpy's buffer size set to _ROW and restored after, so no
    stage makes numpy's loops copy through a buffer. A block ends in
    bit-reversed order and is gathered into place.

    The tiles are kept like R (see _tiles), and the gather index once per
    block size in _GATHERS. The index stays writeable, as np.take copies
    a read-only index on every call, so this module owns it and never
    hands it out. A stage wider than a block reads every (n/2h)-th entry
    of the kept roots e^(-2*pi*i*m/n), m < n/2 (see _twiddles).
    """
    n = values.size
    nb = min(n, _BLOCK)
    if scratch is None:
        data, scratch = np.empty(n, dtype=np.complex128) if out is None else out, values
    else:
        data = values
    scratch = scratch[: _block_buffers(n)]
    gather = _GATHERS.get(nb)
    if gather is None:
        gather = _GATHERS[nb] = _bit_reversal(nb)
    ordered, tiles = _kept(_ordered_roots, nb)[1][: nb // 2], _kept(_tiles, _ROW)[1]
    roots = _twiddles(_roots, n) if n > nb else None
    tables = {"gather": gather, "tiles": tiles, "ordered": ordered, "roots": roots}
    bufsize = np.setbufsize(_ROW)
    try:
        if n > nb and values is not data:
            _load_blocks(values.view(np.float64), data, nb)
            values = data
        if not (scratch.size > nb and _in_halves(data, scratch.reshape(2, nb), tables)):
            _transform(values, data, scratch[:nb], **tables)
    finally:
        np.setbufsize(bufsize)
    return data


def _roots(n: int) -> np.ndarray:
    """e^(-2*pi*i*m/n) for m < n/2, the butterfly roots of an n-point transform."""
    return np.exp(-2j * np.pi * np.arange(n // 2) / n)


def _ordered_roots(n: int) -> np.ndarray:
    """_roots(n) in bit-reversed order; the first h entries are the twiddles of width 2h."""
    return _roots(n)[_bit_reversal(n // 2)]


def _tiles(width: int) -> np.ndarray:
    """Row j: the first h = 2**(j+1) entries of _ordered_roots, repeated to width, for h < width."""
    ordered = _ordered_roots(width)
    rows = [np.tile(ordered[: 1 << k], width >> k) for k in range(1, width.bit_length() - 1)]
    return np.stack(rows)


def _split_twiddles(n: int) -> np.ndarray:
    """-0.5j * w^k, w = e^(-2*pi*i/n), for k = 0 (never read) .. n/4, from one cosine table.

    sin(2*pi*k/n) = cos(2*pi*(n/4 - k)/n), so the sines are the cosines
    read backwards. Folding in the odd half's factor 1/2i = -0.5j is exact.
    """
    cosines = np.cos(2.0 * np.pi / n * np.arange(n // 4 + 1)) * -0.5
    twiddles = np.empty(n // 4 + 1, dtype=np.complex128)
    twiddles.real = cosines[::-1]
    twiddles.imag = cosines
    return twiddles


_TABLES = {}  # builder -> (N, read-only builder(N)) for the largest N asked of it so far


def _kept(build, n: int) -> tuple[int, np.ndarray]:
    """(N, build(N)), read-only, for the largest N >= n asked of build so far."""
    largest, table = _TABLES.get(build, (0, None))  # one read, so a racing store cannot split it
    if largest < n:
        largest, table = n, build(n)
        table.flags.writeable = False
        _TABLES[build] = (n, table)
    return largest, table


def _twiddles(build, n: int) -> np.ndarray:
    """build(n), read-only: every (N/n)-th entry of the kept build(N).

    Those entries' angles differ from n's own by powers of two, so the bits equal a fresh table's.
    """
    largest, table = _kept(build, n)
    return table[:: largest // n]


def _rfft_array(samples: np.ndarray, n: int, bins: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Bins 0 .. n/2 of real samples zero-extended to n, a power of two, into bins[: n/2 + 1].

    samples is only read. bins and scratch belong to the caller: bins
    holds at least n/2 + 1 points, and scratch, which lends the n/2-point
    FFT its block buffers and the split its span temporaries, at least
    _block_buffers(n/2); scratch may hold bin n/2, but no other of those
    bins. Returns bins[: n/2 + 1].

    The samples are packed straight into the blocks' order in bins[: n/2]
    (see _load_blocks), where Z is transformed in place and split in
    place: each span of k = 1 .. n/4 reads Z[k] and Z[m - k] into the
    scratch before it writes X[k] and X[m - k] over them, and writes
    bins m - k for k < n/4 only, as k = n/4 is its own partner, X[k].
    Bins 0 and n/2 are real sums of Z[0], which no span reads; they come
    last, bin n/2 first, after the FFT's and the spans' use of scratch.
    An overflow is left to the caller to refuse, unwarned.
    """
    if n == 1:
        bins[0] = samples[0]
        return bins[:1]
    m = n // 2
    packed = bins[:m]
    _load_blocks(np.ascontiguousarray(samples), packed, min(m, _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        _fft_array(packed, scratch=scratch)
        for span, partners, mirrors in _spans(n):
            ahead = packed[span]  # Z[k]
            size = ahead.size  # at most _BLOCK / 2 and n/4, so both temporaries fit in scratch
            behind = np.conjugate(packed[partners][::-1], out=scratch[:size])  # conj(Z[m - k])
            odd = np.subtract(ahead, behind, out=scratch[size : 2 * size])
            even = np.add(ahead, behind, out=ahead)
            even *= 0.5
            odd *= _twiddles(_split_twiddles, n)[span]  # w^k * O[k]
            mirror = np.subtract(even[:mirrors], odd[:mirrors], out=bins[partners][::-1][:mirrors])
            np.conjugate(mirror, out=mirror)
            even += odd
        bins[m] = bins[0].real - bins[0].imag
        bins[0] = bins[0].real + bins[0].imag  # over Z[0]
    return bins[: m + 1]


def _spans(n: int) -> Iterator[tuple[slice, slice, int]]:
    """The real split's k = 1 .. n/4 in spans of _BLOCK/2 bins: (k, m - k, mirrors).

    k slices the span's bins and m - k, m = n/2, their partners, read
    reversed; mirrors counts the span's k < n/4, as k = n/4 is its own
    partner. n/4 is a power of two, so every span has _BLOCK/2 bins unless
    it is the only one: a one-bin product would take numpy's stride-0
    complex multiply, whose bits differ.
    """
    m, h = n // 2, n // 4
    step = _BLOCK // 2
    for a in range(1, h + 1, step):
        b = min(a + step, h + 1)
        yield slice(a, b), slice(m - b + 1, m - a + 1), min(b, h) - a


def _ifft_array(bins: np.ndarray) -> np.ndarray:
    """Real samples of an n-point signal from bins 0 .. n/2 of the n bins its caller gives up.

    The split identities run backwards: for k <= n/4, E[k] and O[k] come
    from X[k] and conj(X[m-k]), Z[k] = E[k] + i*O[k] and Z[m-k] =
    conj(E[k] - i*O[k]), over the spans of _rfft_array. One n/2-point
    inverse of Z, taken as conj(fft(conj(Z))) with its 1/m and the
    split's 1/2 applied beforehand as one exact 1/n, gives the even
    samples as its real part and the odd ones as its imaginary part, so
    the interleaved output is a float view of it. The
    imaginary parts of bins 0 and n/2 are ignored, and the result is
    real by construction.

    conj(Z) / m is merged in place over bins 0 .. n/2 - 1. Bin n/2 is
    read first, so the upper half is free: each span's conj(X[m - k])
    and odd part go there, before its even part overwrites X[k]. The
    inner FFT takes the merged half as its input and block buffers and
    runs into the upper half. The result is a float64 view of it.
    """
    n = bins.size
    if n == 1:
        return bins.real.copy()
    m = n // 2
    first, last = bins[0].real, bins[m].real
    packed, free = bins[:m], bins[m:]  # conj(Z) / m, merged in place; the span temporaries
    packed[0] = complex((first + last) / n, (last - first) / n)
    for span, partners, mirrors in _spans(n):
        ahead = packed[span]  # X[k]
        size = ahead.size  # at most n/4, so both temporaries fit in the free half
        behind = np.conjugate(packed[partners][::-1], out=free[:size])  # conj(X[m - k])
        odd = np.subtract(ahead, behind, out=free[size : 2 * size])
        even = np.add(ahead, behind, out=ahead)
        even /= n
        odd *= np.conj(_twiddles(_split_twiddles, n)[span]) * (2.0 / n)  # i * O[k]
        np.subtract(even[:mirrors], odd[:mirrors], out=packed[partners][::-1][:mirrors])
        even += odd
        np.conjugate(even, out=even)
    time = _fft_array(packed, free)
    np.negative(time.imag, out=time.imag)
    return time.view(np.float64)


def _fast_length(n: int, what: str, pad: bool = False) -> int:
    """The fast paths' length for n samples or bins: n, or with pad the next power of two.

    Without pad, n must be a power of two. Either way n may not pass
    FFT_LIMIT, the one limit check, made before anything is padded.
    """
    if not pad and (n < 1 or n & (n - 1)):
        below = 1 << max(n.bit_length() - 1, 0)
        raise DspError(
            f"length {n} is not a power of two (nearest are {below} and {below * 2}); "
            "zero-pad or use the naive transform"
        )
    if n > FFT_LIMIT:  # FFT_LIMIT is a power of two, so a shorter signal never pads past it
        raise DspError(f"{what} length {n} exceeds the fast-path limit {FFT_LIMIT}")
    return next_pow2(n)


def fft(signal: Signal, *, pad: bool = False) -> Spectrum:
    """Fast forward transform. Same contract as dft_naive, power-of-two lengths only.

    With pad=True the signal is first zero-extended to the next power of
    two, as by pad_to_pow2 and under its limit and message, but inside
    the spectrum's own array, so no padded copy is made. The signal is
    real, so bins 0 .. n/2 come from one n/2-point FFT of packed sample
    pairs in the lower half, with the upper half lent as its block
    buffers (see _rfft_array), and the upper half is then filled with
    their exact conjugates: the spectrum is Hermitian bit for bit.
    """
    n = _fast_length(len(signal), "signal", pad)
    bins = np.empty(n, dtype=np.complex128)
    _rfft_array(signal.samples, n, bins, bins[n // 2 :])
    np.conjugate(bins[1 : n // 2][::-1], out=bins[n // 2 + 1 :])
    return Spectrum(bins=bins, sample_rate=signal.sample_rate)  # refuses an overflow


def ifft(spectrum: Spectrum) -> Signal:
    """Fast inverse transform. Same contract as idft_naive, power-of-two lengths only.

    Any complex spectrum is accepted, so this takes the full n-point
    inverse, conj(fft(conj(X))) / n, and rejects a result that is not real.
    """
    _fast_length(len(spectrum), "spectrum")
    return _inverse(spectrum, _fft_array)
