"""Spectrum inspection: magnitudes, peak picking, and pitch naming.

Only the first half of the spectrum is physically meaningful for real
input, so everything here works on bins 0 through n/2 inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import DspError, Signal, Spectrum, fft

__all__ = [
    "A4_HZ",
    "NOTE_NAMES",
    "MagnitudeSpectrum",
    "Peak",
    "NoteMatch",
    "magnitude_spectrum",
    "find_peaks",
    "identify_note",
    "analyze",
    "write_spectrum_csv",
]

A4_HZ = 440.0

# Twelve-tone equal temperament, ascending from C.
NOTE_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

# Rows formatted per write by _write_rows; a larger chunk holds more in memory.
_ROWS_PER_WRITE = 512


@dataclass(frozen=True, eq=False)
class MagnitudeSpectrum:
    """Bin magnitudes over the non-negative frequencies of a transform.

    frequencies[k] = k * (sample_rate / source_n) for k = 0 .. source_n // 2,
    which can differ in the last bit from k * sample_rate / source_n.
    source_n is the full transform length the half-spectrum came from.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    source_n: int
    sample_rate: int

    def __len__(self) -> int:
        return int(self.magnitudes.size)

    @property
    def bin_width_hz(self) -> float:
        return self.sample_rate / self.source_n


@dataclass(frozen=True)
class Peak:
    """A local maximum of the magnitude spectrum."""

    bin_index: int
    frequency_hz: float
    magnitude: float


@dataclass(frozen=True)
class NoteMatch:
    """Nearest equal-temperament pitch to a frequency."""

    note_name: str
    reference_hz: float
    deviation_cents: float


def magnitude_spectrum(spectrum: Spectrum) -> MagnitudeSpectrum:
    """Magnitudes of bins 0 .. n//2 with their physical frequencies."""
    return _with_frequencies(_magnitudes(spectrum), len(spectrum), spectrum.sample_rate)


def _magnitudes(spectrum: Spectrum) -> np.ndarray:
    """|bins 0 .. n//2| of a spectrum, in a new array."""
    return np.abs(spectrum.bins[: len(spectrum) // 2 + 1])


def _with_frequencies(magnitudes: np.ndarray, n: int, sample_rate: int) -> MagnitudeSpectrum:
    """The half-spectrum of an n-point transform, its frequencies built in place."""
    frequencies = np.arange(magnitudes.size, dtype=np.float64)
    frequencies *= sample_rate / n
    return MagnitudeSpectrum(frequencies, magnitudes, n, sample_rate)


def find_peaks(
    mag: MagnitudeSpectrum,
    relative_threshold: float = 0.5,
    min_separation_hz: float = 20.0,
) -> list[Peak]:
    """Strict local maxima above a fraction of the global maximum.

    Candidates closer than min_separation_hz to an already-kept larger
    peak are dropped (ties keep the lower bin). The result is sorted by
    ascending frequency and is deterministic for a given input. This is
    the contract; _peak_columns is its column form.
    """
    return list(map(Peak, *_peak_columns(mag, relative_threshold, min_separation_hz)))


def _peak_columns(
    mag: MagnitudeSpectrum, relative_threshold: float, min_separation_hz: float
) -> tuple[list[int], list[float], list[float]]:
    """find_peaks as columns: the kept bins, frequencies and magnitudes.

    Rounded frequency gaps grow with the distance in bins, so only candidates
    with an adjacent one too close can drop or be dropped. Taken by falling
    magnitude, each one still free is kept and clears the run too close to it
    on each side. At most one kept peak per side reaches a candidate: linear.
    """
    if not 0.0 < relative_threshold <= 1.0:
        raise DspError(f"relative threshold must be in (0, 1], got {relative_threshold}")
    if not min_separation_hz >= 0.0:
        raise DspError(f"minimum separation must be >= 0, got {min_separation_hz}")
    values = mag.magnitudes
    ceiling = float(values.max(initial=0.0))
    if ceiling <= 0.0:
        return [], [], []
    floor = relative_threshold * ceiling

    # Edge bins have no neighbour on their open side and count as maxima there.
    is_candidate = ~(values < floor)
    is_candidate[1:] &= values[1:] > values[:-1]
    is_candidate[:-1] &= values[:-1] > values[1:]
    index = np.flatnonzero(is_candidate)
    freqs = mag.frequencies[index]

    apart = np.abs(freqs[1:] - freqs[:-1]) >= min_separation_hz
    keep = np.ones(index.size, dtype=bool)
    keep[1:] &= apart
    keep[:-1] &= apart
    crowded = np.nonzero(~keep)[0]
    near = freqs[crowded].tolist()
    free = [True] * len(near)
    for i in np.lexsort((crowded, -values[index[crowded]])).tolist():
        if free[i]:
            for step in (-1, 1):
                j = i + step
                while 0 <= j < len(near) and abs(near[j] - near[i]) < min_separation_hz:
                    free[j] = False
                    j += step
    keep[crowded] = free
    kept = index[keep]
    return kept.tolist(), freqs[keep].tolist(), values[kept].tolist()


def identify_note(frequency_hz: float) -> NoteMatch:
    """Snap a frequency to the nearest equal-temperament note.

    |deviation_cents| passes 50 only by rounding, at the midpoint of two
    notes. Raises DspError when the reference pitch is not a positive
    normal float, as at the ends of the float range. This is the
    contract; _note_fields is its column form.
    """
    if not math.isfinite(frequency_hz) or frequency_hz <= 0.0:
        raise DspError(f"frequency must be positive and finite, got {frequency_hz}")
    return NoteMatch(*_note_fields([frequency_hz])[0])


def _note_fields(freqs: list[float]) -> list[tuple[str, float, float] | None]:
    """identify_note's column form: (name, reference_hz, cents) per frequency.

    None at exactly 0 Hz, the DC bin. Frequencies must be finite and >= 0, as
    _peak_columns yields them. Each semitone's name and reference are made once per call.
    """
    notes: dict[int, tuple[str, float]] = {}
    fields: list[tuple[str, float, float] | None] = []
    for f in freqs:
        if f == 0.0:
            fields.append(None)
            continue
        # A ratio that underflows to 0 stands in as the smallest subnormal, rejected below.
        semitones = round(12.0 * math.log2(f / A4_HZ or 5e-324))
        note = notes.get(semitones)
        if note is None:
            midi = 69 + semitones
            reference = A4_HZ * 2.0 ** (semitones / 12.0)
            if not 2.2250738585072014e-308 <= reference <= 1.7976931348623157e308:
                raise DspError(f"frequency {f} Hz has no normal reference pitch")
            note = notes[semitones] = f"{NOTE_NAMES[midi % 12]}{midi // 12 - 1}", reference
        fields.append((note[0], note[1], 1200.0 * math.log2(f / note[1])))
    return fields


def _analyze(
    signal: Signal, relative_threshold: float, min_separation_hz: float, pad: bool
) -> tuple[MagnitudeSpectrum, list[int], list[float], list[float], list]:
    """The analyze pipeline: the spectrum, then the peaks' columns and note fields.

    The n-bin spectrum goes once its magnitudes are taken, before the frequencies are made.
    """
    spectrum = fft(signal, pad=pad)
    n, magnitudes = len(spectrum), _magnitudes(spectrum)
    del spectrum
    mag = _with_frequencies(magnitudes, n, signal.sample_rate)
    bins, freqs, mags = _peak_columns(mag, relative_threshold, min_separation_hz)
    return mag, bins, freqs, mags, _note_fields(freqs)


def analyze(
    signal: Signal,
    relative_threshold: float = 0.5,
    min_separation_hz: float = 20.0,
    *,
    pad: bool = True,
) -> list[tuple[Peak, NoteMatch | None]]:
    """Full pipeline: transform, pick peaks, and name their pitches.

    With pad=True the signal is zero-extended to a power of two first;
    with pad=False the length must already be a power of two.
    """
    _, bins, freqs, mags, notes = _analyze(signal, relative_threshold, min_separation_hz, pad)
    matches = [NoteMatch(*note) if note else None for note in notes]
    return list(zip(map(Peak, bins, freqs, mags), matches))


def write_spectrum_csv(mag: MagnitudeSpectrum, path) -> None:
    """Dump a half-spectrum as CSV rows of bin, frequency_hz, magnitude.

    The file is the header line then one row per bin, every line ending
    in CRLF and both float fields written as %.8g.
    """
    with open(path, "w", newline="") as handle:
        handle.write("bin,frequency_hz,magnitude\r\n")
        _write_rows(
            handle, "%d,%.8g,%.8g\r\n", range(len(mag)), mag.frequencies, mag.magnitudes
        )


def _write_rows(handle, line: str, *columns) -> None:
    """Write `line % row` for each row of equally long arrays, lists or ranges.

    Rows are formatted and written _ROWS_PER_WRITE at a time, so the memory used beyond
    the columns themselves is bounded by the chunk size, not by their length.
    """
    size = len(columns[0])
    for start in range(0, size, _ROWS_PER_WRITE):
        stop = min(start + _ROWS_PER_WRITE, size)
        fields = [0] * (len(columns) * (stop - start))
        for offset, column in enumerate(columns):
            fields[offset :: len(columns)] = column[start:stop]
        handle.write((line * (stop - start)) % tuple(fields))
