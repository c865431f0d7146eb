"""Frequency-domain equalization.

A gain profile is a list of non-overlapping frequency bands, each with a
flat gain. Applying it diagonalizes to: transform, scale each bin by the
gain of the band containing its frequency, transform back. Only bins up
to n/2 are scaled and inverted; the mirrored bins of a real signal are
implied, so the output stays real.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .transform import DspError, Signal, _as_positive_int, _ifft_array, fft

__all__ = [
    "Band",
    "GainProfile",
    "GainVector",
    "PRESET_NAMES",
    "build_gain_vector",
    "equalize",
    "preset",
    "parse_profile",
    "load_profile",
]


@dataclass(frozen=True)
class Band:
    """Half-open frequency interval [low_hz, high_hz) with a flat gain."""

    low_hz: float
    high_hz: float
    gain: float


@dataclass(frozen=True, eq=False)
class GainProfile:
    """Ordered, non-overlapping bands; frequencies outside all bands pass through."""

    bands: tuple[Band, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", tuple(self.bands))
        previous_high = 0.0
        for band in self.bands:
            if not (band.low_hz >= 0.0 and band.high_hz > band.low_hz):
                raise DspError(
                    f"band [{band.low_hz}, {band.high_hz}) is not a valid interval"
                )
            if not (math.isfinite(band.gain) and band.gain >= 0.0):
                raise DspError(f"band gain must be finite and >= 0, got {band.gain}")
            if band.low_hz < previous_high:
                raise DspError(
                    f"band starting at {band.low_hz} Hz overlaps or precedes the "
                    "previous band; bands must be sorted and disjoint"
                )
            previous_high = band.high_hz

    def gain_at(self, frequency_hz: float) -> float:
        """Gain applied at a frequency: band gain inside a band, 1.0 outside."""
        for band in self.bands:
            if band.low_hz <= frequency_hz < band.high_hz:
                return band.gain
        return 1.0


@dataclass(frozen=True, eq=False)
class GainVector:
    """Per-bin gains for a transform of length n, mirror-symmetric in k and n-k."""

    values: np.ndarray
    sample_rate: int


def build_gain_vector(profile: GainProfile, n: int, sample_rate: int) -> GainVector:
    """Evaluate a profile on the bin grid of an n-point transform.

    Bins 0 .. n//2 take the gain of the band containing k * rate / n;
    bins above n//2 copy their mirror partner so that a real signal
    stays real after the round trip.
    """
    if n < 1:
        raise DspError(f"transform length must be >= 1, got {n}")
    sample_rate = _as_positive_int(sample_rate, "sample rate")
    half = _half_gains(profile, n, sample_rate)
    mirrored = half[1 : (n - 1) // 2 + 1][::-1]  # empty for n = 1 and 2
    return GainVector(values=np.concatenate((half, mirrored)), sample_rate=sample_rate)


def _half_gains(profile: GainProfile, n: int, sample_rate: int) -> np.ndarray:
    """build_gain_vector's bins 0 .. n//2, for n >= 1 and a checked sample rate."""
    half = n // 2 + 1
    gains = np.ones(half, dtype=np.float64)
    at = lambda k: k * sample_rate / n  # noqa: E731
    for band in profile.bands:  # at(k) ascends in k, so a band is one slice
        low = bisect.bisect_left(range(half), band.low_hz, key=at)
        high = bisect.bisect_left(range(half), band.high_hz, key=at)
        gains[low:high] = band.gain
    return gains


def equalize(signal: Signal, profile: GainProfile) -> Signal:
    """Apply a gain profile to a signal in the frequency domain.

    The signal is zero-padded to a power of two, transformed, and bins
    0 .. n/2 are scaled by their gains; the real inverse of that half
    spectrum is truncated back to the original length and clamped to
    [-1, 1]. The upper bins mirror the lower ones for a real signal, so
    the output is real by construction. fft pads inside the spectrum,
    and the inverse runs inside it too, so from fft to the clamp this
    holds the input, one n-bin array and at most n/2 + 1 gains.
    """
    bins = fft(signal, pad=True).bins
    half = bins[: bins.size // 2 + 1]
    # an overflow is not warned of: the clamp takes an infinity to -1 or 1, Signal refuses a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        half *= _half_gains(profile, bins.size, signal.sample_rate)
        samples = np.clip(_ifft_array(bins)[: len(signal)], -1.0, 1.0)
    return Signal(samples, signal.sample_rate)


# Five bands covering lows through presence; the top band is open-ended.
_BAND_EDGES = (0.0, 160.0, 500.0, 800.0, 8000.0, math.inf)
_TREBLE_GAINS = (0.1, 0.25, 0.5, 1.0, 1.0)
# preset name: gains of the bands from _BAND_EDGES, lowest first
_PRESETS = {"identity": (), "treble": _TREBLE_GAINS, "bass-boost": _TREBLE_GAINS[::-1]}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> GainProfile:
    """A named built-in profile.

    identity passes everything through, treble steps the low bands down
    (0.1, 0.25, 0.5, 1, 1 from lowest to highest), bass-boost applies
    the same ladder with the band order reversed.
    """
    if name not in PRESET_NAMES:
        raise DspError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    bands = tuple(
        Band(low_hz=low, high_hz=high, gain=gain)
        for low, high, gain in zip(_BAND_EDGES, _BAND_EDGES[1:], _PRESETS[name])
    )
    return GainProfile(bands=bands, name=name)


def parse_profile(text: str, name: str | None = None) -> GainProfile:
    """Parse a profile from lines of low_hz,high_hz,gain.

    Blank lines are skipped and # starts a comment anywhere on a line.
    """
    bands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise DspError(
                f"profile line {lineno}: expected low_hz,high_hz,gain, got {raw!r}"
            )
        try:
            low, high, gain = (float(part) for part in parts)
        except ValueError:
            raise DspError(
                f"profile line {lineno}: could not parse numbers from {raw!r}"
            ) from None
        bands.append(Band(low_hz=low, high_hz=high, gain=gain))
    bands.sort(key=lambda band: band.low_hz)
    return GainProfile(bands=tuple(bands), name=name)


def load_profile(path) -> GainProfile:
    """Read a profile file (see parse_profile for the line format)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DspError(
                f"profile {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    return parse_profile(text, name=str(path))
