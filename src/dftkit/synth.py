"""Test-tone generation."""

from __future__ import annotations

import math

import numpy as np

from .transform import DspError, Signal, _as_positive_int

__all__ = ["sine", "mix"]


def sine(
    frequency_hz: float,
    amplitude: float = 1.0,
    duration_s: float = 1.0,
    sample_rate: int = 44100,
) -> Signal:
    """A sampled sine tone: amplitude * sin(2*pi*f*t).

    The sample count is duration * rate rounded half away from zero, and
    the frequency must sit strictly below the Nyquist limit rate / 2.
    """
    if not math.isfinite(frequency_hz) or frequency_hz < 0.0:
        raise DspError(f"frequency must be finite and >= 0, got {frequency_hz}")
    sample_rate = _as_positive_int(sample_rate, "sample rate")
    if frequency_hz >= sample_rate / 2.0:
        raise DspError(
            f"frequency {frequency_hz} Hz is at or above the Nyquist limit "
            f"{sample_rate / 2.0} Hz for rate {sample_rate}"
        )
    if not math.isfinite(amplitude):
        raise DspError(f"amplitude must be finite, got {amplitude}")
    if not math.isfinite(duration_s) or duration_s <= 0.0:
        raise DspError(f"duration must be positive, got {duration_s}")
    count = int(math.floor(duration_s * sample_rate + 0.5))
    if count < 1:
        raise DspError(
            f"duration {duration_s} s yields no samples at rate {sample_rate}"
        )
    t = np.arange(count, dtype=np.float64) / sample_rate
    return Signal(amplitude * np.sin(2.0 * np.pi * frequency_hz * t), sample_rate)


def mix(signals: list[Signal], normalize: bool = False) -> Signal:
    """Sum signals sample by sample, zero-extending shorter ones.

    With normalize=True the sum is divided by the number of signals,
    which keeps unit-amplitude inputs inside [-1, 1].
    """
    if not signals:
        raise DspError("cannot mix an empty list of signals")
    rates = {signal.sample_rate for signal in signals}
    if len(rates) != 1:
        raise DspError(
            f"cannot mix signals with different sample rates: {sorted(rates)}"
        )
    length = max(len(signal) for signal in signals)
    total = np.zeros(length, dtype=np.float64)
    for signal in signals:
        total[: len(signal)] += signal.samples
    if normalize:
        total /= len(signals)
    return Signal(total, signals[0].sample_rate)
