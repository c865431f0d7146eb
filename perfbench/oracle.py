"""Output checks against an independent numpy.fft reference.

Nothing here imports dftkit: the reference reads WAV files with its own
parser and computes every spectrum with numpy.fft. Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from workloads import NOTE_NAMES, next_pow2

# PCM-16 output may differ from the reference by one quantization step
# (a rounding tie can go either way); float-32 by one float-32 ulp at 1.
PCM_STEP_TOL = 1
FLOAT_TOL = 2.0 ** -23


def read_wav(path) -> tuple[np.ndarray, int, int, int]:
    """Decode a WAV to (mono float64 samples, rate, bits, stored channels)."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt = data = None
    offset = 12
    while offset + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, offset)
        body = blob[offset + 8 : offset + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif cid == b"data":
            data = body
        offset += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    if (code, bits) == (1, 16):
        raw = np.frombuffer(data, "<i2").astype(np.float64) / 32768.0
    elif (code, bits) == (3, 32):
        raw = np.clip(np.frombuffer(data, "<f4").astype(np.float64), -1.0, 1.0)
    else:
        raise ValueError(f"unexpected format {code}/{bits}")
    frames = raw.size // channels
    stereo = raw[: frames * channels].reshape(frames, channels)
    return stereo.mean(axis=1), rate, bits, channels


def reference_spectrum(samples: np.ndarray) -> np.ndarray:
    """numpy.fft of the input zero-padded to the next power of two."""
    padded = np.zeros(next_pow2(samples.size))
    padded[: samples.size] = samples
    return np.fft.fft(padded)


def _note(freq: float) -> tuple[str, float]:
    semitones = round(12.0 * math.log2(freq / 440.0))
    midi = 69 + semitones
    cents = 1200.0 * math.log2(freq / (440.0 * 2.0 ** (semitones / 12.0)))
    return f"{NOTE_NAMES[midi % 12]}{midi // 12 - 1}", cents


def check_analyze(check: dict, stdout: str) -> list[str]:
    """Peaks must be strict local maxima above the threshold, the separation
    apart, with the reference magnitude; every larger candidate left out
    must sit within the separation of a reported peak at least as large."""
    x, rate, _, _ = read_wav(check["input"])
    spectrum = reference_spectrum(x)
    n = spectrum.size
    mags = np.abs(spectrum[: n // 2 + 1])
    width = rate / n
    lines = stdout.splitlines()
    expected_head = f"{check['input']}: {rate} Hz, {x.size} frames, transform length {n}, "
    if not lines or not lines[0].startswith(expected_head):
        return [f"unexpected header {lines[:1]!r}"]
    rows = [line.split() for line in lines[2:]] if len(lines) > 1 and lines[1].split()[:1] == ["frequency_hz"] else []
    if not rows and lines[1:] != ["no peaks above threshold"]:
        return [f"unparseable peak table {lines[1:3]!r}"]

    problems = []
    ceiling = float(mags.max())
    tol = 6e-5 + 1e-10 * ceiling  # four printed decimals plus transform rounding
    floor = check["threshold"] * ceiling
    bins, freqs, kept_mags = [], [], []
    for row in rows:
        freq, mag = float(row[0]), float(row[1])
        k = int(round(freq / width))
        if not (0 <= k < mags.size) or abs(freq - k * width) > 1e-4:
            problems.append(f"peak at {freq} Hz is not on the bin grid")
            continue
        if abs(mag - mags[k]) > tol:
            problems.append(f"bin {k}: magnitude {mag} != reference {mags[k]:.6f}")
        if mags[k] < floor - tol:
            problems.append(f"bin {k}: below the threshold")
        if (k > 0 and mags[k] <= mags[k - 1] - tol) or (k < mags.size - 1 and mags[k] <= mags[k + 1] - tol):
            problems.append(f"bin {k}: not a local maximum")
        if k > 0:
            name, cents = _note(k * width)
            if abs(cents) < 49.9 and (row[2] != name or abs(float(row[3]) - cents) > 0.006):
                problems.append(f"bin {k}: note {row[2]} {row[3]} != {name} {cents:+.2f}")
        bins.append(k)
        freqs.append(freq)
        kept_mags.append(mag)
    gaps = np.diff(freqs)
    if np.any(gaps < check["sep"] - 1e-3):
        problems.append(f"peaks closer than {check['sep']} Hz")

    # Candidates clear of every rounding margin that were not reported.
    inner = mags[1:-1]
    clear = np.zeros(mags.size, dtype=bool)
    clear[1:-1] = (inner > mags[:-2] + tol) & (inner > mags[2:] + tol) & (inner > floor + tol)
    freqs_arr, mags_arr, reported = np.asarray(freqs), np.asarray(kept_mags), set(bins)
    for k in np.flatnonzero(clear):
        if k in reported:
            continue
        lo = np.searchsorted(freqs_arr, k * width - check["sep"], side="right")
        hi = np.searchsorted(freqs_arr, k * width + check["sep"], side="left")
        if not np.any(mags_arr[lo:hi] >= mags[k] - tol):
            problems.append(f"bin {k}: candidate dropped without a larger neighbour")
            break

    names = {row[2] for row in rows}
    missing = [note for note in check.get("notes", []) if note not in names]
    if missing:
        problems.append(f"fundamentals not reported: {missing}")
    if "csv" in check:
        problems += _check_csv(check["csv"], mags, width)
    return problems


def _check_csv(path, mags: np.ndarray, width: float) -> list[str]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[:1] != [["bin", "frequency_hz", "magnitude"]] or len(rows) != mags.size + 1:
        return [f"csv has {len(rows) - 1} rows, expected {mags.size}"]
    table = np.array(rows[1:], dtype=np.float64)
    k = np.arange(mags.size)
    # Eight significant digits, plus transform rounding on the magnitudes.
    if np.any(table[:, 0] != k) or np.any(np.abs(table[:, 1] - k * width) > 6e-8 * k * width):
        return ["csv bin or frequency column is wrong"]
    if np.any(np.abs(table[:, 2] - mags) > 6e-8 * mags + 1e-10 * mags.max()):
        return ["csv magnitudes differ from the reference"]
    return []


def reference_gains(bands, n: int, rate: int) -> np.ndarray:
    """Per-bin gains: a band's gain inside [low, high), 1 elsewhere, mirrored."""
    freqs = np.arange(n // 2 + 1) * (rate / n)
    half = np.ones(freqs.size)
    for low, high, gain in bands:
        half[(freqs >= low) & (freqs < high)] = gain
    return np.concatenate([half, half[1 : (n + 1) // 2][::-1]])


def _compare_wav(path, expected: np.ndarray, rate: int, bits: int) -> list[str]:
    got, got_rate, got_bits, channels = read_wav(path)
    if (got_rate, got_bits, channels, got.size) != (rate, bits, 1, expected.size):
        return [f"output layout {got_rate} Hz {got_bits}-bit x{channels} {got.size} frames"]
    if bits == 16:
        step = np.abs(np.round(got * 32768.0) - np.clip(np.round(expected * 32768.0), -32768, 32767))
        if step.max() > PCM_STEP_TOL:
            return [f"PCM output off by {int(step.max())} steps"]
    elif np.max(np.abs(got - expected)) > FLOAT_TOL:
        return [f"float output off by {np.max(np.abs(got - expected)):.3e}"]
    return []


def check_equalize(check: dict, stdout: str) -> list[str]:
    x, rate, bits, _ = read_wav(check["input"])
    spectrum = reference_spectrum(x)
    shaped = spectrum * reference_gains(check["bands"], spectrum.size, rate)
    expected = np.clip(np.fft.ifft(shaped).real[: x.size], -1.0, 1.0)
    last = stdout.splitlines()[-1:]
    if last != [f"wrote {check['output']}: {x.size} frames at {rate} Hz, {bits}-bit"]:
        return [f"unexpected summary {last!r}"]
    return _compare_wav(check["output"], expected, rate, bits)


def check_synth(check: dict, stdout: str) -> list[str]:
    rate = check["rate"]
    count = int(math.floor(check["duration"] * rate + 0.5))
    t = np.arange(count) / rate
    expected = sum(np.sin(2 * np.pi * f * t) for f in check["freqs"]) / len(check["freqs"])
    if not stdout.startswith(f"wrote {check['output']}: "):
        return [f"unexpected summary {stdout!r}"]
    return _compare_wav(check["output"], expected, rate, 16)


CHECKS = {"analyze": check_analyze, "equalize": check_equalize, "synth": check_synth}


def check_step(check: dict, stdout: str) -> list[str]:
    try:
        return CHECKS[check["kind"]](check, stdout)
    except (OSError, ValueError, IndexError, struct.error) as exc:
        return [f"unreadable output: {exc!r}"]
