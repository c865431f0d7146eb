"""Minimal WAV reader and writer.

Reads RIFF/WAVE files containing 16-bit PCM or 32-bit IEEE float
samples, mono or stereo, skipping any other chunks. Either format may
also be tagged WAVE_FORMAT_EXTENSIBLE with its standard sub-format
GUID. Stereo input is averaged down to mono, so the rest of the
toolkit only ever sees 1-d signals. Writing always produces a mono file.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .transform import DspError, Signal

__all__ = [
    "WavMeta",
    "WavFormatError",
    "read_wav",
    "write_wav",
    "downmix_mono",
]

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# A WAVE_FORMAT_EXTENSIBLE sub-format GUID is the format code in two bytes, then this.
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
# format code: (bits per sample, stored dtype, WavMeta.encoding, name in messages)
_ENCODINGS = {_PCM: (16, "<i2", "pcm", "PCM"), _IEEE_FLOAT: (32, "<f4", "float", "float")}


class WavFormatError(DspError):
    """The file is not a WAV file this reader understands."""


@dataclass(frozen=True)
class WavMeta:
    """Layout of a WAV file as stored, before any downmixing."""

    channels: int
    bits_per_sample: int
    sample_rate: int
    frame_count: int
    encoding: str  # "pcm" or "float"


def downmix_mono(channels: np.ndarray) -> np.ndarray:
    """Average a (frames, channels) array across channels; 1-d passes through."""
    array = np.asarray(channels, dtype=np.float64)
    if array.size == 0:
        raise DspError("cannot downmix an empty array")
    if array.ndim == 1:
        return array.copy()
    if array.ndim != 2:
        raise DspError(f"expected a 1-d or (frames, channels) array, got shape {array.shape}")
    return _average(iter([array[:, 0].copy(), *array.T[1:]]), array.shape[1])


def _average(columns: Iterator[np.ndarray], count: int) -> np.ndarray:
    """The mean of count float64 columns, added in the order np.mean(axis=1) adds them.

    The sum is taken in place in the first column, so that one must be an
    array of its own. It starts from +0.0, so a row of -0.0 averages to +0.0.
    """
    mono = next(columns)
    mono += 0.0
    for column in columns:
        mono += column
    if count > 1:  # x / 1 is x, so one channel skips the pass
        mono /= count
    return mono


def _decoded(stored: np.ndarray, audio_format: int) -> np.ndarray:
    """One channel's stored samples as float64: PCM-16 scaled, float checked and clipped."""
    samples = stored.astype(np.float64)
    if audio_format == _PCM:
        samples /= 32768.0  # exact, and always inside [-1, 1)
        return samples
    # A float32 is below 2**128 in magnitude, so a float64 sum of the chunk's at most
    # 2**30 of them is finite unless a sample is inf or NaN; the sum allocates no mask.
    if not math.isfinite(samples.sum()):
        raise WavFormatError("float data chunk contains non-finite samples")
    return np.clip(samples, -1.0, 1.0, out=samples)


def read_wav(path) -> tuple[Signal, WavMeta]:
    """Decode a WAV file to a mono Signal plus the file's stored layout.

    PCM-16 samples are scaled by 1/32768; float samples are clipped to
    [-1, 1]. A trailing partial frame is dropped; a truncated data chunk is an error.
    """
    with open(path, "rb") as handle:
        blob = memoryview(handle.read())  # chunk bodies below are views, not copies

    if len(blob) < 12 or blob[0:4] != b"RIFF":
        raise WavFormatError("not a RIFF file (missing RIFF magic)")
    if blob[8:12] != b"WAVE":
        raise WavFormatError("RIFF file is not WAVE format")

    fmt: tuple[int, int, int] | None = None
    data: memoryview | None = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id, size = struct.unpack_from("<4sI", blob, offset)
        body = blob[offset + 8 : offset + 8 + size]
        if chunk_id == b"fmt ":
            if data is not None:
                raise WavFormatError("fmt chunk appears after data chunk")
            if len(body) < 16:
                raise WavFormatError(
                    f"fmt chunk too short ({len(body)} bytes, need at least 16)"
                )
            audio_format, channels, rate, _byte_rate, _align, bits = (
                struct.unpack_from("<HHIIHH", body, 0)
            )
            if audio_format == _EXTENSIBLE and body[26:40] == _SUBFORMAT_TAIL:
                (audio_format,) = struct.unpack_from("<H", body, 24)
            if audio_format not in _ENCODINGS:
                raise WavFormatError(
                    f"unsupported audio format code {audio_format} "
                    "(PCM=1 and IEEE float=3 are supported)"
                )
            supported, _dtype, _encoding, name = _ENCODINGS[audio_format]
            if bits != supported:
                raise WavFormatError(
                    f"unsupported {name} bit depth {bits} "
                    f"(only {supported}-bit {name} is supported)"
                )
            if channels not in (1, 2):
                raise WavFormatError(
                    f"unsupported channel count {channels} (mono and stereo are supported)"
                )
            if rate < 1:
                raise WavFormatError(f"invalid sample rate {rate}")
            fmt = (audio_format, channels, rate)
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

    audio_format, channels, rate = fmt
    bits, dtype, encoding, _name = _ENCODINGS[audio_format]
    frames = len(data) // (bits // 8 * channels)
    if frames == 0:
        raise WavFormatError("data chunk contains no complete frames")

    stored = np.frombuffer(data, dtype, frames * channels)
    # one channel at a time, so at most two decoded channels exist at once
    columns = (_decoded(stored[c::channels], audio_format) for c in range(channels))
    with np.errstate(invalid="ignore"):  # NaN payloads and inf - inf in a sum are rejected
        mono = _average(columns, channels)
    meta = WavMeta(
        channels=channels,
        bits_per_sample=bits,
        sample_rate=rate,
        frame_count=frames,
        encoding=encoding,
    )
    return Signal(mono, rate), meta


def write_wav(signal: Signal, path, bits_per_sample: int = 16) -> WavMeta:
    """Encode a mono Signal as 16-bit PCM or 32-bit float WAV.

    Samples must already be inside [-1, 1]. PCM values are quantized as
    round(x * 32768) clipped to the 16-bit range, the mirror of the
    decode scale, so a write-read round trip moves any sample by at most
    1/32768.
    """
    for code, (bits, dtype, encoding, _name) in _ENCODINGS.items():
        if bits == bits_per_sample:
            break
    else:
        uses = " or ".join(f"{bits} for {name}" for bits, _, _, name in _ENCODINGS.values())
        raise DspError(f"unsupported bit depth {bits_per_sample} (use {uses})")
    channels = 1
    rate = signal.sample_rate
    block_align = channels * bits // 8
    byte_rate = rate * block_align
    if byte_rate > 0xFFFFFFFF:  # the header stores it as a uint32
        raise DspError(f"sample rate {rate} Hz is too high for a {bits}-bit WAV")
    samples = signal.samples
    if float(np.max(np.abs(samples))) > 1.0:
        raise DspError("samples exceed [-1, 1]; clamp or normalize before writing")

    fmt = struct.pack("<HHIIHH", code, channels, rate, byte_rate, block_align, bits)
    if code == _PCM:
        samples = samples * 32768.0
        np.clip(np.round(samples, out=samples), -32768, 32767, out=samples)
        chunks = [(b"fmt ", fmt)]
    else:
        # non-PCM fmt carries a zero-length extension and a fact chunk
        chunks = [(b"fmt ", fmt + bytes(2)), (b"fact", struct.pack("<I", len(signal)))]
    chunks.append((b"data", samples.astype(dtype).tobytes()))

    # every body here has even length, so no chunk needs a pad byte
    riff_size = 4 + sum(8 + len(body) for _, body in chunks)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        for chunk_id, body in chunks:
            handle.write(struct.pack("<4sI", chunk_id, len(body)))
            handle.write(body)

    return WavMeta(
        channels=channels,
        bits_per_sample=bits,
        sample_rate=rate,
        frame_count=len(signal),
        encoding=encoding,
    )
