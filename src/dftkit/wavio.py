"""Minimal WAV reader and writer.

Reads RIFF/WAVE files containing 16-bit PCM or 32-bit IEEE float
samples, mono or stereo, skipping any other chunks. Either format may
also be tagged WAVE_FORMAT_EXTENSIBLE with its standard sub-format
GUID. Stereo input is averaged down to mono, so the rest of the
toolkit only ever sees 1-d signals. Writing always produces a mono file.
"""

from __future__ import annotations

import struct
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
    return array.mean(axis=1)


def read_wav(path) -> tuple[Signal, WavMeta]:
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

    mono = downmix_mono(samples.reshape(frames, channels))
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

    fields = (channels, rate, byte_rate, block_align, bits_per_sample)
    if bits_per_sample == 16:
        quantized = np.clip(np.round(samples * 32768.0), -32768, 32767)
        encoding = "pcm"
        chunks = [
            (b"fmt ", struct.pack("<HHIIHH", _PCM, *fields)),
            (b"data", quantized.astype("<i2").tobytes()),
        ]
    else:
        # non-PCM fmt carries a zero-length extension and a fact chunk
        encoding = "float"
        chunks = [
            (b"fmt ", struct.pack("<HHIIHHH", _IEEE_FLOAT, *fields, 0)),
            (b"fact", struct.pack("<I", len(signal))),
            (b"data", samples.astype("<f4").tobytes()),
        ]

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
        frame_count=len(signal),
        encoding=encoding,
    )
