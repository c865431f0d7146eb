"""Unit tests for WAV encoding, decoding, and malformed-file handling."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dftkit import (
    DspError,
    Signal,
    WavFormatError,
    downmix_mono,
    read_wav,
    write_wav,
)


def build_wav(chunks, magic=b"RIFF", wave=b"WAVE"):
    """Assemble a RIFF container byte-for-byte for malformed-file tests."""
    body = b""
    for chunk_id, chunk_body in chunks:
        body += struct.pack("<4sI", chunk_id, len(chunk_body)) + chunk_body
        if len(chunk_body) & 1:
            body += b"\x00"
    return struct.pack("<4sI4s", magic, 4 + len(body), wave) + body


def pcm_fmt(channels=1, rate=8000, bits=16, code=1):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)


# Bytes 2-15 of the PCM and IEEE float sub-format GUIDs; bytes 0-1 hold the code.
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def extensible_fmt(channels=1, rate=8000, bits=16, code=1, tail=GUID_TAIL):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt body whose sub-format carries code."""
    plain = pcm_fmt(channels=channels, rate=rate, bits=bits, code=0xFFFE)
    mask = 0x4 if channels == 1 else 0x3  # front centre, or front left and right
    return plain + struct.pack("<HHIH", 22, bits, mask, code) + tail


def pcm_data(values):
    return np.asarray(values, dtype="<i2").tobytes()


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_pcm_round_trip_error_is_at_most_one_step(self, tmp_path):
        rng = np.random.default_rng(2024)
        x = rng.uniform(-1.0, 1.0, 4000)
        x[:2] = [1.0, -1.0]  # include both rails
        path = tmp_path / "pcm.wav"
        write_wav(Signal(x, 44100), path, bits_per_sample=16)
        back, meta = read_wav(path)
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0
        assert meta.encoding == "pcm" and meta.bits_per_sample == 16

    def test_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(2025)
        x = rng.uniform(-1.0, 1.0, 4000)
        path = tmp_path / "float.wav"
        write_wav(Signal(x, 48000), path, bits_per_sample=32)
        back, meta = read_wav(path)
        assert np.max(np.abs(back.samples - x)) <= 1e-7
        assert meta.encoding == "float" and meta.bits_per_sample == 32

    def test_known_values_round_trip(self, tmp_path):
        x = np.array([0.0, 0.5, -0.5, 1.0])
        path = tmp_path / "known.wav"
        write_wav(Signal(x, 8000), path)
        back, _ = read_wav(path)
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0

    def test_meta_reports_layout(self, tmp_path):
        path = tmp_path / "meta.wav"
        meta = write_wav(Signal(np.zeros(123), 22050), path)
        _, read_meta = read_wav(path)
        assert read_meta == meta
        assert meta.channels == 1
        assert meta.frame_count == 123
        assert meta.sample_rate == 22050


class TestEncoding:
    def test_full_scale_positive_encodes_to_7fff(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(Signal([1.0], 8000), path)
        blob = path.read_bytes()
        assert blob[-2:] == b"\xff\x7f"

    def test_quantization_levels(self, tmp_path):
        path = tmp_path / "levels.wav"
        write_wav(Signal([0.0, 0.5, -0.5, 1.0, -1.0], 8000), path)
        blob = path.read_bytes()
        raw = np.frombuffer(blob[-10:], dtype="<i2")
        assert list(raw) == [0, 16384, -16384, 32767, -32768]

    def test_decode_divides_by_32768(self, tmp_path):
        path = tmp_path / "levels.wav"
        payload = pcm_data([-32768, -16384, 0, 16384, 32767])
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt()), (b"data", payload)]))
        signal, _ = read_wav(path)
        expected = [-1.0, -0.5, 0.0, 0.5, 32767.0 / 32768.0]
        assert np.array_equal(signal.samples, expected)

    def test_rejects_out_of_range_samples(self, tmp_path):
        with pytest.raises(DspError, match="exceed"):
            write_wav(Signal([1.5], 8000), tmp_path / "x.wav")

    def test_rejects_a_sample_below_minus_one(self, tmp_path):
        # the only sample out of range is below the lower rail
        with pytest.raises(DspError, match=r"^samples exceed \[-1, 1\]; clamp or normalize before writing$"):
            write_wav(Signal([0.5, 1.0, -1.5, -1.0], 8000), tmp_path / "x.wav")

    def test_rejects_unsupported_depth(self, tmp_path):
        with pytest.raises(DspError, match="bit depth"):
            write_wav(Signal([0.0], 8000), tmp_path / "x.wav", bits_per_sample=24)

    @pytest.mark.parametrize("bits", [16, 32])
    def test_a_float_depth_writes_the_integer_depth_file(self, tmp_path, bits):
        signal = Signal([0.5, -0.25, 0.0, 1.0], 8000)
        meta = write_wav(signal, tmp_path / "int.wav", bits_per_sample=bits)
        assert write_wav(signal, tmp_path / "float.wav", bits_per_sample=float(bits)) == meta
        assert type(meta.bits_per_sample) is int
        assert (tmp_path / "float.wav").read_bytes() == (tmp_path / "int.wav").read_bytes()

    def test_rejects_a_byte_rate_past_32_bits(self, tmp_path):
        path = tmp_path / "x.wav"
        # 2**30 Hz fits in 16-bit PCM (byte rate 2**31) but not in float-32 (2**32)
        write_wav(Signal([0.5], 2**30), path, bits_per_sample=16)
        with pytest.raises(DspError, match="too high"):
            write_wav(Signal([0.5], 2**30), path, bits_per_sample=32)
        with pytest.raises(DspError, match="too high"):
            write_wav(Signal([0.5], 2**32), path, bits_per_sample=16)


# ---------------------------------------------------------------------------
# WAVE_FORMAT_EXTENSIBLE
# ---------------------------------------------------------------------------


class TestExtensible:
    @pytest.mark.parametrize(
        "channels, bits, code, payload",
        [
            (2, 16, 1, pcm_data([16384, 0, -16384, -16384, 32767, -32768])),
            (1, 32, 3, np.array([0.5, -0.25, 1.5, -0.0], dtype="<f4").tobytes()),
        ],
        ids=["stereo-pcm16", "mono-float32"],
    )
    def test_decodes_like_the_plain_tag(self, tmp_path, channels, bits, code, payload):
        plain_path, tagged_path = tmp_path / "plain.wav", tmp_path / "tagged.wav"
        plain_fmt = pcm_fmt(channels=channels, bits=bits, code=code)
        tagged_fmt = extensible_fmt(channels=channels, bits=bits, code=code)
        plain_path.write_bytes(build_wav([(b"fmt ", plain_fmt), (b"data", payload)]))
        tagged_path.write_bytes(build_wav([(b"fmt ", tagged_fmt), (b"data", payload)]))
        plain, plain_meta = read_wav(plain_path)
        tagged, tagged_meta = read_wav(tagged_path)
        assert tagged.samples.tobytes() == plain.samples.tobytes()
        assert tagged.sample_rate == plain.sample_rate
        assert tagged_meta == plain_meta

    def test_other_guid_tail_is_unsupported(self, tmp_path):
        path = tmp_path / "guid.wav"
        tail = GUID_TAIL[:-1] + b"\x72"
        path.write_bytes(
            build_wav([(b"fmt ", extensible_fmt(tail=tail)), (b"data", pcm_data([1]))])
        )
        with pytest.raises(WavFormatError, match="unsupported audio format code 65534 "):
            read_wav(path)

    def test_unsupported_sub_format_code(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(
            build_wav([(b"fmt ", extensible_fmt(code=6)), (b"data", pcm_data([1]))])
        )
        with pytest.raises(WavFormatError, match="unsupported audio format code 6 "):
            read_wav(path)

    @pytest.mark.parametrize("size", [16, 18, 24, 25, 26, 39])
    def test_short_extensible_fmt_is_unsupported(self, tmp_path, size):
        path = tmp_path / "short.wav"
        body = extensible_fmt()[:size]
        path.write_bytes(build_wav([(b"fmt ", body), (b"data", pcm_data([1]))]))
        with pytest.raises(WavFormatError, match="unsupported audio format code 65534 "):
            read_wav(path)


# ---------------------------------------------------------------------------
# Multichannel input
# ---------------------------------------------------------------------------


class TestStereo:
    def test_stereo_pcm_is_averaged(self, tmp_path):
        # two frames: (16384, 0) and (-16384, -16384)
        path = tmp_path / "stereo.wav"
        payload = pcm_data([16384, 0, -16384, -16384])
        path.write_bytes(
            build_wav([(b"fmt ", pcm_fmt(channels=2)), (b"data", payload)])
        )
        signal, meta = read_wav(path)
        assert meta.channels == 2
        assert meta.frame_count == 2
        assert signal.samples == pytest.approx([0.25, -0.5])

    def test_partial_trailing_frame_is_dropped(self, tmp_path):
        path = tmp_path / "ragged.wav"
        payload = pcm_data([100, 200, 300])  # 1.5 stereo frames
        path.write_bytes(
            build_wav([(b"fmt ", pcm_fmt(channels=2)), (b"data", payload)])
        )
        signal, meta = read_wav(path)
        assert meta.frame_count == 1
        assert len(signal) == 1


class TestDownmix:
    def test_mono_passthrough_copies(self):
        x = np.array([0.1, 0.2])
        out = downmix_mono(x)
        assert np.array_equal(out, x)
        assert out is not x

    def test_mean_across_channels(self):
        frames = np.array([[1.0, 0.0], [0.5, -0.5], [-1.0, -1.0]])
        assert downmix_mono(frames) == pytest.approx([0.5, 0.0, -1.0])

    def test_rejects_empty(self):
        with pytest.raises(DspError, match="empty"):
            downmix_mono(np.zeros((0, 2)))

    def test_rejects_higher_rank(self):
        with pytest.raises(DspError, match="shape"):
            downmix_mono(np.zeros((2, 2, 2)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda channels: arrays(
                np.float64,
                st.tuples(st.integers(min_value=1, max_value=40), st.just(channels)),
                elements=st.floats() | st.sampled_from([-0.0, np.inf, -np.inf, np.nan]),
            )
        )
    )
    def test_equals_the_mean_bit_for_bit(self, frames):
        with np.errstate(all="ignore"):  # inf - inf and overflow warn in both
            expected = np.asarray(frames, np.float64).mean(axis=1)
            actual = downmix_mono(frames)
        assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Container parsing
# ---------------------------------------------------------------------------


class TestChunkHandling:
    def test_unknown_chunks_are_skipped(self, tmp_path):
        path = tmp_path / "extra.wav"
        chunks = [
            (b"JUNK", b"\x00" * 7),  # odd size exercises the pad byte
            (b"fmt ", pcm_fmt()),
            (b"LIST", b"INFOsomething"),
            (b"data", pcm_data([1000, -1000])),
        ]
        path.write_bytes(build_wav(chunks))
        signal, _ = read_wav(path)
        assert len(signal) == 2

    def test_fact_chunk_from_float_writer_is_tolerated(self, tmp_path):
        path = tmp_path / "fact.wav"
        write_wav(Signal([0.25, -0.25], 8000), path, bits_per_sample=32)
        assert b"fact" in path.read_bytes()
        signal, _ = read_wav(path)
        assert signal.samples == pytest.approx([0.25, -0.25])

    def test_float_values_are_clipped_on_read(self, tmp_path):
        path = tmp_path / "loud.wav"
        payload = np.array([2.0, -3.0, 0.5], dtype="<f4").tobytes()
        path.write_bytes(
            build_wav([(b"fmt ", pcm_fmt(bits=32, code=3)), (b"data", payload)])
        )
        signal, _ = read_wav(path)
        assert signal.samples == pytest.approx([1.0, -1.0, 0.5])


class TestMalformedFiles:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.wav"
        path.write_bytes(b"RIFF\x04\x00")
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_riff_but_not_wave(self, tmp_path):
        path = tmp_path / "avi.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt())], wave=b"AVI "))
        with pytest.raises(WavFormatError, match="WAVE"):
            read_wav(path)

    def test_missing_fmt(self, tmp_path):
        path = tmp_path / "nofmt.wav"
        path.write_bytes(build_wav([(b"LIST", b"info")]))
        with pytest.raises(WavFormatError, match="missing fmt"):
            read_wav(path)

    def test_missing_data(self, tmp_path):
        path = tmp_path / "nodata.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt())]))
        with pytest.raises(WavFormatError, match="missing data"):
            read_wav(path)

    def test_data_before_fmt(self, tmp_path):
        path = tmp_path / "order.wav"
        path.write_bytes(
            build_wav([(b"data", pcm_data([0, 0])), (b"fmt ", pcm_fmt())])
        )
        with pytest.raises(WavFormatError, match="before fmt"):
            read_wav(path)

    def test_fmt_after_data(self, tmp_path):
        path = tmp_path / "late.wav"
        stereo, mono_float = pcm_fmt(channels=2), pcm_fmt(bits=32, code=3)
        path.write_bytes(
            build_wav([(b"fmt ", stereo), (b"data", pcm_data([0, 0])), (b"fmt ", mono_float)])
        )
        with pytest.raises(WavFormatError, match="fmt chunk appears after data chunk"):
            read_wav(path)

    def test_short_fmt(self, tmp_path):
        path = tmp_path / "shortfmt.wav"
        path.write_bytes(build_wav([(b"fmt ", b"\x01\x00\x01\x00")]))
        with pytest.raises(WavFormatError, match="fmt chunk too short"):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt(code=6))]))
        with pytest.raises(WavFormatError, match="format code 6"):
            read_wav(path)

    def test_unsupported_pcm_depth(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt(bits=8))]))
        with pytest.raises(WavFormatError, match="bit depth 8"):
            read_wav(path)

    def test_unsupported_float_depth(self, tmp_path):
        path = tmp_path / "f64.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt(bits=64, code=3))]))
        with pytest.raises(WavFormatError, match="bit depth 64"):
            read_wav(path)

    def test_too_many_channels(self, tmp_path):
        path = tmp_path / "surround.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt(channels=6))]))
        with pytest.raises(WavFormatError, match="channel count 6"):
            read_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "norate.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt(rate=0))]))
        with pytest.raises(WavFormatError, match="sample rate"):
            read_wav(path)

    def test_data_chunk_past_the_end_of_the_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        blob = build_wav([(b"fmt ", pcm_fmt()), (b"data", pcm_data(np.arange(100)))])
        path.write_bytes(blob[:-50])  # 100 frames declared, 75 present
        with pytest.raises(WavFormatError, match="declares 200 bytes, 150 present"):
            read_wav(path)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(build_wav([(b"fmt ", pcm_fmt()), (b"data", b"")]))
        with pytest.raises(WavFormatError, match="no complete frames"):
            read_wav(path)

    def test_non_finite_float_data(self, tmp_path):
        path = tmp_path / "nan.wav"
        payload = np.array([0.5, np.nan], dtype="<f4").tobytes()
        path.write_bytes(
            build_wav([(b"fmt ", pcm_fmt(bits=32, code=3)), (b"data", payload)])
        )
        with pytest.raises(WavFormatError, match="non-finite"):
            read_wav(path)

    def test_signalling_nan_float_data_warns_nothing(self, tmp_path):
        path = tmp_path / "snan.wav"
        payload = struct.pack("<II", 0x3F000000, 0x7F800001)  # 0.5, then a signalling NaN
        path.write_bytes(
            build_wav([(b"fmt ", pcm_fmt(bits=32, code=3)), (b"data", payload)])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavFormatError, match="non-finite"):
                read_wav(path)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "channels, bits, code, dtype, bound",
    [(1, 16, 1, "<i2", 1.25), (1, 32, 3, "<f4", 1.25), (2, 32, 3, "<f4", 3.25)],
    ids=["mono-pcm16", "mono-float32", "stereo-float32"],
)
def test_read_peak_memory_is_the_file_plus_the_decoded_frames(
    tmp_path, channels, bits, code, dtype, bound
):
    """Past the file's bytes, a read holds the float64 frames, a mono result if
    it downmixes, and a mask; a mono file is decoded into its result."""
    rng = np.random.default_rng(2026)
    frames = (rng.uniform(-1.0, 1.0, 2**16 * channels) * 32767).astype(dtype)
    frames[::7] = -0.0  # a float file's -0.0 reads +0.0
    path = tmp_path / "big.wav"
    fmt = pcm_fmt(channels=channels, bits=bits, code=code)
    path.write_bytes(build_wav([(b"fmt ", fmt), (b"data", frames.tobytes())]))
    tracemalloc.start()
    try:
        signal, _ = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - path.stat().st_size <= bound * signal.samples.nbytes
    assert not np.signbit(signal.samples[signal.samples == 0.0]).any()


def test_write_peak_memory_is_one_and_a_half_signals(tmp_path):
    """A PCM-16 write quantises one float64 copy in place, then packs it."""
    signal = Signal(np.random.default_rng(2027).uniform(-1.0, 1.0, 2**16), 8000)
    tracemalloc.start()
    try:
        write_wav(signal, tmp_path / "big.wav")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * signal.samples.nbytes


# ---------------------------------------------------------------------------
# Fuzzing: any bytes give a signal or WavFormatError, nothing else
# ---------------------------------------------------------------------------


@st.composite
def valid_wavs(draw):
    """A small, valid PCM-16 or float-32 file of at most 256 frames.

    Its fmt chunk carries the plain format tag or the EXTENSIBLE one.
    """
    channels = draw(st.sampled_from([1, 2]))
    frames = draw(st.integers(min_value=1, max_value=256))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        bits, code = 16, 1
        payload = pcm_data(rng.integers(-32768, 32768, frames * channels))
    else:
        bits, code = 32, 3
        payload = rng.uniform(-1.5, 1.5, frames * channels).astype("<f4").tobytes()
    header = draw(st.sampled_from([pcm_fmt, extensible_fmt]))
    fmt = header(channels=channels, bits=bits, code=code)
    return build_wav([(b"fmt ", fmt), (b"data", payload)])


# Positions are taken modulo the file length; half of them land in the
# 44-byte header, where a single byte decides the most.
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["overwrite", "delete", "insert", "word"]),
        st.one_of(st.integers(min_value=0, max_value=47), st.integers(min_value=0, max_value=4096)),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=1,
    max_size=6,
)


def mutate(blob, mutations):
    data = bytearray(blob)
    for op, position, value in mutations:
        at = position % (len(data) + 1)
        if op == "overwrite" and at < len(data):
            data[at] = value & 0xFF
        elif op == "delete":
            del data[at : at + 1 + value % 4]
        elif op == "insert":
            data[at:at] = value.to_bytes(4, "little")[: 1 + value % 4]
        elif op == "word":  # a whole little-endian size, rate or code field
            data[at : at + 4] = struct.pack("<I", value)
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(valid_wavs(), MUTATIONS)
def test_mutated_files_decode_or_raise_wav_format_error(tmp_path_factory, blob, mutations):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(mutate(blob, mutations))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = read_wav(path)
        except WavFormatError:
            return
    signal, meta = result
    assert isinstance(signal, Signal)
    assert len(signal) == meta.frame_count
