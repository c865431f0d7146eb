"""Unit tests for the command-line interface."""

import contextlib
import io
import os
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._exceptions import _ArrayMemoryError

import dftkit.cli
from dftkit import (
    DEFAULT_NAIVE_LIMIT,
    FFT_LIMIT,
    PRESET_NAMES,
    DspError,
    Signal,
    read_wav,
    write_wav,
)
from dftkit.cli import main, run_bench


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class TestSynthCommand:
    def test_writes_a_normalized_pcm_file(self, tmp_path, capsys):
        out = tmp_path / "tone.wav"
        code, stdout, _ = run(
            capsys, "synth", str(out), "--freqs", "440", "--duration", "0.25"
        )
        assert code == 0
        assert str(out) in stdout
        signal, meta = read_wav(out)
        assert meta.encoding == "pcm"
        assert meta.sample_rate == 44100
        assert len(signal) == 11025
        assert np.max(np.abs(signal.samples)) <= 1.0

    def test_multiple_tones_share_the_mix(self, tmp_path, capsys):
        out = tmp_path / "mix.wav"
        code, _, _ = run(
            capsys, "synth", str(out), "--freqs", "300,600", "--duration", "0.1",
            "--rate", "8000",
        )
        assert code == 0
        signal, meta = read_wav(out)
        assert meta.sample_rate == 8000
        assert len(signal) == 800

    def test_bad_freqs_is_a_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "synth", str(tmp_path / "x.wav"), "--freqs", "abc"
        )
        assert code == 2
        assert "comma-separated" in stderr

    def test_above_nyquist_is_a_runtime_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "synth", str(tmp_path / "x.wav"), "--freqs", "9999",
            "--rate", "8000",
        )
        assert code == 1
        assert "Nyquist" in stderr

    def test_duration_past_the_fft_limit_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sine(*args, **kwargs):
            raise AssertionError("sine was called")

        monkeypatch.setattr(dftkit.cli, "sine", no_sine)
        tracemalloc.start()
        try:
            code = main(
                ["synth", str(tmp_path / "x.wav"), "--freqs", "440", "--duration", "1e12"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert str(FFT_LIMIT) in capsys.readouterr().err
        assert not (tmp_path / "x.wav").exists()

    def test_length_bound_is_the_rounded_sample_count(self, tmp_path, capsys, monkeypatch):
        calls = []

        def short_sine(freq, duration_s, sample_rate):
            calls.append(duration_s * sample_rate)
            return Signal(np.zeros(4), sample_rate)

        monkeypatch.setattr(dftkit.cli, "sine", short_sine)
        argv = ["synth", str(tmp_path / "x.wav"), "--freqs", "0.25", "--rate", "2"]
        # 2**24 + 0.49 rounds to exactly FFT_LIMIT samples; 2**24 + 0.5 rounds past it
        assert main(argv + ["--duration", str((FFT_LIMIT + 0.49) / 2)]) == 0
        assert main(argv + ["--duration", str((FFT_LIMIT + 0.5) / 2)]) == 2
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


class TestAnalyzeCommand:
    def test_reports_the_tone_and_note(self, tmp_path, capsys):
        wav = tmp_path / "a4.wav"
        assert main(["synth", str(wav), "--freqs", "440", "--duration", "0.5"]) == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "analyze", str(wav))
        assert code == 0
        assert "frequency_hz" in stdout
        assert "A4" in stdout

    def test_csv_export(self, tmp_path, capsys):
        wav = tmp_path / "a4.wav"
        csv_path = tmp_path / "spec.csv"
        main(["synth", str(wav), "--freqs", "440", "--duration", "0.1"])
        code, _, _ = run(capsys, "analyze", str(wav), "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "bin,frequency_hz,magnitude"
        assert len(lines) == 8192 // 2 + 2  # header + half of the padded length

    def test_missing_file_is_a_runtime_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "analyze", str(tmp_path / "nope.wav"))
        assert code == 1
        assert "error" in stderr

    def test_no_pad_rejects_odd_lengths(self, tmp_path, capsys):
        wav = tmp_path / "odd.wav"
        write_wav(Signal(np.zeros(1000), 8000), wav)
        code, _, stderr = run(capsys, "analyze", str(wav), "--no-pad")
        assert code == 1
        assert "power of two" in stderr

    def test_silence_reports_no_peaks(self, tmp_path, capsys):
        wav = tmp_path / "quiet.wav"
        write_wav(Signal(np.zeros(256), 8000), wav)
        code, stdout, _ = run(capsys, "analyze", str(wav))
        assert code == 0
        assert "no peaks" in stdout

    @pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan"])
    def test_threshold_outside_unit_interval_is_a_usage_error(
        self, tmp_path, capsys, value
    ):
        # the input does not exist: the flag is rejected before the file is read
        code, _, stderr = run(
            capsys, "analyze", str(tmp_path / "nope.wav"), "--threshold", value
        )
        assert code == 2
        assert "--threshold" in stderr

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_or_nan_separation_is_a_usage_error(
        self, tmp_path, capsys, value
    ):
        code, _, stderr = run(
            capsys, "analyze", str(tmp_path / "nope.wav"), "--separation-hz", value
        )
        assert code == 2
        assert "--separation-hz" in stderr

    def test_threshold_one_and_zero_separation_are_accepted(self, tmp_path, capsys):
        wav = tmp_path / "quiet.wav"
        write_wav(Signal(np.zeros(256), 8000), wav)
        code, _, _ = run(
            capsys, "analyze", str(wav), "--threshold", "1", "--separation-hz", "0"
        )
        assert code == 0


# ---------------------------------------------------------------------------
# equalize
# ---------------------------------------------------------------------------


class TestEqualizeCommand:
    def make_input(self, tmp_path):
        wav = tmp_path / "in.wav"
        main(["synth", str(wav), "--freqs", "100,1000", "--duration", "0.2"])
        return wav

    def test_preset_writes_output(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        out = tmp_path / "out.wav"
        code, stdout, _ = run(
            capsys, "equalize", str(wav), str(out), "--preset", "treble"
        )
        assert code == 0
        assert "treble" in stdout
        signal, meta = read_wav(out)
        assert meta.bits_per_sample == 16
        assert len(signal) == 8820

    def test_profile_file(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        out = tmp_path / "out.wav"
        profile = tmp_path / "bands.profile"
        profile.write_text("0,160,0.1\n# mid left alone\n")
        code, _, _ = run(
            capsys, "equalize", str(wav), str(out), "--profile", str(profile)
        )
        assert code == 0
        assert out.exists()

    def test_preserves_float_depth(self, tmp_path, capsys):
        wav = tmp_path / "float.wav"
        write_wav(Signal(np.linspace(-0.5, 0.5, 300), 8000), wav, bits_per_sample=32)
        out = tmp_path / "out.wav"
        code, _, _ = run(
            capsys, "equalize", str(wav), str(out), "--preset", "identity"
        )
        assert code == 0
        _, meta = read_wav(out)
        assert meta.bits_per_sample == 32

    def test_rate_too_high_for_the_output_header_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        # A float-32 input at 2**30 Hz reads fine, but its byte rate (2**32)
        # does not fit the header field the writer must fill in.
        wav = tmp_path / "fast.wav"
        fmt = struct.pack("<HHIIHHH", 3, 1, 2**30, 0, 4, 32, 0)
        data = np.linspace(-0.5, 0.5, 64).astype("<f4").tobytes()
        body = b"WAVE" + b"".join(
            struct.pack("<4sI", chunk_id, len(chunk)) + chunk
            for chunk_id, chunk in ((b"fmt ", fmt), (b"data", data))
        )
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        code, _, stderr = run(
            capsys, "equalize", str(wav), str(tmp_path / "o.wav"),
            "--preset", "identity",
        )
        assert code == 1
        assert "too high" in stderr

    def test_requires_a_gain_source(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        code, _, stderr = run(capsys, "equalize", str(wav), str(tmp_path / "o.wav"))
        assert code == 2
        assert "--preset" in stderr

    def test_rejects_both_gain_sources(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        code, _, _ = run(
            capsys, "equalize", str(wav), str(tmp_path / "o.wav"),
            "--preset", "treble", "--profile", "x",
        )
        assert code == 2

    def test_unknown_preset_is_a_usage_error(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        code, _, _ = run(
            capsys, "equalize", str(wav), str(tmp_path / "o.wav"),
            "--preset", "shimmer",
        )
        assert code == 2

    def test_bad_profile_line_is_a_runtime_error(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        profile = tmp_path / "bad.profile"
        profile.write_text("0,160\n")
        code, _, stderr = run(
            capsys, "equalize", str(wav), str(tmp_path / "o.wav"),
            "--profile", str(profile),
        )
        assert code == 1
        assert "line 1" in stderr

    def test_profile_that_is_not_utf8_is_a_runtime_error(self, tmp_path, capsys):
        wav = self.make_input(tmp_path)
        profile = tmp_path / "latin1.profile"
        profile.write_bytes(b"0,160,0.5\n# caf\xe9 \xff\n")
        code, _, stderr = run(
            capsys, "equalize", str(wav), str(tmp_path / "o.wav"),
            "--profile", str(profile),
        )
        assert code == 1
        assert str(profile) in stderr
        assert "UTF-8" in stderr


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


class TestBenchCommand:
    def test_prints_a_row_per_size(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "bench", "--sizes", "8,32", "--repeats", "1")
        assert code == 0
        lines = [line for line in stdout.splitlines() if line.strip()]
        assert len(lines) == 3  # header + 2 rows
        assert "ratio" in lines[0]

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--sizes", "8,16", "--repeats", "1",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,dft_naive_s,fft_s,ratio"
        assert len(lines) == 3

    def test_non_power_of_two_size_is_a_usage_error(self, capsys):
        code, _, stderr = run(capsys, "bench", "--sizes", "1000")
        assert code == 2
        assert "powers of two" in stderr

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "8,-inf"])
    def test_non_finite_size_is_a_usage_error(self, capsys, value):
        code, _, stderr = run(capsys, "bench", "--sizes", value)
        assert code == 2
        assert "integers" in stderr

    def test_size_past_the_fft_limit_is_a_usage_error(self, capsys, monkeypatch):
        def no_bench(*args, **kwargs):
            raise AssertionError("run_bench was called")

        monkeypatch.setattr(dftkit.cli, "run_bench", no_bench)
        for n in (2 * FFT_LIMIT, 2**62):
            code, _, stderr = run(capsys, "bench", "--sizes", f"8,{n}")
            assert code == 2
            assert "powers of two" in stderr and str(FFT_LIMIT) in stderr

    def test_size_past_the_naive_limit_is_a_usage_error(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(dftkit.cli, "run_bench", lambda *args, **kw: calls.append(args) or [])
        for n in (2 * DEFAULT_NAIVE_LIMIT, FFT_LIMIT):
            code, _, stderr = run(capsys, "bench", "--sizes", f"8,{n}")
            assert code == 2
            assert "powers of two" in stderr and str(DEFAULT_NAIVE_LIMIT) in stderr
        assert run(capsys, "bench", "--sizes", f"8,{DEFAULT_NAIVE_LIMIT}")[0] == 0
        assert calls == [([8, DEFAULT_NAIVE_LIMIT],)]

    def test_repeats_past_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(dftkit.cli, "run_bench", lambda *args, **kw: calls.append(kw) or [])
        for value in ("1001", str(2**62)):
            code, _, stderr = run(capsys, "bench", "--sizes", "8", "--repeats", value)
            assert code == 2
            assert "repeats" in stderr and "1000" in stderr
        assert run(capsys, "bench", "--sizes", "8", "--repeats", "1000")[0] == 0
        assert calls == [{"repeats": 1000}]

    def test_zero_repeats_is_a_usage_error(self, capsys):
        code, _, stderr = run(capsys, "bench", "--sizes", "8", "--repeats", "0")
        assert code == 2
        assert "repeats" in stderr

    def test_run_bench_keeps_the_naive_path_limit(self):
        start = time.perf_counter()
        with pytest.raises(DspError, match="naive-path limit"):
            run_bench([2 * DEFAULT_NAIVE_LIMIT], repeats=1)
        assert time.perf_counter() - start < 1.0

    def test_run_bench_checks_every_size_before_timing_any(self, monkeypatch):
        reads = []
        clock = types.SimpleNamespace(perf_counter=lambda: reads.append(1) or 0.0)
        monkeypatch.setattr(dftkit.cli, "time", clock)
        with pytest.raises(DspError, match="naive-path limit"):
            run_bench([4096, 2 * DEFAULT_NAIVE_LIMIT], repeats=1)
        assert reads == []

    def test_run_bench_rejects_zero_repeats(self):
        with pytest.raises(DspError, match="repeats must be >= 1"):
            run_bench([8], repeats=0)

    def test_run_bench_reports_a_transform_mismatch(self, monkeypatch):
        fft = dftkit.cli.fft

        def perturbed(signal):
            spectrum = fft(signal)
            spectrum.bins[1] += 1e-3
            return spectrum

        monkeypatch.setattr(dftkit.cli, "fft", perturbed)
        with pytest.raises(DspError, match="transform mismatch at n=16"):
            run_bench([16], repeats=1)

    def test_run_bench_checks_agreement(self):
        rows = run_bench([16, 64], repeats=1)
        assert [row.n for row in rows] == [16, 64]
        for row in rows:
            assert row.naive_s > 0 and row.fft_s > 0
            assert row.ratio == pytest.approx(row.naive_s / row.fft_s)

    @pytest.mark.parametrize("repeats", [1, 2, 5, 6])
    def test_run_bench_reports_the_median_times(self, monkeypatch, repeats):
        # Each repeat reads the clock four times: around dft_naive, then around fft.
        stamps = np.cumsum(np.random.default_rng(repeats).uniform(1e-6, 1e-2, 4 * repeats)).tolist()
        clock = types.SimpleNamespace(perf_counter=iter(stamps).__next__)
        monkeypatch.setattr(dftkit.cli, "time", clock)
        (row,) = run_bench([8], repeats=repeats)
        naive = [b - a for a, b in zip(stamps[0::4], stamps[1::4])]
        fast = [b - a for a, b in zip(stamps[2::4], stamps[3::4])]
        assert type(row.naive_s) is float and type(row.fft_s) is float
        assert (row.naive_s, row.fft_s) == (statistics.median(naive), statistics.median(fast))


# ---------------------------------------------------------------------------
# file names that are not UTF-8
# ---------------------------------------------------------------------------


def undecodable(folder, name: bytes) -> bytes:
    """A path under folder whose name holds bytes that are not UTF-8."""
    return os.fsencode(folder) + b"/" + name


class TestUndecodableFileNames:
    """capsys's streams are strict UTF-8, as a UTF-8 terminal or pipe would be."""

    def write_input(self, tmp_path):
        path = undecodable(tmp_path, b"in\xff.wav")
        write_wav(Signal(0.5 * np.sin(0.3 * np.arange(256)), 8000), path)
        return path

    def test_analyze_prints_each_byte_as_an_escape(self, tmp_path, capsys):
        wav = self.write_input(tmp_path)
        code, out, err = run(capsys, "analyze", os.fsdecode(wav))
        assert (code, err) == (0, "")
        assert out.startswith(f"{tmp_path}/in\\xff.wav: 8000 Hz, 256 frames, ")

    def test_equalize_with_a_profile_prints_each_byte_as_an_escape(self, tmp_path, capsys):
        wav = self.write_input(tmp_path)
        profile = undecodable(tmp_path, b"bands\xfe.profile")
        with open(profile, "w", encoding="utf-8") as handle:
            handle.write("0,1000,0.5\n")
        out = undecodable(tmp_path, b"out\xfd.wav")
        argv = ["equalize", os.fsdecode(wav), os.fsdecode(out), "--profile", os.fsdecode(profile)]
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert stdout == (
            f"{tmp_path}/bands\\xfe.profile:\n"
            "  0 Hz .. 1000 Hz: gain 0.5\n"
            f"wrote {tmp_path}/out\\xfd.wav: 256 frames at 8000 Hz, 16-bit\n"
        )
        assert len(read_wav(out)[0]) == 256

    def test_synth_prints_each_byte_as_an_escape(self, tmp_path, capsys):
        out = undecodable(tmp_path, b"tone\xff.wav")
        argv = ["synth", os.fsdecode(out), "--freqs", "440", "--rate", "8000"]
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert stdout == f"wrote {tmp_path}/tone\\xff.wav: 440 Hz, 8000 frames at 8000 Hz\n"
        assert len(read_wav(out)[0]) == 8000

    def test_an_error_line_prints_each_byte_as_an_escape(self, tmp_path, capsys):
        wav = self.write_input(tmp_path)
        name = os.fsdecode(wav)  # a WAV file is not a profile's UTF-8 text
        code, out, err = run(capsys, "equalize", name, str(tmp_path / "o.wav"), "--profile", name)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: profile {tmp_path}/in\\xff.wav is not UTF-8 text: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "\ud800.wav"],
            ["equalize", "in.wav", "out.wav", "--profile", "\ud800.wav"],
            ["synth", "\ud800.wav", "--freqs", "440", "--rate", "8000"],
        ],
    )
    def test_a_lone_surrogate_in_a_path_is_a_runtime_error(self, capsys, argv):
        # No file system encoding holds U+D800, so no such file can be opened.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError(), "out of memory"),
            (
                _ArrayMemoryError((2**40,), np.dtype(np.float64)),
                "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
                "and data type float64",
            ),
        ],
    )
    def test_out_of_memory_is_a_runtime_error(self, capsys, monkeypatch, error, message):
        def out_of_memory(args):
            raise error

        monkeypatch.setattr(dftkit.cli, "cmd_analyze", out_of_memory)
        assert run(capsys, "analyze", "in.wav") == (1, "", f"error: {message}\n")

    def test_importing_the_cli_leaves_statistics_unloaded(self):
        src = str(Path(dftkit.cli.__file__).parents[1])
        probe = (
            "import sys, dftkit.cli; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# any argv
# ---------------------------------------------------------------------------

# Adversarial flag values. Most flags refuse all of them, though 0 is a valid
# separation or tone.
ADVERSARIAL = ["nan", "inf", "-1", "0", "1e400", str(2**62), "", "abc"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cli")
    write_wav(Signal(0.5 * np.sin(0.3 * np.arange(256)), 8000), folder / "pcm.wav")
    write_wav(Signal(np.linspace(-0.5, 0.5, 300), 8000), folder / "float.wav", 32)
    write_wav(Signal(np.linspace(-0.5, 0.5, 300), 8000), undecodable(folder, b"\xff.wav"))
    (folder / "good.profile").write_text("0,1000,0.5\n")
    (folder / "bad.profile").write_text("0,160\n")
    return folder


@st.composite
def any_argv(draw, folder):
    """argv for one subcommand; every value that passes validation is small."""
    wavs = [str(folder / "pcm.wav"), str(folder / "float.wav")]
    wavs.append(os.fsdecode(undecodable(folder, b"\xff.wav")))
    not_wavs = [str(folder / name) for name in ("good.profile", "bad.profile", "missing")]
    profiles = [str(folder / "good.profile")]
    outputs = [str(folder / "out.wav"), str(folder / "out.csv")]
    unwritable = ["", str(folder), str(folder / "\ud800.wav")]  # no encoding holds U+D800

    def pick(valid, invalid):
        return draw(st.one_of(st.sampled_from(valid), st.sampled_from(invalid)))

    def flag(name, valid, invalid=ADVERSARIAL, optional=True):
        if optional and draw(st.booleans()):
            return []
        return [name, pick(valid, invalid)]

    command = draw(st.sampled_from(["analyze", "equalize", "synth", "bench"]))
    if command == "analyze":
        argv = [pick(wavs, not_wavs + unwritable)]
        argv += flag("--threshold", ["1", "0.5", "0.05"])
        argv += flag("--separation-hz", ["20", "0.5"])
        argv += flag("--csv", outputs, unwritable)
        argv += draw(st.sampled_from([[], ["--no-pad"]]))
    elif command == "equalize":
        argv = [pick(wavs, not_wavs + unwritable), pick(outputs, unwritable)]
        argv += flag("--preset", list(PRESET_NAMES))
        argv += flag("--profile", profiles, not_wavs[1:] + wavs + unwritable)
    elif command == "synth":
        argv = [pick(outputs, unwritable)]
        argv += flag("--freqs", ["440", "100,300", "0"], ADVERSARIAL + ["0,1e400"])
        argv += flag("--duration", ["0.01", "0.5"])  # at most 44100 samples at any rate
        argv += flag("--rate", ["8000", "1000", "3"])
    else:
        argv = flag("--sizes", ["8", "64", "8,16"], ADVERSARIAL + ["1000", "2.5"], False)
        argv += flag("--repeats", ["1", "2"], optional=False)
        argv += flag("--csv", outputs, unwritable)
    return [command] + argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_main_returns_an_exit_code_and_never_raises(cli_files, data):
    argv = data.draw(any_argv(cli_files))
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
