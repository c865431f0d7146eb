"""Command-line front end.

Four subcommands: analyze (peaks and notes in a WAV file), equalize
(apply a gain preset or profile file), synth (generate test tones), and
bench (time the naive transform against the fast one).

Exit codes: 0 on success, 1 on runtime failures such as unreadable or
malformed files, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .analysis import _ROWS_PER_WRITE, _analyze, write_spectrum_csv
from .equalizer import PRESET_NAMES, equalize, load_profile, preset
from .synth import mix, sine
from .transform import DEFAULT_NAIVE_LIMIT, FFT_LIMIT, DspError, Signal, dft_naive, fft
from .wavio import read_wav, write_wav

__all__ = ["main", "run_bench", "BenchRow", "UsageError"]


# Upper bound on bench --repeats; each repeat runs every size's naive transform.
MAX_REPEATS = 1000


class UsageError(Exception):
    """Bad argument values discovered after parsing."""


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"could not parse {what} {text!r} as comma-separated numbers")
    if not values:
        raise UsageError(f"{what} must contain at least one value")
    return values


def _parse_ints(text: str, what: str) -> list[int]:
    values = _parse_floats(text, what)
    for value in values:
        if not value.is_integer():  # also rejects inf and nan
            raise UsageError(f"{what} must be integers, got {value}")
    return [int(value) for value in values]


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise UsageError(f"--threshold must be in (0, 1], got {args.threshold}")
    if not args.separation_hz >= 0.0:
        raise UsageError(f"--separation-hz must be >= 0, got {args.separation_hz}")
    signal, meta = read_wav(args.input)
    mag, results = _analyze(signal, args.threshold, args.separation_hz, not args.no_pad)
    if args.csv:
        write_spectrum_csv(mag, args.csv)

    print(
        f"{args.input}: {meta.sample_rate} Hz, {meta.frame_count} frames, "
        f"transform length {mag.source_n}, bin width {mag.bin_width_hz:.5g} Hz"
    )
    if not results:
        print("no peaks above threshold")
        return 0
    print(f"{'frequency_hz':>14} {'magnitude':>14} {'note':>6} {'cents':>8}")
    for start in range(0, len(results), _ROWS_PER_WRITE):
        sys.stdout.write(
            "".join(
                "%14.4f %14.4f %6s %+8.2f\n"
                % (peak.frequency_hz, peak.magnitude, match.note_name, match.deviation_cents)
                if match
                else "%14.4f %14.4f %6s %8s\n" % (peak.frequency_hz, peak.magnitude, "-", "-")
                for peak, match in results[start : start + _ROWS_PER_WRITE]
            )
        )
    return 0


def cmd_equalize(args: argparse.Namespace) -> int:
    profile = preset(args.preset) if args.preset else load_profile(args.profile)
    signal, meta = read_wav(args.input)
    shaped = equalize(signal, profile)
    write_wav(shaped, args.output, bits_per_sample=meta.bits_per_sample)

    label = profile.name or "profile"
    if profile.bands:
        print(f"{label}:")
        for band in profile.bands:
            high = "top" if band.high_hz == float("inf") else f"{band.high_hz:g} Hz"
            print(f"  {band.low_hz:g} Hz .. {high}: gain {band.gain:g}")
    else:
        print(f"{label}: all gains 1")
    print(
        f"wrote {args.output}: {len(shaped)} frames at {shaped.sample_rate} Hz, "
        f"{meta.bits_per_sample}-bit"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    frequencies = _parse_floats(args.freqs, "--freqs")
    if args.duration * args.rate + 0.5 >= FFT_LIMIT + 1:  # sine's count would pass FFT_LIMIT
        raise UsageError(
            f"--duration {args.duration:g} s at --rate {args.rate} Hz is more than "
            f"{FFT_LIMIT} samples, the longest signal dftkit can transform"
        )
    tones = [
        sine(freq, duration_s=args.duration, sample_rate=args.rate)
        for freq in frequencies
    ]
    signal = mix(tones, normalize=True)
    write_wav(signal, args.output, bits_per_sample=16)
    joined = ", ".join(f"{freq:g}" for freq in frequencies)
    print(
        f"wrote {args.output}: {joined} Hz, {len(signal)} frames at {args.rate} Hz"
    )
    return 0


@dataclass(frozen=True)
class BenchRow:
    n: int
    naive_s: float
    fft_s: float

    @property
    def ratio(self) -> float:
        return self.naive_s / self.fft_s


def run_bench(sizes: list[int], repeats: int = 5) -> list[BenchRow]:
    """Median wall-clock time of the naive transform vs the fast one.

    Both paths are run once untimed to settle caches, and checked
    against each other so the comparison cannot silently diverge.
    """
    if repeats < 1:
        raise DspError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(1234)
    rows = []
    for n in sizes:
        signal = Signal(rng.uniform(-1.0, 1.0, n), 44100)
        reference = dft_naive(signal).bins
        candidate = fft(signal).bins
        gap = float(np.max(np.abs(candidate - reference)))
        if gap > 1e-9 * n:
            raise DspError(
                f"transform mismatch at n={n}: naive and fast differ by {gap:.3e}"
            )
        naive_times = []
        fft_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            dft_naive(signal)
            naive_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            fft(signal)
            fft_times.append(time.perf_counter() - start)
        rows.append(
            BenchRow(
                n=n,
                naive_s=statistics.median(naive_times),
                fft_s=statistics.median(fft_times),
            )
        )
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_ints(args.sizes, "--sizes")
    for n in sizes:
        if n < 2 or n & (n - 1):
            raise UsageError(f"--sizes must be powers of two >= 2, got {n}")
        if n > DEFAULT_NAIVE_LIMIT:  # dft_naive is O(n^2): 2^24 would take weeks
            raise UsageError(
                f"--sizes must be powers of two up to {DEFAULT_NAIVE_LIMIT}, the "
                f"naive transform's limit (the fast one takes up to {FFT_LIMIT}), got {n}"
            )
    if not 1 <= args.repeats <= MAX_REPEATS:
        raise UsageError(f"--repeats must be from 1 to {MAX_REPEATS}, got {args.repeats}")

    rows = run_bench(sizes, repeats=args.repeats)
    print(f"{'n':>8} {'dft_naive_s':>14} {'fft_s':>14} {'ratio':>10}")
    for row in rows:
        print(
            f"{row.n:>8} {row.naive_s:>14.6f} {row.fft_s:>14.6f} {row.ratio:>10.1f}"
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("n,dft_naive_s,fft_s,ratio\n")
            for row in rows:
                handle.write(
                    f"{row.n},{row.naive_s:.8g},{row.fft_s:.8g},{row.ratio:.8g}\n"
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftkit",
        description="Transform-based audio analysis, equalization, and synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="find spectral peaks and matching notes in a WAV file"
    )
    analyze.add_argument("input", help="input WAV file")
    analyze.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="keep peaks at least this fraction of the largest (default 0.5)",
    )
    analyze.add_argument(
        "--separation-hz",
        type=float,
        default=20.0,
        help="minimum spacing between reported peaks (default 20)",
    )
    analyze.add_argument("--csv", help="also write the magnitude spectrum as CSV")
    analyze.add_argument(
        "--no-pad",
        action="store_true",
        help="skip zero-padding; the sample count must be a power of two",
    )
    analyze.set_defaults(func=cmd_analyze)

    eq = sub.add_parser("equalize", help="apply a band-gain profile to a WAV file")
    eq.add_argument("input", help="input WAV file")
    eq.add_argument("output", help="output WAV file")
    source = eq.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset", choices=PRESET_NAMES, help="built-in gain profile"
    )
    source.add_argument(
        "--profile", help="profile file with low_hz,high_hz,gain lines"
    )
    eq.set_defaults(func=cmd_equalize)

    synth = sub.add_parser("synth", help="write a WAV file of mixed sine tones")
    synth.add_argument("output", help="output WAV file")
    synth.add_argument(
        "--freqs", required=True, help="comma-separated tone frequencies in Hz"
    )
    synth.add_argument(
        "--duration", type=float, default=1.0, help="length in seconds (default 1.0)"
    )
    synth.add_argument(
        "--rate", type=int, default=44100, help="sample rate in Hz (default 44100)"
    )
    synth.set_defaults(func=cmd_synth)

    bench = sub.add_parser("bench", help="compare naive and fast transform timings")
    bench.add_argument(
        "--sizes",
        default="256,1024,4096",
        help="comma-separated transform lengths (default 256,1024,4096)",
    )
    bench.add_argument(
        "--repeats", type=int, default=5, help="timed runs per size (default 5)"
    )
    bench.add_argument("--csv", help="also write the timings as CSV")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
