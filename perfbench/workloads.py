"""Seeded workload generators for the dftkit benchmark.

A workload is a pool of jobs. A job is a list of steps; a step is one
`dftkit` command line plus the oracle check that its output must pass.
The program sees only the files and arguments written here.

Pools are stratified rather than drawn freely: every seed produces the
same mix of transform lengths and the same spread of input lengths, and
the seed moves only where each input falls inside its stratum. That keeps
the job-time percentiles comparable from one seed to the next.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

RATES = (44100, 48000)

# Why each workload exists, and which layers it stresses.
WHY = {
    "analyze-song": "transform-bound analyze on tonal 1.5-6 s WAVs, padding waste 0-50%, few peak candidates",
    "equalize-song": "forward and inverse transform, gain vector, clip and WAV write; presets and a clipping profile, PCM-16 and float-32",
    "analyze-dense": "find_peaks-bound analyze with thousands of candidates on 2^12-2^13-sample noise, plus the spectrum CSV",
    "clips": "hundreds of few-ms synth, analyze, equalize chains where argparse, validation and WAV headers dominate",
}

# Which layer metric should move which end-to-end metric, and where not.
EXPECTED_MOVES = [
    {
        "layer": ["transform.bit_reversal.self_s", "transform.butterflies.self_s"],
        "moves": ["job_s_p50", "msamples_per_s"],
        "on": ["analyze-song", "equalize-song"],
        "no_move_on": ["analyze-dense", "clips"],
    },
    {
        "layer": [
            "transform.inverse.self_s",
            "equalizer.build_gain_vector.self_s",
            "equalizer.equalize.self_s",
        ],
        "moves": ["job_s_p50", "job_s_p75"],
        "on": ["equalize-song"],
        "no_move_on": ["analyze-song", "analyze-dense"],
    },
    {
        "layer": ["analysis.find_peaks.self_s", "analysis.write_spectrum_csv.self_s"],
        "moves": ["job_s_p50", "job_s_p75"],
        "on": ["analyze-dense"],
        "no_move_on": ["equalize-song"],
    },
    {
        "layer": ["cli.main.self_s", "wavio.*.self_s", "synth.*.self_s"],
        "moves": ["job_s_p50"],
        "on": ["clips"],
        "no_move_on": ["analyze-song", "equalize-song"],
    },
    {
        "layer": ["caches kept per n"],
        "moves": ["peak_rss_mb", "setup_s"],
        "on": ["analyze-song", "equalize-song", "analyze-dense", "clips"],
        "no_move_on": [],
    },
]

# Built-in presets as the README defines them: band edges and gains.
PRESET_EDGES = (0.0, 160.0, 500.0, 800.0, 8000.0, math.inf)
PRESET_GAINS = {
    "treble": (0.1, 0.25, 0.5, 1.0, 1.0),
    "bass-boost": (1.0, 1.0, 0.5, 0.25, 0.1),
}

# The profile lifts the band holding the fundamentals above 1, so the
# louder inputs clip.
PROFILE_BANDS = ((0.0, 150.0, 0.5), (150.0, 1000.0, 2.5), (3000.0, 9000.0, 0.8))

NOTE_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


def preset_bands(name: str) -> list[list[float]]:
    edges = PRESET_EDGES
    return [[lo, hi, g] for lo, hi, g in zip(edges, edges[1:], PRESET_GAINS[name])]


def note_name(midi: int) -> str:
    return f"{NOTE_NAMES[midi % 12]}{midi // 12 - 1}"


def midi_hz(midi: float) -> float:
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def write_wav(path: Path, channels: np.ndarray, rate: int, float32: bool) -> None:
    """Write a (frames, channels) array in [-1, 1] as PCM-16 or float-32 WAV."""
    frames, count = channels.shape
    if float32:
        payload = channels.astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHHH", 3, count, rate, rate * count * 4, count * 4, 32, 0)
        chunks = [(b"fmt ", fmt), (b"fact", struct.pack("<I", frames)), (b"data", payload)]
    else:
        quantized = np.clip(np.round(channels * 32768.0), -32768, 32767)
        payload = quantized.astype("<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, count, rate, rate * count * 2, count * 2, 16)
        chunks = [(b"fmt ", fmt), (b"data", payload)]
    body = b"".join(
        struct.pack("<4sI", cid, len(data)) + data + b"\0" * (len(data) & 1)
        for cid, data in chunks
    )
    path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)


def _stratum(rng: np.random.Generator, index: int, count: int, low: float, high: float) -> float:
    """A point in the index-th of count equal slices of [low, high)."""
    return low + (index + rng.uniform()) / count * (high - low)


def _song_length(rng, index, count, rate, n_pad, scale):
    """Input length whose padded size is n_pad, stratified over the allowed range.

    At scale 1 inputs last 1.5 to 6 s, so each (rate, n_pad) pair admits
    a different slice of padding waste; the smallest pads waste up to
    half and the largest almost exactly half.
    """
    low = max(int(1.5 * rate * scale), n_pad // 2 + 1)
    high = min(int(6.0 * rate * scale), n_pad)
    return int(_stratum(rng, index, count, low, high + 1))


def _pick_fundamentals(rng: np.random.Generator) -> list[tuple[int, float]]:
    """Three (midi, Hz) fundamentals, detuned by at most 20 cents.

    Every fundamental stays at least 40 Hz away from every partial of
    the others, so each is a separate peak and keeps its note name.
    """
    while True:
        midis = rng.choice(np.arange(55, 82), size=3, replace=False)
        chosen = [(int(m), midi_hz(m + rng.uniform(-0.2, 0.2))) for m in midis]
        partials = [(i, f * h) for i, (_, f) in enumerate(chosen) for h in range(1, 7)]
        if all(
            abs(f - p) >= 40.0
            for i, (_, f) in enumerate(chosen)
            for j, p in partials
            if j != i
        ):
            return chosen


def _song(rng: np.random.Generator, length: int, rate: int) -> tuple[np.ndarray, list[str]]:
    """Three fundamentals with five harmonics each plus light noise, peak 0.9."""
    chosen = _pick_fundamentals(rng)
    t = np.arange(length) / rate
    x = np.zeros(length)
    for _, f in chosen:
        amp = rng.uniform(0.9, 1.0)
        for h in range(1, 7):
            if f * h < rate / 2:
                x += amp * 0.45 ** (h - 1) * np.sin(2 * np.pi * f * h * t + rng.uniform(0, 2 * np.pi))
    x += rng.normal(0.0, 0.005, length)
    x *= 0.9 / np.max(np.abs(x))
    return x, [note_name(m) for m, _ in chosen]


def _analyze_step(path, threshold=0.5, sep=20.0, notes=None, csv=None):
    argv = ["analyze", str(path)]
    if threshold != 0.5 or sep != 20.0:
        argv += ["--threshold", f"{threshold:g}", "--separation-hz", f"{sep:g}"]
    check = {"kind": "analyze", "input": str(path), "threshold": threshold, "sep": sep}
    if notes:
        check["notes"] = notes
    if csv:
        argv += ["--csv", str(csv)]
        check["csv"] = str(csv)
    return {"argv": argv, "check": check}


def _equalize_step(src, dst, gain_args, bands):
    return {
        "argv": ["equalize", str(src), str(dst), *gain_args],
        "check": {"kind": "equalize", "input": str(src), "output": str(dst), "bands": bands},
    }


def _song_lengths(rng, slots, scale):
    """Input length per (rate, log2 padded size) slot.

    Slots that share a rate and size split that pair's length range into
    equal strata, one input in each.
    """
    lengths = []
    for i, (rate, exponent) in enumerate(slots):
        same = [k for k, slot in enumerate(slots) if slot == (rate, exponent)]
        n_pad = next_pow2(int((1 << exponent) * scale))
        lengths.append(_song_length(rng, same.index(i), len(same), rate, n_pad, scale))
    return lengths


# Per rate: three small, four medium and one large transform. Slot 0,
# the cold job that set-up times, is a medium one.
SONG_SLOTS = [(rate, e) for e in (18,) * 4 + (17,) * 3 + (19,) for rate in RATES]


def analyze_song(rng, work: Path, scale: float = 1.0) -> list[dict]:
    jobs = []
    for i, length in enumerate(_song_lengths(rng, SONG_SLOTS, scale)):
        rate = SONG_SLOTS[i][0]
        x, notes = _song(rng, length, rate)
        path = work / f"song_{i}.wav"
        write_wav(path, x[:, None], rate, float32=False)
        jobs.append({"steps": [_analyze_step(path, notes=notes)], "frames": length})
    return jobs


# Every gain source with every encoding, twice at the medium transform
# size and once at the small one. Inputs stop at 2^18 samples (5.5 s at
# 48 kHz): a 2^19 job takes over twice as long as a medium one, and a few
# of them would cut the passes a run makes and so its averaging.
EQ_SOURCES = ("treble", "bass-boost", "profile")
EQ_SLOTS = [
    (e, source, stereo)
    for e in (18, 17, 18)
    for source in EQ_SOURCES
    for stereo in (False, True)
]


def equalize_song(rng, work: Path, scale: float = 1.0) -> list[dict]:
    profile = work / "lift.profile"
    profile.write_text(
        "# lift the fundamentals; the louder inputs clip\n"
        + "".join(f"{lo:g},{hi:g},{g:g}\n" for lo, hi, g in PROFILE_BANDS)
    )
    slots = [(RATES[i % 2], e) for i, (e, _, _) in enumerate(EQ_SLOTS)]
    jobs = []
    for i, length in enumerate(_song_lengths(rng, slots, scale)):
        _, source, stereo = EQ_SLOTS[i]
        rate = slots[i][0]
        x, _ = _song(rng, length, rate)
        channels = np.stack([x, 0.8 * np.roll(x, 7)], axis=1) if stereo else x[:, None]
        src = work / f"eq_{i}.wav"
        write_wav(src, channels, rate, float32=stereo)
        if source == "profile":
            gains = ["--profile", str(profile)], [list(band) for band in PROFILE_BANDS]
        else:
            gains = ["--preset", source], preset_bands(source)
        step = _equalize_step(src, work / f"eq_{i}_out.wav", *gains)
        jobs.append({"steps": [step], "frames": length})
    return jobs


def analyze_dense(rng, work: Path, scale: float = 1.0) -> list[dict]:
    jobs = []
    # find_peaks is quadratic in length here, so narrow strata keep the
    # median job comparable from one seed to the next.
    count = 40
    # Slot 0 sits in the middle of the length range.
    order = [count // 2] + [k for k in range(count) if k != count // 2]
    for i, stratum in enumerate(order):
        rate = RATES[i % 2]
        length = int(_stratum(rng, stratum, count, 3000 * scale, 8192 * scale + 1))
        x = np.clip(rng.normal(0.0, 0.25, length), -1.0, 1.0)
        path = work / f"dense_{i}.wav"
        write_wav(path, x[:, None], rate, float32=False)
        step = _analyze_step(path, threshold=0.05, sep=5.0, csv=work / f"dense_{i}.csv")
        jobs.append({"steps": [step], "frames": length})
    return jobs


def clips(rng, work: Path, scale: float = 1.0) -> list[dict]:
    jobs = []
    count = 50
    order = [count // 2] + [k for k in range(count) if k != count // 2]
    for i, stratum in enumerate(order):
        rate = RATES[i % 2]
        duration = round(_stratum(rng, stratum, count, 0.05 * scale, 0.2 * scale), 4)
        midis = sorted(rng.choice(np.arange(60, 100, 3), size=2 + i % 2, replace=False))
        freqs = [round(midi_hz(m), 2) for m in midis]
        wav, out = work / f"clip_{i}.wav", work / f"clip_{i}_eq.wav"
        synth = {
            "argv": [
                "synth", str(wav), "--freqs", ",".join(f"{f:g}" for f in freqs),
                "--duration", f"{duration:g}", "--rate", str(rate),
            ],
            "check": {"kind": "synth", "output": str(wav), "freqs": freqs, "duration": duration, "rate": rate},
        }
        frames = int(math.floor(duration * rate + 0.5))
        bass = _equalize_step(wav, out, ["--preset", "bass-boost"], preset_bands("bass-boost"))
        steps = [synth, _analyze_step(wav), bass]
        jobs.append({"steps": steps, "frames": frames})
    return jobs


GENERATORS = {
    "analyze-song": analyze_song,
    "equalize-song": equalize_song,
    "analyze-dense": analyze_dense,
    "clips": clips,
}

# Full passes over the pool that the traced run makes, at least 40 jobs.
TRACE_PASSES = {"analyze-song": 3, "equalize-song": 3, "analyze-dense": 2, "clips": 4}


def generate(name: str, seed: int, work: Path, scale: float = 1.0) -> list[dict]:
    """Write the inputs of one workload under work and return its job pool."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(GENERATORS).index(name)])
    return GENERATORS[name](rng, work, scale)
