"""Span recording around dftkit's public functions.

A Tracer wraps each function named in SPANS on every dftkit module that
binds it, records one span per call (name, start, end, parent) and keeps
the spans in memory. Self time is worked out afterwards from the spans
alone. Counters that need the arguments or results keep references during
a job and are evaluated by `settle()` between jobs, outside every span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (home module, attribute wrapped)
SPANS = {
    "cli.main": ("dftkit.cli", "main"),
    "wavio.read_wav": ("dftkit.wavio", "read_wav"),
    "wavio.write_wav": ("dftkit.wavio", "write_wav"),
    "transform.pad_to_pow2": ("dftkit.transform", "pad_to_pow2"),
    "transform.fft": ("dftkit.transform", "fft"),
    "transform.bit_reversal": ("dftkit.transform", "_bit_reversal"),
    "transform.butterflies": ("dftkit.transform", "_fft_array"),
    "transform.inverse": ("dftkit.equalizer", "_ifft_array"),
    "analysis.magnitude_spectrum": ("dftkit.analysis", "magnitude_spectrum"),
    "analysis.find_peaks": ("dftkit.analysis", "find_peaks"),
    "analysis.identify_note": ("dftkit.analysis", "identify_note"),
    "analysis.write_spectrum_csv": ("dftkit.analysis", "write_spectrum_csv"),
    "equalizer.load_profile": ("dftkit.equalizer", "load_profile"),
    "equalizer.build_gain_vector": ("dftkit.equalizer", "build_gain_vector"),
    "equalizer.equalize": ("dftkit.equalizer", "equalize"),
    "synth.sine": ("dftkit.synth", "sine"),
    "synth.mix": ("dftkit.synth", "mix"),
}

MODULES = (
    "dftkit",
    "dftkit.transform",
    "dftkit.analysis",
    "dftkit.equalizer",
    "dftkit.synth",
    "dftkit.wavio",
    "dftkit.cli",
)


# Metrics that the inputs fix, or that move whenever another layer does:
# printed and recorded with every traced run, but they have no better
# direction, so the result line leaves them out.
INFORMATIONAL = {
    "analysis.find_peaks.candidates",
    "analysis.find_peaks.kept",
    "analysis.find_peaks.kept_per_candidate",
    "equalizer.clipped_samples",
    "wavio.read_bytes",
    "wavio.write_bytes",
    "ref.numpy_fft_s",
    "trace.overhead_frac",
}


def informational(metric: str) -> bool:
    return metric.endswith((".calls", ".share")) or metric in INFORMATIONAL


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A span is (name, start, end, parent index or -1). Children of one
    parent are merged as intervals clipped to the parent, so overlapping
    or out-of-bounds children never count twice or below zero.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.transform_sizes: dict[int, int] = defaultdict(int)
        self._open: list[int] = []
        self._pending: list[tuple] = []
        self._last_inverse = None
        self._installed: list[tuple[str, object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                note(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [sys.modules[name] for name in MODULES]
        for name, (home, attr) in SPANS.items():
            original = getattr(sys.modules[home], attr, None)
            if original is None:  # a layer the program no longer has reports no calls
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._installed.append((name, module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for _, module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def bindings(self) -> dict[str, list[str]]:
        """The modules each span's wrapper is installed on."""
        result = defaultdict(list)
        for name, module, _, _ in self._installed:
            result[name].append(module.__name__)
        return dict(result)

    # Counters. These run after the span closed; they only keep references.

    def _note_transform_butterflies(self, fn, args, kwargs, result):
        self.transform_sizes[int(result.size)] += 1

    def _note_transform_pad_to_pow2(self, fn, args, kwargs, result):
        self.counts["pad.input"] += len(args[0])
        self.counts["pad.output"] += len(result)

    def _note_transform_inverse(self, fn, args, kwargs, result):
        self._last_inverse = result

    def _note_equalizer_equalize(self, fn, args, kwargs, result):
        self._pending.append(("clip", self._last_inverse, len(result)))

    def _note_analysis_find_peaks(self, fn, args, kwargs, result):
        self._pending.append(("peaks", fn, args, kwargs, len(result)))

    def _note_wavio_read_wav(self, fn, args, kwargs, result):
        self._pending.append(("read", args[0]))

    def _note_wavio_write_wav(self, fn, args, kwargs, result):
        self._pending.append(("write", args[1] if len(args) > 1 else kwargs["path"]))

    def settle(self) -> None:
        """Evaluate the counters a job left pending."""
        for item in self._pending:
            kind = item[0]
            if kind == "clip":
                _, inverse, n = item
                self.counts["clipped_samples"] += int(np.count_nonzero(np.abs(inverse.real[:n]) > 1.0))
            elif kind == "peaks":
                _, fn, args, kwargs, kept = item
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                values = bound.arguments["mag"].magnitudes
                threshold = bound.arguments["relative_threshold"]
                self.counts["candidates"] += count_candidates(values, threshold)
                self.counts["kept"] += kept
            elif kind == "read":
                self.counts["read_bytes"] += os.path.getsize(item[1])
            else:
                self.counts["write_bytes"] += os.path.getsize(item[1])
        self._pending.clear()
        self._last_inverse = None


def count_candidates(values: np.ndarray, threshold: float) -> int:
    """Strict local maxima at or above threshold * max, as find_peaks defines them."""
    ceiling = float(values.max(initial=0.0))
    if ceiling <= 0.0:
        return 0
    left = np.ones(values.size, dtype=bool)
    right = np.ones(values.size, dtype=bool)
    left[1:] = values[1:] > values[:-1]
    right[:-1] = values[:-1] > values[1:]
    return int(np.count_nonzero((values >= threshold * ceiling) & left & right))


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, numpy_fft_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(tracer.spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += own
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.share"] = (self_s[name] / traced_s, "frac")
    counts = tracer.counts
    flops = sum(5 * n * np.log2(n) * c for n, c in tracer.transform_sizes.items())
    butterflies = self_s["transform.butterflies"]
    metrics.update(
        {
            "transform.points": (sum(n * c for n, c in tracer.transform_sizes.items()), "count"),
            "transform.pad.useful_frac": (counts["pad.input"] / counts["pad.output"] if counts["pad.output"] else 0.0, "frac"),
            "transform.butterflies.gflops_computed": (flops / butterflies / 1e9 if butterflies else 0.0, "GFLOP/s"),
            "analysis.find_peaks.candidates": (counts["candidates"], "count"),
            "analysis.find_peaks.kept": (counts["kept"], "count"),
            "analysis.find_peaks.kept_per_candidate": (counts["kept"] / counts["candidates"] if counts["candidates"] else 0.0, "frac"),
            "equalizer.clipped_samples": (counts["clipped_samples"], "count"),
            "wavio.read_bytes": (counts["read_bytes"], "B"),
            "wavio.write_bytes": (counts["write_bytes"], "B"),
            "ref.numpy_fft_s": (numpy_fft_s, "s"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        }
    )
    return metrics


def numpy_fft_seconds(sizes: dict[int, int], repeats: int = 5) -> float:
    """numpy.fft.fft time for the same transforms: median per size times calls."""
    rng = np.random.default_rng(0)
    total = 0.0
    for n, count in sizes.items():
        data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            np.fft.fft(data)
            times.append(time.perf_counter() - start)
        total += float(np.median(times)) * count
    return total
