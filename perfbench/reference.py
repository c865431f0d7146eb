"""A fixed reference kernel that gauges the machine's speed during a run.

On a shared machine the same job can take 40% longer from one minute to
the next, and its speed can swing by a fifth within a second. Timing a
fixed kernel right beside each job and scaling the job's time by
REF_S / kernel time cancels most of that drift, so two runs of the same
code agree even when the machine's speed between them does not.

The kernel does the kinds of work a dftkit job does, in similar
proportions: an interpreter loop, numpy butterflies over 2^14 complex
points, fresh array allocations and a small file written and read back.
It does not call dftkit, so a change to dftkit never changes the kernel.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

# Kernel seconds that define the reference speed: a scaled time is the
# time the job would take on a machine where the kernel takes REF_S.
# About the kernel's median on a 2-core Intel Xeon VM at rest.
REF_S = 0.0045

_N = 1 << 14
_PERM = np.random.default_rng(0).permutation(_N)
_DATA = np.exp(2j * np.pi * np.arange(_N) / 97.0)
_BLOB = np.arange(_N, dtype="<i2").tobytes()


def kernel(path: Path) -> None:
    acc = 0
    for i in range(6000):
        acc += (i * i) ^ (i >> 3)
    values = _DATA[_PERM]
    size = 2
    while size <= _N:
        half = size // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / size)
        blocks = values.reshape(-1, size)
        odd = blocks[:, half:] * twiddle
        values = np.concatenate([blocks[:, :half] + odd, blocks[:, :half] - odd], axis=1).ravel()
        size *= 2
    path.write_bytes(_BLOB)
    data = np.frombuffer(path.read_bytes(), dtype="<i2").astype(np.float64)
    np.abs(values * data).max()
    os.remove(path)


def measure(path: Path) -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel(path)
    return time.perf_counter() - start
