"""Print one sha256 per transform and pipeline over a fixed corpus.

Two checkouts whose transforms give the same bits print the same lines,
so a change that claims the same output can be checked by running this
script in each and comparing. The corpus is n = 2**0 .. 2**20 samples of
every kind in test_oracles.REAL_KINDS, taken with the CPU count set to
one and to two, so both the one-thread path and the two-thread split
are covered. Run it from the repository root:

    PYTHONPATH=src python tests/digest.py [--check]

With --check it also compares the lines with those committed in
tests/digests.txt for this numpy version and the SIMD targets numpy
dispatches to here (a digest is only evidence of the same bits between
runs on the same target). It exits 1 when a line differs; when no line
is committed for this version and these targets, it says so and passes.

Its name keeps it out of pytest's collection.
"""

import hashlib
import os
import sys
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import dftkit.transform  # noqa: E402
from dftkit import Signal, analyze, equalize, fft, ifft, preset  # noqa: E402
from dftkit.transform import _fft_array, _ifft_array  # noqa: E402
from mutants import dispatch_targets  # noqa: E402
from test_oracles import REAL_KINDS, real_input  # noqa: E402

COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.txt")

EXPONENTS = range(21)
NAMES = ["_fft_array", "fft", "ifft", "_ifft_array", "equalize", "analyze"]


def outputs(n: int, kind: str) -> dict[str, bytes]:
    """The bytes each call gives on one input of n samples."""
    rng = np.random.default_rng([n, REAL_KINDS.index(kind)])
    signal = Signal(real_input(rng, n, kind), 8000)
    packed = real_input(rng, 2 * n, kind).view(np.complex128)  # n complex points
    spectrum = fft(signal)
    return {
        "_fft_array": _fft_array(packed).tobytes(),
        "fft": spectrum.bins.tobytes(),
        "ifft": ifft(spectrum).samples.tobytes(),
        "_ifft_array": _ifft_array(spectrum.bins.copy()).tobytes(),
        "equalize": equalize(signal, preset("treble")).samples.tobytes(),
        "analyze": repr(analyze(signal)).encode(),
    }


def committed(version: str, targets: str) -> dict[str, str]:
    """name -> sha256 from the digests.txt lines `numpy-version targets name sha256` that match."""
    found = {}
    with open(COMMITTED, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split("#", 1)[0].split()
            if fields[:2] == [version, targets]:
                found[fields[2]] = fields[3]
    return found


def main(check: bool) -> int:
    hashes = {name: hashlib.sha256() for name in NAMES}
    for cpus in (1, 2):
        with mock.patch.object(dftkit.transform, "_CPUS", cpus):
            for exponent in EXPONENTS:
                for kind in REAL_KINDS:
                    for name, data in outputs(1 << exponent, kind).items():
                        hashes[name].update(data)
    for name in NAMES:
        print(f"{name:12} {hashes[name].hexdigest()}")
    if not check:
        return 0
    version, targets = np.__version__, ",".join(dispatch_targets()) or "baseline"
    expected = committed(version, targets)
    if not expected:
        print(f"no digests committed for numpy {version} on {targets}; nothing to check")
        return 0
    differ = [name for name in NAMES if expected.get(name) != hashes[name].hexdigest()]
    for name in differ:
        print(f"{name} differs from digests.txt for numpy {version} on {targets}")
    if not differ:
        print(f"all {len(NAMES)} lines match digests.txt for numpy {version} on {targets}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main("--check" in sys.argv[1:]))
