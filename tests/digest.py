"""Print one sha256 per transform and pipeline over a fixed corpus.

Two checkouts whose transforms give the same bits print the same lines,
so a change that claims the same output can be checked by running this
script in each and comparing. The corpus is n = 2**0 .. 2**20 samples of
every kind in test_oracles.REAL_KINDS, taken with the CPU count set to
one and to two, so both the one-thread path and the two-thread split
are covered. Run it from the repository root:

    PYTHONPATH=src python tests/digest.py

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
from test_oracles import REAL_KINDS, real_input  # noqa: E402

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


def main() -> None:
    hashes = {name: hashlib.sha256() for name in NAMES}
    for cpus in (1, 2):
        with mock.patch.object(dftkit.transform, "_CPUS", cpus):
            for exponent in EXPONENTS:
                for kind in REAL_KINDS:
                    for name, data in outputs(1 << exponent, kind).items():
                        hashes[name].update(data)
    for name in NAMES:
        print(f"{name:12} {hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
