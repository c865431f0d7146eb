"""Apply each mutant of a fixed table to a copy of the program and run its tests.

A row names the mutant, the file it edits, the exact old text (which must
occur once in that file), the new text, and the pytest arguments that
should fail on it: narrow test files, perhaps with a -k expression. A
mutant that no test can tell apart from the program is marked equivalent,
with the reason; its old text is still checked, but no test runs for it.

Each mutant runs in a fresh copy of the files git tracks, as they are in
the working tree, with `python -m pytest -x -q` and PYTHONPATH=src;
outside a git work tree, as in a `git archive` copy, the copy holds every
file not under a folder whose name starts with a dot or is __pycache__. A
failing run, or one that hangs past TIMEOUT_S, kills the mutant; each
row's tests first run once on an unedited copy, and must pass there. The
script prints one line per mutant and a score. It exits non-zero when a
mutant survives, when its tests cannot run, or when an old text no longer
occurs exactly once. Run it from anywhere in the repository, for every
row or for the rows named:

    python tests/mutants.py [NAME ...]

Its name keeps it out of pytest's collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dispatch_targets() -> list[str]:
    """The SIMD targets numpy dispatches to: offered, on this CPU, and not switched off."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1 names the package numpy.core
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


TARGETS = dispatch_targets()
AVX2 = bool({"X86_V3", "AVX2"} & set(TARGETS))  # numpy 2 and numpy 1 names of the AVX2 loops
TIMEOUT_S = 120
# pytest's exit code on a mutant -> verdict; 2 is an interrupted collection, None a hang
VERDICTS = {0: "SURVIVED", 1: "killed", 2: "killed", None: "killed"}


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments
    equivalent: str = ""  # why no test can kill it; its tests are not run


TRANSFORM = "src/dftkit/transform.py"
ORACLES = "tests/test_oracles.py"
UNITS = "tests/test_transform.py"
LOOP = (ORACLES, "-k", "fft_array_matches_the_loop_version")  # the loop FFT, hypothesis inputs
SPANS = (ORACLES, "-k", "split_in_small_spans")  # the real split and merge, byte for byte

# the real split's texts, for the rows that move bin n/2
FORWARD = "        _fft_array(packed, scratch=scratch)\n"
SPLIT = """\
        for span, partners, mirrors in _spans(n):
            ahead = packed[span]  # Z[k]
            size = ahead.size  # at most _BLOCK / 2 and n/4, so both temporaries fit in scratch
            behind = np.conjugate(packed[partners][::-1], out=scratch[:size])  # conj(Z[m - k])
            odd = np.subtract(ahead, behind, out=scratch[size : 2 * size])
            even = np.add(ahead, behind, out=ahead)
            even *= 0.5
            odd *= _twiddles(_split_twiddles, n)[span]  # w^k * O[k]
            mirror = np.subtract(even[:mirrors], odd[:mirrors], out=bins[partners][::-1][:mirrors])
            np.conjugate(mirror, out=mirror)
            even += odd
"""
NYQUIST = "        bins[m] = bins[0].real - bins[0].imag\n"
ZERO = "        bins[0] = bins[0].real + bins[0].imag  # over Z[0]\n"

MUTANTS = [
    # the butterflies' bits
    Mutant(
        "twiddle-per-column",  # a 0-d twiddle per column takes numpy's stride-0 multiply
        TRANSFORM,
        "        rows *= twiddles\n",
        "        for column, w in zip(rows.T, twiddles):\n            column *= w\n",
        LOOP,
        equivalent="" if AVX2 else "without numpy's AVX2 loops the stride-0 complex multiply "
        "gives the contiguous loop's bits",
    ),
    Mutant(
        "skip-w-1",  # the stage of width 2 would lose the signs of zeros
        TRANSFORM,
        "        rows *= twiddles\n",
        "        if h > 1:\n            rows *= twiddles\n",
        LOOP,
    ),
    Mutant(
        "roots-in-natural-order",
        TRANSFORM,
        "    return _roots(n)[_bit_reversal(n // 2)]\n",
        "    return _roots(n)\n",
        LOOP,
    ),
    Mutant(
        "buffers-written-before-the-load",  # without lent buffers they are the input's head
        TRANSFORM,
        "    bufsize = np.setbufsize(_ROW)\n",
        "    scratch[:] = 0\n    bufsize = np.setbufsize(_ROW)\n",
        LOOP,
    ),
    # the two threads
    Mutant(
        "no-barrier",  # each side starts its half of the last stage once its own half is done
        TRANSFORM,
        "threading.Barrier(2)",
        "threading.Barrier(1)",
        (ORACLES, "-k", "two_thread_fft_array_matches_the_one_thread_path"),
    ),
    Mutant(
        "unjoined-helper",
        TRANSFORM,
        "    finally:\n        thread.join()\n",
        "    finally:\n        pass\n",
        (UNITS, "-k", "TestTwoThreads"),
    ),
    Mutant(
        "helper-error-swallowed",
        TRANSFORM,
        "            errors.append(error)\n",
        "            pass\n",
        (UNITS, "-k", "reaches_the_cli"),
    ),
    Mutant(
        "helper-without-the-error-state",  # an overflow on the helper would warn
        TRANSFORM,
        "        np.seterr(**state)\n",
        "",
        (UNITS, "-k", "TestOverflow"),
    ),
    Mutant(
        "helper-without-the-buffer-size",  # the helper's short rows would go through a buffer
        TRANSFORM,
        "        np.setbufsize(_ROW)\n        run(1)\n",
        "        run(1)\n",
        (UNITS, "-k", "TestSteadyState"),
    ),
    # the kept tables
    Mutant(
        "split-twiddles-from-exp",
        TRANSFORM,
        "    cosines = np.cos(2.0 * np.pi / n * np.arange(n // 4 + 1)) * -0.5\n",
        "    return np.exp(-2j * np.pi / n * np.arange(n // 4 + 1)) * -0.5j\n",
        SPANS,
    ),
    Mutant(
        "tables-left-writeable",
        TRANSFORM,
        "        table.flags.writeable = False\n",
        "",
        (ORACLES, "-k", "twiddle_tables_are_read_only"),
    ),
    Mutant(
        "gather-index-read-only",  # np.take would copy it on every call
        TRANSFORM,
        "        gather = _GATHERS[nb] = _bit_reversal(nb)\n",
        "        gather = _GATHERS[nb] = _bit_reversal(nb)\n"
        "        gather.flags.writeable = False\n",
        (UNITS, "-k", "TestSteadyState"),
    ),
    # the real split and merge, in place
    Mutant(
        "span-drops-its-last-mirror",
        TRANSFORM,
        "min(b, h) - a\n",
        "min(b, h) - a - 1\n",
        SPANS,
    ),
    Mutant(
        "nyquist-bin-over-z0-first",  # bin n/2 is read from Z[0], which bin 0 overwrites
        TRANSFORM,
        NYQUIST + ZERO,
        ZERO + NYQUIST,
        SPANS,
    ),
    Mutant(
        "nyquist-bin-before-the-fft",  # over the block buffers, before Z[0] is made
        TRANSFORM,
        FORWARD + SPLIT + NYQUIST,
        NYQUIST + FORWARD + SPLIT,
        SPANS,
    ),
    Mutant(
        "split-even-before-odd",  # the even part would overwrite Z[k] before odd reads it
        TRANSFORM,
        "            odd = np.subtract(ahead, behind, out=scratch[size : 2 * size])\n"
        "            even = np.add(ahead, behind, out=ahead)\n",
        "            even = np.add(ahead, behind, out=ahead)\n"
        "            odd = np.subtract(ahead, behind, out=scratch[size : 2 * size])\n",
        SPANS,
    ),
    Mutant(
        "padding-tail-left-unzeroed",  # the tail would keep whatever the new bins held
        TRANSFORM,
        "        target[..., full:] = 0.0\n",
        "",
        (UNITS, "-k", "whatever_the_allocator_hands_back"),
    ),
    Mutant(
        "packing-partial-column-unzeroed",  # the column the samples end in keeps its tail
        TRANSFORM,
        "        target[..., full:] = 0.0\n",
        "        target[..., full + 1 :] = 0.0\n",
        (UNITS, "-k", "whatever_the_allocator_hands_back"),
    ),
    Mutant(
        "merge-even-before-odd",  # the even part would overwrite X[k] before odd reads it
        TRANSFORM,
        "        odd = np.subtract(ahead, behind, out=free[size : 2 * size])\n"
        "        even = np.add(ahead, behind, out=ahead)\n",
        "        even = np.add(ahead, behind, out=ahead)\n"
        "        odd = np.subtract(ahead, behind, out=free[size : 2 * size])\n",
        SPANS,
    ),
    Mutant(
        "merge-temporaries-in-new-arrays",  # n/4 bins each at 2**16, beside the n bins
        TRANSFORM,
        "        behind = np.conjugate(packed[partners][::-1], out=free[:size])  # conj(X[m - k])\n"
        "        odd = np.subtract(ahead, behind, out=free[size : 2 * size])\n",
        "        behind = np.conjugate(packed[partners][::-1])  # conj(X[m - k])\n"
        "        odd = np.subtract(ahead, behind)\n",
        (UNITS, "-k", "merges_inside_the_free_upper_half"),
    ),
    Mutant(
        "inverse-reads-the-upper-half",  # X[m + k] is conj(X[m - k]) only if the caller kept it so
        TRANSFORM,
        "        behind = np.conjugate(packed[partners][::-1], out=free[:size])  # conj(X[m - k])\n",
        "        behind = bins[m:][span].copy()  # conj(X[m - k])\n",
        (ORACLES, "-k", "reads_only_bins_up_to_n_over_2"),
    ),
    Mutant(
        "inverse-into-the-merged-half",
        TRANSFORM,
        "    time = _fft_array(packed, free)\n",
        "    time = _fft_array(packed, packed)\n",
        (ORACLES, "-k", "reads_only_bins_up_to_n_over_2"),
    ),
    Mutant(
        "equalize-leaves-the-nyquist-bin",
        "src/dftkit/equalizer.py",
        "        half *= _half_gains(profile, n, signal.sample_rate)\n",
        "        half[:-1] *= _half_gains(profile, n, signal.sample_rate)[:-1]\n",
        (ORACLES, "-k", "equalize_matches_the_product_version"),
    ),
    Mutant(
        "spectrum-kept-past-the-magnitudes",  # n/2 + 1 bins beside the magnitudes and frequencies
        "src/dftkit/analysis.py",
        "    del half\n",
        "",
        (UNITS, "-k", "runs_in_half_the_bins"),
    ),
    Mutant(
        "analyze-keeps-its-block-buffers",  # up to 2 * _BLOCK points beside the magnitudes
        "src/dftkit/analysis.py",
        "    del blocks\n",
        "",
        (UNITS, "-k", "runs_in_half_the_bins"),
    ),
    # the input contracts
    Mutant(
        "pad-refuses-the-limit",
        TRANSFORM,
        "    if n > FFT_LIMIT:  # FFT_LIMIT is a power of two",
        "    if n >= FFT_LIMIT:  # FFT_LIMIT is a power of two",
        (UNITS, "-k", "refuses_a_signal_past_the_fast_limit"),
    ),
    Mutant(
        "finite-check-of-the-first-value",
        TRANSFORM,
        "    if not np.all(np.isfinite(values)):\n",
        "    if not np.isfinite(values[0]):\n",
        (UNITS, "-k", "rejects_non_finite"),
    ),
    Mutant(
        "mono-sum-from-minus-zero",  # a row of -0.0 would average to -0.0
        "src/dftkit/wavio.py",
        "    mono += 0.0\n",
        "",
        ("tests/test_wavio.py",),
    ),
    Mutant(
        "peaks-apart-strictly",
        "src/dftkit/analysis.py",
        "    apart = np.abs(freqs[1:] - freqs[:-1]) >= min_separation_hz\n",
        "    apart = np.abs(freqs[1:] - freqs[:-1]) > min_separation_hz\n",
        (),
        equivalent="a pair exactly min_separation_hz apart goes to the greedy pass, "
        "which keeps both as the fast path does; only the cost changes",
    ),
]


def program_files() -> list[str]:
    """The files git tracks; outside a git work tree, every file not under a dot or cache folder."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.split("\0")
    except (OSError, subprocess.CalledProcessError):  # no git, or a copy made by git archive
        listed = []
    paths = [path for path in listed if path and os.path.isfile(os.path.join(ROOT, path))]
    if paths:
        return paths
    for folder, subfolders, names in os.walk(ROOT):
        subfolders[:] = [name for name in subfolders if name[0] != "." and name != "__pycache__"]
        paths += [os.path.relpath(os.path.join(folder, name), ROOT) for name in names]
    return paths


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return ""


def run(tests: tuple[str, ...], files: list[str], edit: Mutant | None = None) -> tuple:
    """pytest's exit code (None if it hung) and a summary, in a fresh copy edited by edit."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as copy:
        for path in files:
            os.makedirs(os.path.dirname(os.path.join(copy, path)), exist_ok=True)
            shutil.copyfile(os.path.join(ROOT, path), os.path.join(copy, path))
        if edit is not None:
            target = os.path.join(copy, edit.path)
            with open(target, encoding="utf-8") as handle:
                text = handle.read()
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text.replace(edit.old, edit.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, f"hung past {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    return done.returncode, first_failure(done.stdout) or lines[-1]


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    print(f"numpy dispatch targets: {' '.join(TARGETS) or 'none (baseline loops)'}")
    files = program_files()
    # a kill counts only if the same tests pass on the program itself
    for tests in dict.fromkeys(mutant.tests for mutant in chosen if not mutant.equivalent):
        code, detail = run(tests, files)
        if code != 0:
            print(f"the unmutated program fails {' '.join(tests)}: {detail}")
            return 1
    width = max(len(mutant.name) for mutant in chosen)
    verdicts = []
    for mutant in chosen:
        start = time.perf_counter()
        with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as handle:
            count = handle.read().count(mutant.old)
        if count != 1:
            verdict, detail = "STALE", f"old text occurs {count} times in {mutant.path}"
        elif mutant.equivalent:
            verdict, detail = "equivalent", mutant.equivalent
        else:
            code, detail = run(mutant.tests, files, mutant)
            verdict = VERDICTS.get(code, "NOT RUN")
            if verdict == "NOT RUN":
                detail = f"pytest exit code {code}: {detail}"
        verdicts.append(verdict)
        seconds = time.perf_counter() - start
        print(f"{mutant.name:{width}}  {verdict:10}  {seconds:6.1f} s  {detail}", flush=True)
    killed = verdicts.count("killed")
    scored = len(verdicts) - verdicts.count("equivalent")
    print(f"score: {killed} of {scored} killed, {verdicts.count('equivalent')} equivalent")
    return 0 if killed == scored else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
