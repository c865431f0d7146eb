"""End-to-end and per-layer benchmark of the dftkit command line.

Run from the root of a dftkit checkout:

  python3 perfbench/run.py --workload analyze-song --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all           # every workload, one table

A closed loop on one thread: each workload's jobs run one after another
through dftkit.cli.main(argv) in a fresh worker process (worker.py), with
stdout captured. Every output is checked against a numpy.fft oracle
(oracle.py). --trace 0 reports the end-to-end metrics; --trace 1 runs a
fixed job list untraced and again with span wrappers (tracing.py) and
reports the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

End-to-end times are scaled to a reference speed: each job's time is
multiplied by reference.REF_S over the time of a fixed reference kernel
run just before and just after it, and set-up time by REF_S over the
kernel's time just after set-up. On a shared machine whose speed drifts,
this keeps two runs of the same code in agreement; the unscaled figures
are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_JOBS = 40
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_p75": "s",
    "msamples_per_s": "Msamples/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(plan: dict, work: Path, tag: str, deadline: float) -> dict:
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [plan["src"], env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def check_outputs(jobs: list[dict], result: dict) -> tuple[list[bool], list[str]]:
    """Oracle-check each slot's final outputs; a job passes when it exited 0
    and its outputs are byte-identical to those of its slot's checked run."""
    slot_ok, problems = {}, []
    final_digest = {record["slot"]: record["digest"] for record in result["records"]}
    for slot, stdouts in result["last_stdout"].items():
        slot = int(slot)
        found = []
        for step, text in zip(jobs[slot]["steps"], stdouts):
            found += oracle.check_step(step["check"], text)
        slot_ok[slot] = not found and len(stdouts) == len(jobs[slot]["steps"])
        problems += [f"slot {slot}: {p}" for p in found]
    passed = []
    for record in result["records"]:
        slot, failure = record["slot"], None
        if any(code != 0 for code in record["rc"]):
            failure = f"exit codes {record['rc']}"
        elif record["digest"] != final_digest[slot]:
            failure = "output differs from the checked run"
        if failure:
            problems.append(f"slot {slot}: {failure}")
        passed.append(failure is None and slot_ok.get(slot, False))
    return passed, problems


def environment(name: str, seed: int, jobs: list[dict]) -> dict:
    """Interpreter, machine and input-size record stored with every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    padded = Counter(workloads.next_pow2(job["frames"]) for job in jobs)
    largest = max(padded)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "seed": seed,
        "workload": name,
        "why": workloads.WHY[name],
        "padded_lengths": {str(n): padded[n] for n in sorted(padded)},
        "largest_transform": f"2^{largest.bit_length() - 1} complex128 = {largest * 16 / 2**20:g} MiB",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
                 min_jobs: int = MIN_JOBS, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Generate, run and check one workload; return its full result record."""
    src = ROOT / "src"
    if not (src / "dftkit" / "cli.py").is_file():
        raise BenchError(f"no dftkit sources under {src}")
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = workloads.generate(name, seed, work / "data", scale)
        plan = {
            "src": str(src), "jobs": jobs, "seed": seed, "seconds": seconds,
            "min_jobs": min_jobs, "trace_passes": workloads.TRACE_PASSES[name],
            "mode": "trace" if trace else "timed",
        }
        result = run_worker(plan, work, "main", deadline)
        probes = [result]
        for i in range(setup_samples - 1):
            probes.append(run_worker(dict(plan, mode="setup"), work, f"setup{i}", deadline))
        passed, problems = check_outputs(jobs, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    cold_codes = [probe["cold_rc"] for probe in probes]
    if any(code != 0 for codes in cold_codes for code in codes):
        problems.append(f"cold job exit codes {cold_codes}")
    record = {
        "env": environment(name, seed, jobs),
        "attempted": len(records),
        "failed": passed.count(False),
    }
    if trace:
        info = result["trace"]
        half = len(records) // 2
        digests_match = all(
            a["digest"] == b["digest"] for a, b in zip(records[:half], records[half:])
        )
        self_sum_frac = info["self_sum_s"] / info["traced_s"]
        if not digests_match:
            problems.append("traced outputs differ from untraced outputs")
        if info["roots"] != ["cli.main"] or not 0.98 <= self_sum_frac <= 1.0 + 1e-9:
            problems.append(f"self times cover {self_sum_frac:.4f} of traced job time, roots {info['roots']}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in info["metrics"].items()}
        record["metrics"] = {k: v for k, v in metrics.items() if not tracing.informational(k)}
        record["info"] = {k: v for k, v in metrics.items() if tracing.informational(k)}
        record["trace"] = {
            "self_sum_frac": self_sum_frac,
            "bindings": info["bindings"],
            "transform_sizes": info["transform_sizes"],
            "jobs_per_side": half,
        }
    else:
        frames = sum(jobs[r["slot"]]["frames"] for r in records)
        scaled = scaled_times(records, result["ref_after"])
        refs = [r["ref"] for r in records]
        setups = [p["setup_s"] * reference.REF_S / p["setup_ref"] for p in probes]
        record["metrics"] = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in end_to_end(scaled, setups, frames, result["peak_rss_mb"]).items()
        }
        raw = end_to_end([r["s"] for r in records], [p["setup_s"] for p in probes], frames, result["peak_rss_mb"])
        p75 = record["metrics"]["job_s_p75"]["value"]
        record["samples"] = {
            "jobs": len(scaled),
            "beyond_p75": sum(t > p75 for t in scaled),
            "setup": setups,
            "fail_frac": record["failed"] / len(records),
            "ref_s_median": statistics.median(refs),
            "unscaled": {k: v for k, v in raw.items() if k != "peak_rss_mb"},
        }
    record["problems"] = problems[:20]
    record["correct"] = not problems and record["failed"] == 0
    return record


def scaled_times(records: list[dict], ref_after: float) -> list[float]:
    """Each job's time at the reference speed.

    A job is scaled by REF_S over the mean of the kernel times measured
    just before it and just before the next job (or after the last).
    """
    refs = [r["ref"] for r in records] + [ref_after]
    return [r["s"] * 2 * reference.REF_S / (a + b) for r, a, b in zip(records, refs, refs[1:])]


def end_to_end(times: list[float], setups: list[float], frames: int, rss_mb: float) -> dict:
    """The end-to-end metrics from per-job and set-up times.

    Throughput counts input frames over the summed job time, so the
    checks the benchmark makes between jobs are not charged to it.
    """
    return {
        "setup_s": statistics.median(setups),
        "job_s_p50": statistics.median(times),
        "job_s_p75": statistics.quantiles(times, n=4)[2],
        "msamples_per_s": frames / sum(times) / 1e6,
        "peak_rss_mb": rss_mb,
    }


def describe(name: str, record: dict) -> list[str]:
    env = record["env"]
    lines = [
        f"{name} (seed {env['seed']}): {record['attempted']} jobs, {record['failed']} failed"
        + (f", {record['samples']['beyond_p75']} beyond p75" if "samples" in record else "")
    ]
    for key, metric in record["metrics"].items():
        lines.append(f"  {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    for key, metric in record.get("info", {}).items():
        lines.append(f"  {key:<42} {metric['value']:>14.6g} {metric['unit']}  (informational)")
    if "samples" in record:
        samples = record["samples"]
        lines.append(f"  {'fail_frac':<42} {samples['fail_frac']:>14.6g} frac")
        lines.append(f"  reference kernel median {samples['ref_s_median']:.6g} s (REF_S {reference.REF_S:g} s); unscaled:")
        for key, value in samples["unscaled"].items():
            lines.append(f"  {key:<42} {value:>14.6g} {END_TO_END_UNITS[key]}")
    lines += [f"  problem: {p}" for p in record["problems"]]
    lines.append(environment_line(record["env"]))
    return lines


def environment_line(env: dict) -> str:
    caches = " ".join(f"{k} {v}" for k, v in env["caches_per_core"].items())
    return (
        f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, {env['cpu']}; "
        f"caches per core {caches}; largest transform {env['largest_transform']}; "
        f"padded lengths {env['padded_lengths']}"
    )


def append_record(path: Path, record: dict) -> None:
    """Append a run to a BENCH_*.json trajectory."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full result to this BENCH_*.json")
    args = parser.parse_args(argv)

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, record in results.items():
        print("\n".join(describe(name, record)))
        if args.record:
            append_record(args.record, record)
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
