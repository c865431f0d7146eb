"""Runs one workload's jobs in a fresh process through dftkit.cli.main.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the job pool and the mode:
  setup  import dftkit.cli and run the cold job, nothing else
  timed  then run whole shuffled passes over the pool until the time is up,
         timing the reference kernel (reference.py) before every job
  trace  then run a fixed list of passes untraced, and the same list again
         with every span wrapper installed

The clock for set-up starts before `import dftkit.cli`, so only standard
library modules may be imported at the top of this file.
"""

import time

_STARTED = time.perf_counter()

import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ru_maxrss is not used on Linux: it keeps the resident size of the
    process image replaced by exec, here run.py, which spawned this
    worker, so it would report run.py's memory instead of dftkit's.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(cli, job: dict) -> dict:
    """Run a job's steps in order, stopping at the first that fails."""
    stdouts, codes = [], []
    start = time.perf_counter()
    for step in job["steps"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(step["argv"])
            except Exception as exc:  # a crash is a failed job, not a failed run
                code = repr(exc)
        stdouts.append(out.getvalue())
        codes.append(code)
        if code != 0:
            break
    elapsed = time.perf_counter() - start
    digest = hashlib.sha1()
    for step, text in zip(job["steps"], stdouts):
        digest.update(text.encode())
        for key in ("output", "csv"):
            path = step["check"].get(key)
            if path and Path(path).is_file():
                digest.update(Path(path).read_bytes())
    return {"s": elapsed, "rc": codes, "digest": digest.hexdigest(), "stdout": stdouts}


def run_list(cli, jobs, order, last_stdout, tracer=None, gauge=None) -> list[dict]:
    """Run jobs by slot; keep each slot's latest stdout for the oracle.

    With a gauge, each record also holds the reference kernel's time
    measured just before the job.
    """
    records = []
    for slot in order:
        ref = gauge() if gauge is not None else None
        record = run_job(cli, jobs[slot])
        if ref is not None:
            record["ref"] = ref
        last_stdout[slot] = record.pop("stdout")
        record["slot"] = slot
        if tracer is not None:
            tracer.settle()
        records.append(record)
    return records


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    jobs = plan["jobs"]
    import dftkit.cli as cli

    cold = run_job(cli, jobs[0])
    setup_s = time.perf_counter() - _STARTED
    source = Path(cli.__file__).resolve()
    if Path(plan["src"]).resolve() not in source.parents:
        print(f"dftkit was imported from {source}, not from {plan['src']}", file=sys.stderr)
        return 3
    import reference

    kernel_file = Path(result_path).with_suffix(".ref")
    gauge = functools.partial(reference.measure, kernel_file)
    # The machine's speed just after set-up, to scale set-up time by.
    setup_ref = sorted(gauge() for _ in range(3))[1]
    result = {"setup_s": setup_s, "setup_ref": setup_ref, "cold_rc": cold["rc"]}

    rng = random.Random(plan["seed"])
    last_stdout = {}

    def next_pass():
        order = list(range(len(jobs)))
        rng.shuffle(order)
        return order

    if plan["mode"] == "timed":
        records = []
        deadline = time.perf_counter() + plan["seconds"]
        while len(records) < plan["min_jobs"] or time.perf_counter() < deadline:
            records += run_list(cli, jobs, next_pass(), last_stdout, gauge=gauge)
        result["records"] = records
        result["ref_after"] = gauge()
    elif plan["mode"] == "trace":
        import tracing

        # Each job runs once untraced and once traced, alternating which
        # goes first, so drift during the run does not bias the overhead.
        tracer = tracing.Tracer()
        untraced, traced = [], []
        order = [slot for _ in range(plan["trace_passes"]) for slot in next_pass()]
        for i, slot in enumerate(order):
            for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_side:
                    tracer.install()
                    bindings = tracer.bindings()
                    try:
                        traced += run_list(cli, jobs, [slot], last_stdout, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    untraced += run_list(cli, jobs, [slot], last_stdout)
        traced_s = sum(r["s"] for r in traced)
        untraced_s = sum(r["s"] for r in untraced)
        selfs = tracing.self_times(tracer.spans)
        roots = {span[0] for span in tracer.spans if span[3] < 0}
        result["records"] = untraced + traced
        result["trace"] = {
            "metrics": tracing.layer_metrics(
                tracer, traced_s, untraced_s, tracing.numpy_fft_seconds(tracer.transform_sizes)
            ),
            "self_sum_s": sum(selfs),
            "traced_s": traced_s,
            "roots": sorted(roots),
            "bindings": bindings,
            "transform_sizes": {str(n): c for n, c in sorted(tracer.transform_sizes.items())},
        }
    result["last_stdout"] = last_stdout
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
