"""Tests of the benchmark itself: smoke runs, span arithmetic, oracles.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_tiny_run_of_each_workload_passes_its_oracles(name, trace):
    record = run.run_workload(name, 3, 0.0, trace, scale=1 / 8, min_jobs=1, setup_samples=1)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_reasons_match_the_spec():
    for workload in SPEC["workloads"]:
        assert workloads.WHY[workload["name"]] == workload["why"]


def test_job_times_are_scaled_by_the_kernel_times_around_them():
    ref = run.reference.REF_S
    records = [{"s": 1.0, "ref": ref}, {"s": 1.0, "ref": 3 * ref}, {"s": 2.0, "ref": ref}]
    assert run.scaled_times(records, ref) == pytest.approx([0.5, 0.5, 2.0])


def test_expected_moves_name_metrics_the_benchmark_reports():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for move in workloads.EXPECTED_MOVES:
        assert set(move["moves"]) <= end_to_end
        assert set(move["on"] + move["no_move_on"]) <= set(workloads.GENERATORS)
        for layer in move["layer"]:
            if "*" in layer:
                prefix, suffix = layer.split("*")
                assert any(n.startswith(prefix) and n.endswith(suffix) for n in per_layer)
            elif layer.endswith(".self_s"):
                assert layer in per_layer


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.x", 5.5, 7.0, 3),
        ("b.y", 6.5, 8.0, 3),  # overlaps b.x: the shared half second counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])
    assert sum(tracing.self_times(spans[:4])) == pytest.approx(10.0)


def test_wrappers_cover_every_module_that_binds_a_name():
    import dftkit.cli  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    try:
        bindings = tracer.bindings()
        assert {"dftkit.cli", "dftkit.analysis", "dftkit.equalizer", "dftkit.transform"} <= set(
            bindings["transform.fft"]
        )
        assert set(bindings) == set(tracing.SPANS)
    finally:
        tracer.uninstall()
    import dftkit.transform

    assert not hasattr(dftkit.transform.fft, "__wrapped__")


def _one_clip_job(tmp_path):
    import dftkit.cli as cli

    jobs = workloads.generate("clips", 5, tmp_path, scale=1 / 8)
    record = worker.run_job(cli, jobs[0])
    record["slot"] = 0
    result = {"records": [record], "last_stdout": {"0": record.pop("stdout")}}
    return jobs, result


def test_corrupted_output_file_is_a_failure(tmp_path):
    jobs, result = _one_clip_job(tmp_path)
    assert run.check_outputs(jobs, result) == ([True], [])

    out = Path(jobs[0]["steps"][2]["check"]["output"])
    blob = bytearray(out.read_bytes())
    blob[-2:] = (int.from_bytes(blob[-2:], "little", signed=True) // 2 + 3).to_bytes(2, "little", signed=True)
    out.write_bytes(bytes(blob))
    passed, problems = run.check_outputs(jobs, result)
    assert passed == [False] and any("PCM output off" in p for p in problems)


def test_corrupted_peak_table_is_a_failure(tmp_path):
    jobs, result = _one_clip_job(tmp_path)
    stdouts = result["last_stdout"]["0"]
    lines = stdouts[1].splitlines()
    fields = lines[2].split()
    fields[1] = f"{float(fields[1]) * 1.01:.4f}"
    stdouts[1] = "\n".join(lines[:2] + ["  ".join(fields)] + lines[3:]) + "\n"
    passed, problems = run.check_outputs(jobs, result)
    assert passed == [False] and any("magnitude" in p for p in problems)


def test_output_that_changes_between_runs_is_a_failure(tmp_path):
    jobs, result = _one_clip_job(tmp_path)
    first = dict(result["records"][0], digest="0" * 40)
    result["records"].insert(0, first)
    passed, _ = run.check_outputs(jobs, result)
    assert passed == [False, True]


def test_candidate_count_matches_the_find_peaks_rule():
    values = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 4.0, 0.5, 0.6])
    # Local maxima 3 (edge), 5 and 0.6 (edge); the plateau at 2 is not strict.
    assert tracing.count_candidates(values, 0.1) == 3
    assert tracing.count_candidates(values, 0.5) == 2


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clips", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
