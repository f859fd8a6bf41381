"""Smoke test of the benchmark itself at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_program()
from repro.dsmsort.runtime import DsmSortJob  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "fig9-sweep": lambda: workloads.Fig9Sweep(n_records=1 << 10, asu_counts=(2,)),
    "sort-large-runs": lambda: workloads.SortLargeRuns(n_records=1 << 12, n_asus=4, gamma=8),
    "ft-chaos-replicated": lambda: workloads.FtChaosReplicated(n_records=1 << 12),
    "serve-sweep": lambda: workloads.ServeSweep(arrivals=8),
}

#: report-only metrics the report prints for each workload, beside the
#: bounded ones in BENCHMARK.json
REPORTED = {
    "fig9-sweep": ("records_per_s", "job_wall_p50_s", "fail_ratio", "sim_speedup_adaptive"),
    "sort-large-runs": ("records_per_s", "job_wall_p50_s", "job_wall_tail_s", "fail_ratio"),
    "ft-chaos-replicated": (
        "records_per_s", "job_wall_p50_s", "job_wall_tail_s", "fail_ratio",
    ),
    "serve-sweep": (
        "jobs_per_s", "job_wall_p50_s", "job_wall_tail_s", "fail_ratio",
        "sim_slo_attainment", "sim_jain_fairness",
    ),
}


def _run(name: str, seed: int = 3, trace: bool = False):
    workload = TINY[name]()
    workload.n_jobs = min(workload.n_jobs, 2)
    return run.run_benchmark(workload, seed, 0.1, trace)


def _reported(lines: list[str]) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    lines, result = _run(name, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    reported = _reported(lines)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.fullmatch(rf"\S+ {re.escape(m['unit'])}", reported[m["name"]])
    assert re.fullmatch(r"[0-9a-f]{64}", reported["sim_digest"])
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0
        for key in ("measured wall_s", *REPORTED[name]):
            assert key in reported


def test_corrupted_sort_output_counts_as_failure(monkeypatch):
    original = DsmSortJob.collected_output
    monkeypatch.setattr(DsmSortJob, "collected_output", lambda job: original(job)[:-1])
    lines, result = _run("sort-large-runs")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert _reported(lines)["records_per_s"].startswith("0 ")


def test_raising_job_without_faults_is_incorrect(monkeypatch):
    def raise_in_pass2(job):
        raise RuntimeError("pass 2 broke")

    monkeypatch.setattr(DsmSortJob, "run_pass2", raise_in_pass2)
    lines, result = _run("sort-large-runs")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert _reported(lines)["failed[exception:RuntimeError]"] == str(result["attempted"])


def test_dropped_fig9_run_counts_as_failure(monkeypatch):
    original = DsmSortJob.run_pass1

    def drop_one_run(job, *args, **kwargs):
        res = original(job, *args, **kwargs)
        next(runs for runs in job.runs_on_asu if runs).pop()
        return res

    monkeypatch.setattr(DsmSortJob, "run_pass1", drop_one_run)
    _lines, result = _run("fig9-sweep")
    assert not result["correct"] and result["failed"] == 1


@pytest.mark.parametrize("name", list(TINY))
def test_digest_and_counters_repeat_per_seed(name):
    def digest_and_counts(seed):
        lines, result = _run(name, seed=seed, trace=True)
        counts = {
            k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"
        }
        return _reported(lines)["sim_digest"], counts

    first = digest_and_counts(5)
    assert digest_and_counts(5) == first
    assert digest_and_counts(6)[0] != first[0]
