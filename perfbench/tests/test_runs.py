"""Tiny smoke runs of every workload through the command line."""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import report
import workloads

ROOT = report.ROOT


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_names_match_the_code():
    doc = report.declared()
    assert [m["name"] for m in doc["per_layer"]] == list(layers.NAMES)
    assert [m["name"] for m in doc["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_declared_end_to_end_metrics(workload):
    out = result_of(run("--workload", workload, "--seed", "3",
                        "--seconds", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == list(report.metric_units(False))
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_run_prints_declared_per_layer_metrics():
    out = result_of(run("--workload", "serve-tax", "--seed", "3",
                        "--seconds", "1", "--smoke", "--trace", "1"))
    assert out["correct"]
    metrics = out["metrics"]
    assert list(metrics) == list(report.metric_units(True))
    for name in ("core.train_detector_s", "ml.mlp_fit_s", "scorer.featurize_s",
                 "service.wait_ms.paced", "service.rows_per_batch.sat"):
        assert metrics[name]["value"] > 0, name
    trace = json.loads(
        (report.BENCH_DIR / "out" / "serve-tax-seed3.trace.json").read_text()
    )
    assert {ev["pid"] for ev in trace["traceEvents"]} == {1, 2}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(report.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".state",
                                                  "__pycache__"))
    proc = run("--workload", "fit-stream-tax", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
