"""Quick self-tests of the benchmark, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the root of
the repository.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from measure import measure
from tracer import LAYERS, Tracer
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, seed: int = 0, *, trace: bool = False, corrupt=None) -> dict:
    return measure(workload, seed, 0.0, trace, sizes=TINY[workload], corrupt=corrupt)


def test_spec_names_the_workloads_and_setup_bound():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_reports_every_metric_with_its_unit(workload):
    from repro.fleet.simulator import FleetSimulator

    original_run = FleetSimulator.run
    plain = tiny(workload)
    traced = tiny(workload, trace=True)
    assert FleetSimulator.run is original_run  # the tracer unpatched

    for result, trace, section in ((plain, False, "end_to_end"), (traced, True, "per_layer")):
        pooled = run.combine([result, result])
        assert pooled["failed"] == 0 and pooled["attempted"] >= 5
        metrics = run.metrics_from(pooled, trace=trace)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        if not trace:
            assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_sim_metrics_repeat_at_a_seed_and_move_with_it(workload):
    first, again, other = tiny(workload, 0), tiny(workload, 0), tiny(workload, 1)
    assert first["sim"] == again["sim"]
    assert first["sim"]["sim_makespan_s"] != other["sim"]["sim_makespan_s"]


def test_corrupted_round_output_counts_as_failed():
    def perturb(output):
        return [dataclasses.replace(output[0], step_time=output[0].step_time * 1.01)]

    result = tiny("paper-runtime", corrupt=perturb)
    assert result["failed"] == result["attempted"] - 1 == 1  # the round, not the reference


def test_fleet_output_losing_a_job_counts_as_failed():
    def drop_job(output):
        return dataclasses.replace(output, completions=output.completions[:-1])

    result = tiny("fleet-stream", corrupt=drop_job)
    assert result["failed"] == TINY["fleet-stream"]["num_jobs"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer(targets=())
    tracer.begin_round(0)
    tracer.spans = [
        ["fleet.loop", 0.0, 10.0, -1, 0],
        ["fleet.policy", 1.0, 4.0, 0, 0],
        ["fleet.estimator", 2.0, 3.0, 1, 0],
        ["fleet.estimator", 2.5, 2.75, 2, 0],
    ]
    out = tracer.end_round(10.0)
    assert out["fleet.loop_ms"] == pytest.approx(7000.0)  # self: minus the policy call
    assert out["fleet.policy_ms"] == pytest.approx(3000.0)  # inclusive
    assert out["fleet.estimator_ms"] == pytest.approx(1000.0)  # outermost only
    assert out["bench.layer_coverage"] == pytest.approx(1.0)
    assert set(f"{layer}_ms" for layer in LAYERS) <= set(out)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-runtime", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
