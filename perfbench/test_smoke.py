"""Smoke test of the benchmark at toy sizes (about 10 s).

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(inputs.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("--workload", "hanan3d", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_same_seed_same_inputs_and_committed_optima_hold():
    workload = inputs.WORKLOADS["hanan3d"]
    seed = inputs.DEFAULT_SEED
    assert inputs.points_text(workload, seed, 5) == inputs.points_text(workload, seed, 5)
    assert inputs.points_text(workload, seed, 5) != inputs.points_text(workload, seed + 1, 5)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dsteiner
    from dsteiner.hanan import parse_points

    with open(os.path.join(HERE, "reference.json")) as fh:
        committed = json.load(fh)
    assert committed["seed"] == seed
    for name, spec in inputs.WORKLOADS.items():
        assert len(committed["optima"][name]) == spec.pool
    for i in range(3):
        inst, _ = dsteiner.build_hanan_grid(parse_points(inputs.points_text(workload, seed, i)))
        assert dsteiner.solve(inst).opt == committed["optima"]["hanan3d"][i]


def test_check_fails_wrong_cost_rejected_tree_and_errors():
    reference = {"ref": {"0": 10, "1": "ValueError: boom"},
                 "tree_costs": {"0": [10, "NotConnected: x", 12]}}
    solves = [
        [0, 0, 0.1, 10, 0, None],      # correct
        [0, 0, 0.1, 11, 0, None],      # cost differs from the reference
        [0, 0, 0.1, 10, 1, None],      # tree rejected by validate_tree
        [0, 0, 0.1, 10, 2, None],      # tree costs more than reported
        [1, 0, 0.1, 10, 0, None],      # reference could not be made
        [0, 0, 0.1, None, None, "SolveDeadline: late"],
    ]
    verdicts = run.check(solves, reference, committed=None)
    assert verdicts[0] == ""
    assert all(verdicts[1:])
    assert run.check(solves[:1], reference, committed=[9]) != [""]


def test_speed_scale_keeps_seconds_at_nominal_speed_and_cancels_drift():
    from speed import NOMINAL_S, Calibrator

    assert Calibrator.scale(0.5, NOMINAL_S, NOMINAL_S) == 0.5
    # twice as slow a machine: the interval and the kernel both double
    assert Calibrator.scale(1.0, 2 * NOMINAL_S, 2 * NOMINAL_S) == 0.5
    assert Calibrator(warmup=0).sample() > 0
