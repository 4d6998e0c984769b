"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import tracer
import workloads
from horolab import cocycle, orbits, quadratic
from horolab.periodic import PeriodicPoint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_WORDS", 6)
    monkeypatch.setattr(workloads, "SWEEP_PAIRS", 4)
    return workloads.sweep_inputs(3)


def test_tracer_sees_calls_made_inside_the_package(small_sweep, tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        workloads.sweep_run(small_sweep, tmp_path)
    finally:
        tr.uninstall()
    names = [s[0] for s in tr.spans]
    under_cocycle = [
        s for s in tr.spans if s[0] == "orbits.realize" and s[3] >= 0 and tr.spans[s[3]][0] == "cocycle.basic_cocycle"
    ]
    assert under_cocycle
    assert tr.counts["cocycle.realized_points"] > 0
    assert tr.layer_metrics()["orbits.realize.calls"] == names.count("orbits.realize")
    assert "quadratic.sample_words" in names and tr.counts["maps.evaluate.calls"] > 0
    # uninstall restores every binding
    assert cocycle.realize is orbits.realize and quadratic.realize is orbits.realize
    assert not hasattr(orbits.realize, "__wrapped__")


def test_injected_wrong_value_is_a_failed_op(small_sweep, tmp_path, monkeypatch):
    original = cocycle.cocycle_vs_fixed
    calls = []

    def off_by_a_little(word, tol):
        value = original(word, tol)
        calls.append(word.prefix)
        if len(calls) == 3:
            return dataclasses.replace(value, value=value.value + 1e-9)
        return value

    ops = workloads.sweep_run(small_sweep, tmp_path)
    assert workloads.sweep_check(small_sweep, ops).failures == []
    monkeypatch.setattr(cocycle, "cocycle_vs_fixed", off_by_a_little)
    verdict = workloads.sweep_check(small_sweep, workloads.sweep_run(small_sweep, tmp_path))
    assert len(verdict.failures) == 1 and "brute force" in verdict.failures[0]
    assert verdict.consistent


def test_nan_periodic_points_are_failed_ops():
    nan = complex(math.nan, math.nan)
    point = PeriodicPoint(nan, 1, nan, "indifferent")
    inputs = {"params": [complex(-1.0)], "sd_seeds": [0]}
    ops = [("periodic_points", complex(-1.0), 1, [point, point], None)]
    verdict = workloads.scan_check(inputs, ops)
    assert len(verdict.failures) == 1 and "non-finite" in verdict.failures[0]


def test_exact_period_counts():
    assert [workloads.exact_period_count(p) for p in range(1, 9)] == [2, 2, 6, 12, 30, 54, 126, 240]


def test_brute_force_reproduces_frozen_reference_values():
    # frozen depth-2000 values of the brute-force evaluator in tests/test_cocycle.py
    assert workloads.brute_betas(0.1, ["-"])["-"] == pytest.approx(0.45047942930981455, abs=1e-13)
    assert workloads.brute_betas(-1.0, ["-", ""]) == pytest.approx({"-": -1.2423743676001426, "": 0.0}, abs=1e-13)


def test_reference_time_scales_each_slice_by_the_probe_that_closes_it():
    ref = speed.REFERENCE_PROBE_S
    sampler = speed.Sampler()
    # probes ending at 1.0 (at reference speed) and 3.0 (at half of it)
    sampler.samples = [(1.0, ref), (3.0, 2 * ref)]
    # [0.5, 1.0 - ref] at full speed, then [1.0, 2.5] at half speed
    assert sampler.reference_s(0.5, 2.5) == pytest.approx(0.5 - ref + 1.5 / 2)
    assert sampler.wall_s(0.5, 2.5) == pytest.approx(2.0 - ref)
    assert sampler.reference_s(0.0, 3.0) == pytest.approx(1.0 - ref + (2.0 - 2 * ref) / 2)


def _traced_counts(out_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), "word-sweep", "5", "1", str(out_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] != "s"}
    return {k: v for k, v in layers.items() if k in counts}


def test_layer_counts_repeat_exactly_at_one_seed(tmp_path):
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert first == second
    assert first["orbits.realize.calls"] > 0 and first["cocycle.values"] > 0
    assert first["cocycle.repeat_values"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
