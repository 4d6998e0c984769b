"""Acceptance battery, one test per criterion.

Each test runs the corresponding suite criterion at the reference seed,
prints a single PASS/FAIL line, and enforces the per-criterion runtime
cap.  Criterion 13 additionally exercises the end-to-end determinism
guarantee: two command-line suite runs must emit byte-identical trees.
The battery's process pool returns what the criteria return in one
process, and a criterion's error or a worker's death ends the command
as a JSON payload with exit 1, leaving no worker behind.
"""

import dataclasses
import filecmp
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from horolab import suite
from horolab.cli import main
from horolab.errors import DivergentWordError
from horolab.orbits import OrbitWord, RealizedOrbit
from horolab.quadratic import LimitDecomposition
from horolab.reports import to_json_text
from horolab.suite import (
    CRITERIA,
    RUNTIME_CAPS,
    CriterionResult,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    run_battery,
)

SEED = 7


def check(fn, index):
    res = fn(SEED)
    verdict = "PASS" if res.ok else "FAIL"
    print(f"[criterion {index:02d}] {verdict} in {res.elapsed:.2f}s: {res.name}")
    assert res.ok, f"criterion {index} failed: {res.details}"
    assert res.elapsed < RUNTIME_CAPS.get(index, 120.0), (
        f"criterion {index} took {res.elapsed:.2f}s"
    )
    return res


def test_criterion_01_fixed_point_solver():
    check(criterion_1, 1)


def test_criterion_02_parameter_grid_screening():
    check(criterion_2, 2)


def test_criterion_03_degenerate_heights_on_log2_grid():
    check(criterion_3, 3)


def test_criterion_04_cocycle_sign_law():
    check(criterion_4, 4)


def test_criterion_05_containment_and_extremality():
    check(criterion_5, 5)


def test_criterion_06_certified_floor_on_cocycle_values():
    check(criterion_6, 6)


def test_criterion_07_semigroup_defect_decay():
    check(criterion_7, 7)


def test_criterion_08_cocycle_algebra():
    check(criterion_8, 8)


def test_criterion_09_field_regularity():
    check(criterion_9, 9)


def test_criterion_10_height_density():
    check(criterion_10, 10)


def test_criterion_11_collinearity_dichotomy():
    check(criterion_11, 11)


def test_criterion_12_complex_perturbation():
    check(criterion_12, 12)


def test_criterion_13_determinism(tmp_path):
    check(criterion_13, 13)
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "horolab.cli",
                "suite",
                "--epsilon",
                "-1",
                "--seed",
                str(SEED),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append((out, proc.stdout))
    assert runs[0][1] == runs[1][1], "suite stdout differs between reruns"
    d1, d2 = runs[0][0], runs[1][0]
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert "report.json" in names
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert not mismatch and not errors, f"differing files: {mismatch or errors}"
    print(f"[criterion 13] PASS: {len(names)} artifacts byte-identical across reruns")


def test_battery_matches_the_criteria_run_in_one_process():
    pooled = run_battery(SEED)
    assert multiprocessing.active_children() == []
    here = []
    for index, fn in enumerate(CRITERIA, 1):
        here.append(fn(SEED, here[3]) if index == 6 else fn(SEED))
    here.append(criterion_13(SEED, here))

    def texts(results):
        return [to_json_text([r.index, r.name, r.ok, r.details]) for r in results]

    assert texts(pooled) == texts(here)


def stand_ins(monkeypatch, index, fn):
    """Quick passing stand-ins for criteria 1-12, fn in place of criterion index."""

    def passing(i):
        return lambda seed, *earlier: CriterionResult(i, "stand-in", True, {}, 0.0, {})

    criteria = [passing(i) for i in range(1, 13)]
    criteria[index - 1] = fn
    monkeypatch.setattr(suite, "CRITERIA", criteria)


def run_suite(tmp_path, capsys):
    code = main(["suite", "--epsilon", "-1", "--seed", str(SEED), "--out", str(tmp_path)])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_error_in_a_worker_reaches_the_command_line(monkeypatch, tmp_path, capsys):
    error = DivergentWordError("stand-in word did not settle")

    def failing(seed):
        raise error

    stand_ins(monkeypatch, 9, failing)
    with pytest.raises(DivergentWordError) as raised:
        run_battery(SEED)
    assert type(raised.value) is DivergentWordError and str(raised.value) == str(error)
    assert multiprocessing.active_children() == []
    assert run_suite(tmp_path, capsys) == (1, error.payload())
    assert multiprocessing.active_children() == []


def test_dead_worker_ends_the_suite_in_a_failure_payload(monkeypatch, tmp_path, capsys):
    stand_ins(monkeypatch, 9, lambda seed: os._exit(3))
    code, payload = run_suite(tmp_path, capsys)
    assert code == 1
    assert payload["error"] == "suite-failure"
    unfinished = re.search(r"criteria left unfinished: \[([\d, ]*)\]$", payload["message"])
    assert 9 in json.loads(f"[{unfinished.group(1)}]")
    assert multiprocessing.active_children() == []


def logged_stand_ins(monkeypatch, log, errors):
    """Stand-ins for criteria 1-12 that append their index to log and
    raise errors[index] where given, in a pool of one worker, so that
    the log is the order the pool ran them in."""

    def stand_in(i):
        def run(seed, *earlier):
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            if i in errors:
                raise errors[i]
            return CriterionResult(i, "stand-in", True, {}, 0.0, {})

        return run

    monkeypatch.setattr(suite, "CRITERIA", [stand_in(i) for i in range(1, 13)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_errors_keep_registry_order_when_the_longest_task_goes_first(monkeypatch, tmp_path):
    log = tmp_path / "ran.log"
    third = DivergentWordError("criterion 3 stand-in did not settle")
    logged_stand_ins(monkeypatch, log, {3: third, 12: DivergentWordError("criterion 12 stand-in did not settle")})
    with pytest.raises(DivergentWordError) as raised:
        run_battery(SEED)
    ran = [int(line) for line in log.read_text().split()]
    assert ran[0] == 12 and 3 in ran
    assert str(raised.value) == str(third)
    assert multiprocessing.active_children() == []


def test_dead_worker_lists_the_unfinished_criteria_in_registry_order(monkeypatch, tmp_path, capsys):
    logged_stand_ins(monkeypatch, tmp_path / "ran.log", {})
    suite.CRITERIA[8] = lambda seed: os._exit(3)
    code, payload = run_suite(tmp_path / "out", capsys)
    assert code == 1 and payload["error"] == "suite-failure"
    unfinished = re.search(r"criteria left unfinished: \[([\d, ]*)\]$", payload["message"])
    lost = json.loads(f"[{unfinished.group(1)}]")
    # criterion 2 is submitted last, so the one worker dies before it
    assert {2, 9} <= set(lost) and lost == sorted(set(lost))
    assert multiprocessing.active_children() == []


def walk(obj):
    """obj and everything inside it: containers' items and dataclass fields."""
    yield obj
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from walk(item)


def test_workers_send_back_only_the_plot_inputs():
    forbidden = (RealizedOrbit, OrbitWord, LimitDecomposition)
    for task in suite.TASKS:
        if 13 in task:
            continue
        for r in suite._run_task(task, SEED):
            kinds = {type(o).__name__ for o in walk(r.artifacts) if isinstance(o, forbidden)}
            assert not kinds, f"criterion {r.index} sends back {sorted(kinds)}"
            if r.index == 4:
                assert "samples" not in r.artifacts
