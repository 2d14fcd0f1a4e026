"""The benchmark's own tests: smoke runs of every workload and the alliance output check.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from fedmarket import alliances  # noqa: E402
from tracer import patched  # noqa: E402


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    info, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert info["counts_repeat"] is True
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    if workload == "restricted-default" and trace:
        assert metrics["distill.distill_train.calls"] == 0
        assert metrics["distill.steps"] == 0
        assert metrics["alliances.create_alliances.calls"] == 0
    if workload == "alliance-pass" and trace:
        assert metrics["nn.train_step.calls"] == 0
        assert metrics["maxclique.solve.calls"] > 0


def _one_pass() -> tuple[list, workloads._AllianceProbe]:
    consumers, owners, history = workloads.build_markets(5, workloads.ALLIANCE_SMOKE)[-1]
    probe = workloads._AllianceProbe()
    with patched(probe.targets()):
        created, _ = alliances.create_alliances(
            consumers, owners, history, 2, 2, 0.0, workloads.HIDDEN, np.random.default_rng(0),
            existing=set(), uid_start=0, id_start=len(consumers),
        )
    return created, probe


def test_check_pass_accepts_the_solver_output():
    created, probe = _one_pass()
    assert probe.conflicts and created
    assert workloads.check_pass(created, probe) == []


def test_check_pass_flags_a_conflicting_selection_and_a_wrong_value():
    created, probe = _one_pass()
    by_uid = {c.uid: c for c in probe.accepted}
    a, b = next((a, b) for a, b in sorted(probe.conflicts) if a in by_uid and b in by_uid)
    probe.selected = [by_uid[a], by_uid[b]]
    problems = workloads.check_pass([], probe)
    assert problems and "differ" in problems[0]
    created = [SimpleNamespace(candidate=c) for c in probe.selected]
    problems = workloads.check_pass(created, probe)
    assert "selection contains a conflicting pair" in problems
    assert any("!= reported" in p for p in problems)
