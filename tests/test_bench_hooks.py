"""The library names the benchmark in ``perfbench/`` wraps must keep resolving and being called.

The traced benchmark patches functions by module attribute lookup, so renaming
one of them would break it, and a call that moves elsewhere makes its counts
read 0; this keeps either from passing the suite.
"""
import importlib
import sys
from collections import Counter
from pathlib import Path

from fedmarket import alliances, distill, fed, nn, sim
from conftest import tiny_cfg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling tracer.py
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_benchmark_hooks_resolve():
    workloads = _load_workloads()
    hooks = [(module, attr) for module, attr, _ in workloads.TRACE_POINTS]
    hooks += [(module, attr) for module, attr, _ in workloads._SimProbe().targets()]
    missing = [f"{module.__name__}.{attr}" for module, attr in hooks if not callable(getattr(module, attr, None))]
    assert not missing, f"benchmark hooks no longer resolve: {missing}"


def test_benchmark_sim_configs_build():
    # The benchmark builds its configs from sim's dataclasses by field name,
    # so a renamed ScenarioConfig or PartitionSizes field fails here too.
    workloads = _load_workloads()
    for workload, scenario in workloads.SIM_WORKLOADS.items():
        for smoke in (True, False):
            cfg = workloads.sim_config(workload, 0, smoke)
            assert isinstance(cfg, sim.ScenarioConfig) and cfg.scenario == scenario


def test_benchmark_sim_hooks_are_called(tmp_path, monkeypatch):
    # A hook that still resolves but is no longer called reads 0 unnoticed;
    # the round probe also needs exactly one default_bids call per round.
    # The distill hooks are the teacher forwards and the student's Adam, which
    # the tiny fedcdc run reaches through distill_train; the fed and nn hooks
    # are local training, its steps and Adam, and FedAvg; the alliances hooks are
    # the stages of the alliance pass that sim.create_alliances runs.
    workloads = _load_workloads()
    hooks = {
        (module, attr)
        for module, attr, _ in workloads.TRACE_POINTS
        if module in (sim, distill, fed, nn, alliances)
    }
    hooks |= {(module, attr) for module, attr, _ in workloads._SimProbe().targets() if module is sim}
    # sim calls its own imported create_alliances; only the alliance-pass
    # workload looks it up in alliances.
    hooks.discard((alliances, "create_alliances"))
    assert {(distill, "forward"), (distill, "adam_step")} <= hooks
    assert {(fed, "train_step"), (nn, "adam_step"), (fed, "fedavg_aggregate")} <= hooks
    stages = ("enumerate_candidates", "offer_and_collect", "select_alliances", "instantiate", "solve")
    assert {(alliances, attr) for attr in stages} <= hooks
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "fedmarket.sim.run_fl_round" and args[1]:
                calls["rounds with owners"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in hooks:
        name = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    cfg = tiny_cfg("fedcdc")
    sim.emit_metrics(sim.run_scenario(cfg), tmp_path)
    names = sorted(f"{module.__name__}.{attr}" for module, attr in hooks)
    assert [name for name in names if not calls[name]] == []
    assert calls["fedmarket.sim.default_bids"] == cfg.rounds
    # local training is one fed.local_train call per round that recruited owners
    assert calls["fedmarket.fed.local_train"] == calls["rounds with owners"] > 0
