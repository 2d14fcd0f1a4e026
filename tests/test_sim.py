import dataclasses
import hashlib
import inspect
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket import cli, sim
from fedmarket.alliances import MAX_ENUMERABLE_CONSUMERS, DCResponse, default_policy
from fedmarket.cli import main as cli_main
from fedmarket.data import build_market_partition, gen_blobs
from fedmarket.distill import DistillConfig
from fedmarket.errors import ConfigError, check_rules
from fedmarket.fed import FLRoundConfig
from fedmarket.market import BID
from fedmarket.maxclique import WeightedGraph
from fedmarket.nn import clone_model
from fedmarket.sim import (
    AllianceRecord,
    BlobSpec,
    MetricsTrace,
    PartitionSizes,
    RoundRow,
    ScenarioConfig,
    compare_scenarios,
    config_from_dict,
    emit_metrics,
    load_config,
    recovered_gap_ratio,
    run_scenario,
)
from conftest import TINY_RUNS, output_digests, tiny_cfg, tiny_run_digests, write_idx_pair
from oracles import write_dimacs


# ---------------------------------------------------------------- data

def test_load_data_holds_one_copy_of_the_pool():
    # The train and test pools are views of one generated array, and nothing
    # else of the pool's size is alive at once: at most 1.5x its bytes.
    cfg = ScenarioConfig()
    tracemalloc.start()
    try:
        base, test = sim._load_data(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pool = base.features.nbytes + test.features.nbytes + base.labels.nbytes + test.labels.nbytes
    assert peak <= 1.5 * pool, f"peak {peak / pool:.2f}x the pool's bytes"
    assert base.features.base is not None and base.features.base is test.features.base
    assert (len(base), len(test)) == (10 * 5000, 10 * 500)


# ---------------------------------------------------------------- config

def test_default_config_loads():
    cfg = load_config("default")
    assert cfg.scenario == "fedcdc"
    assert cfg.rounds == 50
    assert cfg.partition.n_do == 24


def test_config_file_roundtrip(tmp_path):
    doc = {
        "scenario": "restricted",
        "rounds": 3,
        "seed": 11,
        "partition": {"n_dc": 3, "n_do": 24, "n_c": 4},
        "fl": {"local_epochs": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.rounds == 3
    assert cfg.fl.local_epochs == 1
    assert cfg.partition.samples_per_do == 1000  # untouched default


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"scenrio": "fedcdc"})
    with pytest.raises(ConfigError):
        config_from_dict({"fl": {"epochs": 3}})
    with pytest.raises(ConfigError, match="unknown config key 'blobs.scale'"):
        config_from_dict({"blobs": {"scale": 1.0}})


def test_check_rules_raises_the_first_broken_rule():
    check_rules([])
    check_rules([(False, "a"), (False, "b")])
    with pytest.raises(ConfigError, match="^b$"):
        check_rules([(False, "a"), (True, "b"), (True, "c")])


def test_config_sections_state_their_load_rules_as_one_table():
    """A section's load rules are rows for ``check_rules``, which holds the one raise."""
    for section in (ScenarioConfig, BlobSpec, PartitionSizes, FLRoundConfig, DistillConfig):
        assert "raise" not in inspect.getsource(section.__post_init__), section.__name__


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="ideal")
    with pytest.raises(ConfigError):
        ScenarioConfig(rounds=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="fedcdc", rounds=5, alliance_start=5)
    with pytest.raises(ConfigError):
        ScenarioConfig(mechanism="vcg")
    with pytest.raises(ConfigError, match="dc_budget"):
        ScenarioConfig(mechanism="first_price")  # default dc_budget 0.0 affords no owner
    with pytest.raises(ConfigError, match="budget_share"):
        ScenarioConfig(mechanism="first_price", dc_budget=24.0, budget_share=0.4)
    ScenarioConfig(mechanism="first_price", dc_budget=24.0, budget_share=0.5)
    ScenarioConfig(scenario="restricted", mechanism="first_price", dc_budget=24.0)
    # Each participant pays budget_share out of its dc_budget, so a larger
    # share skips every alliance and the fedcdc run equals restricted.
    for overrides, message in [
        ({"budget_share": 0.5}, "budget_share=0.5 exceeds dc_budget=0.0"),
        ({"mechanism": "first_price", "dc_budget": 1.0, "budget_share": 2.0},
         "budget_share=2.0 exceeds dc_budget=1.0"),
    ]:
        with pytest.raises(ConfigError, match=message):
            tiny_cfg("fedcdc", **overrides)
        for scenario in ("restricted", "unrestricted"):
            tiny_cfg(scenario, **overrides)
    tiny_cfg("fedcdc", budget_share=0.5, dc_budget=0.5)
    # Under first_price a participant must still afford a bid after paying its
    # share: keeping 0.5 of 1.0 would starve it from its first alliance on.
    with pytest.raises(ConfigError, match="budget_share=0.5 leaves a participant 0.5"):
        tiny_cfg("fedcdc", mechanism="first_price", dc_budget=1.0, budget_share=0.5)
    tiny_cfg("fedcdc", mechanism="first_price", dc_budget=2.0, budget_share=1.0)
    # Bids from before round 4's alliance would still be in the window at
    # round 6 and propose a stale sub-coalition.
    with pytest.raises(ConfigError, match="history_span"):
        ScenarioConfig(rounds=10, alliance_start=4, history_span=3, matching_period=2)
    ScenarioConfig(rounds=10, alliance_start=1, history_span=2, matching_period=2)
    ScenarioConfig(scenario="restricted", history_span=3, matching_period=2)
    with pytest.raises(
        ConfigError,
        match="config section 'partition': n_do=25 must divide into 4 equal owner groups",
    ):
        config_from_dict({"partition": {"n_do": 25}})
    # 20 owners make groups of 5, and the partition mechanism deals group 0's
    # five over 3 consumers 2, 2 and 1, so every scenario loads.
    five_per_group = PartitionSizes(n_dc=3, n_do=20)
    for scenario in sim.SCENARIOS:
        ScenarioConfig(scenario=scenario, partition=five_per_group)
    ScenarioConfig(
        scenario="restricted", mechanism="first_price", dc_budget=24.0, partition=five_per_group
    )
    # Section settings fail at load, naming the section and the key, not in round 0.
    with pytest.raises(ConfigError, match="'fl': batch_size"):
        config_from_dict({"fl": {"batch_size": 0}})
    with pytest.raises(ConfigError, match="'fl': lr"):
        config_from_dict({"fl": {"lr": 0.0}})
    for key in ("local_epochs", "distill_epochs"):
        with pytest.raises(ConfigError, match=f"'fl': {key} must be >= 1, got 0"):
            config_from_dict({"fl": {key: 0}})
    with pytest.raises(ConfigError, match="'distill': lr"):
        config_from_dict({"distill": {"lr": float("nan")}})
    # Values are checked against the field types, naming the dotted key.
    for doc, key in [
        ({"fl": {"batch_size": "32"}}, "fl.batch_size"),
        ({"rounds": "5"}, "rounds"),
        ({"hidden_dims": "64"}, "hidden_dims"),
        ({"hidden_dims": [64, "32"]}, r"hidden_dims\[1\]"),
        ({"hidden_dims": [64, True]}, r"hidden_dims\[1\]"),
        ({"seed": True}, "seed"),
        ({"partition": {"n_dc": 3.0}}, "partition.n_dc"),
        ({"distill": {"alpha": "1"}}, "distill.alpha"),
        ({"fl": {"method": 1}}, "fl.method"),
        ({"fl": 32}, "'fl'"),
        ({"idx": {"train_images": "a", "train_labels": "b", "test_images": "c"}},
         "idx.test_labels"),
    ]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)
    # Counts and sizes that fail only mid-run are rejected at load, naming the key.
    nine_consumers = {
        "n_dc": 9, "n_do": 90, "n_c": 4, "samples_per_do": 10, "samples_per_val": 20, "public_size": 100
    }
    for doc, key in [
        ({"min_shared_owners": 0}, "min_shared_owners must be >= 1, got 0"),
        ({"hidden_dims": [0]}, r"hidden_dims\[0\] must be >= 1, got 0"),
        ({"hidden_dims": [64, -3]}, r"hidden_dims\[1\] must be >= 1, got -3"),
        ({"samples_per_test": 0}, "samples_per_test must be >= 1, got 0"),
        ({"history_span": 0}, "history_span must be >= 1, got 0"),
        ({"budget_share": -1.0}, "budget_share must be finite and >= 0, got -1.0"),
        ({"dc_budget": -1.0}, "dc_budget must be finite and >= 0, got -1.0"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
        # a fedcdc participant's global model learns only by distillation
        ({"distill": {"epochs": 0}}, "'distill': epochs must be >= 1, got 0"),
        # blob values that would fail only in data generation or in training
        ({"blobs": {"spread": float("nan")}}, "'blobs': spread must be finite and >= 0, got nan"),
        ({"blobs": {"spread": float("inf")}}, "'blobs': spread must be finite and >= 0, got inf"),
        ({"blobs": {"spread": -1}}, "'blobs': spread must be finite and >= 0, got -1"),
        ({"blobs": {"dim": 1}}, "'blobs': dim must be >= 2, got 1"),
        ({"blobs": {"num_classes": 1}}, r"'blobs': num_classes must be in 2\.\.2\*\*dim"),
        ({"blobs": {"dim": 2, "num_classes": 5}}, "for dim=2, got 5"),
        ({"blobs": {"per_class": 0}}, "'blobs': per_class must be >= 1, got 0"),
        # vertex codes are int64 draws below 2**dim
        ({"blobs": {"dim": 64}}, "'blobs': dim must be <= 63, got 64"),
        # shard sizes that fail only in set-up or at the first evaluation
        ({"partition": {"samples_per_do": 0}}, "'partition': samples_per_do must be >= 1, got 0"),
        ({"partition": {"samples_per_do": -2}}, "'partition': samples_per_do must be >= 1, got -2"),
        ({"partition": {"samples_per_val": 0}}, "'partition': samples_per_val must be >= 1, got 0"),
        ({"partition": {"public_size": -7}}, "'partition': public_size must be >= 0, got -7"),
        # an empty public pool fails only at the first distillation
        ({"partition": {"public_size": 0}}, "partition.public_size=0"),
        ({"scenario": "restricted", "fl": {"method": "feddf"}, "partition": {"public_size": 0}},
         "partition.public_size=0"),
        # blobs too few or too small for the partition, which fail only in set-up:
        # 9 consumers' group-0 owners and validation shards take 45 + 45 samples
        # of a shared class, and the public pool 5 of every class
        ({"blobs": {"dim": 8, "num_classes": 20, "per_class": 60}, "partition": nine_consumers},
         "blobs: class 0 has 60 samples, below the 95"),
        ({"blobs": {"num_classes": 7}}, "blobs: 7 classes, below the 8"),
        ({"matching_period": 0}, "matching_period must be >= 1, got 0"),
        ({"scenario": "ideal"},
         re.escape("scenario must be one of ('unrestricted', 'restricted', 'fedcdc'), got 'ideal'")),
        ({"mechanism": "vcg"},
         re.escape("mechanism must be one of ('partition', 'first_price'), got 'vcg'")),
        ({"partition": {"n_dc": MAX_ENUMERABLE_CONSUMERS + 1, "n_do": MAX_ENUMERABLE_CONSUMERS + 2}},
         re.escape(f"partition.n_dc={MAX_ENUMERABLE_CONSUMERS + 1} exceeds the alliance "
                   f"subset-enumeration guard ({MAX_ENUMERABLE_CONSUMERS} consumers)")),
        ({"mechanism": "first_price", "dc_budget": 24.0, "budget_share": 0.4},
         re.escape("budget_share=0.4: a two-consumer alliance pools 0.8, below the first_price "
                   "bid of 1.0, so it could never win an owner")),
        # each rule is checked even past a broken one: n_do % (n_dc + 1) must not divide by 0
        ({"partition": {"n_dc": -1}}, "'partition': n_dc=-1 and n_do=24 must both be >= 1"),
        ({"partition": {"n_dc": 0}}, "'partition': n_dc=0 and n_do=24 must both be >= 1"),
    ]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)
    config_from_dict({"blobs": {"dim": 8, "num_classes": 20, "per_class": 95}, "partition": nine_consumers})
    ScenarioConfig(min_shared_owners=1, hidden_dims=[1], samples_per_test=1)
    BlobSpec(dim=2, num_classes=4, per_class=1, spread=0)
    # the smallest blobs a one-consumer partition can draw: 2 classes, 2 samples each
    smallest = {"n_dc": 1, "n_do": 2, "n_c": 2, "samples_per_do": 1, "samples_per_val": 1, "public_size": 0}
    doc = {"scenario": "restricted", "partition": smallest}
    config_from_dict({**doc, "blobs": {"dim": 2, "num_classes": 4, "per_class": 2, "spread": 0}})
    with pytest.raises(ConfigError, match="blobs: class 0 has 1 samples, below the 2"):
        config_from_dict({**doc, "blobs": {"dim": 2, "num_classes": 4, "per_class": 1, "spread": 0}})
    config_from_dict({"blobs": {"dim": 63}})
    for scenario in ("restricted", "unrestricted"):  # FedAvg distils nothing
        config_from_dict({"scenario": scenario, "partition": {"public_size": 0}})
    ScenarioConfig(hidden_dims=[])
    path = tmp_path / "zero_width.json"
    path.write_text(json.dumps({"hidden_dims": [0]}))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "error: hidden_dims[0] must be >= 1, got 0" in capsys.readouterr().err
    # A negative budget used to fail mid-run, naming a consumer instead of the key.
    for key in ("budget_share", "dc_budget"):
        with pytest.raises(ConfigError, match=f"{key} must be finite and >= 0, got inf"):
            ScenarioConfig(**{key: float("inf")})
        with pytest.raises(ConfigError, match=f"{key} must be finite and >= 0, got nan"):
            ScenarioConfig(**{key: float("nan")})
        path = tmp_path / f"negative_{key}.json"
        path.write_text(json.dumps({key: -1.0}))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key} must be finite and >= 0, got -1.0" in capsys.readouterr().err
    # An int is a float; null is an absent optional section.
    cfg = config_from_dict({"budget_share": 0, "distill": {"alpha": 1}, "idx": None})
    assert cfg.budget_share == 0 and cfg.distill.alpha == 1 and cfg.idx is None
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"fl": {"batch_size": "32"}}))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "error: fl.batch_size must be int, got '32'" in capsys.readouterr().err
    cfg_path = _write_tiny_config(tmp_path)
    argv = ["run", "--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    # An alliance pass enumerates every consumer subset, so fedcdc is guarded
    # at the consumer count the pass was measured for. n consumers need n + 1
    # owner groups, and 2 (n + 1) classes with enough samples to fill them.
    n = MAX_ENUMERABLE_CONSUMERS
    blobs = BlobSpec(num_classes=2 * (n + 2), per_class=20_000)
    ScenarioConfig(blobs=blobs, partition=PartitionSizes(n_dc=n, n_do=(n + 1) * n))
    over = PartitionSizes(n_dc=n + 1, n_do=(n + 2) * (n + 1))
    with pytest.raises(ConfigError, match="partition.n_dc"):
        ScenarioConfig(blobs=blobs, partition=over)
    ScenarioConfig(scenario="restricted", blobs=blobs, partition=over)
    # A fedcdc config under which no alliance can ever form used to run as
    # restricted; it fails at load. Any two consumers share exactly the
    # n_c // 2 shared labels and both bid on exactly owner group 0's owners.
    one_consumer = dataclasses.replace(tiny_cfg().partition, n_dc=1, n_do=12)
    for overrides, message in [
        ({"partition": one_consumer}, "partition.n_dc=1: an alliance needs 2 consumers"),
        ({"min_shared_labels": 3}, "min_shared_labels=3 exceeds the 2 labels any two consumers share"),
        ({"min_shared_owners": 7}, "min_shared_owners=7 exceeds the 6 owners any two consumers"),
    ]:
        with pytest.raises(ConfigError, match=message):
            tiny_cfg("fedcdc", **overrides)
        for scenario in ("restricted", "unrestricted"):
            tiny_cfg(scenario, **overrides)
    tiny_cfg("fedcdc", min_shared_labels=2, min_shared_owners=6)


def test_gap_ratio_undefined_when_scenarios_tie():
    assert recovered_gap_ratio(0.5, 0.5, 0.7) is None
    assert recovered_gap_ratio(0.9, 0.5, 0.7) == pytest.approx(0.5)


def test_gap_ratio_reference_values():
    # FMNIST/FedAvg reference accuracies: 82.90 / 50.67 / 79.88
    ratio = recovered_gap_ratio(0.8290, 0.5067, 0.7988)
    assert ratio == pytest.approx(0.906, abs=5e-4)


# ---------------------------------------------------------------- scenario structure

def test_restricted_recruits_eight_owners_each():
    trace = run_scenario(tiny_cfg("restricted"))
    for row in trace.rows:
        assert len(row.recruited) == 8  # 6 unique + 2 shared


def test_unrestricted_recruits_twelve_owners_each():
    trace = run_scenario(tiny_cfg("unrestricted"))
    for row in trace.rows:
        assert len(row.recruited) == 12  # 6 unique + all 6 shared


def test_contested_owner_serves_one_consumer_per_round():
    trace = run_scenario(tiny_cfg("restricted"))
    by_round: dict[int, list[int]] = {}
    for row in trace.rows:
        by_round.setdefault(row.round, []).extend(row.recruited)
    for r, owners in by_round.items():
        assert len(owners) == len(set(owners))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from(sim.SCENARIOS), st.booleans())
def test_owners_serve_one_bidder_and_participants_abstain(seed, scenario, first_price):
    overrides = TINY_RUNS["fedcdc-first_price"][1] if first_price else {}
    trace = run_scenario(tiny_cfg(scenario, seed=seed, **overrides))
    if scenario != "unrestricted":
        for r in range(trace.rows[-1].round + 1):
            owners = [o for row in trace.rows if row.round == r for o in row.recruited]
            assert len(owners) == len(set(owners)), f"round {r}: an owner serves two consumers"
    for rec in trace.alliances:
        contested = set(rec.contested_owners)
        for row in trace.rows:
            if row.round >= rec.created_round and row.dc_id in rec.participants:
                assert not set(row.recruited) & contested, (row.round, row.dc_id, rec.uid)


def test_fedcdc_forms_single_triple_alliance():
    for overrides in ({}, TINY_RUNS["fedcdc-first_price"][1]):
        trace = run_scenario(tiny_cfg("fedcdc", **overrides))
        assert len(trace.alliances) == 1
        rec = trace.alliances[0]
        assert rec.created_round == 2
        assert rec.participants == [0, 1, 2]
        assert rec.value == len(rec.participants) * len(rec.shared_labels) * len(rec.contested_owners)
        assert list(rec.payments) == list(rec.effective_budgets) == ["0", "1", "2"]
        # after creation the participants abstain from all six shared owners
        shared = set(rec.contested_owners)
        for row in trace.rows:
            if row.round >= rec.created_round:
                assert not (set(row.recruited) & shared)


def test_fedcdc_nine_consumers_run_past_the_first_alliance_pass(tmp_path):
    # The pass at round 2 picks four alliances, so four alliance rows share
    # group 0's nine owners: the partition mechanism deals them 3, 2, 2, 2.
    cfg = tiny_cfg(
        "fedcdc",
        seed=1,
        rounds=4,
        blobs=BlobSpec(dim=8, num_classes=20, per_class=200, spread=1.0),
        partition=PartitionSizes(
            n_dc=9, n_do=90, n_c=4, samples_per_do=10, samples_per_val=20, public_size=100
        ),
    )
    trace = run_scenario(cfg)
    participants = [rec.participants for rec in trace.alliances]
    assert participants == [[0, 1], [2, 3], [4, 5], [6, 7, 8]]
    assert {row.round for row in trace.rows} == set(range(4))
    # the only scenario pass that selects several alliances, pinned byte for byte
    assert output_digests(trace, tmp_path) == {
        "accuracy.csv": "2d5a6ee8187d5d054651d44d43d73b137163e0655694dc97bba5d45779bc2723",
        "alliances.json": "01a796a70c002b75c28cbe92f45d5240aff1f99987871a18509ba5d7730456a0",
        "summary.json": "84ea5d26270f2b403e7712fa0ac6204bd190636bf2f99224b6df968a1325f5c5",
    }


def test_trace_has_one_row_per_round_and_dc():
    cfg = tiny_cfg("restricted", rounds=4)
    trace = run_scenario(cfg)
    assert len(trace.rows) == 4 * 3
    seen = {(r.round, r.dc_id) for r in trace.rows}
    assert len(seen) == 12
    for row in trace.rows:
        assert 0.0 <= row.val_acc <= 1.0
        assert 0.0 <= row.test_acc <= 1.0


def test_run_is_deterministic():
    a = run_scenario(tiny_cfg("fedcdc"))
    b = run_scenario(tiny_cfg("fedcdc"))
    assert a.rows == b.rows
    assert a.alliances == b.alliances


def test_different_seeds_differ():
    a = run_scenario(tiny_cfg("restricted"))
    b = run_scenario(tiny_cfg("restricted", seed=6))
    assert a.rows != b.rows


# ---------------------------------------------------------------- round phases

def _phase_calls(monkeypatch, cfg, policy=default_policy):
    """Run ``cfg`` counting sim's calls into each round phase's library function.

    Also returns, per round, the ids of the consumers whose global model was
    distilled, and the first synthetic consumer id each alliance pass was
    given. The round starts at sim's one ``default_bids`` call, and a
    distilled model is known by the consumer holding it among those the
    alliance pass was handed. ``policy`` answers every alliance offer. Every
    owner a mechanism assigns must have had a positive bid from its recruiter
    in the matrix the mechanism was handed.
    """
    calls: Counter = Counter()
    distilled: list[list[int]] = []
    consumers: list = []
    participants: set[int] = set()
    id_starts: list[int] = []

    def start_round(*args):
        distilled.append([])

    def see_consumers(real, *args, **kwargs):
        consumers[:] = real

    def see_student(student, *args):
        [consumer] = [c for c in consumers if c.model is student]
        assert consumer.id in participants
        distilled[-1].append(consumer.id)

    hooks = {
        "default_bids": start_round, "create_alliances": see_consumers, "distill_train": see_student
    }
    for name in ("default_bids", "create_alliances", "distill_train", "run_fl_round",
                 "match_random_partition", "match_first_price"):
        def wrapper(*args, _name=name, _fn=getattr(sim, name), **kwargs):
            calls[_name] += 1
            hooks.get(_name, lambda *a, **k: None)(*args, **kwargs)
            if _name == "create_alliances":
                kwargs["policy"] = policy
                id_starts.append(kwargs["id_start"])
            out = _fn(*args, **kwargs)
            if _name.startswith("match_"):
                assert out and all(args[0][cid, oid] > 0 for oid, cid in out.items())
            if _name == "create_alliances":
                participants.update(p for a in out[0] for p in a.candidate.participants)
            return out

        monkeypatch.setattr(sim, name, wrapper)
    trace = run_scenario(cfg)
    assert calls.pop("default_bids") == cfg.rounds
    return calls, distilled, trace, id_starts


def test_phase_call_counts_restricted(monkeypatch):
    calls, distilled, _, _ = _phase_calls(monkeypatch, tiny_cfg("restricted"))
    assert dict(calls) == {"run_fl_round": 18, "match_random_partition": 3}
    assert distilled == [[]] * 6


@pytest.mark.parametrize("run", ["fedcdc", "fedcdc-first_price"])
def test_phase_call_counts_fedcdc(monkeypatch, run):
    # Two alliance passes (rounds 2 and 4); three participants distilled in
    # each of rounds 2-5; three consumers train in rounds 0-1 and three plus
    # the alliance in rounds 2-5; matching at rounds 0, 2 and 4.
    scenario, overrides = TINY_RUNS[run]
    calls, distilled, trace, id_starts = _phase_calls(monkeypatch, tiny_cfg(scenario, **overrides))
    mechanism = "match_first_price" if overrides else "match_random_partition"
    assert dict(calls) == {
        "create_alliances": 2, "distill_train": 12, "run_fl_round": 22, mechanism: 3
    }
    assert [rec.participants for rec in trace.alliances] == [[0, 1, 2]]
    assert distilled == [[], [], [0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2]]
    # Synthetic consumer ids follow the real ones, one per alliance formed.
    assert id_starts == [3, 4]


def test_alliance_between_matchings_triggers_one(monkeypatch):
    # Matchings fall on even rounds; the alliance formed at round 3 gets its
    # owners through an extra matching at round 3, and the round-5 pass forms
    # none, so round 5 keeps round 4's matching.
    cfg = tiny_cfg("fedcdc", alliance_start=3)
    calls, distilled, trace, id_starts = _phase_calls(monkeypatch, cfg)
    assert [(rec.created_round, rec.participants) for rec in trace.alliances] == [(3, [0, 1, 2])]
    assert dict(calls) == {
        "create_alliances": 2, "distill_train": 9, "run_fl_round": 21, "match_random_partition": 4
    }
    assert id_starts == [3, 4]
    shared = set(trace.alliances[0].contested_owners)
    for row in trace.rows:
        assert bool(set(row.recruited) & shared) == (row.round < 3)


def test_only_alliance_participants_are_distilled(monkeypatch):
    # Consumer 2 turns every offer down, so only the pair {0, 1} can form;
    # consumer 2 keeps training its global model and is never distilled.
    def without_consumer_2(consumer, offers):
        response = default_policy(consumer, offers)
        return DCResponse(set() if consumer.id == 2 else response.accepted, response.conflicts)

    calls, distilled, trace, _ = _phase_calls(monkeypatch, tiny_cfg("fedcdc"), without_consumer_2)
    assert [rec.participants for rec in trace.alliances] == [[0, 1]]
    assert dict(calls) == {
        "create_alliances": 2, "distill_train": 8, "run_fl_round": 22, "match_random_partition": 3
    }
    assert distilled == [[], [], [0, 1], [0, 1], [0, 1], [0, 1]]


def test_alliance_rows_bid_only_on_their_contested_owners(monkeypatch, caplog):
    # The round-2 alliance is cut to owners 0-2 of the six shared ones, so its
    # participants keep bidding on owners 3-5, and the round-4 pass forms a
    # second alliance of consumers 0 and 1 over those. Each alliance row bids
    # on its own owners alone, and each participant abstains from its
    # alliances' owners. First price, because the partition mechanism cannot
    # split owners 3-5 over consumer 2 and the second alliance.
    create_alliances = sim.create_alliances

    def first_on_three_owners(*args, **kwargs):
        created, next_uid = create_alliances(*args, **kwargs)
        if kwargs["created_round"] == 2:
            for a in created:
                a.candidate = dataclasses.replace(a.candidate, contested=frozenset({0, 1, 2}))
        return created, next_uid

    matched = []
    match = sim.match_first_price

    def capture(bids, budgets):
        matched.append(bids.copy())
        return match(bids, budgets)

    monkeypatch.setattr(sim, "create_alliances", first_on_three_owners)
    monkeypatch.setattr(sim, "match_first_price", capture)
    with caplog.at_level(logging.WARNING):
        trace = run_scenario(tiny_cfg("fedcdc", **TINY_RUNS["fedcdc-first_price"][1]))
    assert [
        (rec.created_round, rec.participants, rec.contested_owners, rec.synthetic_dc_id)
        for rec in trace.alliances
    ] == [(2, [0, 1, 2], [0, 1, 2], 3), (4, [0, 1], [3, 4, 5], 4)]
    assert [b.shape for b in matched] == [(3, 24), (4, 24), (5, 24)]
    first, second = np.zeros(24), np.zeros(24)
    first[0:3] = second[3:6] = BID
    assert (matched[1][3] == first).all() and (matched[2][3] == first).all()
    assert (matched[2][4] == second).all()
    assert (matched[1][:3, :3] == 0).all() and (matched[1][:3, 3:6] == BID).all()
    assert (matched[2][:2, :6] == 0).all()
    assert (matched[2][2, :3] == 0).all() and (matched[2][2, 3:6] == BID).all()
    # Row 4 is the second alliance's, which wins no owner in rounds 4 and 5.
    starved = [rec.getMessage() for rec in caplog.records if "starved" in rec.getMessage()]
    assert starved == [f"round {r}: alliance 4 recruited no owners (starved)" for r in (4, 5)]


# ---------------------------------------------------------------- metrics files

def test_emit_row_count(tmp_path):
    trace = run_scenario(tiny_cfg("restricted", rounds=1))
    paths = emit_metrics(trace, tmp_path)
    lines = (tmp_path / "accuracy.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + one row per DC
    assert lines[0] == "round,dc_id,val_acc,test_acc,mean_acc"


def test_emit_no_alliances_is_empty_list(tmp_path):
    trace = run_scenario(tiny_cfg("restricted", rounds=1))
    emit_metrics(trace, tmp_path)
    assert json.loads((tmp_path / "alliances.json").read_text()) == []


def test_emit_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    emit_metrics(run_scenario(tiny_cfg("fedcdc")), out1)
    emit_metrics(run_scenario(tiny_cfg("fedcdc")), out2)
    for name in ("accuracy.csv", "alliances.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# SHA-256 of the three output files of the tiny scenarios. They pin the
# numbers, not only run-to-run determinism: a change that moves any output
# bit must re-baseline these and say why in CHANGES.md.
NO_ALLIANCES = "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"
TINY_GOLDEN = {
    "restricted": {
        "accuracy.csv": "a8b33a881afdb09e0c60e20f0ae61abb8a0c658bd94393359a8a4ce2a93261b9",
        "alliances.json": NO_ALLIANCES,
        "summary.json": "f26e4d5530aa7ff53923cc0f40618e8940ae45a22ca9c593a72dca4d1bc37664",
    },
    "fedcdc": {
        "accuracy.csv": "e9984e8a34a6e000fa202f989af974eb7f342896d1855b3eb48b79d0a10c224c",
        "alliances.json": "ac3a4952d49aff7935d54dee927d9cd884f6359054997f7fb0b4c6e02fc2add0",
        "summary.json": "2a5b6c09ff93e6d0b3d584ef1d6cf9f6c75cab5a04f9fae23adc20377e311386",
    },
    "unrestricted": {
        "accuracy.csv": "dfcbc45cb29faba00c25caaa749438c6b70b0d08fec1a55a62027745cefca702",
        "alliances.json": NO_ALLIANCES,
        "summary.json": "50a41bb660b479a40a14ecf0798e3d2912cd4b241fe054f132120f663ea16e98",
    },
    "restricted-first_price": {
        "accuracy.csv": "3bd961d9b6c4e88c6e0aec5435383eb78e2f7a0987481dbdd0c5e5ae7dc82a85",
        "alliances.json": NO_ALLIANCES,
        "summary.json": "14b599cf810ab239edc7ce9d5c39e9ec54a44879256ecb7c858012f33b4622df",
    },
    "fedcdc-first_price": {
        "accuracy.csv": "2e88ff0adf047605f6122698f82f3eb5bdac17ec3347cabbfacdd8e2c263a3f5",
        "alliances.json": "56d16623132b9b8a9f81f7eb1e4dd9fb2d5ebce0549123936700f35dc12f13e2",
        "summary.json": "0a78ac19615a2f7712a0b6e497fa5313a2e2e2f36a7e79a9b75ba29d1d48296f",
    },
    "restricted-feddf": {
        "accuracy.csv": "0b8dfaf9b998813e53f12a3443b9f06c17291f23ba020abc749727db9c87007a",
        "alliances.json": NO_ALLIANCES,
        "summary.json": "d2a20769571be84c71b0ab585d36894a87e832a547cf23676df0695b3da303cf",
    },
    "fedcdc-feddf": {
        "accuracy.csv": "aeb235e4d8248458be8ef8cf69b7d95423ec7bf3bd25237245c06211d533c882",
        "alliances.json": "ac3a4952d49aff7935d54dee927d9cd884f6359054997f7fb0b4c6e02fc2add0",
        "summary.json": "bdabc83f1e330eab3d7f63e5daa1b5f181d09f1b64f4cffa073b88218ba55ce2",
    },
    "fedcdc-alpha-half": {
        "accuracy.csv": "723a7df5d79355f73cbd49f26beb02cc7d5b4db9cee59a48dfe5f26b915b8175",
        "alliances.json": "ac3a4952d49aff7935d54dee927d9cd884f6359054997f7fb0b4c6e02fc2add0",
        "summary.json": "d63ecacdd8671a41819d4a83264c6481805d6a7ad9d45de62b843518386f96a0",
    },
}


@pytest.mark.parametrize("run", sorted(TINY_GOLDEN))
def test_emit_matches_golden_digests(tmp_path, run):
    assert tiny_run_digests(run, tmp_path) == TINY_GOLDEN[run]


def test_tiny_goldens_hold_under_one_blas_thread():
    # OpenBLAS fixes its thread count when numpy is first imported, so the
    # runs go in a fresh process that sets it first.
    tests = Path(__file__).resolve().parent
    src = str(Path(sim.__file__).resolve().parents[1])
    code = (
        "import json, sys, tempfile\n"
        "from conftest import TINY_RUNS, tiny_run_digests\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    json.dump({run: tiny_run_digests(run, f'{out}/{run}') for run in TINY_RUNS}, sys.stdout)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, str(tests)])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == TINY_GOLDEN


# SHA-256 of the tiny runs' three output files when the data comes from IDX files.
IDX_GOLDEN = {
    "restricted": {
        "accuracy.csv": "1c80e338117d703056bb7c805bd60e30d1f34bad385174d57698711cb2532c28",
        "alliances.json": NO_ALLIANCES,
        "summary.json": "167f13662b122ff643ae1174ced94725359cf4725fe9a71d6565c34cf958caf4",
    },
    "fedcdc": {
        "accuracy.csv": "6cae57cc394cf5c97ea61d84aa1e0778dcdaf6372cc515481838b52be84f06ca",
        "alliances.json": "ac3a4952d49aff7935d54dee927d9cd884f6359054997f7fb0b4c6e02fc2add0",
        "summary.json": "9448fd4d06a8a0180644e25d7cabbaf12aad07df9da35a78b09d4e0b48c66091",
    },
}


@pytest.mark.parametrize("scenario", sorted(IDX_GOLDEN))
def test_idx_config_matches_golden_digests(tmp_path, scenario):
    # A blobs draw on a 4x4 grid, quantised to uint8 pixels, stands in for an
    # image dataset read through the config's idx section.
    per_class, held_out = 250, 20
    pool = gen_blobs(10, 16, per_class, 0.5, [0], held_out=held_out)
    pixels = np.clip(np.rint((pool.features + 1.0) * 85.0), 0, 255).astype(np.uint8)
    images, labels = pixels.reshape(-1, 4, 4), pool.labels.astype(np.uint8)
    kept = 10 * per_class
    doc = dataclasses.asdict(tiny_cfg(scenario))
    doc["idx"] = {}
    for split, rows in (("train", slice(None, kept)), ("test", slice(kept, None))):
        img, lbl = write_idx_pair(tmp_path / split, images[rows], labels[rows])
        doc["idx"].update({f"{split}_images": str(img), f"{split}_labels": str(lbl)})
    assert output_digests(run_scenario(config_from_dict(doc)), tmp_path / "out") == IDX_GOLDEN[scenario]


def test_idx_class_counts_fail_as_soon_as_read(tmp_path):
    # tiny_cfg's partition may draw 230 samples from any one class, and its
    # consumers' test shards 20; one sample fewer fails before the partition.
    def idx_doc(train_per_class, test_per_class):
        doc = dataclasses.asdict(tiny_cfg("restricted"))
        doc["idx"] = {}
        for split, counts in (("train", train_per_class), ("test", test_per_class)):
            labels = np.repeat(np.arange(10), counts).astype(np.uint8)
            images = np.zeros((len(labels), 4, 4), dtype=np.uint8)
            img, lbl = write_idx_pair(tmp_path / split, images, labels)
            doc["idx"].update({f"{split}_images": str(img), f"{split}_labels": str(lbl)})
        return config_from_dict(doc)

    short = [230] * 10
    short[3] = 229
    cfg = idx_doc(short, 20)
    with pytest.raises(ConfigError, match="idx.train_labels: class 3 has 229 samples, below the 230"):
        sim._load_data(cfg)
    cfg = idx_doc(230, [20] * 9 + [19])
    with pytest.raises(ConfigError, match="idx.test_labels: class 9 has 19 samples, below the 20"):
        sim._load_data(cfg)
    cfg = idx_doc(230, 20)
    base, test = sim._load_data(cfg)
    build_market_partition(cfg.partition, base, cfg.seed)
    cfg.partition = dataclasses.replace(cfg.partition, n_dc=5, n_do=36)  # 6 groups of 2 classes
    with pytest.raises(ConfigError, match="idx.train_labels: 10 classes, below the 12"):
        sim._load_data(cfg)


def test_idx_test_class_outside_the_training_classes_fails_naming_the_key(tmp_path):
    doc = dataclasses.asdict(tiny_cfg("restricted"))
    doc["idx"] = {}
    for split, classes in (("train", 10), ("test", 13)):
        labels = np.repeat(np.arange(classes), 230).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path / split, np.zeros((len(labels), 4, 4), np.uint8), labels)
        doc["idx"].update({f"{split}_images": str(img), f"{split}_labels": str(lbl)})
    with pytest.raises(ConfigError, match="idx.test_labels: class 12 is not among the 10 classes"):
        sim._load_data(config_from_dict(doc))


def test_emit_two_digit_consumer_ids(tmp_path):
    # JSON object keys are strings and sort as strings, so consumer 10's
    # payment is written before consumer 2's.
    rec = AllianceRecord(
        uid=4,
        created_round=1,
        participants=[2, 10],
        shared_labels=[0, 1],
        contested_owners=[3, 7],
        value=8,
        payments={"2": 0.5, "10": 0.5},
        effective_budgets={"2": 1.5, "10": 1.5},
        budget=1.0,
        synthetic_dc_id=11,
    )
    rows = [RoundRow(0, 2, 0.25, 0.5, [3]), RoundRow(0, 10, 0.75, 0.5, [7])]
    trace = MetricsTrace("fedcdc", 3, rows, [rec], {2: 0.25, 10: 0.75}, {2: 0.5, 10: 0.5})
    emit_metrics(trace, tmp_path)
    text = (tmp_path / "alliances.json").read_text()
    assert text.index('"10": 0.5') < text.index('"2": 0.5')
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "5925d7c44df43e0b0efdaa7f5ceae2e3b64dd6caf490f9d96148584b46ca8f58"


def test_summary_contents(tmp_path):
    trace = run_scenario(tiny_cfg("fedcdc"))
    emit_metrics(trace, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "fedcdc"
    assert summary["n_alliances"] == 1
    assert 0.0 <= summary["final_mean_test_acc"] <= 1.0
    assert set(summary["per_dc"]) == {"0", "1", "2"}


# ---------------------------------------------------------------- compare

def test_compare_scenarios_structure():
    report = compare_scenarios(tiny_cfg("restricted", rounds=3))
    assert set(report["final_mean_test_acc"]) == {"unrestricted", "restricted", "fedcdc"}
    ratio = report["recovered_gap_ratio"]
    assert isinstance(ratio, float) or ratio == "undefined (zero gap)"


def test_compare_scenarios_checks_every_config_before_any_run(monkeypatch):
    # alliance_start is checked only for fedcdc, the last scenario run.
    cfg = tiny_cfg("restricted", rounds=3, alliance_start=5)
    runs = []
    monkeypatch.setattr(sim, "run_scenario", lambda c: runs.append(c.scenario))
    with pytest.raises(ConfigError, match="alliance_start=5 must fall inside the 3 rounds"):
        compare_scenarios(cfg)
    assert runs == []


# ---------------------------------------------------------------- cli

def _write_tiny_config(tmp_path, scenario="restricted"):
    cfg = tiny_cfg(scenario)
    doc = {
        "scenario": cfg.scenario,
        "rounds": cfg.rounds,
        "matching_period": cfg.matching_period,
        "alliance_start": cfg.alliance_start,
        "history_span": cfg.history_span,
        "seed": cfg.seed,
        "samples_per_test": cfg.samples_per_test,
        "blobs": dataclasses.asdict(cfg.blobs),
        "partition": dataclasses.asdict(cfg.partition),
        "fl": dataclasses.asdict(cfg.fl),
        "distill": dataclasses.asdict(cfg.distill),
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run(tmp_path, capsys):
    cfg_path = _write_tiny_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "accuracy.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert "final mean test acc" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    cfg_path = _write_tiny_config(tmp_path)
    rc = cli_main(["run", "--config", str(cfg_path), "--seed", "9", "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seed"] == 9


def test_cli_compare(tmp_path, capsys):
    cfg_path = _write_tiny_config(tmp_path)
    rc = cli_main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "restricted" in out and "fedcdc" in out
    assert (tmp_path / "cmp" / "compare.json").exists()


def test_cli_solve_mwc(tmp_path, capsys):
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    g = WeightedGraph([2, 3, 4], adj)
    path = tmp_path / "g.dimacs"
    write_dimacs(g, path)
    rc = cli_main(["solve-mwc", "--graph", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "weight: 5" in out
    assert "clique: 1 2" in out


def test_cli_solve_mwc_malformed_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    path.write_text("p edge 2 1\nn 2\n")
    assert cli_main(["solve-mwc", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: expected two integers, got 'n 2'\n"


def _nan_model(model):
    out = clone_model(model)
    out.flat[0] = np.nan
    return out


def test_starvation_is_logged_by_sim_naming_the_round(monkeypatch, caplog):
    # Consumer 1 loses its owners in round 0's matching, which holds until
    # round 2's, so it starves in rounds 0 and 1 and its model stays as built.
    match = sim.match_random_partition

    def without_consumer_1(bids, seed):
        out = match(bids, seed)
        return {o: c for o, c in out.items() if c != 1} if seed[-1] == 0 else out

    monkeypatch.setattr(sim, "match_random_partition", without_consumer_1)
    with caplog.at_level(logging.WARNING):
        trace = run_scenario(tiny_cfg("restricted"))
    starved = [(rec.name, rec.getMessage()) for rec in caplog.records if "starved" in rec.getMessage()]
    assert starved == [
        ("fedmarket.sim", f"round {r}: consumer 1 recruited no owners (starved)") for r in (0, 1)
    ]
    rows = [row for row in trace.rows if row.dc_id == 1]
    assert [row.recruited for row in rows[:2]] == [[], []] and rows[2].recruited
    assert rows[0].val_acc == rows[1].val_acc


def test_non_finite_local_model_stops_run(monkeypatch):
    def nan_round(start, owners, cfg, rng, public=None):
        return _nan_model(start)

    monkeypatch.setattr(sim, "run_fl_round", nan_round)
    with pytest.raises(FloatingPointError, match="round 0: consumer 0.*local training"):
        run_scenario(tiny_cfg("restricted"))


def test_non_finite_distilled_model_stops_run(monkeypatch):
    monkeypatch.setattr(sim, "distill_train", lambda student, *args: _nan_model(student))
    cfg = tiny_cfg("fedcdc")
    with pytest.raises(
        FloatingPointError, match=f"round {cfg.alliance_start}: consumer 0.*distillation"
    ):
        run_scenario(cfg)


def test_cli_reports_non_finite_model(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "distill_train", lambda student, *args: _nan_model(student))
    cfg_path = _write_tiny_config(tmp_path, "fedcdc")
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: round 2: consumer 0's model has non-finite parameters after distillation" in (
        capsys.readouterr().err
    )


def test_cli_unreadable_config_path_exits_2(tmp_path, capsys):
    rc = cli_main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert not (tmp_path / "o").exists()


def test_cli_unusable_out_path_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("the scenario ran before the output directory was made")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(cli, "compare_scenarios", no_run)
    cfg_path = _write_tiny_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("run", "compare"):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err


def test_readme_config_block_is_the_default_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    default = ScenarioConfig()
    assert config_from_dict(block) == default
    # every field of every section is named, except the optional idx section
    fields = {f.name for f in dataclasses.fields(default)} - {"idx"}
    assert set(block) == fields
    for name in fields:
        value = getattr(default, name)
        if dataclasses.is_dataclass(value):
            assert set(block[name]) == {f.name for f in dataclasses.fields(value)}, name


def test_cli_bad_config_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "nope"}))
    rc = cli_main(["run", "--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_leaf_modules_import_without_the_simulator():
    # The package root re-exports nothing, so a leaf module loads only its own imports.
    src = str(Path(sim.__file__).resolve().parents[1])
    code = (
        "import sys, fedmarket.nn, fedmarket.data, fedmarket.maxclique; "
        "print('fedmarket.sim' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
