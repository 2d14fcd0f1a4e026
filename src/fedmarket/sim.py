"""Scenario orchestration: market round loop, metric traces, and reports.

Three scenarios share one data partition: ``unrestricted`` (every consumer
recruits every interested owner), ``restricted`` (contested owners split by
the matching mechanism), and ``fedcdc`` (restricted, plus alliances formed
from the bidding history whose models are merged into each participant's
global model by distillation every round).
"""
from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alliances import MAX_ENUMERABLE_CONSUMERS, Alliance, candidate_value, create_alliances
from .data import (
    BlobSpec,
    LabeledDataset,
    PartitionSizes,
    UnlabeledDataset,
    build_market_partition,
    gen_blobs,
    load_idx,
    take_class_balanced,
)
from .distill import DistillConfig, distill_train
from .errors import ConfigError
from .fed import FLRoundConfig, evaluate, run_fl_round
from .market import (
    BID,
    BiddingHistory,
    DataConsumer,
    DataOwner,
    default_bids,
    match_first_price,
    match_random_partition,
    record_bids,
)
from .nn import Mlp, clone_model, init_mlp

log = logging.getLogger(__name__)

SCENARIOS = ("unrestricted", "restricted", "fedcdc")
MECHANISMS = ("partition", "first_price")

# Salts separating the RNG streams derived from the scenario seed.
_S_BASE_DATA = 1
_S_TEST_SLICE = 3
_S_MODEL_INIT = 4
_S_MATCHING = 5
_S_TRAINING = 6
_S_DISTILL = 7
_S_ALLIANCE = 8


@dataclass
class IdxPaths:
    """IDX file quadruple for running on a real image dataset."""

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str


@dataclass
class ScenarioConfig:
    scenario: str = "fedcdc"
    rounds: int = 50
    matching_period: int = 5
    alliance_start: int = 10
    seed: int = 0
    samples_per_test: int = 2000
    mechanism: str = "partition"
    history_span: int = 5
    min_shared_labels: int = 2
    min_shared_owners: int = 2
    budget_share: float = 0.0
    dc_budget: float = 0.0
    hidden_dims: list[int] = field(default_factory=lambda: [64, 32])
    blobs: BlobSpec = field(default_factory=BlobSpec)
    idx: IdxPaths | None = None
    partition: PartitionSizes = field(default_factory=PartitionSizes)
    fl: FLRoundConfig = field(default_factory=FLRoundConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")
        # min_shared_owners=0 admits candidates of value 0, which the
        # max-clique solver would refuse only at the first alliance pass.
        counts = [(k, getattr(self, k)) for k in (
            "rounds", "matching_period", "history_span", "samples_per_test", "min_shared_owners"
        )]
        counts += [(f"hidden_dims[{i}]", d) for i, d in enumerate(self.hidden_dims)]
        for key, n in counts:
            if n < 1:
                raise ConfigError(f"{key} must be >= 1, got {n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.scenario == "fedcdc" and not 0 <= self.alliance_start < self.rounds:
            raise ConfigError(
                f"alliance_start={self.alliance_start} must fall inside the {self.rounds} rounds"
            )
        if self.scenario == "fedcdc" and self.history_span > self.matching_period:
            raise ConfigError(
                f"history_span={self.history_span} exceeds matching_period="
                f"{self.matching_period}: bids from before an alliance formed would "
                f"still be in the window at the next creation pass and propose stale "
                f"sub-coalitions"
            )
        for key in ("budget_share", "dc_budget"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if self.mechanism == "first_price" and self.dc_budget < BID:
            raise ConfigError(
                f"dc_budget={self.dc_budget} is below the first_price bid of "
                f"{BID}: no consumer could ever win an owner"
            )
        if self.scenario == "fedcdc" and self.budget_share > self.dc_budget:
            raise ConfigError(
                f"budget_share={self.budget_share} exceeds dc_budget={self.dc_budget}: "
                f"no participant could pay its share, so no alliance would ever form"
            )
        if self.scenario == "fedcdc" and self.mechanism == "first_price":
            if 2 * self.budget_share < BID:
                raise ConfigError(
                    f"budget_share={self.budget_share}: a two-consumer alliance pools "
                    f"{2 * self.budget_share}, below the first_price bid of {BID}, "
                    f"so it could never win an owner"
                )
            if self.dc_budget - self.budget_share < BID:
                raise ConfigError(
                    f"budget_share={self.budget_share} leaves a participant "
                    f"{self.dc_budget - self.budget_share} of dc_budget={self.dc_budget}, "
                    f"below the first_price bid of {BID}, so it could never win an owner"
                )
        if self.scenario == "fedcdc" and self.partition.n_dc > MAX_ENUMERABLE_CONSUMERS:
            raise ConfigError(
                f"partition.n_dc={self.partition.n_dc} exceeds the alliance "
                f"subset-enumeration guard ({MAX_ENUMERABLE_CONSUMERS} consumers)"
            )
        sizes = self.partition
        if (self.scenario == "fedcdc" or self.fl.method == "feddf") and sizes.public_size < 1:
            raise ConfigError(
                f"partition.public_size={sizes.public_size} leaves no public data to distil on"
            )
        if self.idx is None:  # an idx dataset's class counts are checked once read
            b = self.blobs
            if b.num_classes < sizes.classes_needed:
                raise ConfigError(
                    f"blobs.num_classes={b.num_classes} is below the {sizes.classes_needed} "
                    f"classes the partition's {sizes.n_dc + 1} owner groups hold"
                )
            if b.per_class < (need := sizes.per_class_demand(b.num_classes)):
                raise ConfigError(
                    f"blobs.per_class={b.per_class} is below {need}, the most samples "
                    f"the partition can draw from one class"
                )


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a parsed JSON document.

    Unknown and missing keys and values of the wrong type are rejected before
    anything is built, each error naming the dotted key (``fl.batch_size``).
    """
    return _build(ScenarioConfig, doc, "")


def _build(cls: type, doc: object, prefix: str) -> object:
    """One config dataclass from its JSON object; ``prefix`` is its dotted path."""
    if not isinstance(doc, dict):
        where = f"config section {prefix[:-1]!r}" if prefix else "a config"
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    extra = set(doc) - set(fields)
    if extra:
        raise ConfigError(f"unknown config key {prefix + sorted(extra)[0]!r}")
    for name, f in fields.items():
        no_default = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if no_default and name not in doc:
            raise ConfigError(f"missing config key {prefix + name!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _typed(value, hints[name], prefix + name) for name, value in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not prefix:
            raise
        raise ConfigError(f"config section {prefix[:-1]!r}: {exc}") from exc


def _typed(value: object, hint: object, key: str) -> object:
    """``value`` checked against a field annotation: an int is a float, a bool
    is no int, list elements are checked and dataclasses are built."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        options = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None and len(options) < len(typing.get_args(hint)):
            return None
        (hint,) = options
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, key + ".")
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        (item,) = typing.get_args(hint)
        return [_typed(v, item, f"{key}[{i}]") for i, v in enumerate(value)]
    accepted = (int, float) if hint is float else (hint,)
    # bool is a subclass of int, but true/false is no count
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{key} must be {hint.__name__}, got {value!r}")
    return value


def load_config(path: str) -> ScenarioConfig:
    """Load a JSON scenario config; the literal name ``default`` is built in."""
    if path == "default":
        return ScenarioConfig()
    return config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class RoundRow:
    round: int
    dc_id: int
    val_acc: float
    test_acc: float
    recruited: list[int]


@dataclass
class AllianceRecord:
    uid: int
    created_round: int
    participants: list[int]
    shared_labels: list[int]
    contested_owners: list[int]
    value: int
    payments: dict[str, float]  # keyed by consumer id as a string, as written
    effective_budgets: dict[str, float]
    budget: float
    synthetic_dc_id: int


@dataclass
class MetricsTrace:
    scenario: str
    seed: int
    rows: list[RoundRow]
    alliances: list[AllianceRecord]
    final_val_by_dc: dict[int, float]
    final_test_by_dc: dict[int, float]

    def final_mean_test(self) -> float:
        return float(np.mean(list(self.final_test_by_dc.values())))

    def final_mean_val(self) -> float:
        return float(np.mean(list(self.final_val_by_dc.values())))


class _Market:
    """Mutable market state for one scenario run, and the phases of its rounds.

    A consumer participates in alliances once ``experts`` holds its expert:
    from its first alliance on, it trains the expert on its own owners and
    distils the alliances' models and the expert into its global model.
    Alliance ``k`` has id ``len(consumers) + k``, so the ids of the consumers
    and alliances are the rows of the bid matrix.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        base, test_pool = _load_data(cfg)
        part = build_market_partition(cfg.partition, base, cfg.seed)
        self.owners = [
            DataOwner(j, shard, frozenset(int(c) for c in np.unique(shard.labels)))
            for j, shard in enumerate(part.do_shards)
        ]
        self.public: UnlabeledDataset = part.public
        self.consumers: list[DataConsumer] = []
        self.test_shards: list[LabeledDataset] = []
        for i, labels in enumerate(part.dc_label_sets):
            model = init_mlp(
                base.dim,
                cfg.hidden_dims,
                base.num_classes,
                labels,
                np.random.default_rng([cfg.seed, _S_MODEL_INIT, i]),
            )
            self.consumers.append(
                DataConsumer(i, labels, model, part.dc_val_shards[i], budget=cfg.dc_budget)
            )
            self.test_shards.append(
                take_class_balanced(
                    test_pool, labels, cfg.samples_per_test, [cfg.seed, _S_TEST_SLICE, i]
                )
            )
        self.history = BiddingHistory(cfg.history_span, len(self.consumers), len(self.owners))
        self.alliances: list[Alliance] = []
        self.experts: dict[int, Mlp] = {}  # participant id -> expert
        self.next_uid = 0
        self.recruit: dict[int, list[int]] = {}  # consumer id -> owner ids, per matching
        self.rows: list[RoundRow] = []
        self.best_val = {c.id: -1.0 for c in self.consumers}
        self.best_test = {c.id: 0.0 for c in self.consumers}

    def form_alliances(self, r: int) -> bool:
        """Alliance pass; returns whether it formed any alliance.

        It runs in ``fedcdc`` every ``matching_period`` rounds from
        ``alliance_start``. A new participant's expert starts as a copy of its
        global model.
        """
        cfg = self.cfg
        since = r - cfg.alliance_start
        if cfg.scenario != "fedcdc" or since < 0 or since % cfg.matching_period:
            return False
        created, self.next_uid = create_alliances(
            self.consumers,
            self.owners,
            self.history,
            cfg.min_shared_labels,
            cfg.min_shared_owners,
            cfg.budget_share,
            cfg.hidden_dims,
            np.random.default_rng([cfg.seed, _S_ALLIANCE, r]),
            existing={a.candidate.key() for a in self.alliances},
            uid_start=self.next_uid,
            id_start=len(self.consumers) + len(self.alliances),
            created_round=r,
        )
        self.alliances += created
        for a in created:
            for pid in a.candidate.participants:
                if pid not in self.experts:
                    self.experts[pid] = clone_model(self.consumers[pid].model)
        return bool(created)

    def bid_and_match(self, r: int, census_changed: bool) -> None:
        """Bids and matching on one matrix with a row per consumer id.

        Participants abstain from their alliances' contested owners, on which
        each alliance's row bids instead. The real consumers' rows go to the
        history. Owners are matched every ``matching_period`` rounds and when
        the census changed; ``unrestricted`` gives each consumer every owner
        it bids on.
        """
        cfg = self.cfg
        alliance_rows = np.zeros((len(self.alliances), len(self.owners)))
        bids = np.vstack([default_bids(self.consumers, self.owners), alliance_rows])
        for a in self.alliances:
            contested = sorted(a.candidate.contested)
            bids[np.ix_(sorted(a.candidate.participants), contested)] = 0.0
            bids[a.id, contested] = BID
        record_bids(self.history, r, bids[: len(self.consumers)])
        if r % cfg.matching_period and not census_changed:
            return
        if cfg.scenario == "unrestricted":
            self.recruit = {i: [int(j) for j in np.flatnonzero(b > 0)] for i, b in enumerate(bids)}
            return
        if cfg.mechanism == "first_price":
            budgets = {b.id: b.budget for b in [*self.consumers, *self.alliances]}
            assignment = match_first_price(bids, budgets)
        else:
            assignment = match_random_partition(bids, [cfg.seed, _S_MATCHING, r])
        self.recruit = {}
        for oid, cid in sorted(assignment.items()):
            self.recruit.setdefault(cid, []).append(oid)

    def train_locally(self, r: int) -> None:
        """Local training: one FL round per consumer and alliance on its recruited owners.

        It updates a participant's expert and every other consumer's and
        alliance's model.
        """
        cfg = self.cfg
        for trainee in [*self.consumers, *self.alliances]:
            cid = trainee.id
            recruited = [self.owners[o] for o in self.recruit.get(cid, [])]
            if not recruited:
                log.warning("round %d: consumer %d recruited no owners (starved)", r, cid)
            rng = np.random.default_rng([cfg.seed, _S_TRAINING, cid, r])
            trained = run_fl_round(
                self.experts.get(cid, trainee.model), recruited, cfg.fl, rng, self.public
            )
            if cid in self.experts:
                self.experts[cid] = trained
            else:
                trainee.model = trained
            _check_finite(trained, r, cid, "local training")

    def distill(self, r: int) -> None:
        """Distillation: each participant distils its alliances' models and its
        expert into its global model, in place."""
        cfg = self.cfg
        for pid, expert in sorted(self.experts.items()):
            teachers = [a.model for a in self.alliances if pid in a.candidate.participants]
            student = distill_train(
                self.consumers[pid].model,
                [*teachers, expert],
                self.public,
                cfg.distill,
                np.random.default_rng([cfg.seed, _S_DISTILL, pid, r]),
            )
            _check_finite(student, r, pid, "distillation")

    def evaluate_round(self, r: int) -> None:
        """Evaluation of every real consumer's global model on its validation
        shard, and on its test shard whenever validation reaches a new best."""
        for c in self.consumers:
            val = evaluate(c.model, c.validation_shard)
            if val > self.best_val[c.id]:
                self.best_val[c.id] = val
                self.best_test[c.id] = evaluate(c.model, self.test_shards[c.id])
            recruited = self.recruit.get(c.id, [])
            self.rows.append(RoundRow(r, c.id, val, self.best_test[c.id], recruited))


def _load_data(cfg: ScenarioConfig) -> tuple[LabeledDataset, LabeledDataset]:
    sizes = cfg.partition
    # the most a consumer's test shard takes from one of its n_c classes
    test_per_class = -(-cfg.samples_per_test // sizes.n_c)
    if cfg.idx is not None:
        base = load_idx(cfg.idx.train_images, cfg.idx.train_labels)
        test = load_idx(cfg.idx.test_images, cfg.idx.test_labels, base.num_classes)
        if base.num_classes < sizes.classes_needed:
            raise ConfigError(
                f"idx.train_labels: {base.num_classes} classes, below the "
                f"{sizes.classes_needed} the partition's owner groups hold"
            )
        _check_class_counts(base, sizes.per_class_demand(base.num_classes), "idx.train_labels")
        _check_class_counts(test, test_per_class, "idx.test_labels")
        return base, test
    b = cfg.blobs
    # Train and held-out test samples come from one draw per class, so both
    # pools share the class means; they are views of one generated array.
    pool = gen_blobs(
        b.num_classes,
        b.dim,
        b.per_class,
        b.spread,
        [cfg.seed, _S_BASE_DATA],
        held_out=test_per_class,
    )
    kept = b.num_classes * b.per_class
    return (
        LabeledDataset(pool.features[:kept], pool.labels[:kept], b.num_classes),
        LabeledDataset(pool.features[kept:], pool.labels[kept:], b.num_classes),
    )


def _check_class_counts(data: LabeledDataset, need: int, key: str) -> None:
    """Every class of ``data`` holds ``need`` samples, or a ConfigError names ``key``."""
    counts = np.bincount(data.labels, minlength=data.num_classes)
    if (short := np.flatnonzero(counts < need)).size:
        c = int(short[0])
        raise ConfigError(
            f"{key}: class {c} has {counts[c]} samples, below the {need} "
            f"the scenario can draw from one class"
        )


def run_scenario(cfg: ScenarioConfig) -> MetricsTrace:
    """Execute the configured scenario round loop; deterministic per seed."""
    market = _Market(cfg)
    for r in range(cfg.rounds):
        formed = market.form_alliances(r)
        market.bid_and_match(r, formed)
        market.train_locally(r)
        market.distill(r)
        market.evaluate_round(r)
    records = [_record_of(a) for a in market.alliances]
    return MetricsTrace(
        cfg.scenario, cfg.seed, market.rows, records, market.best_val, market.best_test
    )


def _check_finite(model: Mlp, round_index: int, consumer_id: int, phase: str) -> None:
    """Stop the run on NaN/inf parameters, naming where they appeared."""
    if not np.isfinite(model.flat).all():
        raise FloatingPointError(
            f"round {round_index}: consumer {consumer_id}'s model has non-finite "
            f"parameters after {phase}"
        )


def _record_of(a: Alliance) -> AllianceRecord:
    return AllianceRecord(
        uid=a.candidate.uid,
        created_round=a.created_round,
        participants=sorted(a.candidate.participants),
        shared_labels=sorted(a.candidate.shared_labels),
        contested_owners=sorted(a.candidate.contested),
        value=candidate_value(a.candidate),
        payments={str(k): v for k, v in a.payments.items()},
        effective_budgets={str(k): v for k, v in a.effective_budgets.items()},
        budget=a.budget,
        synthetic_dc_id=a.id,
    )


def emit_metrics(trace: MetricsTrace, out_dir: str | Path) -> list[Path]:
    """Write accuracy.csv, alliances.json, summary.json; byte-stable per trace."""
    if not trace.rows:
        raise ValueError("empty trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    acc_path = out / "accuracy.csv"
    mean_by_round: dict[int, float] = {}
    for r in sorted({row.round for row in trace.rows}):
        vals = [row.val_acc for row in trace.rows if row.round == r]
        mean_by_round[r] = float(np.mean(vals))
    with acc_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "dc_id", "val_acc", "test_acc", "mean_acc"])
        for row in sorted(trace.rows, key=lambda x: (x.round, x.dc_id)):
            writer.writerow(
                [
                    row.round,
                    row.dc_id,
                    f"{row.val_acc:.6f}",
                    f"{row.test_acc:.6f}",
                    f"{mean_by_round[row.round]:.6f}",
                ]
            )

    alliances_path = out / "alliances.json"
    alliance_docs = [
        dataclasses.asdict(rec) for rec in sorted(trace.alliances, key=lambda rec: rec.uid)
    ]
    alliances_path.write_text(
        json.dumps(alliance_docs, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    summary_path = out / "summary.json"
    summary = {
        "scenario": trace.scenario,
        "seed": trace.seed,
        "rounds": len(mean_by_round),
        "final_mean_val_acc": trace.final_mean_val(),
        "final_mean_test_acc": trace.final_mean_test(),
        "per_dc": {
            str(dc): {
                "val_acc": trace.final_val_by_dc[dc],
                "test_acc": trace.final_test_by_dc[dc],
            }
            for dc in sorted(trace.final_val_by_dc)
        },
        "n_alliances": len(trace.alliances),
    }
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return [acc_path, alliances_path, summary_path]


def recovered_gap_ratio(
    unrestricted: float, restricted: float, fedcdc: float
) -> float | None:
    """Fraction of the restriction penalty won back; None when the gap is zero."""
    gap = unrestricted - restricted
    if gap == 0:
        return None
    return (fedcdc - restricted) / gap


def compare_scenarios(cfg_base: ScenarioConfig) -> dict:
    """Run all three scenarios on a shared seed/partition and report the gap recovery."""
    finals: dict[str, float] = {}
    for scenario in SCENARIOS:
        cfg = dataclasses.replace(cfg_base, scenario=scenario)
        trace = run_scenario(cfg)
        finals[scenario] = trace.final_mean_test()
    ratio = recovered_gap_ratio(finals["unrestricted"], finals["restricted"], finals["fedcdc"])
    return {
        "seed": cfg_base.seed,
        "final_mean_test_acc": finals,
        "restriction_gap": finals["unrestricted"] - finals["restricted"],
        "recovered_gap_ratio": ratio if ratio is not None else "undefined (zero gap)",
    }
