"""The benchmark's workloads, their output checks and their metrics.

``fedcdc-default`` and ``restricted-default`` run the built-in scenario with
only ``rounds`` truncated; ``alliance-pass`` sweeps seeded synthetic markets
through ``alliances.create_alliances``. Every workload reports its end-to-end
metrics from untraced repeats, and its per-layer metrics from separate
traced repeats (see README.md beside this file).
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from fedmarket import alliances, data, distill, fed, market, maxclique, nn, sim
from fedmarket.distill import DistillConfig
from fedmarket.fed import FLRoundConfig
from tracer import Tracer, aggregate, patched

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

SIM_WORKLOADS = {"fedcdc-default": "fedcdc", "restricted-default": "restricted"}
ALLIANCE_WORKLOAD = "alliance-pass"
WORKLOADS = (*SIM_WORKLOADS, ALLIANCE_WORKLOAD)

# 16 rounds: 10 before alliance_start and 6 distilling rounds, so one fedcdc
# run (~29 s on a 2-core x86 VM) fits the per-run time budget.
SIM_ROUNDS = 16
# --seed n runs the scenario at seed n mod PROGRAM_SEEDS; each of those seeds
# has its final accuracy and output digests pinned in reference.json.
PROGRAM_SEEDS = 12
# A run fails its check when its final mean test accuracy leaves this share of
# the pinned reference; bit-level changes alone are reported, not failed.
ACC_BOUND = 0.02
# Set-up is timed this many times before the timed repeats and again after
# them, so one burst of machine load cannot move the median.
SETUP_REPEATS = 7
ALLIANCE_SETUP_REPEATS = 2
# On a shared 2-vCPU VM, CPU speed drifted by up to a quarter in states lasting
# seconds to minutes. Timed metrics are therefore means over all repeats, which
# average the states a run sees; a median would pick one of them.
MIN_TRACED_REPEATS = 2

# (module, attribute, span name): each library function is wrapped in the
# namespace it is looked up from. A name looked up from two modules gets one
# span name, so the sim workloads and alliance-pass share metrics.
TRACE_POINTS = [
    (sim, "gen_blobs", "data.gen_blobs"),
    (data, "gen_blobs", "data.gen_blobs"),
    (sim, "build_market_partition", "data.build_market_partition"),
    (fed, "train_step", "nn.train_step"),
    (nn, "adam_step", "nn.adam_step"),
    (sim, "run_fl_round", "fed.run_fl_round"),
    (fed, "local_train", "fed.local_train"),
    (fed, "fedavg_aggregate", "fed.fedavg_aggregate"),
    (sim, "evaluate", "fed.evaluate"),
    (sim, "distill_train", "distill.distill_train"),
    (distill, "forward", "distill.teacher_forward"),
    (distill, "adam_step", "distill.adam_step"),
    (sim, "default_bids", "market.default_bids"),
    (market, "default_bids", "market.default_bids"),
    (sim, "record_bids", "market.record_bids"),
    (market, "record_bids", "market.record_bids"),
    (sim, "match_random_partition", "market.match_random_partition"),
    (sim, "create_alliances", "alliances.create_alliances"),
    (alliances, "create_alliances", "alliances.create_alliances"),
    (alliances, "enumerate_candidates", "alliances.enumerate_candidates"),
    (alliances, "offer_and_collect", "alliances.offer_and_collect"),
    (alliances, "select_alliances", "alliances.select_alliances"),
    (alliances, "instantiate", "alliances.instantiate"),
    (alliances, "solve", "maxclique.solve"),
    (sim, "emit_metrics", "sim.emit_metrics"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TRACE_POINTS))
SETUP_LAYERS = ("data.",)  # spans reported from the set-up root, not the timed one


def _count_rows(counts: Counter, args: tuple, result: Any) -> None:
    counts["distill.teacher_rows"] += result.shape[0]


def _count_candidates(counts: Counter, args: tuple, result: Any) -> None:
    counts["alliances.candidates"] += len(result)


def _count_offers(counts: Counter, args: tuple, result: Any) -> None:
    counts["alliances.survivors"] += len(result[0])
    counts["alliances.conflict_pairs"] += len(result[1])


def _count_created(counts: Counter, args: tuple, result: Any) -> None:
    counts["alliances.created"] += len(result[0])


def _count_graph(counts: Counter, args: tuple, result: Any) -> None:
    graph = args[0]
    counts["maxclique.nodes"] += graph.n
    counts["maxclique.edges"] += int(graph.adj.sum()) // 2


COUNTERS: dict[str, Callable] = {
    "distill.teacher_forward": _count_rows,
    "alliances.enumerate_candidates": _count_candidates,
    "alliances.offer_and_collect": _count_offers,
    "alliances.create_alliances": _count_created,
    "maxclique.solve": _count_graph,
}


def _trace_targets(tracer: Tracer) -> list:
    return [
        (module, attr, lambda fn, name=name: tracer.wrap(name, fn, COUNTERS.get(name)))
        for module, attr, name in TRACE_POINTS
    ]


@dataclass
class Outcome:
    """What one invocation measured: metric values plus the failure tally."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    info: dict = field(default_factory=dict)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _repeat(fn: Callable[[], Any], budget_s: float) -> list:
    """Call ``fn`` once, then again while another call of the same length fits the budget."""
    out = []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        out.append(fn())
        last = perf_counter() - t
        if perf_counter() - t0 + last > budget_s:
            return out


def _attempt(fn: Callable[[], Any]) -> Any:
    """Run one operation; an exception is reported and counted as a failure (None)."""
    try:
        return fn()
    except Exception:  # the benchmark keeps going and reports the failure
        traceback.print_exc(file=sys.stderr)
        return None


# ----------------------------------------------------------------- sim workloads


class _SetupDone(Exception):
    """Raised at round 0 to stop a run whose set-up alone is being timed."""


class _SimProbe:
    """Round boundaries and training work, seen at sim's calls into the library.

    Round r starts at sim's one ``default_bids`` call of that round. Training
    work counts owner sample-epochs handed to ``run_fl_round`` and public-pool
    sample-epochs handed to ``distill_train``.
    """

    def __init__(self, tracer: Tracer | None = None, stop_at_round0: bool = False) -> None:
        self.tracer = tracer
        self.stop_at_round0 = stop_at_round0
        self.marks: list[float] = []
        self.counts: Counter = Counter()

    def targets(self) -> list:
        return [
            (sim, "default_bids", self._round_mark),
            (sim, "run_fl_round", self._count_local),
            (sim, "distill_train", self._count_distill),
        ]

    def _round_mark(self, fn: Callable) -> Callable:
        def marked(*args, **kwargs):
            if self.stop_at_round0:
                raise _SetupDone
            if not self.marks and self.tracer is not None:
                if self.tracer.depth() != 1:
                    raise RuntimeError("round 0 reached inside a traced call")
                self.tracer.end()  # set-up root
                self.tracer.begin("run")
            self.marks.append(perf_counter())
            return fn(*args, **kwargs)

        return marked

    def _count_local(self, fn: Callable) -> Callable:
        def counted(consumer, owners, cfg, *args, **kwargs):
            self.counts["fed.local_samples"] += cfg.local_epochs * sum(
                len(o.train_shard) for o in owners
            )
            return fn(consumer, owners, cfg, *args, **kwargs)

        return counted

    def _count_distill(self, fn: Callable) -> Callable:
        def counted(student, ensemble, public, cfg, *args, **kwargs):
            self.counts["distill.student_rows"] += cfg.epochs * len(public)
            return fn(student, ensemble, public, cfg, *args, **kwargs)

        return counted


def sim_config(workload: str, program_seed: int, smoke: bool) -> sim.ScenarioConfig:
    scenario = SIM_WORKLOADS[workload]
    if not smoke:
        return dataclasses.replace(
            sim.ScenarioConfig(), scenario=scenario, rounds=SIM_ROUNDS, seed=program_seed
        )
    return sim.ScenarioConfig(
        scenario=scenario,
        rounds=6,
        matching_period=2,
        alliance_start=2,
        history_span=2,
        seed=program_seed,
        samples_per_test=80,
        blobs=sim.BlobSpec(dim=8, num_classes=10, per_class=250, spread=1.0),
        partition=sim.PartitionSizes(
            n_dc=3, n_do=24, n_c=4, samples_per_do=60, samples_per_val=40, public_size=200
        ),
        fl=FLRoundConfig(local_epochs=2, batch_size=32),
        distill=DistillConfig(alpha=1.0, epochs=2, batch_size=32),
    )


@dataclass
class SimRep:
    run_s: float
    round_s: list[float]
    counts: Counter
    paths: list[Path]


def _sim_setup_s(cfg: sim.ScenarioConfig) -> float:
    """Wall time from ``run_scenario`` entry to round 0 (data, partition, model init)."""
    probe = _SimProbe(stop_at_round0=True)
    with patched(probe.targets()):
        t0 = perf_counter()
        try:
            sim.run_scenario(cfg)
        except _SetupDone:
            return perf_counter() - t0
    raise RuntimeError("run_scenario finished without reaching round 0")


def _sim_rep(cfg: sim.ScenarioConfig, out_dir: Path, tracer: Tracer | None) -> SimRep:
    probe = _SimProbe(tracer)
    targets = (_trace_targets(tracer) if tracer else []) + probe.targets()
    with patched(targets):
        if tracer:
            tracer.begin("setup")
        trace = sim.run_scenario(cfg)
        rounds_end = perf_counter()
        paths = sim.emit_metrics(trace, out_dir)
        end = perf_counter()
        if tracer:
            tracer.end()  # run root
    marks = probe.marks + [rounds_end]
    return SimRep(
        run_s=end - probe.marks[0],
        round_s=[b - a for a, b in zip(marks, marks[1:])],
        counts=probe.counts,
        paths=[Path(p) for p in paths],
    )


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def check_sim_outputs(
    cfg: sim.ScenarioConfig, paths: list[Path], ref: dict | None
) -> tuple[list[str], dict]:
    """Problems found in one run's three output files, and what they reported."""
    by_name = {p.name: p for p in paths}
    with by_name["accuracy.csv"].open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    records = json.loads(by_name["alliances.json"].read_text(encoding="utf-8"))
    summary = json.loads(by_name["summary.json"].read_text(encoding="utf-8"))
    problems = []
    if len(rows) != cfg.rounds * cfg.partition.n_dc:
        problems.append(f"accuracy.csv has {len(rows)} rows")
    for row in rows:
        for col in ("val_acc", "test_acc", "mean_acc"):
            if not 0.0 <= float(row[col]) <= 1.0:
                problems.append(f"accuracy.csv {col}={row[col]} outside [0, 1]")
    acc = float(summary["final_mean_test_acc"])
    got = [(r["participants"], r["created_round"]) for r in records]
    want = (
        [(list(range(cfg.partition.n_dc)), cfg.alliance_start)] if cfg.scenario == "fedcdc" else []
    )
    if got != want:
        problems.append(f"alliances (participants, round) {got}, expected {want}")
    info: dict = {"final_mean_test_acc": acc, "outputs_identical": None}
    if ref is not None:
        ref_acc = ref["final_mean_test_acc"]
        if abs(acc - ref_acc) > ACC_BOUND * ref_acc:
            problems.append(f"final_mean_test_acc {acc} is not within {ACC_BOUND:.0%} of {ref_acc}")
        info["outputs_identical"] = _digests(paths) == ref["sha256"]
    return problems, info


def run_sim(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
            out_root: Path) -> Outcome:
    program_seed = seed % PROGRAM_SEEDS
    cfg = sim_config(workload, program_seed, smoke)
    ref = None if smoke else load_reference()[workload][str(program_seed)]
    out_dir = out_root / workload
    attempted = failed = 0
    infos: list[dict] = []

    def one(tracer: Tracer | None) -> SimRep | None:
        nonlocal attempted, failed
        attempted += 1
        rep = _attempt(lambda: _sim_rep(cfg, out_dir, tracer))
        problems = ["run raised"] if rep is None else _attempt_check(cfg, rep, ref, infos)
        if problems:
            failed += 1
            print(f"{workload}: run failed: {problems}", file=sys.stderr)
        return rep

    info: dict = {"program_seed": program_seed, "rounds": cfg.rounds}
    if not traced:
        setup = [_sim_setup_s(cfg) for _ in range(SETUP_REPEATS)]
        done = [r for r in _repeat(lambda: one(None), seconds) if r is not None]
        setup += [_sim_setup_s(cfg) for _ in range(SETUP_REPEATS)]
        metrics = {}
        if done:
            rounds = [s for r in done for s in r.round_s]
            work = sum(r.counts["fed.local_samples"] + r.counts["distill.student_rows"] for r in done)
            timed = sum(r.run_s for r in done)
            metrics = {
                "setup_s": statistics.median(setup),
                "run_s": timed / len(done),
                "work_per_s": work / timed,
            }
            info.update({"repeats": len(done), "round_s.p50": statistics.median(rounds),
                         "round_s.p90": _p90(rounds)})
        info.update(_sim_info(infos))
        return Outcome(metrics, attempted, failed, failed == 0, info)

    spans_path = out_root / f"{workload}-spans.csv"
    spans_path.unlink(missing_ok=True)
    untraced = [r.run_s for r in _repeat(lambda: one(None), seconds / 2) if r is not None]
    traced_reps = []
    for i in range(max(MIN_TRACED_REPEATS, len(untraced))):
        tracer = Tracer(f"{workload}-seed{seed}-{i}")
        rep = one(tracer)
        if rep is not None:
            tracer.write_spans(spans_path)
            traced_reps.append((tracer.counts + rep.counts, aggregate(tracer.spans)))
    info.update(_sim_info(infos))
    return _traced_outcome(untraced, traced_reps, attempted, failed, info)


def _attempt_check(cfg: sim.ScenarioConfig, rep: SimRep, ref: dict | None,
                   infos: list[dict]) -> list[str]:
    """Output-check problems of one run; unreadable or malformed files are a problem too."""
    try:
        problems, info = check_sim_outputs(cfg, rep.paths, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    infos.append(info)
    return problems


def _sim_info(infos: list[dict]) -> dict:
    accs = sorted({i["final_mean_test_acc"] for i in infos})
    identical = {i["outputs_identical"] for i in infos}
    return {
        "final_mean_test_acc": accs[0] if len(accs) == 1 else accs,
        "outputs_identical_to_reference": identical.pop() if len(identical) == 1 else None,
    }


# ----------------------------------------------------------------- alliance-pass

MIN_SHARED_LABELS = 2
MIN_SHARED_OWNERS = 2
HIDDEN = [4]
FEATURE_DIM = 8
HISTORY_SPAN = 5
OWNER_LABELS = 2


@dataclass(frozen=True)
class AllianceShape:
    """How many markets of each shape one sweep passes over, and their sizes."""

    n_group: int
    group_consumers: int
    n_overlap: int
    overlap_consumers: int
    overlap_classes: int
    overlap_labels: int
    overlap_owners: int


# Group-structured markets cost the same for every seed; overlapping ones vary
# by instance, so many moderate ones keep a sweep's total steady across seeds.
ALLIANCE_FULL = AllianceShape(2, 9, 110, 9, 18, 9, 12)
ALLIANCE_SMOKE = AllianceShape(2, 4, 3, 5, 8, 4, 6)

Market = tuple[list, list, market.BiddingHistory]


def _build_market(
    label_sets: list[frozenset[int]], owner_labels: list[frozenset[int]], num_classes: int,
    rng: np.random.Generator,
) -> Market:
    base = data.gen_blobs(num_classes, FEATURE_DIM, 2, 0.5, int(rng.integers(2**31)))

    def shard(labels: frozenset[int]) -> data.LabeledDataset:
        keep = np.isin(base.labels, sorted(labels))
        return data.LabeledDataset(base.features[keep], base.labels[keep], num_classes)

    consumers = [
        market.DataConsumer(
            i, labels, nn.init_mlp(FEATURE_DIM, HIDDEN, num_classes, labels, rng), shard(labels)
        )
        for i, labels in enumerate(label_sets)
    ]
    owners = [market.DataOwner(j, shard(labels), labels) for j, labels in enumerate(owner_labels)]
    history = market.BiddingHistory(HISTORY_SPAN, len(consumers), len(owners))
    for r in range(HISTORY_SPAN):
        market.record_bids(history, r, market.default_bids(consumers, owners))
    return consumers, owners, history


def _group_market(n_dc: int, rng: np.random.Generator) -> Market:
    """The paper's layout: a shared two-label block every consumer holds, plus
    a unique two-label block each; owner group 0 holds the shared block."""
    perm = [int(c) for c in rng.permutation(2 * (n_dc + 1))]
    blocks = [frozenset(perm[2 * g : 2 * g + 2]) for g in range(n_dc + 1)]
    per_group = int(rng.integers(2, 4))
    owner_labels = [blk for blk in blocks for _ in range(per_group)]
    return _build_market([blocks[0] | blk for blk in blocks[1:]], owner_labels, len(perm), rng)


def _overlap_market(shape: AllianceShape, rng: np.random.Generator) -> Market:
    """Consumers and owners with independent random label sets."""

    def draw(k: int) -> frozenset[int]:
        return frozenset(int(c) for c in rng.choice(shape.overlap_classes, k, replace=False))

    label_sets = [draw(shape.overlap_labels) for _ in range(shape.overlap_consumers)]
    owner_labels = [draw(OWNER_LABELS) for _ in range(shape.overlap_owners)]
    return _build_market(label_sets, owner_labels, shape.overlap_classes, rng)


def build_markets(seed: int, shape: AllianceShape) -> list[Market]:
    rng = np.random.default_rng([seed, 0xA11])
    groups = [_group_market(shape.group_consumers, rng) for _ in range(shape.n_group)]
    return groups + [_overlap_market(shape, rng) for _ in range(shape.n_overlap)]


class _AllianceProbe:
    """Captures each pass's candidates, conflicts, selection and reported weight."""

    def __init__(self) -> None:
        self.candidates = 0
        self.reset()

    def reset(self) -> None:
        self.accepted: list = []
        self.conflicts: set = set()
        self.selected: list = []
        self.weight = 0

    def targets(self) -> list:
        return [
            (alliances, "enumerate_candidates", self._enumerate),
            (alliances, "select_alliances", self._select),
            (alliances, "solve", self._solve),
        ]

    def _enumerate(self, fn: Callable) -> Callable:
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.candidates += len(out)
            return out

        return probed

    def _select(self, fn: Callable) -> Callable:
        def probed(accepted, conflicts):
            self.accepted, self.conflicts = list(accepted), conflicts
            self.selected = fn(accepted, conflicts)
            return self.selected

        return probed

    def _solve(self, fn: Callable) -> Callable:
        def probed(graph):
            clique, self.weight = fn(graph)
            return clique, self.weight

        return probed


@dataclass
class Sweep:
    pass_s: list  # seconds per market; None where the pass raised
    chosen: list  # selected uids per market; None where the pass raised
    problems: dict[int, list[str]]
    candidates: int = 0

    @property
    def run_s(self) -> float:
        return sum(t for t in self.pass_s if t is not None)


def _sweep(markets: list[Market], tracer: Tracer | None, check: bool) -> Sweep:
    """One create_alliances pass per market; with ``check``, each pass is
    verified after its timed call.

    Traced, every pass is its own timed root span, so the checks stay out
    of the traced run_s as they stay out of the untraced one.
    """
    probe = _AllianceProbe()
    targets = (_trace_targets(tracer) if tracer else []) + probe.targets()
    sweep = Sweep([], [], {})
    with patched(targets):
        for i, (consumers, owners, history) in enumerate(markets):
            probe.reset()
            if tracer:
                tracer.begin("run")
            t = perf_counter()
            created = _attempt(lambda: alliances.create_alliances(
                consumers, owners, history, MIN_SHARED_LABELS, MIN_SHARED_OWNERS, 0.0, HIDDEN,
                np.random.default_rng(i), existing=set(), uid_start=0, id_start=len(consumers),
            )[0])
            seconds = perf_counter() - t
            if tracer:
                tracer.end()
            if created is None:
                sweep.pass_s.append(None)
                sweep.chosen.append(None)
                sweep.problems[i] = ["pass raised"]
                continue
            sweep.pass_s.append(seconds)
            sweep.chosen.append([c.uid for c in probe.selected])
            problems = check_pass(created, probe) if check else []
            if problems:
                sweep.problems[i] = problems
    sweep.candidates = probe.candidates
    return sweep


def check_pass(created: list, probe: _AllianceProbe) -> list[str]:
    """The selection is a clique of the compatibility graph and its value is as reported."""
    selected, accepted = probe.selected, probe.accepted
    uids = [a.candidate.uid for a in created]
    if uids != [c.uid for c in selected]:
        return [f"created alliances {uids} differ from the selection"]
    if not accepted:
        return [] if not selected else ["a selection without candidates"]
    n = len(accepted)
    pos = {c.uid: i for i, c in enumerate(accepted)}
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    pairs = np.array([(pos[a], pos[b]) for a, b in probe.conflicts if a in pos and b in pos],
                     dtype=np.intp).reshape(-1, 2)
    adj[pairs[:, 0], pairs[:, 1]] = False
    adj[pairs[:, 1], pairs[:, 0]] = False
    graph = maxclique.WeightedGraph([alliances.candidate_value(c) for c in accepted], adj)
    problems = []
    if not maxclique.is_clique(graph, {pos[c.uid] for c in selected}):
        problems.append("selection contains a conflicting pair")
    value = sum(alliances.candidate_value(c) for c in selected)
    if value != probe.weight:
        problems.append(f"selection value {value} != reported {probe.weight}")
    return problems


def _alliance_setup_s(seed: int, shape: AllianceShape) -> list[float]:
    out = []
    for _ in range(ALLIANCE_SETUP_REPEATS):
        t = perf_counter()
        build_markets(seed, shape)
        out.append(perf_counter() - t)
    return out


def run_alliance(seed: int, seconds: float, traced: bool, smoke: bool, out_root: Path) -> Outcome:
    shape = ALLIANCE_SMOKE if smoke else ALLIANCE_FULL
    failed = 0
    attempted = 0
    first: list | None = None  # selected uids per market in the first sweep

    def one(tracer: Tracer | None, markets: list[Market] | None = None) -> Sweep:
        nonlocal failed, attempted, first
        if markets is None:
            with patched(_trace_targets(tracer)):
                tracer.begin("setup")
                markets = build_markets(seed, shape)
                tracer.end()
        # The first sweep verifies every selection; later sweeps on the same
        # inputs must reproduce it exactly.
        sweep = _sweep(markets, tracer, check=first is None)
        attempted += len(markets)
        first = first or sweep.chosen
        for i, uids in enumerate(sweep.chosen):
            if uids != first[i]:
                sweep.problems.setdefault(i, []).append("selection differs from the first sweep's")
        for i, problems in sorted(sweep.problems.items()):
            print(f"alliance-pass market {i}: {problems}", file=sys.stderr)
        failed += len(sweep.problems)
        return sweep

    setup = [] if traced else _alliance_setup_s(seed, shape)
    markets = build_markets(seed, shape)
    info = {"markets": len(markets), "shape": dataclasses.asdict(shape)}
    if not traced:
        sweeps = _repeat(lambda: one(None, markets), seconds)
        setup += _alliance_setup_s(seed, shape)
        passes = [t for s in sweeps for t in s.pass_s if t is not None]
        metrics = {}
        if passes:
            timed = sum(passes)
            metrics = {
                "setup_s": statistics.median(setup),
                "run_s": timed / len(sweeps),
                "work_per_s": sum(s.candidates for s in sweeps) / timed,
            }
            info.update({"pass_s.p50": statistics.median(passes), "pass_s.p90": _p90(passes)})
        info["sweeps"] = len(sweeps)
        return Outcome(metrics, attempted, failed, failed == 0, info)

    spans_path = out_root / f"{ALLIANCE_WORKLOAD}-spans.csv"
    spans_path.unlink(missing_ok=True)
    untraced = _repeat(lambda: one(None, markets), seconds / 2)
    traced_reps = []
    for i in range(max(MIN_TRACED_REPEATS, len(untraced))):
        tracer = Tracer(f"{ALLIANCE_WORKLOAD}-seed{seed}-{i}")
        one(tracer)
        tracer.write_spans(spans_path)
        traced_reps.append((tracer.counts, aggregate(tracer.spans)))
    return _traced_outcome([s.run_s for s in untraced], traced_reps, attempted, failed, info)


# ----------------------------------------------------------------- traced metrics


def _traced_outcome(untraced_run_s: list[float], traced_reps: list, attempted: int,
                    failed: int, info: dict) -> Outcome:
    """Per-layer metrics from traced repeats, each given as (counts, aggregate).

    Every count must repeat exactly across the traced repeats; self times of
    the timed root's spans plus ``sim.self_s`` must add up to the traced run_s.
    """
    if not traced_reps or not untraced_run_s:
        return Outcome({}, attempted, failed, False, info)
    per_rep, residuals = zip(*(_layer_metrics(counts, agg) for counts, agg in traced_reps))
    count_keys = [k for k in per_rep[0] if _is_count(k)]
    repeat = all(m[k] == per_rep[0][k] for m in per_rep for k in count_keys)
    if not repeat:
        diffs = {k: [m[k] for m in per_rep] for k in count_keys
                 if len({m[k] for m in per_rep}) > 1}
        print(f"counts differ across traced repeats: {diffs}", file=sys.stderr)
    metrics = {
        k: per_rep[0][k] if k in count_keys else statistics.median(m[k] for m in per_rep)
        for k in per_rep[0]
    }
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.mean(untraced_run_s)
    residual = max(abs(r) for r in residuals)
    accounted = residual <= 1e-6 * metrics["trace.run_s"]
    if not accounted:
        print(f"self times miss the traced run_s by {residual} s", file=sys.stderr)
    info.update(traced_repeats=len(traced_reps), counts_repeat=repeat,
                self_time_residual_s=residual)
    failed_total = failed + (0 if repeat else 1) + (0 if accounted else 1)
    return Outcome(metrics, attempted, failed_total, failed_total == 0, info)


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNT_METRICS


COUNT_METRICS = (
    "distill.steps",
    "fed.local_samples",
    "distill.student_rows",
    "alliances.candidates",
    "alliances.survivors",
    "alliances.conflict_pairs",
    "alliances.created",
    "maxclique.nodes",
    "maxclique.edges",
)


def _layer_metrics(counts: Counter, agg: dict) -> tuple[dict[str, float], float]:
    """One traced repeat's per-layer metrics, and how far the self times miss its run_s."""
    run = agg.get("run", {})
    setup = agg.get("setup", {})
    m: dict[str, float] = {}
    self_sum = 0.0
    for name in SPAN_NAMES:
        source = setup if name.startswith(SETUP_LAYERS) else run
        calls, busy, self_s = source.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"], m[f"{name}.s"], m[f"{name}.self_s"] = calls, busy, self_s
        if source is run:
            self_sum += self_s
    _, traced_run_s, root_self = run["run"]
    m["sim.self_s"] = root_self
    m["trace.run_s"] = traced_run_s
    m["distill.steps"] = m["distill.adam_step.calls"]
    m["distill.student_s"] = m["distill.distill_train.s"] - m["distill.teacher_forward.s"]
    student_rows = counts["distill.student_rows"]
    m["distill.teacher_rows_per_student_row"] = (
        counts["distill.teacher_rows"] / student_rows if student_rows else 0.0
    )
    for key in COUNT_METRICS:
        m.setdefault(key, counts[key])
    return m, traced_run_s - (self_sum + root_self)


def pin_reference(out_root: Path) -> None:
    """Rewrite reference.json: final accuracy and output digests per program seed."""
    ref: dict = {}
    for workload in SIM_WORKLOADS:
        ref[workload] = {}
        for program_seed in range(PROGRAM_SEEDS):
            cfg = sim_config(workload, program_seed, smoke=False)
            trace = sim.run_scenario(cfg)
            paths = [Path(p) for p in sim.emit_metrics(trace, out_root / workload)]
            ref[workload][str(program_seed)] = {
                "final_mean_test_acc": trace.final_mean_test(),
                "sha256": _digests(paths),
            }
            print(f"{workload} seed {program_seed}: {trace.final_mean_test():.4f}", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
