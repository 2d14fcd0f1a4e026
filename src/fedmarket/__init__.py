"""fedmarket: a federated-learning data-market simulator with consumer alliances."""

from .alliances import (
    Alliance,
    AllianceCandidate,
    DCResponse,
    candidate_value,
    create_alliances,
    enumerate_candidates,
    instantiate,
    offer_and_collect,
    select_alliances,
)
from .data import (
    LabeledDataset,
    PartitionSizes,
    UnlabeledDataset,
    build_market_partition,
    gen_blobs,
    load_idx,
)
from .distill import DistillConfig, distill_train
from .errors import ConfigError
from .fed import FLRoundConfig, evaluate, fedavg_aggregate, feddf_round, run_fl_round
from .market import (
    BiddingHistory,
    DataConsumer,
    DataOwner,
    match_first_price,
    match_random_partition,
    max_bid_matrix,
    record_bids,
)
from .maxclique import WeightedGraph, read_dimacs, solve, write_dimacs
from .nn import Mlp, adam_step, entropy, forward, init_mlp, softmax, train_step
from .sim import MetricsTrace, ScenarioConfig, compare_scenarios, emit_metrics, load_config, run_scenario

__version__ = "0.1.0"
