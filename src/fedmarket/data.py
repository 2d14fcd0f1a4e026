"""Dataset generation, market partitioning, and IDX loading.

Builds the per-owner training shards, per-consumer validation shards, and the
unlabeled public pool used for distillation, following the group construction
where shared classes are held by one owner group and each consumer's unique
classes by its own group.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_rules

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# Class means are hypercube vertices drawn as int64 codes below 2**dim.
MAX_BLOB_DIM = 63


class IdxParseError(ValueError):
    """Raised when an IDX file is malformed; the message carries a byte offset."""


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix plus integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a (n, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ValueError("label outside the declared class universe")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class BlobSpec:
    """Synthetic Gaussian-cluster data source, the ``blobs`` config section;
    :func:`gen_blobs` checks its arguments by building one."""

    dim: int = 16
    num_classes: int = 10
    per_class: int = 5000
    spread: float = 1.0

    def __post_init__(self) -> None:
        # Each class mean is a distinct vertex of the dim-cube, and
        # (num_classes - 1).bit_length() <= dim is num_classes <= 2**dim.
        check_rules([
            (self.dim < 2, f"dim must be >= 2, got {self.dim}"),
            (self.dim > MAX_BLOB_DIM, f"dim must be <= {MAX_BLOB_DIM}, got {self.dim}"),
            (self.num_classes < 2 or (self.num_classes - 1).bit_length() > self.dim,
             f"num_classes must be in 2..2**dim for dim={self.dim}, got {self.num_classes}"),
            (self.per_class < 1, f"per_class must be >= 1, got {self.per_class}"),
            (not (math.isfinite(self.spread) and self.spread >= 0),
             f"spread must be finite and >= 0, got {self.spread}"),
        ])


@dataclass(frozen=True)
class PartitionSizes:
    """Market data layout: consumer/owner counts and shard sizes.

    ``n_c`` classes of interest per consumer, half of them shared by all
    consumers; owners split into ``n_dc + 1`` equal groups (group 0 holds the
    shared classes, group i the unique classes of consumer i-1).
    """

    n_dc: int = 3
    n_do: int = 24
    n_c: int = 4
    samples_per_do: int = 1000
    samples_per_val: int = 2000
    public_size: int = 5000

    def __post_init__(self) -> None:
        # Every row is evaluated, so the group rule guards its n_dc + 1 divisor.
        check_rules([
            (self.n_dc < 1 or self.n_do < 1,
             f"n_dc={self.n_dc} and n_do={self.n_do} must both be >= 1"),
            (self.n_c < 2 or self.n_c % 2 != 0,
             f"n_c must be a positive even number, got {self.n_c}"),
            (self.n_dc >= 1 and self.n_do % (self.n_dc + 1) != 0,
             f"n_do={self.n_do} must divide into {self.n_dc + 1} equal owner groups"),
            (self.samples_per_do < 1, f"samples_per_do must be >= 1, got {self.samples_per_do}"),
            (self.samples_per_val < 1, f"samples_per_val must be >= 1, got {self.samples_per_val}"),
            (self.public_size < 0, f"public_size must be >= 0, got {self.public_size}"),
        ])

    @property
    def n_shared(self) -> int:
        return self.n_c // 2

    @property
    def owners_per_group(self) -> int:
        return self.n_do // (self.n_dc + 1)

    @property
    def classes_needed(self) -> int:
        return (self.n_dc + 1) * self.n_shared

    def per_class_demand(self, num_classes: int) -> int:
        """The most samples :func:`build_market_partition` can draw from one class.

        Each shard is balanced within +-1 over its classes, so a class gives it
        at most the rounded-up share. A shared class gives the most: to every
        group-0 owner shard, every consumer's validation shard and the public
        pool. The seed picks which classes are shared, so every class needs this
        many samples for the partition to be drawn at any seed.
        """
        return (
            self.owners_per_group * -(-self.samples_per_do // self.n_shared)
            + self.n_dc * -(-self.samples_per_val // self.n_c)
            + -(-self.public_size // num_classes)
        )

    def check_capacity(self, counts: np.ndarray, key: str) -> None:
        """``counts`` samples per class fill the partition at any seed, or a ConfigError names ``key``."""
        if len(counts) < self.classes_needed:
            raise ConfigError(
                f"{key}: {len(counts)} classes, below the {self.classes_needed} "
                f"the partition's owner groups hold"
            )
        check_class_counts(counts, self.per_class_demand(len(counts)), key)


def check_class_counts(counts: np.ndarray, need: int, key: str) -> None:
    """Every class holds ``need`` samples, or a ConfigError names ``key`` and the class."""
    if (short := np.flatnonzero(counts < need)).size:
        c = int(short[0])
        raise ConfigError(
            f"{key}: class {c} has {counts[c]} samples, below the {need} "
            f"the scenario can draw from one class"
        )


@dataclass(frozen=True)
class MarketPartition:
    """Output of :func:`build_market_partition`. Owner ``j`` is in group ``j //
    sizes.owners_per_group``; the shared labels are ``dc_label_sets``' intersection."""

    do_shards: list[LabeledDataset]
    dc_label_sets: list[frozenset[int]]
    dc_val_shards: list[LabeledDataset]
    public: np.ndarray


def gen_blobs(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    seed: int | list[int],
    held_out: int = 0,
) -> LabeledDataset:
    """Isotropic Gaussian clusters centered on distinct hypercube vertices.

    Each class draws its ``per_class + held_out`` samples at once. The first
    ``per_class`` rows of every class come first, in class order; the last
    ``held_out`` rows of every class follow, in class order. Both blocks are
    filled into one array, so a caller can take them as views, e.g. a train
    pool and a held-out test pool on the same class means. The other
    arguments are checked as a :class:`BlobSpec`, raising :class:`ConfigError`.
    """
    BlobSpec(dim, num_classes, per_class, spread)
    if held_out < 0:
        raise ValueError(f"held_out must be >= 0, got {held_out}")
    rng = np.random.default_rng(seed)
    means = _distinct_vertices(num_classes, dim, rng)
    kept = num_classes * per_class
    feats = np.empty((kept + num_classes * held_out, dim))
    for c, m in enumerate(means):
        draw = m + rng.normal(0.0, spread, size=(per_class + held_out, dim))
        feats[c * per_class : (c + 1) * per_class] = draw[:per_class]
        feats[kept + c * held_out : kept + (c + 1) * held_out] = draw[per_class:]
    classes = np.arange(num_classes)
    labels = np.concatenate([classes.repeat(per_class), classes.repeat(held_out)])
    return LabeledDataset(feats, labels, num_classes)


def _distinct_vertices(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct points of {-1, +1}^dim, sampled without replacement."""
    if dim <= 12:
        codes = rng.choice(2**dim, size=k, replace=False)
    else:
        seen: set[int] = set()
        codes = []
        while len(codes) < k:
            c = int(rng.integers(0, 2**dim))
            if c not in seen:
                seen.add(c)
                codes.append(c)
    bits = (np.array(codes, dtype=np.int64)[:, None] >> np.arange(dim)) & 1
    return bits * 2.0 - 1.0


def build_market_partition(
    sizes: PartitionSizes, base: LabeledDataset, seed: int | list[int]
) -> MarketPartition:
    """Carve disjoint owner/validation/public shards out of ``base``, drawn by ``seed``.

    Consumer i gets n_c classes: the shared block plus its own unique block.
    Group-0 owners hold only shared classes; group-i owners hold only consumer
    i-1's unique classes. Every shard is class-balanced.
    """
    sizes.check_capacity(np.bincount(base.labels, minlength=base.num_classes), "base dataset")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.num_classes)
    shared = frozenset(int(c) for c in perm[: sizes.n_shared])
    unique_blocks = [
        frozenset(int(c) for c in perm[(i + 1) * sizes.n_shared : (i + 2) * sizes.n_shared])
        for i in range(sizes.n_dc)
    ]
    dc_label_sets = [shared | blk for blk in unique_blocks]

    pools = _class_pools(base, rng)
    group_labels = [shared, *unique_blocks]

    do_shards = [
        _gather(base, _draw_balanced(pools, labels, sizes.samples_per_do))
        for labels in group_labels
        for _ in range(sizes.owners_per_group)
    ]

    dc_val_shards = [
        _gather(base, _draw_balanced(pools, dc_label_sets[i], sizes.samples_per_val))
        for i in range(sizes.n_dc)
    ]

    idx = _draw_balanced(pools, frozenset(range(base.num_classes)), sizes.public_size)
    order = rng.permutation(len(idx))
    return MarketPartition(do_shards, dc_label_sets, dc_val_shards, base.features[idx[order]])


def _class_pools(base: LabeledDataset, rng: np.random.Generator) -> dict[int, np.ndarray]:
    pools: dict[int, np.ndarray] = {}
    for c in range(base.num_classes):
        idx = np.flatnonzero(base.labels == c)
        rng.shuffle(idx)
        pools[c] = idx
    return pools


def _draw_balanced(pools: dict[int, np.ndarray], labels: frozenset[int], total: int) -> np.ndarray:
    """Row indices of ``total`` samples, even over ``labels`` (within +-1), consuming pools.

    A class's pool is a view of its shuffled indices past the ones taken.
    """
    classes = sorted(labels)
    per, extra = divmod(total, len(classes))
    take: list[np.ndarray] = []
    for j, c in enumerate(classes):
        count = per + (1 if j < extra else 0)
        pool = pools[c]
        if len(pool) < count:
            raise ConfigError(
                f"class {c}: need {count} more samples, only {len(pool)} left in base"
            )
        take.append(pool[:count])
        pools[c] = pool[count:]
    return np.concatenate(take)


def _gather(base: LabeledDataset, idx: np.ndarray) -> LabeledDataset:
    return LabeledDataset(base.features[idx], base.labels[idx], base.num_classes)


def take_class_balanced(
    base: LabeledDataset, labels: frozenset[int] | set[int], total: int, seed: int | list[int]
) -> LabeledDataset:
    """Non-consuming balanced slice over ``labels``; e.g. held-out test shards."""
    rng = np.random.default_rng(seed)
    return _gather(base, _draw_balanced(_class_pools(base, rng), frozenset(labels), total))


def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Load an IDX image/label file pair; pixels scaled to [0, 1] and flattened."""
    images = _read_idx(Path(images_path), IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(Path(labels_path), IDX_LABEL_MAGIC, "label")
    if len(images) != len(labels):
        raise IdxParseError(f"{images_path}: {len(images)} images but {len(labels)} labels")
    feats = images.reshape(len(images), math.prod(images.shape[1:])).astype(float) / 255.0
    if len(labels) == 0:
        raise IdxParseError(f"{labels_path}: no labels to infer the class count from")
    return LabeledDataset(feats, labels.astype(np.int64), int(labels.max()) + 1)


def _read_idx(path: Path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of an IDX file; ``magic``'s low byte is its rank, ``kind`` names it."""
    raw = path.read_bytes()
    header = 4 + 4 * (magic & 0xFF)
    if len(raw) < header:
        raise IdxParseError(f"{path}: truncated header at offset {len(raw)}")
    found, *shape = struct.unpack(f">{header // 4}I", raw[:header])
    if found != magic:
        raise IdxParseError(f"{path}: bad {kind} magic {found:#010x} at offset 0")
    expected = header + math.prod(shape)  # Python ints: no header can overflow it
    if len(raw) != expected:
        raise IdxParseError(
            f"{path}: expected {expected} bytes, got {len(raw)} (mismatch at offset {min(expected, len(raw))})"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)
