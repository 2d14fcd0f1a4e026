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

from .errors import ConfigError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


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


@dataclass(frozen=True)
class UnlabeledDataset:
    features: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a (n, d) matrix")

    def __len__(self) -> int:
        return self.features.shape[0]


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
        if self.n_dc < 1 or self.n_do < 1:
            raise ConfigError(f"n_dc={self.n_dc} and n_do={self.n_do} must both be >= 1")
        if self.n_c < 2 or self.n_c % 2 != 0:
            raise ConfigError(f"n_c must be a positive even number, got {self.n_c}")
        if self.n_do % (self.n_dc + 1) != 0:
            raise ConfigError(
                f"n_do={self.n_do} must divide into {self.n_dc + 1} equal owner groups"
            )

    @property
    def n_shared(self) -> int:
        return self.n_c // 2

    @property
    def owners_per_group(self) -> int:
        return self.n_do // (self.n_dc + 1)


@dataclass(frozen=True)
class MarketPartition:
    """Output of :func:`build_market_partition`."""

    do_shards: list[LabeledDataset]
    do_groups: list[int]
    dc_label_sets: list[frozenset[int]]
    dc_val_shards: list[LabeledDataset]
    public: UnlabeledDataset
    shared_labels: frozenset[int]


def gen_blobs(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    seed: int | list[int],
) -> LabeledDataset:
    """Isotropic Gaussian clusters centered on distinct hypercube vertices."""
    if num_classes < 2 or dim < 2:
        raise ValueError("need num_classes >= 2 and dim >= 2")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if num_classes > 2**dim:
        raise ValueError(f"cannot place {num_classes} distinct means on a {dim}-cube")
    rng = np.random.default_rng(seed)
    means = _distinct_vertices(num_classes, dim, rng)
    feats = np.concatenate(
        [m + rng.normal(0.0, spread, size=(per_class, dim)) for m in means]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
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
    need_classes = (sizes.n_dc + 1) * sizes.n_shared
    if base.num_classes < need_classes:
        raise ConfigError(
            f"base dataset has {base.num_classes} classes, construction needs {need_classes}"
        )
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

    do_shards: list[LabeledDataset] = []
    do_groups: list[int] = []
    for group, labels in enumerate(group_labels):
        for _ in range(sizes.owners_per_group):
            do_shards.append(_draw_balanced(base, pools, labels, sizes.samples_per_do))
            do_groups.append(group)

    dc_val_shards = [
        _draw_balanced(base, pools, dc_label_sets[i], sizes.samples_per_val)
        for i in range(sizes.n_dc)
    ]

    public_labeled = _draw_balanced(
        base, pools, frozenset(range(base.num_classes)), sizes.public_size
    )
    order = rng.permutation(len(public_labeled))
    public = UnlabeledDataset(public_labeled.features[order])

    return MarketPartition(do_shards, do_groups, dc_label_sets, dc_val_shards, public, shared)


def _class_pools(base: LabeledDataset, rng: np.random.Generator) -> dict[int, list[int]]:
    pools: dict[int, list[int]] = {}
    for c in range(base.num_classes):
        idx = np.flatnonzero(base.labels == c)
        rng.shuffle(idx)
        pools[c] = idx.tolist()
    return pools


def _draw_balanced(
    base: LabeledDataset,
    pools: dict[int, list[int]],
    labels: frozenset[int],
    total: int,
) -> LabeledDataset:
    """Take ``total`` samples evenly over ``labels`` (within +-1), consuming pools."""
    classes = sorted(labels)
    per, extra = divmod(total, len(classes))
    take: list[int] = []
    for j, c in enumerate(classes):
        count = per + (1 if j < extra else 0)
        pool = pools[c]
        if len(pool) < count:
            raise ConfigError(
                f"class {c}: need {count} more samples, only {len(pool)} left in base"
            )
        take.extend(pool[:count])
        del pool[:count]
    idx = np.array(take, dtype=np.intp)
    return LabeledDataset(base.features[idx], base.labels[idx], base.num_classes)


def take_class_balanced(
    base: LabeledDataset, labels: frozenset[int] | set[int], total: int, seed: int | list[int]
) -> LabeledDataset:
    """Non-consuming balanced slice over ``labels``; e.g. held-out test shards."""
    rng = np.random.default_rng(seed)
    pools = _class_pools(base, rng)
    return _draw_balanced(base, pools, frozenset(labels), total)


def split_per_class(ds: LabeledDataset, first_count: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Split each class's samples into the first ``first_count`` and the rest.

    Keeps the two halves on the same class distribution, e.g. a train pool
    and a held-out test pool drawn from one generated dataset.
    """
    first: list[int] = []
    rest: list[int] = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if len(idx) < first_count:
            raise ConfigError(
                f"class {c}: cannot split off {first_count} samples, only {len(idx)} present"
            )
        first.extend(idx[:first_count])
        rest.extend(idx[first_count:])
    fi = np.array(first, dtype=np.intp)
    ri = np.array(rest, dtype=np.intp)
    return (
        LabeledDataset(ds.features[fi], ds.labels[fi], ds.num_classes),
        LabeledDataset(ds.features[ri], ds.labels[ri], ds.num_classes),
    )


def load_idx(
    images_path: str | Path, labels_path: str | Path, num_classes: int | None = None
) -> LabeledDataset:
    """Load an IDX image/label file pair; pixels scaled to [0, 1] and flattened."""
    images = _read_idx(Path(images_path), IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(Path(labels_path), IDX_LABEL_MAGIC, "label")
    if len(images) != len(labels):
        raise IdxParseError(f"{images_path}: {len(images)} images but {len(labels)} labels")
    feats = images.reshape(len(images), math.prod(images.shape[1:])).astype(float) / 255.0
    if num_classes is None and len(labels) == 0:
        raise IdxParseError(f"{labels_path}: no labels to infer the class count from")
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return LabeledDataset(feats, labels.astype(np.int64), k)


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
