import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmarket.data import (
    IdxParseError,
    LabeledDataset,
    PartitionSizes,
    build_market_partition,
    gen_blobs,
    load_idx,
    take_class_balanced,
)
from fedmarket.errors import ConfigError

from conftest import write_idx_pair
from oracles import split_per_class


def paper_sizes(samples_per_do=40, samples_per_val=40, public_size=50):
    return PartitionSizes(
        n_dc=3,
        n_do=24,
        n_c=4,
        samples_per_do=samples_per_do,
        samples_per_val=samples_per_val,
        public_size=public_size,
    )


# ---------------------------------------------------------------- blobs

def test_blobs_counts_and_balance():
    ds = gen_blobs(2, 4, 10, 0.5, 0)
    assert len(ds) == 20
    assert (np.bincount(ds.labels) == 10).all()


def test_blobs_spread_zero_collapses_to_means():
    ds = gen_blobs(3, 4, 5, 0.0, 1)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.allclose(rows, rows[0])


def test_blobs_deterministic_per_seed():
    a = gen_blobs(4, 6, 7, 1.0, 42)
    b = gen_blobs(4, 6, 7, 1.0, 42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_means_distinct():
    ds = gen_blobs(4, 2, 3, 0.0, 5)
    means = {tuple(ds.features[ds.labels == c][0]) for c in range(4)}
    assert len(means) == 4


def test_blobs_too_many_classes_rejected():
    with pytest.raises(ValueError):
        gen_blobs(5, 2, 3, 1.0, 0)


@pytest.mark.parametrize("spread", [float("nan"), float("inf"), -1.0])
def test_blobs_bad_spread_rejected(spread):
    with pytest.raises(ConfigError, match=f"spread must be finite and >= 0, got {spread}"):
        gen_blobs(3, 4, 5, spread, 0)


def test_blobs_dim_above_63_rejected():
    # Vertex codes are int64 draws below 2**dim; 2**64 is out of range.
    with pytest.raises(ValueError, match="dim must be <= 63"):
        gen_blobs(10, 64, 3, 1.0, 0)
    for dim in (62, 63):
        ds = gen_blobs(10, dim, 1, 0.0, 0)
        assert len({row.tobytes() for row in ds.features}) == 10


# SHA-256 of gen_blobs' features then labels, pinned before the held-out block
# existed; held_out=0 must keep these bytes.
BLOBS_GOLDEN = {
    (10, 16, 5500, 1.0, (7, 1)): "4f774cd61717819d02f33af035288fa4a59b41bf779d5ae563e3f0aa929bb0df",
    (2, 4, 10, 0.5, 0): "311bb3786fc5ed5c452308edab0ba473604f7256f56634d1ab9402e170023c6a",
    (6, 13, 7, 2.0, (3, 1)): "d8410eacd2f76557fb1bd91aa7539c0bc17e9dfb115612222266b04dfe1cd582",
    (4, 63, 3, 1.0, 11): "c7f9e4080b74c8c22083acb5d971de5207bc240e019f0eb204068de05bf9ea11",
}


@pytest.mark.parametrize("args", sorted(BLOBS_GOLDEN, key=str))
def test_blobs_bytes_pinned(args):
    num_classes, dim, per_class, spread, seed = args
    seed = list(seed) if isinstance(seed, tuple) else seed
    ds = gen_blobs(num_classes, dim, per_class, spread, seed)
    digest = hashlib.sha256(ds.features.tobytes())
    digest.update(ds.labels.tobytes())
    assert digest.hexdigest() == BLOBS_GOLDEN[args]


@settings(max_examples=150, deadline=None)
@given(
    num_classes=st.integers(2, 6),
    dim=st.integers(3, 14),
    per_class=st.integers(1, 6),
    held_out=st.integers(0, 5),
    spread=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_classes=2, dim=3, per_class=1, held_out=0, spread=1.0, seed=0)
@example(num_classes=6, dim=3, per_class=1, held_out=4, spread=1.0, seed=1)
def test_blobs_held_out_block_matches_split_oracle(num_classes, dim, per_class, held_out, spread, seed):
    got = gen_blobs(num_classes, dim, per_class, spread, seed, held_out=held_out)
    kept, rest = split_per_class(
        gen_blobs(num_classes, dim, per_class + held_out, spread, seed), per_class
    )
    assert got.num_classes == num_classes
    for part in ("features", "labels"):
        want = np.concatenate([getattr(kept, part), getattr(rest, part)])
        assert getattr(got, part).dtype == want.dtype
        assert getattr(got, part).tobytes() == want.tobytes()


# ---------------------------------------------------------------- partition sizes

def test_spec_rejects_odd_classes():
    with pytest.raises(ConfigError):
        PartitionSizes(3, 24, 3, 10, 10, 10)


def test_spec_rejects_indivisible_owner_groups():
    with pytest.raises(ConfigError):
        PartitionSizes(3, 23, 4, 10, 10, 10)


# ---------------------------------------------------------------- market partition

def test_partition_matches_group_construction():
    spec = paper_sizes()
    base = gen_blobs(10, 4, 200, 1.0, 3)
    part = build_market_partition(spec, base, 0)

    shared = frozenset.intersection(*part.dc_label_sets)
    assert len(shared) == 2
    for labels in part.dc_label_sets:
        assert len(labels) == 4
        assert len(labels - shared) == 2
    uniques = [labels - shared for labels in part.dc_label_sets]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (uniques[i] & uniques[j])

    assert len(part.do_shards) == 24
    do_groups = [j // spec.owners_per_group for j in range(len(part.do_shards))]
    assert sorted(set(do_groups)) == [0, 1, 2, 3]
    assert all(do_groups.count(g) == 6 for g in range(4))
    for shard, group in zip(part.do_shards, do_groups):
        held = frozenset(int(c) for c in np.unique(shard.labels))
        if group == 0:
            assert held == shared
        else:
            assert held == uniques[group - 1]
        assert (np.bincount(shard.labels, minlength=10)[sorted(held)] == 20).all()

    for i, shard in enumerate(part.dc_val_shards):
        counts = np.bincount(shard.labels, minlength=10)
        assert (counts[sorted(part.dc_label_sets[i])] == 10).all()

    assert len(part.public) == 50


def test_partition_shards_pairwise_disjoint():
    spec = paper_sizes()
    base = gen_blobs(10, 4, 200, 1.0, 9)
    part = build_market_partition(spec, base, 0)
    seen = set()
    all_rows = [s.features for s in part.do_shards + part.dc_val_shards]
    all_rows.append(part.public)
    for block in all_rows:
        for row in block:
            key = row.tobytes()
            assert key not in seen
            seen.add(key)


def test_partition_public_is_class_balanced():
    spec = paper_sizes(public_size=50)
    base = gen_blobs(10, 4, 200, 1.0, 4)
    label_of = {base.features[i].tobytes(): int(base.labels[i]) for i in range(len(base))}
    part = build_market_partition(spec, base, 0)
    counts = np.zeros(10, dtype=int)
    for row in part.public:
        counts[label_of[row.tobytes()]] += 1
    assert (counts == 5).all()


def test_partition_insufficient_samples_names_class():
    spec = paper_sizes(samples_per_do=500)
    base = gen_blobs(10, 4, 100, 1.0, 5)
    with pytest.raises(ConfigError, match=r"class \d+"):
        build_market_partition(spec, base, 0)


def test_partition_needs_enough_classes():
    spec = paper_sizes()
    base = gen_blobs(6, 4, 500, 1.0, 6)
    with pytest.raises(ConfigError, match="base dataset: 6 classes, below the 8"):
        build_market_partition(spec, base, 0)


@settings(max_examples=60, deadline=None)
@given(
    n_dc=st.integers(1, 4),
    owners_per_group=st.integers(1, 3),
    n_shared=st.integers(1, 2),
    samples_per_do=st.integers(1, 9),
    samples_per_val=st.integers(1, 9),
    public_size=st.integers(0, 30),
    spare_classes=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_per_class_demand_bounds_every_class_draw(
    n_dc, owners_per_group, n_shared, samples_per_do, samples_per_val, public_size, spare_classes, seed,
    data,
):
    sizes = PartitionSizes(
        n_dc, owners_per_group * (n_dc + 1), 2 * n_shared, samples_per_do, samples_per_val, public_size
    )
    k = sizes.classes_needed + spare_classes
    need = sizes.per_class_demand(k)
    # row i's feature is i, so every drawn row, public ones too, names its class
    labels = np.repeat(np.arange(k), need)
    base = LabeledDataset(np.arange(len(labels), dtype=float)[:, None], labels, k)
    part = build_market_partition(sizes, base, seed)
    rows = [s.features for s in part.do_shards + part.dc_val_shards] + [part.public]
    drawn = np.bincount(labels[np.concatenate(rows)[:, 0].astype(int)], minlength=k)
    # each shared class gives every group-0 owner, validation and public shard
    # its rounded-up share or one less
    shards = owners_per_group + n_dc + (public_size > 0)
    assert need - shards <= drawn.max() <= need
    # One sample fewer of any class fails before the draw, whether or not
    # this seed would share that class.
    short = data.draw(st.integers(0, k - 1), label="short")
    labels = np.repeat(np.arange(k), need - (np.arange(k) == short))
    base = LabeledDataset(np.zeros((len(labels), 1)), labels, k)
    with pytest.raises(ConfigError, match=f"base dataset: class {short} has {need - 1} samples, below the {need} "):
        build_market_partition(sizes, base, seed)


def test_take_class_balanced():
    base = gen_blobs(6, 4, 50, 1.0, 7)
    shard = take_class_balanced(base, {1, 4}, 20, 0)
    assert len(shard) == 20
    assert (np.bincount(shard.labels, minlength=6)[[1, 4]] == 10).all()


def test_split_per_class():
    base = gen_blobs(3, 4, 10, 1.0, 8)
    a, b = split_per_class(base, 6)
    assert (np.bincount(a.labels) == 6).all()
    assert (np.bincount(b.labels) == 4).all()


# ---------------------------------------------------------------- IDX format

def test_idx_roundtrip(tmp_path):
    images = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
    labels = np.array([0, 1, 2], dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert len(ds) == 3
    assert ds.dim == 4
    assert np.array_equal(ds.labels, [0, 1, 2])


def test_idx_scales_pixels_to_unit_interval(tmp_path):
    images = np.full((1, 2, 2), 255, dtype=np.uint8)
    labels = np.array([0], dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert (ds.features == 1.0).all()


def test_idx_count_mismatch_rejected(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(IdxParseError):
        load_idx(img, lbl)


def test_idx_empty_without_num_classes_rejected(tmp_path):
    images = np.zeros((0, 2, 2), dtype=np.uint8)
    labels = np.zeros(0, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(IdxParseError, match=r"labels\.idx: no labels to infer the class count from"):
        load_idx(img, lbl)


def test_idx_bad_magic_reports_offset(tmp_path):
    img = tmp_path / "bad.idx"
    img.write_bytes(struct.pack(">IIII", 0x999, 1, 2, 2) + bytes(4))
    lbl = tmp_path / "labels.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    with pytest.raises(IdxParseError, match="offset"):
        load_idx(img, lbl)


def test_idx_truncated_data_rejected(tmp_path):
    img = tmp_path / "trunc.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(5))
    lbl = tmp_path / "labels.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
    with pytest.raises(IdxParseError, match="offset"):
        load_idx(img, lbl)


def _write_labels_and_images(tmp_path, label_bytes, image_bytes=None):
    img = tmp_path / "images.idx"
    img.write_bytes(
        image_bytes if image_bytes is not None
        else struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8)
    )
    lbl = tmp_path / "labels.idx"
    lbl.write_bytes(label_bytes)
    return img, lbl


@pytest.mark.parametrize(
    "label_bytes, message",
    [
        (struct.pack(">II", 0x803, 2) + bytes(2), "bad label magic 0x00000803 at offset 0"),
        (struct.pack(">I", 0x801) + bytes(2), "truncated header at offset 6"),
        (struct.pack(">II", 0x801, 2) + bytes(1), "expected 10 bytes, got 9 .mismatch at offset 9"),
        (struct.pack(">II", 0x801, 2) + bytes(3), "expected 10 bytes, got 11 .mismatch at offset 10"),
    ],
    ids=["bad-magic", "short-header", "truncated-data", "trailing-data"],
)
def test_idx_malformed_label_file_rejected(tmp_path, label_bytes, message):
    img, lbl = _write_labels_and_images(tmp_path, label_bytes)
    with pytest.raises(IdxParseError, match=message):
        load_idx(img, lbl)


def test_idx_short_image_header_rejected(tmp_path):
    img, lbl = _write_labels_and_images(
        tmp_path, struct.pack(">II", 0x801, 2) + bytes(2), struct.pack(">III", 0x803, 2, 2)
    )
    with pytest.raises(IdxParseError, match="truncated header at offset 12"):
        load_idx(img, lbl)


def test_idx_image_header_claiming_more_than_fits_rejected(tmp_path):
    # 2**32 - 1 images of 65535 x 65535 pixels: far more bytes than any file
    # holds, and more than an int64 product could count.
    big = 2**32 - 1
    header = struct.pack(">IIII", 0x803, big, 65535, 65535)
    img, lbl = _write_labels_and_images(
        tmp_path, struct.pack(">II", 0x801, 2) + bytes(2), header + bytes(8)
    )
    expected = 16 + big * 65535 * 65535
    with pytest.raises(IdxParseError, match=f"expected {expected} bytes, got 24 .mismatch at offset 24"):
        load_idx(img, lbl)


def test_dataset_validates_labels():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 5]), 3)
