"""Tests for the synthetic generator, PPM IO, and manifest ingestion."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from finehash.data import (
    Dataset,
    SynthConfig,
    build_similarity,
    generate_synthetic,
    load_manifest,
    write_dataset,
)
from finehash.errors import ContractError, DimensionError, IngestionError

SMALL = SynthConfig(num_classes=3, per_class=4, queries_per_class=2, image_side=16,
                    parts_per_image=2, patch_size=4, seed=11)


class TestSynthConfig:
    def test_defaults(self):
        config = SynthConfig()
        assert config.num_classes == 8
        assert config.per_class == 50
        assert config.queries_per_class == 10
        assert config.image_side == 32
        assert config.parts_per_image == 4

    @pytest.mark.parametrize("field,value", [
        ("num_classes", 0), ("per_class", 0), ("queries_per_class", 0),
        ("image_side", 0), ("parts_per_image", 0), ("patch_size", 0),
    ])
    def test_positive_counts(self, field, value):
        with pytest.raises(ContractError):
            SynthConfig(**{field: value})

    def test_patch_overflow(self):
        with pytest.raises(ContractError):
            SynthConfig(image_side=8, patch_size=9)

    def test_negative_noise(self):
        with pytest.raises(ContractError):
            SynthConfig(pixel_noise=-0.1)

    def test_negative_seed_rejected_naming_it(self):
        # numpy's generator takes only non-negative seeds
        with pytest.raises(ContractError, match="SynthConfig: seed "):
            SynthConfig(seed=-1)


class TestGenerate:
    def test_counts_and_splits(self):
        data = generate_synthetic(SMALL)
        assert len(data.labels) == 3 * (4 + 2)
        assert len(data.train_indices) == 12
        assert len(data.query_indices) == 6
        assert data.num_classes == 3
        data.require_both_splits()

    def test_image_range_and_shape(self):
        data = generate_synthetic(SMALL)
        assert data.images.shape == (18, 16, 16, 3)
        assert data.images.dtype == np.float64
        assert data.images.min() >= 0.0
        assert data.images.max() <= 1.0

    def test_deterministic(self):
        first = generate_synthetic(SMALL)
        second = generate_synthetic(SMALL)
        assert np.array_equal(first.images, second.images)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.splits, second.splits)

    def test_seed_changes_images(self):
        first = generate_synthetic(SMALL)
        other = generate_synthetic(SynthConfig(num_classes=3, per_class=4, queries_per_class=2,
                                               image_side=16, parts_per_image=2, patch_size=4,
                                               seed=12))
        assert not np.array_equal(first.images, other.images)

    def test_noise_free_samples_identical_within_class(self):
        config = SynthConfig(num_classes=2, per_class=3, queries_per_class=1, image_side=16,
                             parts_per_image=2, patch_size=4, position_jitter=0.0,
                             pixel_noise=0.0, seed=5)
        data = generate_synthetic(config)
        class_zero = data.images[data.labels == 0]
        for image in class_zero[1:]:
            assert np.array_equal(image, class_zero[0])
        class_one = data.images[data.labels == 1]
        assert not np.array_equal(class_zero[0], class_one[0])

    def test_zero_pattern_scale_removes_class_signal(self):
        config = SynthConfig(num_classes=3, per_class=2, queries_per_class=1, image_side=16,
                             parts_per_image=2, patch_size=4, position_jitter=0.0,
                             pixel_noise=0.0, pattern_scale=0.0, seed=5)
        data = generate_synthetic(config)
        for image in data.images[1:]:
            assert np.array_equal(image, data.images[0])

    def test_high_jitter_intra_exceeds_inter(self):
        # The fine-grained regime: per-sample spread larger than class signal.
        config = SynthConfig(num_classes=4, per_class=20, queries_per_class=1, image_side=24,
                             parts_per_image=3, patch_size=5, position_jitter=3.0,
                             pixel_noise=0.1, pattern_scale=0.1, seed=3)
        data = generate_synthetic(config)
        means = np.stack([data.images[data.labels == c].mean(axis=0) for c in range(4)])
        inter = np.mean([
            np.linalg.norm(means[a] - means[b])
            for a in range(4) for b in range(a + 1, 4)
        ])
        intra = np.mean([
            np.linalg.norm(image - means[c])
            for c in range(4) for image in data.images[data.labels == c]
        ])
        assert intra > inter


class TestDatasetContainer:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(images=np.zeros((2, 4, 4, 3)), labels=np.zeros(3, dtype=int),
                    splits=np.array(["query", "query", "query"]))

    def test_nan_image_rejected(self):
        images = np.zeros((1, 2, 2, 3))
        images[0, 1, 1, 2] = np.nan
        with pytest.raises(ContractError):
            Dataset(images=images, labels=[0], splits=["query"])

    def test_range_check(self):
        with pytest.raises(ContractError):
            Dataset(images=np.full((1, 2, 2, 3), 1.5), labels=np.zeros(1, dtype=int),
                    splits=np.array(["query"]))

    def test_unknown_split(self):
        with pytest.raises(ContractError):
            Dataset(images=np.zeros((1, 2, 2, 3)), labels=np.zeros(1, dtype=int),
                    splits=np.array(["test"]))

    def test_labels_must_be_dense(self):
        with pytest.raises(ContractError):
            Dataset(images=np.zeros((2, 2, 2, 3)), labels=np.array([0, 2]),
                    splits=np.array(["query", "query"]))

    def test_missing_split_detected(self):
        data = Dataset(images=np.zeros((2, 2, 2, 3)), labels=np.array([0, 1]),
                       splits=np.array(["train-db", "train-db"]))
        with pytest.raises(ContractError):
            data.require_both_splits()

    def test_empty_allowed(self):
        data = Dataset(images=np.zeros((0, 0, 0, 3)), labels=np.zeros(0, dtype=int),
                       splits=np.array([], dtype=str))
        assert data.num_classes == 0
        assert len(data.train_indices) == 0


class TestSimilarity:
    def test_identical_labels_all_positive(self):
        labels = np.array([3, 3, 3])
        sim = build_similarity(labels, labels)
        assert np.array_equal(sim, np.ones((3, 3)))

    def test_distinct_labels_identity_like(self):
        labels = np.array([0, 1, 2])
        sim = build_similarity(labels, labels)
        assert np.array_equal(sim, 2.0 * np.eye(3) - 1.0)

    def test_cross_similarity(self):
        sim = build_similarity(np.array([0, 1]), np.array([1, 1, 0]))
        assert np.array_equal(sim, np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]))

    def test_symmetric_square(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=12)
        sim = build_similarity(labels, labels)
        assert np.array_equal(sim, sim.T)
        for i in range(12):
            assert np.sum(sim[i] == 1.0) == np.sum(labels == labels[i])

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            build_similarity(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            build_similarity(np.zeros(2), np.zeros((2, 2)))


def _ppm(path, side):
    """A black side x side P6 image, written as bytes."""
    path.write_bytes(f"P6\n{side} {side}\n255\n".encode() + bytes(side * side * 3))


def _load_one(root, blob: bytes) -> np.ndarray:
    """Load one PPM file's bytes through a one-row manifest."""
    root.mkdir()
    (root / "a.ppm").write_bytes(blob)
    (root / "manifest.csv").write_text("a.ppm,0,query\n")
    return load_manifest(root / "manifest.csv").images[0]


class TestPpm:
    """The PPM reader and writer, through load_manifest and write_dataset."""

    def test_hand_built_fixture(self, tmp_path):
        image = _load_one(tmp_path / "set", b"P6\n2 2\n255\n" + bytes(range(12)))
        assert image.shape == (2, 2, 3)
        assert np.allclose(image, np.arange(12).reshape(2, 2, 3) / 255.0)

    def test_header_comments_and_whitespace(self, tmp_path):
        image = _load_one(tmp_path / "set",
                          b"P6 # comment\n# another line\n 2\t1 # w h\n255\n" + bytes(6))
        assert image.shape == (1, 2, 3)
        assert np.array_equal(image, np.zeros((1, 2, 3)))

    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(images=rng.uniform(0.0, 1.0, size=(2, 5, 7, 3)), labels=[0, 0],
                       splits=["train-db", "query"])
        loaded = load_manifest(write_dataset(data, tmp_path / "set"))
        assert loaded.images.shape == data.images.shape
        assert np.max(np.abs(loaded.images - data.images)) <= 0.5 / 255.0 + 1e-12

    def test_round_trip_exact_after_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset(images=rng.uniform(0.0, 1.0, size=(1, 4, 4, 3)), labels=[0],
                       splits=["query"])
        write_dataset(data, tmp_path / "a")
        write_dataset(load_manifest(tmp_path / "a" / "manifest.csv"), tmp_path / "b")
        image = "class_000/query_0000.ppm"
        assert (tmp_path / "a" / image).read_bytes() == (tmp_path / "b" / image).read_bytes()

    def test_bad_magic_names_line(self, tmp_path):
        with pytest.raises(IngestionError, match="line 1"):
            _load_one(tmp_path / "set", b"P5\n2 2\n255\n" + bytes(12))

    def test_malformed_width(self, tmp_path):
        with pytest.raises(IngestionError, match="width"):
            _load_one(tmp_path / "set", b"P6\nwide 2\n255\n" + bytes(12))

    def test_unsupported_maxval(self, tmp_path):
        with pytest.raises(IngestionError, match="maxval"):
            _load_one(tmp_path / "set", b"P6\n2 2\n65535\n" + bytes(24))

    def test_truncated_pixels(self, tmp_path):
        with pytest.raises(IngestionError, match="truncated"):
            _load_one(tmp_path / "set", b"P6\n2 2\n255\n" + bytes(5))

    def test_missing_file(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        (root / "manifest.csv").write_text("absent.ppm,0,query\n")
        with pytest.raises(IngestionError, match="absent.ppm: cannot read image"):
            load_manifest(root / "manifest.csv")

    def test_write_range_check(self, tmp_path):
        for value in (2.0, -0.5):
            data = Dataset(images=np.full((1, 2, 2, 3), 0.5), labels=[0], splits=["query"])
            data.images[0, 1, 0, 1] = value
            with pytest.raises(ContractError, match="write_dataset"):
                write_dataset(data, tmp_path / "set")
            assert not (tmp_path / "set").exists()

    def test_write_rejects_nan(self, tmp_path):
        data = Dataset(images=np.full((1, 2, 2, 3), 0.5), labels=[0], splits=["query"])
        data.images[0, 1, 0, 1] = np.nan
        with pytest.raises(ContractError, match="write_dataset"):
            write_dataset(data, tmp_path / "set")
        assert not (tmp_path / "set").exists()


class TestManifest:
    def test_write_load_round_trip(self, tmp_path):
        data = generate_synthetic(SMALL)
        manifest = write_dataset(data, tmp_path / "set")
        loaded = load_manifest(manifest)
        assert np.array_equal(loaded.labels, data.labels)
        assert np.array_equal(loaded.splits, data.splits)
        assert np.max(np.abs(loaded.images - data.images)) <= 0.5 / 255.0 + 1e-12
        loaded.require_both_splits()

    def test_class_ids_survive_round_trip_past_ten_classes(self, tmp_path):
        # load_manifest numbers tokens in string order, where '10' sorts before '2'
        data = generate_synthetic(replace(SMALL, num_classes=12, per_class=1,
                                          queries_per_class=1))
        loaded = load_manifest(write_dataset(data, tmp_path / "set"))
        assert loaded.label_names[:3] == ["00", "01", "02"]
        assert np.array_equal(loaded.labels, data.labels)
        # ten classes or fewer keep their unpadded names
        assert generate_synthetic(SMALL).label_names == ["0", "1", "2"]

    def test_label_tokens_remap_dense_sorted(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        for name in ("a.ppm", "b.ppm", "c.ppm"):
            _ppm(root / name, 2)
        (root / "manifest.csv").write_text(
            "relative_path,label,split\n"
            "a.ppm,sparrow,train-db\n"
            "b.ppm,finch,query\n"
            "c.ppm,sparrow,query\n"
        )
        loaded = load_manifest(root / "manifest.csv")
        assert loaded.label_names == ["finch", "sparrow"]
        assert np.array_equal(loaded.labels, np.array([1, 0, 1]))

    def test_headerless_manifest_accepted(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        _ppm(root / "a.ppm", 2)
        (root / "manifest.csv").write_text("a.ppm,0,query\n")
        loaded = load_manifest(root / "manifest.csv")
        assert len(loaded.labels) == 1

    def test_unknown_split_names_line(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        _ppm(root / "a.ppm", 2)
        (root / "manifest.csv").write_text("a.ppm,0,train-db\na.ppm,0,validation\n")
        with pytest.raises(IngestionError, match="line 2"):
            load_manifest(root / "manifest.csv")

    def test_duplicate_path_rejected(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        _ppm(root / "a.ppm", 2)
        (root / "manifest.csv").write_text("a.ppm,0,train-db\na.ppm,1,query\n")
        with pytest.raises(IngestionError, match="duplicate"):
            load_manifest(root / "manifest.csv")

    def test_bad_column_count(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        (root / "manifest.csv").write_text("a.ppm,0\n")
        with pytest.raises(IngestionError, match="line 1"):
            load_manifest(root / "manifest.csv")

    def test_missing_image_file(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        (root / "manifest.csv").write_text("ghost.ppm,0,query\n")
        with pytest.raises(IngestionError):
            load_manifest(root / "manifest.csv")

    def test_mismatched_image_sizes(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        _ppm(root / "a.ppm", 2)
        _ppm(root / "b.ppm", 3)
        (root / "manifest.csv").write_text("a.ppm,0,query\nb.ppm,0,query\n")
        with pytest.raises(IngestionError, match="shape"):
            load_manifest(root / "manifest.csv")

    @staticmethod
    def _fail_fourth_write(monkeypatch):
        """Make the per-file writer fail on its 4th call; returns the paths written."""
        import finehash.data as data_module

        written = []
        write_pixels = data_module._write_pixels

        def fail_on_fourth(path, pixels):
            if len(written) == 3:
                raise OSError("no space left on device")
            written.append(path)
            write_pixels(path, pixels)

        monkeypatch.setattr(data_module, "_write_pixels", fail_on_fourth)
        return written

    def test_failed_image_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        written = self._fail_fourth_write(monkeypatch)
        with pytest.raises(OSError):
            write_dataset(generate_synthetic(SMALL), tmp_path / "set")
        assert len(written) == 3
        assert not (tmp_path / "set" / "manifest.csv").exists()

    def test_interrupted_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        # the old manifest would load the 3 new files under the old set's labels
        write_dataset(generate_synthetic(SMALL), tmp_path / "set")
        written = self._fail_fourth_write(monkeypatch)
        with pytest.raises(OSError):
            write_dataset(generate_synthetic(replace(SMALL, seed=12)), tmp_path / "set")
        assert len(written) == 3
        assert not (tmp_path / "set" / "manifest.csv").exists()

    def test_completed_rewrite_loads_the_new_set(self, tmp_path):
        write_dataset(generate_synthetic(SMALL), tmp_path / "set")
        new = generate_synthetic(replace(SMALL, num_classes=2, seed=12))
        loaded = load_manifest(write_dataset(new, tmp_path / "set"))
        fresh = load_manifest(write_dataset(new, tmp_path / "fresh"))
        assert np.array_equal(loaded.images, fresh.images)
        assert np.array_equal(loaded.labels, new.labels)
        assert np.array_equal(loaded.splits, new.splits)

    def test_shrinking_rewrite_removes_stale_images_only(self, tmp_path):
        root = tmp_path / "set"
        write_dataset(generate_synthetic(SynthConfig()), root)
        (root / "notes.txt").write_text("kept")
        (root / "class_000" / "notes.txt").write_text("kept")
        (root / "class_007" / "query_7.ppm").write_text("kept")  # not a writer's name
        small = generate_synthetic(SynthConfig(num_classes=4, per_class=20))
        loaded = load_manifest(write_dataset(small, root))
        images = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.ppm")
                        if path.name != "query_7.ppm")
        assert len(images) == len(loaded.labels) == 120
        assert images == sorted(
            f"class_{label:03d}/{split}_{index:04d}.ppm" for label in range(4)
            for split, count in (("train-db", 20), ("query", 10)) for index in range(count))
        fresh = load_manifest(write_dataset(small, tmp_path / "fresh"))
        assert np.array_equal(loaded.images, fresh.images)
        assert (root / "notes.txt").exists() and (root / "class_000" / "notes.txt").exists()
        # a class folder keeps what is not the writer's own; one left empty goes
        assert (root / "class_007" / "query_7.ppm").exists()
        assert not (root / "class_006").exists()

    def test_same_size_rewrite_unlinks_nothing(self, tmp_path, monkeypatch):
        data = generate_synthetic(SMALL)
        write_dataset(data, tmp_path / "set")
        unlinked = []
        unlink = Path.unlink

        def recording(path, *args, **kwargs):
            unlinked.append(path.name)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", recording)
        write_dataset(data, tmp_path / "set")
        assert unlinked == ["manifest.csv"]

    def test_write_dataset_rejects_nan_and_keeps_the_old_set(self, tmp_path):
        data = generate_synthetic(SMALL)
        manifest = write_dataset(data, tmp_path / "set")
        data.images[5, 0, 0, 0] = np.nan
        with pytest.raises(ContractError, match="write_dataset"):
            write_dataset(data, tmp_path / "set")
        assert manifest.exists()

    def test_empty_manifest_gives_empty_dataset(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        (root / "manifest.csv").write_text("relative_path,label,split\n")
        loaded = load_manifest(root / "manifest.csv")
        assert len(loaded.labels) == 0


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class TestPinnedBytes:
    """The generator, the writer and the loader reproduce fixed bytes, so a
    change to the draw order, the pasting order or the quantization shows."""

    DEFAULT_LABELS = "a3b523f51b35aedda2d2ad3fb864cf2db4c81086e85e601dbafd1820c9fc9cee"
    DEFAULT_SPLITS = "0c549eee0116a74f49deae0f7c8a34da48ef6d76e168997f2a9c4ceffde681b2"

    @pytest.mark.parametrize("overrides,images,labels,splits", [
        ({}, "114971905efd5ee91366b7ab7534a7aeb0466e6035acc927bbaf3d9ad39ce47b",
         DEFAULT_LABELS, DEFAULT_SPLITS),
        (dict(num_classes=16, pattern_scale=0.4, position_jitter=1.0),
         "df5c6e233c0234fbb4a8db263a442199b9da53bc1957ed854802fe9dcef1b967",
         "d66916f3c1ce2f4ebdd5b841340df3247d1ada4a176dbb783019405e32aeaccd",
         "1066430f92de0cc2bb05282e1bb3d1ab047c953c6c0b92e3aec848ef71116bf7"),
        (dict(position_jitter=0.0, pixel_noise=0.0),
         "9f1b90aef541ff1810ba4bfd38f066461775ccdf75098e344fdb20d2cc7daf58",
         DEFAULT_LABELS, DEFAULT_SPLITS),
        # one 8x8 cell for 3 parts: random positions, fully overlapping parts
        (dict(image_side=8, patch_size=8, parts_per_image=3),
         "ea12ade518f1db77fa56c243d61e38256ac1c6e18814843996f90d87ccc010c4",
         DEFAULT_LABELS, DEFAULT_SPLITS),
    ], ids=["default", "harder", "still", "crowded"])
    def test_generator(self, overrides, images, labels, splits):
        data = generate_synthetic(SynthConfig(**overrides))
        assert _sha256(data.images.tobytes()) == images
        assert _sha256(data.labels.tobytes()) == labels
        assert _sha256("\n".join(data.splits.tolist()).encode()) == splits

    def test_written_files_and_loaded_images(self, tmp_path):
        manifest = write_dataset(generate_synthetic(SynthConfig()), tmp_path)
        files = sorted(path for path in tmp_path.rglob("*") if path.is_file())
        assert len(files) == 481
        assert _sha256(*(path.relative_to(tmp_path).as_posix().encode() + b"\0"
                         + path.read_bytes() for path in files)) == (
            "c21fd6c091112c837dbb2a6e7a8d705c9740720a776bff6308462043a5d2841f")
        loaded = load_manifest(manifest)
        assert loaded.images.dtype == np.float64
        assert _sha256(loaded.images.tobytes()) == (
            "ece9e45e7cfae2c33c157d3b1be3d962e19f03aa4c65c9dfc5a4ed576de0a4e0")
