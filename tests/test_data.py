"""Tests for the synthetic generator, PPM IO, and manifest ingestion."""

from dataclasses import replace

import numpy as np
import pytest

from finehash.data import (
    Dataset,
    SynthConfig,
    build_similarity,
    generate_synthetic,
    load_manifest,
    read_ppm,
    write_dataset,
    write_ppm,
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
        sim = build_similarity(np.array([3, 3, 3]))
        assert np.array_equal(sim, np.ones((3, 3)))

    def test_distinct_labels_identity_like(self):
        sim = build_similarity(np.array([0, 1, 2]))
        assert np.array_equal(sim, 2.0 * np.eye(3) - 1.0)

    def test_cross_similarity(self):
        sim = build_similarity(np.array([0, 1]), np.array([1, 1, 0]))
        assert np.array_equal(sim, np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]))

    def test_symmetric_square(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=12)
        sim = build_similarity(labels)
        assert np.array_equal(sim, sim.T)
        for i in range(12):
            assert np.sum(sim[i] == 1.0) == np.sum(labels == labels[i])

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            build_similarity(np.zeros((2, 2)))


class TestPpm:
    def test_hand_built_fixture(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
        image = read_ppm(path)
        assert image.shape == (2, 2, 3)
        assert np.allclose(image, np.arange(12).reshape(2, 2, 3) / 255.0)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6 # comment\n# another line\n 2\t1 # w h\n255\n" + bytes(6))
        image = read_ppm(path)
        assert image.shape == (1, 2, 3)
        assert np.array_equal(image, np.zeros((1, 2, 3)))

    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        image = rng.uniform(0.0, 1.0, size=(5, 7, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        loaded = read_ppm(path)
        assert loaded.shape == image.shape
        assert np.max(np.abs(loaded - image)) <= 0.5 / 255.0 + 1e-12

    def test_round_trip_exact_after_quantization(self, tmp_path):
        path = tmp_path / "a.ppm"
        other = tmp_path / "b.ppm"
        rng = np.random.default_rng(3)
        write_ppm(path, rng.uniform(0.0, 1.0, size=(4, 4, 3)))
        write_ppm(other, read_ppm(path))
        assert path.read_bytes() == other.read_bytes()

    def test_bad_magic_names_line(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(IngestionError, match="line 1"):
            read_ppm(path)

    def test_malformed_width(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\nwide 2\n255\n" + bytes(12))
        with pytest.raises(IngestionError, match="width"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(IngestionError, match="maxval"):
            read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(IngestionError, match="truncated"):
            read_ppm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            read_ppm(tmp_path / "absent.ppm")

    def test_write_range_check(self, tmp_path):
        with pytest.raises(ContractError):
            write_ppm(tmp_path / "x.ppm", np.full((2, 2, 3), 2.0))


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
            write_ppm(root / name, np.zeros((2, 2, 3)))
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
        write_ppm(root / "a.ppm", np.zeros((2, 2, 3)))
        (root / "manifest.csv").write_text("a.ppm,0,query\n")
        loaded = load_manifest(root / "manifest.csv")
        assert len(loaded.labels) == 1

    def test_unknown_split_names_line(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        write_ppm(root / "a.ppm", np.zeros((2, 2, 3)))
        (root / "manifest.csv").write_text("a.ppm,0,train-db\na.ppm,0,validation\n")
        with pytest.raises(IngestionError, match="line 2"):
            load_manifest(root / "manifest.csv")

    def test_duplicate_path_rejected(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        write_ppm(root / "a.ppm", np.zeros((2, 2, 3)))
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
        write_ppm(root / "a.ppm", np.zeros((2, 2, 3)))
        write_ppm(root / "b.ppm", np.zeros((3, 3, 3)))
        (root / "manifest.csv").write_text("a.ppm,0,query\nb.ppm,0,query\n")
        with pytest.raises(IngestionError, match="shape"):
            load_manifest(root / "manifest.csv")

    def test_failed_image_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        import finehash.data as data_module

        written = []

        def fail_on_fourth(path, image):
            if len(written) == 3:
                raise OSError("no space left on device")
            written.append(path)
            write_ppm(path, image)

        monkeypatch.setattr(data_module, "write_ppm", fail_on_fourth)
        with pytest.raises(OSError):
            write_dataset(generate_synthetic(SMALL), tmp_path / "set")
        assert len(written) == 3
        assert not (tmp_path / "set" / "manifest.csv").exists()

    def test_empty_manifest_gives_empty_dataset(self, tmp_path):
        root = tmp_path / "set"
        root.mkdir()
        (root / "manifest.csv").write_text("relative_path,label,split\n")
        loaded = load_manifest(root / "manifest.csv")
        assert len(loaded.labels) == 0
