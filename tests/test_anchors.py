"""Tests for anchor computation and stochastic feature exchanging."""

import numpy as np
import pytest

import finehash.autodiff as ad
from finehash import anchors
from finehash.errors import ContractError, DimensionError, FileFormatError


class TestComputeAnchorBank:
    def test_single_sample_is_its_own_anchor(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((1, 3, 4))
        bank = anchors.compute_anchor_bank(stack, np.array([0]))
        assert np.array_equal(bank.get(0), stack[0])

    def test_two_sample_mean(self):
        stack = np.array([[[0.0, 2.0]], [[2.0, 0.0]]])  # two samples, 1 part, dim 2
        bank = anchors.compute_anchor_bank(stack, np.array([0, 0]))
        assert np.array_equal(bank.get(0), [[1.0, 1.0]])

    def test_matches_loop_mean_exactly(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((18, 2, 5)).astype(np.float32)
        labels = rng.permutation(np.repeat(np.arange(3), 6))
        bank = anchors.compute_anchor_bank(stack, labels)
        assert bank.table.shape == (3, 2, 5) and bank.table.dtype == np.float64
        for c in range(3):
            expected = np.zeros((2, 5))
            for sample in stack[labels == c]:
                expected += sample
            expected /= 6
            assert np.max(np.abs(bank.get(c) - expected)) <= 1e-12

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((5, 2, 3))
        labels = np.array([0, 1, 0, 1, 1])
        a = anchors.compute_anchor_bank(stack, labels).table
        b = anchors.compute_anchor_bank(stack[::-1].copy(), labels[::-1].copy()).table
        assert np.allclose(a, b, atol=1e-12)

    def test_class_without_samples_rejected(self):
        with pytest.raises(ContractError, match=r"\[1\]"):
            anchors.compute_anchor_bank(np.zeros((2, 2, 3)), np.array([0, 2]))

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            anchors.compute_anchor_bank(np.zeros((0, 2, 3)), np.zeros(0, dtype=int))

    def test_bad_rank_rejected(self):
        with pytest.raises(DimensionError):
            anchors.compute_anchor_bank(np.zeros((3, 4)), np.zeros(3, dtype=int))
        with pytest.raises(DimensionError):
            anchors.compute_anchor_bank(np.zeros((3, 2, 4)), np.zeros(2, dtype=int))

    def test_checkpoint_round_trip(self):
        rng = np.random.default_rng(5)
        bank = anchors.AnchorBank(rng.standard_normal((3, 3, 4)))
        entries = bank.arrays()
        assert sorted(entries) == ["anchors.0", "anchors.1", "anchors.2"]
        rebuilt = anchors.AnchorBank.from_arrays({"hash.weight": np.zeros(2), **entries})
        assert rebuilt.classes == bank.classes == [0, 1, 2]
        assert np.array_equal(rebuilt.table, bank.table)
        assert anchors.AnchorBank.from_arrays({"hash.weight": np.zeros(2)}) is None


class TestAnchorBank:
    def test_missing_class_is_key_error(self):
        bank = anchors.AnchorBank(np.zeros((2, 2, 3)))
        for missing in (2, 9, -1):
            with pytest.raises(KeyError):
                bank.get(missing)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            anchors.AnchorBank(np.zeros((2, 3)))
        entries = {"anchors.0": np.zeros((2, 3)), "anchors.1": np.zeros((2, 4))}
        with pytest.raises(FileFormatError, match="anchors.1"):
            anchors.AnchorBank.from_arrays(entries)

    def test_sparse_class_ids_rejected(self):
        for ids in ((0, 2), (1, 2), ("0", "x")):
            entries = {f"anchors.{c}": np.zeros((2, 3)) for c in ids}
            with pytest.raises(FileFormatError):
                anchors.AnchorBank.from_arrays(entries)

    def test_rows_stack_each_label_anchors(self):
        rng = np.random.default_rng(6)
        bank = anchors.AnchorBank(rng.standard_normal((5, 2, 3)))
        labels = np.array([4, 1, 4, 0])
        rows = bank.rows(labels)
        assert rows.shape == (4, 2, 3)
        for row, label in zip(rows, labels):
            assert np.array_equal(row, bank.get(label))
        for missing in (-1, 5, 10):
            with pytest.raises(KeyError):
                bank.rows(np.array([1, missing]))


class TestDrawKeepMask:
    def test_deterministic_under_seed(self):
        a = anchors.draw_keep_mask(np.random.default_rng(42), 6)
        b = anchors.draw_keep_mask(np.random.default_rng(42), 6)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_empirical_mean_near_half(self):
        rng = np.random.default_rng(7)
        draws = np.stack([anchors.draw_keep_mask(rng, 4) for _ in range(10000)])
        means = draws.mean(axis=0)
        assert np.all(means > 0.47) and np.all(means < 0.53)

    def test_zero_parts(self):
        assert anchors.draw_keep_mask(np.random.default_rng(0), 0).size == 0

    def test_negative_parts_rejected(self):
        with pytest.raises(ContractError):
            anchors.draw_keep_mask(np.random.default_rng(0), -1)

    def test_batch_draw_equals_per_sample_draws(self):
        for parts in (1, 3, 4):
            batched, serial = np.random.default_rng(3), np.random.default_rng(3)
            masks = anchors.draw_keep_mask(batched, (5, parts))
            expected = np.stack([anchors.draw_keep_mask(serial, parts) for _ in range(5)])
            assert np.array_equal(masks, expected)
            assert batched.bit_generator.state == serial.bit_generator.state


class TestExchangeFeatures:
    def _setup(self, rng, parts=3, dim=4):
        vecs = ad.parameter(np.stack([rng.standard_normal(dim) for _ in range(parts)]))
        bank_anchors = rng.standard_normal((parts, dim))
        return vecs, bank_anchors

    def test_all_ones_keeps_own_features(self):
        rng = np.random.default_rng(8)
        vecs, bank_anchors = self._setup(rng)
        out = anchors.exchange_features(vecs, bank_anchors, np.ones(3, dtype=int))
        assert np.array_equal(out.data, vecs.data)

    def test_all_zeros_substitutes_anchors(self):
        rng = np.random.default_rng(9)
        vecs, bank_anchors = self._setup(rng)
        with ad.Tape() as tape:
            out = anchors.exchange_features(vecs, bank_anchors, np.zeros(3, dtype=int))
            loss = ad.sum_all(ad.hadamard(out, out))
        tape.backward(loss)
        assert np.array_equal(out.data, bank_anchors)
        assert np.array_equal(vecs.grad, np.zeros_like(vecs.data))

    def test_mixed_mask(self):
        rng = np.random.default_rng(10)
        vecs, bank_anchors = self._setup(rng)
        out = anchors.exchange_features(vecs, bank_anchors, np.array([1, 0, 1]))
        assert np.array_equal(out.data[0], vecs.data[0])
        assert np.array_equal(out.data[1], bank_anchors[1])
        assert np.array_equal(out.data[2], vecs.data[2])

    def test_gradients_flow_only_through_kept_parts(self):
        rng = np.random.default_rng(11)
        with ad.Tape() as tape:
            vecs, bank_anchors = self._setup(rng, parts=2)
            out = anchors.exchange_features(vecs, bank_anchors, np.array([1, 0]))
            loss = ad.sum_all(ad.hadamard(out, out))
        tape.backward(loss)
        assert np.linalg.norm(vecs.grad[0]) > 0.0
        assert np.allclose(vecs.grad[1], 0.0)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        vecs, _ = self._setup(rng)
        with pytest.raises(DimensionError):
            anchors.exchange_features(vecs, np.zeros((3, 5)), np.ones(3, dtype=int))

    def test_part_count_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        vecs, _ = self._setup(rng)
        with pytest.raises(DimensionError):
            anchors.exchange_features(vecs, np.zeros((2, 4)), np.ones(3, dtype=int))

    def test_non_binary_mask_rejected(self):
        rng = np.random.default_rng(14)
        vecs, bank_anchors = self._setup(rng)
        with pytest.raises(ContractError):
            anchors.exchange_features(vecs, bank_anchors, np.array([0.3, 1.0, 0.0]))
