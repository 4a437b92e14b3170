"""Tests for anchor computation and stochastic feature exchanging."""

import numpy as np
import pytest

import finehash.autodiff as ad
from finehash import anchors
from finehash.errors import ContractError, DimensionError


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


class TestAnchorBank:
    def test_missing_class_is_key_error(self):
        bank = anchors.AnchorBank(np.zeros((2, 2, 3)))
        for missing in (2, 9, -1):
            with pytest.raises(KeyError):
                bank.get(missing)

    def test_mismatched_shapes_rejected(self):
        # the checkpoint's anchor entries are checked by trainer.load_checkpoint
        with pytest.raises(DimensionError):
            anchors.AnchorBank(np.zeros((2, 3)))

    def test_rows_stack_each_label_anchors(self):
        # the trainer gathers a batch's anchors as table[labels]
        rng = np.random.default_rng(6)
        bank = anchors.AnchorBank(rng.standard_normal((5, 2, 3)))
        labels = np.array([4, 1, 4, 0])
        rows = bank.table[labels]
        assert rows.shape == (4, 2, 3)
        for row, label in zip(rows, labels):
            assert np.array_equal(row, bank.get(label))


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
