"""Tests for the similarity and diversity losses.

Exact values come from hand arithmetic; random cases are cross-checked
against plain-numpy reimplementations; all gradients are verified against
central finite differences.
"""

import numpy as np
import pytest

import finehash.autodiff as ad
from finehash import losses
from finehash.errors import ContractError, DimensionError, DomainError
from finehash.model import RefinedFeatures
from finehash.trainer import update_code_column

import helpers


def rand_dist(rng, n, low=0.1):
    x = rng.uniform(low, 1.0, size=n)
    return x / x.sum()


def naive_aggregation(part_map):
    s = part_map.sum(axis=2).reshape(-1)
    e = np.exp(s - s.max())
    return e / e.sum()


def naive_hellinger(p, r):
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(r)) / np.sqrt(2.0))


def naive_spatial(maps):
    agg = [naive_aggregation(m) for m in maps]
    dists = [
        naive_hellinger(agg[l], agg[k])
        for l in range(len(agg))
        for k in range(l + 1, len(agg))
    ]
    return 1.0 - float(np.mean(dists))


def naive_channel(vecs, margin):
    probs = []
    for v in vecs:
        e = np.exp(v - v.max())
        probs.append(e / e.sum())
    dists = [
        naive_hellinger(probs[l], probs[k])
        for l in range(len(probs))
        for k in range(l + 1, len(probs))
    ]
    return max(0.0, margin - float(np.mean(dists)))


def features_from(part_maps, part_vecs):
    """Stacked features of a batch from nested [sample][part] arrays."""
    return RefinedFeatures(
        part_maps=ad.tensor(np.array(part_maps)),
        part_vecs=ad.tensor(np.array(part_vecs)),
        global_vec=None,
    )


class TestHellingerDistance:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert helpers.hellinger_distance(p, p.copy()) == 0.0

    def test_disjoint_support(self):
        assert helpers.hellinger_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_half_vs_point_mass(self):
        # (1/sqrt 2) * ||(sqrt .5, sqrt .5) - (1, 0)|| = sqrt(1 - sqrt .5)
        expected = np.sqrt(1.0 - np.sqrt(0.5))
        got = helpers.hellinger_distance([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5412, abs=5e-5)

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            p, r = rand_dist(rng, n, low=0.0 + 1e-6), rand_dist(rng, n, low=1e-6)
            d_pr = helpers.hellinger_distance(p, r)
            d_rp = helpers.hellinger_distance(r, p)
            assert d_pr == pytest.approx(d_rp, abs=1e-15)
            assert -1e-12 <= d_pr <= 1.0 + 1e-12
        assert helpers.hellinger_distance([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            helpers.hellinger_distance([1.1, -0.1], [0.5, 0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            helpers.hellinger_distance([0.5, 0.6], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            helpers.hellinger_distance([1.0], [0.5, 0.5])


class TestHellingerTerm:
    def test_matches_exact_metric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, r = rand_dist(rng, 8), rand_dist(rng, 8)
            term = losses.hellinger_term(ad.tensor(p), ad.tensor(r)).item()
            assert term == pytest.approx(helpers.hellinger_distance(p, r), abs=1e-5)

    def test_identical_inputs_near_zero(self):
        p = rand_dist(np.random.default_rng(2), 6)
        assert losses.hellinger_term(ad.tensor(p), ad.tensor(p)).item() < 1e-9

    def test_gradients(self):
        rng = np.random.default_rng(3)
        p, r = rand_dist(rng, 7), rand_dist(rng, 7)

        def value(pa, ra):
            return losses.hellinger_term(ad.tensor(pa), ad.tensor(ra)).item()

        with ad.Tape() as tape:
            pt, rt = ad.parameter(p), ad.parameter(r)
            loss = losses.hellinger_term(pt, rt)
        tape.backward(loss)
        numeric = helpers.finite_difference(value, [p.copy(), r.copy()])
        assert helpers.relative_error(pt.grad, numeric[0]) < 1e-4
        assert helpers.relative_error(rt.grad, numeric[1]) < 1e-4

    def test_zero_gradient_at_identical_inputs(self):
        p = rand_dist(np.random.default_rng(4), 5)
        with ad.Tape() as tape:
            pt = ad.parameter(p)
            loss = losses.hellinger_term(pt, ad.tensor(p.copy()))
        tape.backward(loss)
        assert np.all(np.isfinite(pt.grad))
        assert np.allclose(pt.grad, 0.0, atol=1e-12)


class TestAggregationDistribution:
    def test_constant_map_is_uniform(self):
        out = losses.aggregation_distribution(ad.tensor(np.full((2, 3, 4), 1.7)))
        assert np.allclose(out.data, 1.0 / 6.0, atol=1e-12)

    def test_dominating_position(self):
        m = np.zeros((3, 3, 2))
        m[1, 1, :] = 10.0
        out = losses.aggregation_distribution(ad.tensor(m)).data.reshape(3, 3)
        assert out[1, 1] > 0.999

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        out = losses.aggregation_distribution(ad.tensor(rng.standard_normal((4, 4, 3))))
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.data > 0.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 5, 4))
        out = losses.aggregation_distribution(ad.tensor(m)).data
        assert np.allclose(out, naive_aggregation(m), atol=1e-12)


class TestSpatialDiversityLoss:
    def test_identical_parts_give_one(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 3, 2))
        maps = ad.tensor(np.stack([m.copy() for _ in range(3)]))
        assert losses.spatial_diversity_loss(maps).item() == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_attention_near_zero(self):
        a = np.zeros((2, 2, 1))
        b = np.zeros((2, 2, 1))
        a[0, 0, 0] = 40.0
        b[1, 1, 0] = 40.0
        loss = losses.spatial_diversity_loss(ad.tensor(np.stack([a, b]))).item()
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_single_part_rejected(self):
        with pytest.raises(ContractError):
            losses.spatial_diversity_loss(ad.tensor(np.zeros((1, 2, 2, 1))))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        maps = [rng.standard_normal((3, 3, 2)) for _ in range(3)]
        a = losses.spatial_diversity_loss(ad.tensor(np.stack(maps))).item()
        b = losses.spatial_diversity_loss(ad.tensor(np.stack(maps[::-1]))).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(9)
        maps = [rng.standard_normal((4, 3, 2)) for _ in range(3)]
        got = losses.spatial_diversity_loss(ad.tensor(np.stack(maps))).item()
        assert got == pytest.approx(naive_spatial(maps), abs=1e-5)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        maps = np.stack([rng.standard_normal((3, 3, 2)) for _ in range(2)])

        def value(stacked):
            return losses.spatial_diversity_loss(ad.tensor(stacked)).item()

        with ad.Tape() as tape:
            leaf = ad.parameter(maps)
            loss = losses.spatial_diversity_loss(leaf)
        tape.backward(loss)
        numeric = helpers.finite_difference(value, [maps.copy()])
        assert helpers.relative_error(leaf.grad, numeric[0]) < 1e-4


class TestChannelDiversityLoss:
    def test_identical_vectors_give_margin(self):
        v = np.random.default_rng(11).standard_normal(6)
        vecs = ad.tensor(np.stack([v.copy() for _ in range(4)]))
        assert losses.channel_diversity_loss(vecs, 0.4).item() == pytest.approx(0.4, abs=1e-9)

    def test_separated_vectors_give_zero(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 30.0
        b[3] = 30.0
        loss = losses.channel_diversity_loss(ad.tensor(np.stack([a, b])), 0.4).item()
        assert loss == 0.0

    def test_zero_margin_gives_zero(self):
        rng = np.random.default_rng(12)
        vecs = ad.tensor(np.stack([rng.standard_normal(5) for _ in range(3)]))
        assert losses.channel_diversity_loss(vecs, 0.0).item() == 0.0

    def test_bounded_by_margin(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            vecs = ad.tensor(np.stack([rng.standard_normal(6) for _ in range(3)]))
            loss = losses.channel_diversity_loss(vecs, 0.4).item()
            assert 0.0 <= loss <= 0.4 + 1e-12

    def test_matches_naive(self):
        rng = np.random.default_rng(14)
        vecs = [rng.standard_normal(7) * 0.3 for _ in range(3)]
        got = losses.channel_diversity_loss(ad.tensor(np.stack(vecs)), 0.9).item()
        assert got == pytest.approx(naive_channel(vecs, 0.9), abs=1e-5)

    def test_negative_margin_rejected(self):
        with pytest.raises(ContractError):
            losses.channel_diversity_loss(ad.tensor(np.zeros((2, 3))), -0.1)

    def test_gradients_with_active_hinge(self):
        rng = np.random.default_rng(15)
        vecs = np.stack([rng.standard_normal(5) * 0.2 for _ in range(3)])

        def value(stacked):
            return losses.channel_diversity_loss(ad.tensor(stacked), 0.9).item()

        with ad.Tape() as tape:
            leaf = ad.parameter(vecs)
            loss = losses.channel_diversity_loss(leaf, 0.9)
        tape.backward(loss)
        assert loss.item() > 0.05  # hinge active, away from the kink
        numeric = helpers.finite_difference(value, [vecs.copy()])
        assert helpers.relative_error(leaf.grad, numeric[0]) < 1e-4


def one_pair_loss(relaxed, db_code, sim, bits):
    return losses.batch_similarity_loss(
        ad.tensor([relaxed]), np.array([db_code]), np.array([[sim]]), bits
    ).item()


class TestSimilaritySquaredLoss:
    """(u . v - bits * s)^2 for one pair: a one-row batch_similarity_loss."""

    def test_perfect_agreement(self):
        code = np.array([1.0, -1.0, 1.0, 1.0])
        assert one_pair_loss(code, code, 1.0, 4) == 0.0

    def test_worst_disagreement(self):
        code = np.array([1.0, -1.0, 1.0, 1.0])
        assert one_pair_loss(code, code, -1.0, 4) == 4.0 * 16.0  # (q + q)^2 with q = 4

    def test_two_bit_example(self):
        # u = (1, 1), v = (1, -1), S = +1: (0 - 2)^2 = 4.
        assert one_pair_loss([1.0, 1.0], [1.0, -1.0], 1.0, 2) == 4.0

    def test_invalid_database_code_rejected(self):
        with pytest.raises(DomainError):
            one_pair_loss([0.5, 0.5], [1.0, 0.0], 1.0, 2)

    def test_invalid_sim_rejected(self):
        with pytest.raises(DomainError):
            one_pair_loss([0.5, 0.5], [1.0, 1.0], 0.0, 2)


class TestBatchSimilarityLoss:
    def test_equals_sum_of_pairs(self):
        rng = np.random.default_rng(17)
        bits, batch, n = 5, 3, 7
        relaxed = [rng.uniform(-0.9, 0.9, size=bits) for _ in range(batch)]
        codes = np.where(rng.random((n, bits)) < 0.5, -1.0, 1.0)
        sims = np.where(rng.random((batch, n)) < 0.5, -1.0, 1.0)
        batched = losses.batch_similarity_loss(
            ad.tensor(np.stack(relaxed)), codes, sims, bits
        ).item()
        by_pairs = sum(
            (relaxed[i] @ codes[j] - bits * sims[i, j]) ** 2
            for i in range(batch)
            for j in range(n)
        )
        assert batched == pytest.approx(by_pairs, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            losses.batch_similarity_loss(
                ad.tensor(np.zeros((1, 4))), np.ones((3, 4)), np.ones((2, 3)), 4
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            losses.batch_similarity_loss(ad.tensor(np.zeros((0, 4))), np.ones((3, 4)),
                                         np.ones((0, 3)), 4)


def _similarity_case(relaxed_shape=(2, 4), codes_shape=(3, 4), sim_shape=(2, 3),
                     code=1.0, sim=-1.0):
    return np.full(relaxed_shape, 0.5), np.full(codes_shape, code), np.full(sim_shape, sim)


class TestSimilarityInputs:
    """batch_similarity_loss and update_code_column read one input check."""

    @pytest.mark.parametrize("case, error", [
        (_similarity_case(relaxed_shape=(2, 3)), DimensionError),
        (_similarity_case(relaxed_shape=(4,)), DimensionError),
        (_similarity_case(codes_shape=(3, 5)), DimensionError),
        (_similarity_case(sim_shape=(2, 4)), DimensionError),
        (_similarity_case(code=0.0), DomainError),
        (_similarity_case(sim=2.0), DomainError),
    ])
    def test_both_phases_reject_alike(self, case, error):
        relaxed, codes, sim = case
        with pytest.raises(error):
            losses.check_similarity_inputs(relaxed, codes, sim, 4, "check")
        with pytest.raises(error):
            losses.batch_similarity_loss(ad.tensor(relaxed), codes, sim, 4)
        with pytest.raises(error):
            update_code_column(relaxed, codes, sim, 4, 0)

    def test_returns_float64(self):
        relaxed, codes, sim = _similarity_case()
        checked = losses.check_similarity_inputs(relaxed.astype(np.float32),
                                                 codes.astype(np.int8), sim, 4, "check")
        assert [values.dtype for values in checked] == [np.float64] * 3
        assert all(np.array_equal(a, b) for a, b in zip(checked, (relaxed, codes, sim)))


class TestTotalObjective:
    def _random_case(self, rng, batch=2, n=4, bits=3, parts=2):
        relaxed = [rng.uniform(-0.9, 0.9, size=bits) for _ in range(batch)]
        codes = np.where(rng.random((n, bits)) < 0.5, -1.0, 1.0)
        sims = np.where(rng.random((batch, n)) < 0.5, -1.0, 1.0)
        maps = [[rng.standard_normal((2, 2, 3)) for _ in range(parts)] for _ in range(batch)]
        vecs = [[rng.standard_normal(3) for _ in range(parts)] for _ in range(batch)]
        feats = features_from(maps, vecs)
        return relaxed, codes, sims, maps, vecs, feats

    def test_zero_weights_reduce_to_similarity(self):
        rng = np.random.default_rng(18)
        relaxed, codes, sims, _, _, feats = self._random_case(rng)
        total = losses.total_objective(
            ad.tensor(np.stack(relaxed)), feats, codes, sims, 3, losses.LossWeights()
        ).item()
        expected = losses.batch_similarity_loss(
            ad.tensor(np.stack(relaxed)), codes, sims, 3
        ).item()
        assert total == pytest.approx(expected, rel=1e-12)

    def test_perfect_pair_identical_parts(self):
        rng = np.random.default_rng(19)
        code = np.where(rng.random(4) < 0.5, -1.0, 1.0)
        part_map = rng.standard_normal((2, 2, 3))
        part_vec = rng.standard_normal(3)
        feats = features_from([[part_map, part_map.copy()]], [[part_vec, part_vec.copy()]])
        weights = losses.LossWeights(spatial=0.7, channel=1.3, margin=0.4)
        total = losses.total_objective(
            ad.tensor(code[None, :]), feats, code[None, :], np.array([[1.0]]), 4, weights
        ).item()
        assert total == pytest.approx(0.7 * 1.0 + 1.3 * 0.4, abs=1e-9)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(20)
        relaxed, codes, sims, maps, vecs, feats = self._random_case(rng)
        weights = losses.LossWeights(spatial=0.5, channel=0.25, margin=0.9)
        total = losses.total_objective(
            ad.tensor(np.stack(relaxed)), feats, codes, sims, 3, weights
        ).item()
        expected = losses.batch_similarity_loss(
            ad.tensor(np.stack(relaxed)), codes, sims, 3
        ).item()
        for i in range(len(relaxed)):
            expected += 0.5 * naive_spatial(maps[i]) + 0.25 * naive_channel(vecs[i], 0.9)
        assert total == pytest.approx(expected, abs=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(21)
        bits, n = 3, 4
        u0 = rng.uniform(-0.9, 0.9, size=bits)
        codes = np.where(rng.random((n, bits)) < 0.5, -1.0, 1.0)
        sims = np.where(rng.random((1, n)) < 0.5, -1.0, 1.0)
        map0 = rng.standard_normal((2, 2, 3))
        map1 = rng.standard_normal((2, 2, 3))
        vec0 = rng.standard_normal(3) * 0.2
        vec1 = rng.standard_normal(3) * 0.2
        weights = losses.LossWeights(spatial=0.6, channel=0.8, margin=0.9)

        def build(u, maps, vecs):
            feats = RefinedFeatures(part_maps=maps, part_vecs=vecs, global_vec=None)
            return losses.total_objective(u, feats, codes, sims, bits, weights)

        def value(*arrays):
            return build(*[ad.tensor(a) for a in arrays]).item()

        arrays = [u0[None], np.stack([map0, map1])[None], np.stack([vec0, vec1])[None]]
        with ad.Tape() as tape:
            leaves = [ad.parameter(a) for a in arrays]
            loss = build(*leaves)
        tape.backward(loss)
        numeric = helpers.finite_difference(value, [a.copy() for a in arrays])
        for leaf, expected in zip(leaves, numeric):
            assert helpers.relative_error(leaf.grad, expected) < 1e-4


class TestAutoWeights:
    def test_formula(self):
        w = losses.auto_weights(16, 25600)
        assert w.spatial == pytest.approx(0.001, rel=1e-12)
        assert w.channel == pytest.approx(0.001, rel=1e-12)
        assert w.margin == 0.4

    def test_invalid_pair_count(self):
        with pytest.raises(ContractError):
            losses.auto_weights(16, 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError):
            losses.LossWeights(spatial=-0.1)
