"""Tests for k-means, product quantization, and ADC ranking."""

import numpy as np
import pytest

from finehash.errors import ContractError, DimensionError
from finehash.pq import (
    PQCodebook,
    adc_distances,
    encode_pq,
    kmeans,
    pq_rank,
    train_pq,
)
from helpers import decode_pq, naive_euclidean_order


class TestKmeans:
    def test_sse_trace_never_increases(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 6))
        _, _, trace = kmeans(points, 5, np.random.default_rng(1))
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9

    def test_two_well_separated_groups_reach_optimum(self):
        # optimum is centroids 0.5 and 10.5 with total squared error 1.0,
        # reached from every seeding of this instance
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        for seed in range(5):
            centroids, assignments, trace = kmeans(points, 2, np.random.default_rng(seed))
            assert trace[-1] == 1.0
            assert sorted(centroids[:, 0].tolist()) == [0.5, 10.5]
            assert assignments[0] == assignments[1]
            assert assignments[2] == assignments[3]

    def test_duplicate_groups_zero_error(self):
        points = np.concatenate([np.zeros((10, 2)), np.full((10, 2), 100.0)])
        centroids, _, trace = kmeans(points, 2, np.random.default_rng(3))
        assert trace[-1] == 0.0
        assert sorted(centroids[:, 0].tolist()) == [0.0, 100.0]

    def test_k_equals_n_distinct_points_zero_error(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(12, 3))
        centroids, assignments, trace = kmeans(points, 12, np.random.default_rng(5))
        assert trace[-1] == 0.0
        assert np.array_equal(np.sort(assignments), np.arange(12))
        assert np.array_equal(centroids[assignments], points)

    def test_all_identical_points(self):
        points = np.full((5, 2), 7.0)
        centroids, assignments, trace = kmeans(points, 3, np.random.default_rng(6))
        assert trace[-1] == 0.0
        assert np.all(centroids == 7.0)
        assert np.all(assignments == 0)  # ties go to the lowest index

    def test_deterministic_per_seed(self):
        rng_points = np.random.default_rng(7)
        points = rng_points.normal(size=(50, 4))
        first = kmeans(points, 4, np.random.default_rng(8))
        second = kmeans(points, 4, np.random.default_rng(8))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2]

    def test_k_bounds(self):
        points = np.zeros((4, 2))
        with pytest.raises(ContractError):
            kmeans(points, 0, np.random.default_rng(0))
        with pytest.raises(ContractError):
            kmeans(points, 5, np.random.default_rng(0))

    def test_rank_check(self):
        with pytest.raises(DimensionError):
            kmeans(np.zeros(4), 2, np.random.default_rng(0))


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(10)
    features = rng.normal(size=(120, 12))
    codebook = train_pq(features, subspaces=4, centroids=16, seed=11)
    return features, codebook


class TestTrainEncode:
    def test_codebook_geometry(self, trained):
        _, codebook = trained
        assert codebook.subspaces == 4
        assert codebook.centroids_per_space == 16
        assert codebook.dim == 12
        assert codebook.centroids.shape == (4, 16, 3)

    def test_codes_dtype_and_range(self, trained):
        features, codebook = trained
        codes = encode_pq(codebook, features)
        assert codes.dtype == np.uint8
        assert codes.shape == (120, 4)
        assert codes.max() < 16

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(40, 8))
        first = train_pq(features, subspaces=2, centroids=8, seed=3)
        second = train_pq(features, subspaces=2, centroids=8, seed=3)
        assert np.array_equal(first.centroids, second.centroids)

    def test_beats_single_mean_reconstruction(self, trained):
        features, codebook = trained
        recon = decode_pq(codebook, encode_pq(codebook, features))
        quantized_sse = float(np.sum((features - recon) ** 2))
        mean_sse = float(np.sum((features - features.mean(axis=0)) ** 2))
        assert quantized_sse < mean_sse

    def test_geometry_validation(self):
        features = np.zeros((10, 12))
        with pytest.raises(ContractError):
            train_pq(features, subspaces=5, centroids=4)
        with pytest.raises(ContractError):
            train_pq(features, subspaces=4, centroids=300)
        with pytest.raises(ContractError):
            train_pq(features, subspaces=4, centroids=11)

    def test_codebook_centroid_cap(self):
        with pytest.raises(ContractError):
            PQCodebook(centroids=np.zeros((2, 257, 3)))

    def test_encode_dimension_check(self, trained):
        _, codebook = trained
        with pytest.raises(DimensionError):
            encode_pq(codebook, np.zeros((3, 10)))


class TestAdc:
    def test_equals_distance_to_reconstruction(self, trained):
        features, codebook = trained
        codes = encode_pq(codebook, features)
        recon = decode_pq(codebook, codes)
        rng = np.random.default_rng(13)
        for _ in range(5):
            query = rng.normal(size=12)
            adc = adc_distances(codebook, codes, query)
            exact = np.sum((recon - query) ** 2, axis=1)
            assert np.allclose(adc, exact, rtol=1e-10, atol=1e-10)

    def test_rank_matches_reconstruction_rank(self, trained):
        features, codebook = trained
        codes = encode_pq(codebook, features)
        recon = decode_pq(codebook, codes)
        rng = np.random.default_rng(14)
        query = rng.normal(size=12)
        order = pq_rank(codebook, codes, query)
        naive = naive_euclidean_order(recon, np.arange(120), query, 120)
        assert np.array_equal(order, naive)

    def test_zero_error_regime_is_exact_search(self):
        # one centroid per distinct point: reconstructions equal the data,
        # so ADC ranking equals exact Euclidean ranking
        rng = np.random.default_rng(15)
        features = rng.normal(size=(30, 8))
        codebook = train_pq(features, subspaces=2, centroids=30, seed=16)
        codes = encode_pq(codebook, features)
        assert np.array_equal(decode_pq(codebook, codes), features)
        query = rng.normal(size=8)
        assert np.array_equal(
            pq_rank(codebook, codes, query),
            naive_euclidean_order(features, np.arange(30), query, 30),
        )
        assert adc_distances(codebook, codes, features[7])[7] == 0.0

    def test_query_shape_check(self, trained):
        features, codebook = trained
        codes = encode_pq(codebook, features)
        with pytest.raises(DimensionError):
            adc_distances(codebook, codes, np.zeros(5))

    def test_bad_code_values_rejected(self, trained):
        _, codebook = trained
        bad = np.full((3, 4), 200, dtype=np.uint8)
        with pytest.raises(ContractError):
            adc_distances(codebook, bad, np.zeros(12))
        with pytest.raises(ContractError):
            adc_distances(codebook, np.zeros((3, 4), dtype=np.int64), np.zeros(12))
