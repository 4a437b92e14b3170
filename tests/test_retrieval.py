"""Tests for packing, Hamming search, metrics, file IO, and the benchmark."""

import concurrent.futures
import logging
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import finehash.retrieval as retrieval_module
from finehash.errors import (
    ContractError,
    DimensionError,
    DomainError,
    FileFormatError,
    IngestionError,
)
from finehash.retrieval import (
    MAX_BITS,
    PackedCodes,
    RetrievalIndex,
    _PACK_BLOCK,
    _SCAN_BLOCK,
    _SHORTLIST_SAMPLE,
    _distance_key,
    _query_words,
    coarse_rank,
    evaluate_queries,
    format_bytes,
    load_features,
    load_labels,
    load_packed,
    pack_codes,
    rerank,
    save_features,
    save_labels,
    save_packed,
)
from helpers import (
    naive_average_precision,
    naive_euclidean_order,
    naive_hamming_order,
    ranked_index,
    reference_u64_rows,
    unpacked_codes,
)


def random_codes(rng, count, bits):
    return np.where(rng.random((count, bits)) < 0.5, -1.0, 1.0)


def distances(packed, query_code):
    """The distance key every ranking scans with, widened to int64."""
    return _distance_key(packed, pack_codes(query_code[None, :]).words[0]).astype(np.int64)


# bits -> (word dtype, words per packed row)
WORD_LAYOUT = {
    1: (np.uint8, 1), 8: (np.uint8, 1), 9: (np.uint16, 1), 16: (np.uint16, 1),
    17: (np.uint32, 1), 32: (np.uint32, 1), 33: (np.uint64, 1), 64: (np.uint64, 1),
    65: (np.uint64, 2), 128: (np.uint64, 2), 200: (np.uint64, 4),
}


def row_bytes(bits):
    dtype, words = WORD_LAYOUT[bits]
    return np.dtype(dtype).itemsize * words


def word_dtype(bits):
    """The narrowest of uint8, uint16 and uint32 that holds bits, else uint64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bits <= 8 * np.dtype(dtype).itemsize:
            return dtype
    return np.uint64


class TestPacking:
    def test_four_bit_word_value(self):
        packed = pack_codes(np.array([[1.0, -1.0, 1.0, 1.0]]))
        assert packed.words.shape == (1, 1)
        assert packed.words[0, 0] == 0b1101

    def test_word_counts(self):
        rng = np.random.default_rng(0)
        for bits, words in [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]:
            packed = pack_codes(random_codes(rng, 3, bits))
            assert packed.words.shape == (3, words)

    @pytest.mark.parametrize("bits", sorted(WORD_LAYOUT))
    def test_word_layout(self, bits):
        packed = pack_codes(random_codes(np.random.default_rng(bits), 5, bits))
        dtype, words = WORD_LAYOUT[bits]
        assert packed.words.dtype == dtype
        assert packed.words.shape == (5, words)
        assert packed.words.flags.c_contiguous

    @pytest.mark.parametrize("bits", sorted(WORD_LAYOUT))
    def test_rows_are_the_low_bytes_of_the_u64_rows(self, bits):
        codes = random_codes(np.random.default_rng(bits), 9, bits)
        rows = pack_codes(codes).words.view(np.uint8)
        old = reference_u64_rows(codes).view(np.uint8)
        assert rows.shape == (9, row_bytes(bits))
        assert np.array_equal(rows, old[:, :row_bytes(bits)])
        assert not old[:, row_bytes(bits):].any()  # the old layout's padding

    @pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 65, 128, 200])
    def test_round_trip(self, bits):
        rng = np.random.default_rng(bits)
        codes = random_codes(rng, 17, bits)
        assert np.array_equal(unpacked_codes(pack_codes(codes)), codes)

    def test_all_positive_and_negative(self):
        packed = pack_codes(np.ones((2, 64)))
        assert np.all(packed.words == np.uint64(0xFFFFFFFFFFFFFFFF))
        packed = pack_codes(-np.ones((2, 64)))
        assert np.all(packed.words == 0)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            pack_codes(np.array([[0.5, -1.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8, np.int64])
    @pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 65, 200])
    def test_words_equal_float64_path(self, dtype, bits):
        codes = random_codes(np.random.default_rng(bits), 33, bits)
        reference = pack_codes(codes)
        packed = pack_codes(codes.astype(dtype))
        assert packed.bits == reference.bits == bits
        assert packed.words.dtype == reference.words.dtype == word_dtype(bits)
        assert packed.words.tobytes() == reference.words.tobytes()

    @pytest.mark.parametrize("value", [0.0, 0.5, np.nan, np.inf, -np.inf])
    def test_non_pm1_value_rejected(self, value):
        with pytest.raises(DomainError, match=r"\+/-1"):
            pack_codes(np.array([[1.0, -1.0], [value, 1.0]]))

    @pytest.mark.parametrize("codes", [
        np.ones((2, 3), dtype=bool),
        np.ones((2, 3), dtype=np.uint8),
        np.array([["1", "-1"]]),
        np.array([[1 + 2j, -1]]),
        np.array([[1, -1]], dtype=object),
    ], ids=["bool", "uint8", "numeric-strings", "complex", "object"])
    def test_other_dtypes_rejected(self, codes):
        with pytest.raises(DomainError, match=f"dtype {codes.dtype}"):
            pack_codes(codes)

    def test_no_float_copy_of_the_matrix(self):
        # one float64 copy would be twice the float32 input's bytes
        codes = random_codes(np.random.default_rng(0), 200_000, 32).astype(np.float32)
        tracemalloc.start()
        try:
            pack_codes(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < codes.nbytes

    @pytest.mark.parametrize("bits", [8, 32, 100])
    def test_bad_entry_in_the_last_of_several_blocks_rejected(self, bits):
        step = _PACK_BLOCK // bits
        codes = np.ones((3 * step + 5, bits), dtype=np.int8)
        codes[-1, -1] = 0
        with pytest.raises(DomainError, match=r"\+/-1"):
            pack_codes(codes)
        codes[-1, -1] = -1
        assert pack_codes(codes).words.shape[0] == len(codes)

    def test_rank_rejected(self):
        with pytest.raises(DimensionError):
            pack_codes(np.ones(4))

    def test_trailing_bits_must_be_zero(self):
        with pytest.raises(ContractError):
            PackedCodes(words=np.array([[np.uint64(1 << 10)]]), bits=10)
        PackedCodes(words=np.array([[np.uint64(1 << 9)]]), bits=10)

    def test_wide_word_does_not_wrap_into_a_narrow_one(self):
        # 2**16 + 1 would wrap to 1 in the uint16 word of a 10-bit code
        wide = np.array([[np.uint64((1 << 16) + 1)]])
        with pytest.raises(ContractError, match="beyond"):
            PackedCodes(words=wide, bits=10)


class TestHamming:
    def test_identical_and_opposite(self):
        rng = np.random.default_rng(1)
        codes = random_codes(rng, 1, 70)
        packed = pack_codes(np.concatenate([codes, -codes]))
        assert np.array_equal(distances(packed, codes[0]), [0, 70])

    def test_hand_case(self):
        packed = pack_codes(np.array([[1.0, 1.0, -1.0, 1.0]]))
        assert distances(packed, np.array([1.0, -1.0, 1.0, 1.0]))[0] == 2

    def test_inner_product_identity(self):
        # u . v = bits - 2 * d_H over many random pairs
        rng = np.random.default_rng(2)
        bits = 37
        db = random_codes(rng, 500, bits)
        queries = random_codes(rng, 40, bits)
        packed = pack_codes(db)
        for query in queries:
            dots = db @ query
            assert np.array_equal(dots, bits - 2 * distances(packed, query))

    def test_query_shape_check(self):
        index = RetrievalIndex(pack_codes(np.ones((2, 80))), features=np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"expected \(80,\)"):
            index.search(np.ones(79), None, 1)
        with pytest.raises(DimensionError):
            coarse_rank(index.packed, np.ones((1, 80)))

    @pytest.mark.parametrize("bits", [1, 8, 9, 16, 17, 32, 33, 64, 65, 130])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8, np.int64])
    def test_one_query_packs_as_its_pack_codes_row(self, dtype, bits):
        rng = np.random.default_rng(bits)
        packed = pack_codes(random_codes(rng, 3, bits))
        queries = np.concatenate([random_codes(rng, 4, bits), np.ones((1, bits)),
                                  -np.ones((1, bits))]).astype(dtype)
        for query in queries:
            row = _query_words(packed, query)
            expected = pack_codes(query[None]).words[0]
            assert row.dtype == expected.dtype and row.shape == expected.shape
            assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("query", [
        np.array([1.0, 0.0, -1.0]), np.array([1.0, np.nan, -1.0]),
        np.array([1.0, -np.inf, -1.0]), np.array([1, -128, -1], dtype=np.int8),
        np.ones(3, dtype=bool), np.ones(3, dtype=np.uint8), np.array(["1", "-1", "1"]),
        np.array([1 + 2j, -1, 1]), np.array([1, -1, 1], dtype=object),
    ], ids=["zero", "nan", "inf", "int8-min", "bool", "uint8", "strings", "complex", "object"])
    def test_bad_query_raises_as_pack_codes(self, query):
        index = RetrievalIndex(pack_codes(np.ones((2, 3))), features=np.zeros((2, 3)))
        with pytest.raises(DomainError) as expected:
            pack_codes(query[None])
        for rank in (lambda: index.search(query, None, 1),
                     lambda: coarse_rank(index.packed, query)):
            with pytest.raises(DomainError) as got:
                rank()
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bits", [7, 12, 24, 40, 255])
    def test_query_bits_past_code_length_rejected(self, bits):
        # a stray high bit would count as a mismatch beyond `bits`, and at
        # 255 bits it would wrap the uint8 distance; PackedCodes refuses the
        # words, so no scan ever sees one
        rng = np.random.default_rng(bits)
        db = random_codes(rng, 5, bits)
        packed = pack_codes(db)
        query = pack_codes(-db[:1]).words[0]
        assert np.array_equal(_distance_key(packed, query)[:1], [bits])
        stray = query.copy()
        stray[-1] |= stray.dtype.type(1 << (bits % (8 * stray.itemsize)))
        with pytest.raises(ContractError, match="beyond"):
            PackedCodes(words=stray[None, :], bits=bits)


class TestCoarseRank:
    def test_matches_naive_with_ties(self):
        # few bits force many distance ties, exercising the id tiebreak
        rng = np.random.default_rng(3)
        db = random_codes(rng, 200, 4)
        packed = pack_codes(db)
        for _ in range(10):
            query = random_codes(rng, 1, 4)[0]
            order = coarse_rank(packed, query)
            naive = naive_hamming_order(db, query, 200)
            assert np.array_equal(order, naive)
            dists = distances(packed, query)
            assert np.array_equal(dists[order], np.sort(dists))

    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(4)
        db = random_codes(rng, 50, 32)
        packed = pack_codes(db)
        order, dists = coarse_rank(packed, db[17]), distances(packed, db[17])
        assert dists[17] == 0
        assert order[0] <= 17  # an earlier duplicate may outrank it
        assert dists[order[0]] == 0


class TestRadixKey:
    """coarse_rank sorts on the uint8/uint16 distance key; the order must
    equal a (distance, id) lexsort, across the uint8/uint16 boundary."""

    @pytest.mark.parametrize("bits", [1, 8, 16, 32, 64, 128, 255, 256])
    def test_order_equals_lexsort_reference(self, bits):
        rng = np.random.default_rng(bits)
        pool = random_codes(rng, 4, bits)  # few distinct codes: many ties
        queries = np.concatenate([pool[:2], random_codes(rng, 2, bits)])
        db = np.concatenate([
            pool[rng.integers(0, len(pool), 300)],
            random_codes(rng, 60, bits),
            queries, queries, -queries,  # duplicates, distance 0 and distance bits
        ])
        db = db[rng.permutation(len(db))]
        packed = pack_codes(db)
        for query in queries:
            key = _distance_key(packed, pack_codes(query[None, :]).words[0])
            assert key.dtype == (np.uint8 if bits < 256 else np.uint16)
            dists = key.astype(np.int64)
            order = coarse_rank(packed, query)
            assert np.array_equal(db @ query, bits - 2 * dists)
            assert dists.min() == 0 and dists.max() == bits
            assert np.array_equal(order, np.lexsort((np.arange(len(db)), dists)))


def codes_at(dists, bits):
    """Codes at the given Hamming distances from the all-+1 query: row i
    has its first dists[i] entries at -1."""
    flipped = np.arange(bits) < np.asarray(dists)[:, None]
    return 1 - 2 * flipped.astype(np.int8)


class TestShortlist:
    """A search with topn must return exactly the head of the full ranking;
    above _SHORTLIST_SAMPLE items it sorts fewer than topn of them."""

    @staticmethod
    def full_head(packed, features, query, query_feature, topn):
        return rerank(coarse_rank(packed, query), features, query_feature, topn)[:topn]

    @staticmethod
    def assert_heads(index, query, query_feature, topns):
        """Hamming-only and re-ranked searches against the full ranking."""
        order = coarse_rank(index.packed, query)
        for topn in topns:
            head = order[:topn]
            assert np.array_equal(index.search(query, None, topn), head)
            assert np.array_equal(index.search(query, query_feature, topn),
                                  rerank(head, index.features, query_feature, topn))

    @staticmethod
    def full_passes(monkeypatch, index, query, topn):
        """The search's passes over the whole distance key, as flatnonzero
        calls on n entries."""
        calls = []
        flatnonzero = np.flatnonzero

        def recording(a):
            calls.append(np.size(a))
            return flatnonzero(a)

        with monkeypatch.context() as patch:
            patch.setattr(np, "flatnonzero", recording)
            index.search(query, None, topn)
        return calls.count(len(index))

    def test_class_structured_database(self):
        # 16 class centres with 10% bit flips, like learned codes: each
        # query has thousands of same-class items at small distances
        rng = np.random.default_rng(23)
        n, bits = 100_000, 32
        centres = np.where(rng.random((16, bits)) < 0.5, -1, 1).astype(np.int8)
        labels = rng.integers(0, 16, n + 4)
        codes = centres[labels] * np.where(rng.random((n + 4, bits)) < 0.1, -1, 1).astype(np.int8)
        features = rng.normal(size=(n, 4)).astype(np.float32)
        index = RetrievalIndex(pack_codes(codes[:n]), features=features)
        for query in codes[n:]:
            self.assert_heads(index, query, rng.normal(size=4).astype(np.float32),
                              (1, 10, 100, 1000))

    def test_short_estimate_steps_up(self, monkeypatch):
        # the sample holds every close item, so it overstates how many lie
        # near: the estimate (t = 0) holds 30 of 100, and t steps up to 3
        rng = np.random.default_rng(1)
        n = 100_000
        step = -(-n // _SHORTLIST_SAMPLE)
        dists = rng.integers(10, 33, n)
        dists[np.arange(120) * step] = np.repeat([0, 1, 2, 3], 30)
        index = RetrievalIndex(pack_codes(codes_at(dists, 32)),
                               features=rng.normal(size=(n, 3)).astype(np.float32))
        query = np.ones(32)
        self.assert_heads(index, query, np.zeros(3, dtype=np.float32), (1, 30, 31, 100, 120))
        assert self.full_passes(monkeypatch, index, query, 100) == 4

    def test_overshooting_estimate_is_exact(self, monkeypatch):
        # every close item lies between the sampled positions, so the
        # estimate lands among the far items and takes in far more than topn
        rng = np.random.default_rng(2)
        n = 100_000
        step = -(-n // _SHORTLIST_SAMPLE)
        dists = rng.integers(4, 33, n)
        close = np.flatnonzero(np.arange(n) % step)[:: 97][:300]
        dists[close] = rng.integers(0, 3, len(close))
        index = RetrievalIndex(pack_codes(codes_at(dists, 32)),
                               features=rng.normal(size=(n, 3)).astype(np.float32))
        query = np.ones(32)
        self.assert_heads(index, query, np.zeros(3, dtype=np.float32), (1, 100, 299, 300, 301))
        assert self.full_passes(monkeypatch, index, query, 100) == 1

    def test_tied_class_is_never_sorted(self, monkeypatch):
        # a class of 65k items shares one code at the threshold distance 3:
        # only the 40 items below it are sorted
        rng = np.random.default_rng(3)
        n, topn = 100_000, 100
        dists = rng.integers(6, 33, n)
        dists[rng.choice(n, 65_040, replace=False)] = np.repeat([0, 1, 3], [20, 20, 65_000])
        features = rng.normal(size=(n, 3)).astype(np.float32)
        index = RetrievalIndex(pack_codes(codes_at(dists, 32)), features=features)
        query, query_feature = np.ones(32), np.zeros(3, dtype=np.float32)
        head = coarse_rank(index.packed, query)[:topn]
        expected = rerank(head, features, query_feature, topn)
        sorted_sizes = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        assert np.array_equal(index.search(query, None, topn), head)
        assert np.array_equal(index.search(query, query_feature, topn), expected)
        assert sorted_sizes and max(sorted_sizes) < topn

    def test_300_bit_codes(self):
        # distances up to 300 give a uint16 key; a tie group of 5,000 sits
        # at distance 150
        rng = np.random.default_rng(4)
        n, bits = 40_000, 300
        dists = rng.integers(0, bits + 1, n)
        dists[rng.choice(n, 5_000, replace=False)] = 150
        index = RetrievalIndex(pack_codes(codes_at(dists, bits)),
                               features=rng.normal(size=(n, 3)).astype(np.float32))
        query = np.ones(bits)
        assert _distance_key(index.packed, pack_codes(query[None, :]).words[0]).dtype == np.uint16
        self.assert_heads(index, query, np.zeros(3, dtype=np.float32), (1, 100, 10_000, 25_000))

    def test_topn_edges_above_sample(self):
        rng = np.random.default_rng(5)
        n = _SHORTLIST_SAMPLE + 1_000
        pool = random_codes(rng, 5, 16)
        codes = pool[rng.integers(0, 5, n)] * np.where(rng.random((n, 16)) < 0.05, -1, 1)
        index = RetrievalIndex(pack_codes(codes),
                               features=rng.normal(size=(n, 3)).astype(np.float32))
        for query in pool[:2]:
            self.assert_heads(index, query, rng.normal(size=3).astype(np.float32),
                              (0, 1, n - 1, n, n + 5))

    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 65, 256, 300])
    def test_equals_head_of_full_ranking(self, bits):
        rng = np.random.default_rng(bits)
        pool = random_codes(rng, 3, bits)  # few distinct codes: heavy ties
        db = np.concatenate([pool[rng.integers(0, len(pool), 150)], random_codes(rng, 30, bits)])
        db = db[rng.permutation(len(db))]
        n = len(db)
        features = rng.normal(size=(n, 4)).astype(np.float32)
        features[rng.integers(0, n, 40)] = features[0]  # feature ties fall back to id
        index = RetrievalIndex(pack_codes(db), features=features)
        queries = np.concatenate([pool[:2], random_codes(rng, 2, bits)])
        for query in queries:
            query_feature = rng.normal(size=4).astype(np.float32)
            for topn in (0, 1, 7, n - 1, n, n + 5):
                got = index.search(query, query_feature, topn)
                assert len(got) == min(topn, n)
                assert np.array_equal(
                    got, self.full_head(index.packed, features, query, query_feature, topn))
                # without a query feature: the Hamming head, not re-ranked
                assert np.array_equal(index.search(query, None, topn),
                                      coarse_rank(index.packed, query)[:topn])

    @pytest.mark.parametrize("bits", [8, 65, 256, 300])
    def test_threshold_at_bits(self, bits):
        # the query is the complement of every code, so every distance is bits
        rng = np.random.default_rng(bits)
        code = random_codes(rng, 1, bits)
        db = np.repeat(code, 20, axis=0)
        features = rng.normal(size=(20, 3)).astype(np.float32)
        index = RetrievalIndex(pack_codes(db), features=features)
        query_feature = np.zeros(3, dtype=np.float32)
        for topn in (1, 19, 20, 25):
            got = index.search(-code[0], query_feature, topn)
            assert np.array_equal(
                got, self.full_head(index.packed, features, -code[0], query_feature, topn))
            # all tie at distance bits, so the shortlist is ids 0..topn-1
            head = np.arange(min(topn, 20))
            assert np.array_equal(got, naive_euclidean_order(features, head, query_feature, 20))

    def test_empty_database(self):
        index = RetrievalIndex(pack_codes(np.ones((0, 9))), features=np.zeros((0, 2)))
        assert len(index.search(np.ones(9), np.zeros(2), 3)) == 0
        assert len(index.search(np.ones(9), None, 3)) == 0
        assert len(coarse_rank(index.packed, np.ones(9))) == 0

    def test_negative_topn_rejected(self):
        index = RetrievalIndex(pack_codes(np.ones((3, 4))), features=np.zeros((3, 2)))
        for query_feature in (np.zeros(2), None):
            with pytest.raises(ContractError):
                index.search(np.ones(4), query_feature, topn=-1)


class TestRerank:
    def test_matches_naive_head_and_keeps_tail(self):
        rng = np.random.default_rng(5)
        db = random_codes(rng, 60, 8)
        features = rng.normal(size=(60, 5)).astype(np.float32)
        query_feature = rng.normal(size=5).astype(np.float32)
        order = coarse_rank(pack_codes(db), db[0])
        for topn in (0, 1, 10, 60, 80):
            refined = rerank(order, features, query_feature, topn)
            expect_head = naive_euclidean_order(
                features, order[:topn], query_feature, min(topn, 60)
            )
            assert np.array_equal(refined[: len(expect_head)], expect_head)
            assert np.array_equal(refined[len(expect_head):], order[min(topn, 60):])

    def test_feature_ties_fall_back_to_id(self):
        order = np.array([3, 1, 2, 0])
        features = np.zeros((4, 2))
        refined = rerank(order, features, np.zeros(2), 3)
        assert np.array_equal(refined, [1, 2, 3, 0])

    def test_negative_topn_rejected(self):
        with pytest.raises(ContractError):
            rerank(np.arange(3), np.zeros((3, 2)), np.zeros(2), -1)


def score_ranking(ranked_labels, query_label, ks):
    """evaluate_queries on one query whose full ranking has these labels."""
    index, query = ranked_index(ranked_labels)
    return evaluate_queries(index, query[None, :], np.array([query_label]), ks=ks)


class TestMetrics:
    """AP and precision@k of evaluate_queries on hand-built rankings."""

    def test_precision_hand_values(self):
        result = score_ranking([1, 0, 1, 1], 1, ks=(1, 2, 3, 4))
        assert result["precision_at"] == {1: 1.0, 2: 0.5, 3: 2 / 3, 4: 0.75}

    def test_precision_k_out_of_range(self):
        with pytest.raises(ContractError):
            score_ranking([1, 0], 1, ks=(3,))
        with pytest.raises(ContractError):
            score_ranking([1, 0], 1, ks=(0,))

    def test_average_precision_hand_value(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        assert score_ranking([1, 0, 1], 1, ks=(1,))["map"] == pytest.approx(5 / 6, abs=1e-9)

    def test_average_precision_perfect_and_none(self):
        assert score_ranking([2, 2, 2], 2, ks=(1,))["map"] == 1.0
        with pytest.raises(ContractError, match="no query has relevant items"):
            score_ranking([0, 0], 1, ks=(1,))

    def test_average_precision_matches_naive(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            ranked = rng.integers(0, 3, size=20)
            if not np.any(ranked == 0):
                continue
            assert score_ranking(ranked, 0, ks=(1,))["map"] == naive_average_precision(
                list(ranked == 0))

    def test_map_mean_and_skip_warning(self, caplog):
        # the all-ones query ranks labels (1, 0, 1, 2), its complement (2, 1, 0, 1)
        index, query = ranked_index([1, 0, 1, 2])
        queries = np.stack([query, -query, query])
        with caplog.at_level("WARNING", logger="finehash.retrieval"):
            result = evaluate_queries(index, queries, np.array([1, 1, 3]), ks=(1,))
        # APs 5/6, (1/2 + 2/4) / 2 and none
        assert result["map"] == pytest.approx((5 / 6 + 0.5) / 2, abs=1e-9)
        assert any("no relevant" in message for message in caplog.messages)

    def test_map_all_skipped_rejected(self):
        index, query = ranked_index([0, 0])
        with pytest.raises(ContractError):
            evaluate_queries(index, np.stack([query, -query]), np.array([1, 2]), ks=(1,))


class TestMemory:
    def test_reported_code_bytes(self):
        # the packed rows' real bytes, in whole words: 2 a row at 9 bits
        rng = np.random.default_rng(13)
        for bits in WORD_LAYOUT:
            assert pack_codes(random_codes(rng, 10, bits)).words.nbytes == 10 * row_bytes(bits)

    def test_format_decimal_units(self):
        assert format_bytes(404000) == "404.0KB"
        assert format_bytes(999) == "999.0B"
        assert format_bytes(1500000) == "1.5MB"
        assert format_bytes(2_500_000_000) == "2.5GB"
        assert format_bytes(0) == "0.0B"

    @pytest.mark.parametrize("size, text", [(999_949, "999.9KB"), (999_950, "1.0MB"),
                                            (999_999_999, "1.0GB"), (404_000, "404.0KB")])
    def test_unit_chosen_after_rounding(self, size, text):
        assert format_bytes(size) == text

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            format_bytes(-1)


class TestFiles:
    def test_code_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        codes = random_codes(rng, 23, 70)
        path = tmp_path / "db.fhc1"
        save_packed(path, pack_codes(codes))
        loaded = load_packed(path)
        assert loaded.bits == 70
        assert np.array_equal(unpacked_codes(loaded), codes)

    @pytest.mark.parametrize("bits", sorted(WORD_LAYOUT))
    def test_code_file_round_trip_at_each_width(self, tmp_path, bits):
        codes = random_codes(np.random.default_rng(bits), 6, bits)
        packed = pack_codes(codes)
        path = tmp_path / "db.fhc1"
        save_packed(path, packed)
        blob = path.read_bytes()
        assert blob[20:] == packed.words.tobytes()
        assert len(blob) == 20 + 6 * row_bytes(bits)
        loaded = load_packed(path)
        assert loaded.words.dtype == packed.words.dtype
        assert np.array_equal(loaded.words, packed.words)
        assert np.array_equal(unpacked_codes(loaded), codes)

    def test_code_file_bad_magic(self, tmp_path):
        path = tmp_path / "db.fhc1"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FileFormatError):
            load_packed(path)

    def test_code_file_truncated(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "db.fhc1"
        save_packed(path, pack_codes(random_codes(rng, 4, 32)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FileFormatError):
            load_packed(path)

    def test_code_file_dirty_trailing_bits(self, tmp_path):
        path = tmp_path / "db.fhc1"
        save_packed(path, pack_codes(np.ones((1, 10))))
        blob = bytearray(path.read_bytes())
        blob[20 + 1] |= 0x08  # set bit 11 of the only (uint16) word
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            load_packed(path)

    @pytest.mark.parametrize("count, bits", [(0, 0), (0, MAX_BITS + 1), (0, 2**64 - 1),
                                             (1, 2**64 - 1)])
    def test_code_file_width_out_of_range(self, tmp_path, count, bits):
        path = tmp_path / "db.fhc1"
        path.write_bytes(b"FHC1" + struct.pack("<QQ", count, bits) + bytes(8 * count))
        with pytest.raises(FileFormatError, match=f"stored width {bits} bits"):
            load_packed(path)

    def test_widest_code_round_trips_and_keeps_a_uint16_key(self, tmp_path):
        path = tmp_path / "db.fhc1"
        codes = np.ones((2, MAX_BITS), dtype=np.int8)
        codes[1] = -1
        save_packed(path, pack_codes(codes))
        loaded = load_packed(path)
        assert np.array_equal(unpacked_codes(loaded), codes)
        key = _distance_key(loaded, loaded.words[0])
        assert key.dtype == np.uint16 and list(key) == [0, MAX_BITS]
        with pytest.raises(ContractError, match=f"got {MAX_BITS + 1}"):
            pack_codes(np.ones((1, MAX_BITS + 1), dtype=np.int8))

    def test_feature_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(6, 11))
        path = tmp_path / "db.fhf1"
        save_features(path, features)
        loaded = load_features(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, features.astype(np.float32))

    def test_feature_file_bad_magic(self, tmp_path):
        path = tmp_path / "db.fhf1"
        path.write_bytes(b"FHQ1" + bytes(16))
        with pytest.raises(FileFormatError):
            load_features(path)

    @pytest.mark.parametrize("count", [2**64 - 1, 3])
    def test_feature_file_zero_dimension_rejected(self, tmp_path, count):
        path = tmp_path / "db.fhf1"
        path.write_bytes(b"FHF1" + struct.pack("<QQ", count, 0))
        with pytest.raises(FileFormatError, match="dimension"):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_feature_file_non_finite_rejected(self, tmp_path, value):
        features = np.ones((4, 3))
        features[2, 1] = value
        path = tmp_path / "db.fhf1"
        save_features(path, features)
        with pytest.raises(FileFormatError, match=r"db\.fhf1: feature row 2"):
            load_features(path)

    def test_feature_file_loads_without_a_slice_copy(self, tmp_path):
        # the file's bytes plus the returned copy is 2x its size; slicing the
        # bytes before parsing them added a third copy
        path = tmp_path / "db.fhf1"
        save_features(path, np.random.default_rng(11).random((100_000, 160), dtype=np.float32))
        tracemalloc.start()
        try:
            load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        save_labels(path, np.array([4, 4, 2, 0]))
        assert path.read_text().splitlines()[0] == "id,label"
        assert np.array_equal(load_labels(path), [4, 4, 2, 0])

    def test_labels_int64_extremes_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        labels = np.array([2**63 - 1, -(2**63)], dtype=np.int64)
        save_labels(path, labels)
        assert np.array_equal(load_labels(path), labels)

    @pytest.mark.parametrize("label", [2**63, -(2**63) - 1, 99999999999999999999999])
    def test_labels_past_int64_rejected(self, tmp_path, label):
        path = tmp_path / "labels.csv"
        path.write_text(f"id,label\n0,3\n1,{label}\n")
        with pytest.raises(IngestionError, match=f"line 3: label {label} outside int64"):
            load_labels(path)

    def test_labels_header_required(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,3\n1,2\n")
        with pytest.raises(IngestionError, match="header"):
            load_labels(path)

    def test_labels_ids_sequential(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\n0,3\n2,2\n")
        with pytest.raises(IngestionError, match="line 3"):
            load_labels(path)


class TestIndex:
    def test_search_full_and_reranked(self):
        rng = np.random.default_rng(10)
        db = random_codes(rng, 40, 6)
        features = rng.normal(size=(40, 3)).astype(np.float32)
        index = RetrievalIndex(pack_codes(db), features=features)
        query = random_codes(rng, 1, 6)[0]
        query_feature = rng.normal(size=3).astype(np.float32)
        expect = coarse_rank(index.packed, query)
        # a shortlist of the whole database is the full ranking
        assert np.array_equal(index.search(query, None, 40), expect)
        for topn in (10, 40, 45):
            # only the re-ranked head is returned, with no coarse tail
            refined = index.search(query, query_feature, topn)
            assert len(refined) == min(topn, 40)
            assert np.array_equal(refined, rerank(expect, features, query_feature, topn)[:topn])
        assert len(index.search(query, query_feature, 0)) == 0

    def test_query_feature_without_topn_rejected(self):
        # search always takes the shortlist size; coarse_rank is the full ranking
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        features = np.array([[9.0], [0.0], [5.0], [1.0]], dtype=np.float32)
        index = RetrievalIndex(pack_codes(db), features=features)
        query, query_feature = np.array([1.0, 1.0]), np.array([0.0], dtype=np.float32)
        assert np.array_equal(coarse_rank(index.packed, query), [0, 1, 2, 3])
        assert np.array_equal(index.search(query, query_feature, topn=4), [1, 3, 2, 0])
        for partial in ((query,), (query, query_feature)):
            with pytest.raises(TypeError, match="topn"):
                index.search(*partial)

    def test_rerank_without_features_rejected(self):
        index = RetrievalIndex(pack_codes(np.ones((3, 4))))
        with pytest.raises(ContractError):
            index.search(np.ones(4), np.zeros(2), topn=2)

    def test_length_validation(self):
        with pytest.raises(DimensionError):
            RetrievalIndex(pack_codes(np.ones((3, 4))), labels=np.zeros(2))

    def test_rerank_fixes_coarse_confusion(self):
        # two database items share the query's code; features disambiguate
        db = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        features = np.array([[5.0], [0.0], [9.0]], dtype=np.float32)
        index = RetrievalIndex(pack_codes(db), features=features)
        coarse = coarse_rank(index.packed, np.array([1.0, 1.0]))
        assert np.array_equal(coarse, [0, 1, 2])
        refined = index.search(np.array([1.0, 1.0]),
                               np.array([0.1], dtype=np.float32), topn=2)
        assert np.array_equal(refined, [1, 0])

    def test_evaluate_hand_built(self):
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        labels = np.array([0, 1, 0])
        index = RetrievalIndex(pack_codes(db), labels=labels)
        result = evaluate_queries(index, np.array([[1.0, 1.0]]), np.array([0]),
                                  ks=(1, 2, 3))
        # ranking is (0, 1, 2): AP = (1/1 + 2/3) / 2 = 5/6
        assert result["map"] == pytest.approx(5 / 6, abs=1e-9)
        assert result["precision_at"][1] == 1.0
        assert result["precision_at"][2] == 0.5
        assert result["precision_at"][3] == pytest.approx(2 / 3)
        assert result["queries"] == 1

    def test_evaluate_skips_query_without_relevant_items_in_map_only(self, caplog):
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        index = RetrievalIndex(pack_codes(db), labels=np.array([0, 1, 0]))
        queries = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        labels = np.array([0, 2, 1])  # label 2 has no database item
        with caplog.at_level(logging.WARNING):
            result = evaluate_queries(index, queries, labels, ks=(1, 2))
        assert "has no relevant database items" in caplog.text
        # rankings (0, 1, 2), (2, 1, 0) and (1, 0, 2): APs 5/6, none and 1
        assert result["map"] == np.mean([naive_average_precision([True, False, True]),
                                         naive_average_precision([True, False, False])])
        assert result["map"] == pytest.approx(np.mean([5 / 6, 1.0]), abs=1e-12)
        assert result["precision_at"] == {1: np.mean([1.0, 0.0, 1.0]),
                                          2: np.mean([0.5, 0.0, 0.5])}
        assert result["queries"] == 3

    def test_evaluate_reranked_scores_the_full_ranking(self):
        # mAP with topn ranks every item: the re-ranked head, then the coarse tail
        rng = np.random.default_rng(12)
        db = random_codes(rng, 60, 8)
        labels = rng.integers(0, 3, 60)
        features = rng.normal(size=(60, 4))
        queries = random_codes(rng, 5, 8)
        query_labels = rng.integers(0, 3, 5)
        query_features = rng.normal(size=(5, 4))
        index = RetrievalIndex(pack_codes(db), labels=labels, features=features)
        for topn in (0, 10, 70):
            rows = [labels[rerank(coarse_rank(index.packed, q), features, f, topn)]
                    for q, f in zip(queries, query_features)]
            assert all(len(row) == 60 for row in rows)
            for i in range(len(queries)):
                one = evaluate_queries(index, queries[i : i + 1], query_labels[i : i + 1],
                                       query_features[i : i + 1], topn, ks=(1, 5, 10))
                relevant = rows[i] == query_labels[i]
                assert one["map"] == naive_average_precision(relevant)
                assert one["precision_at"] == {
                    k: np.count_nonzero(relevant[:k]) / k for k in (1, 5, 10)}

    def test_evaluate_reranked_requires_features(self):
        index = RetrievalIndex(pack_codes(np.ones((3, 4))), labels=np.zeros(3))
        with pytest.raises(ContractError, match="without features"):
            evaluate_queries(index, np.ones((1, 4)), np.zeros(1), np.zeros((1, 2)), topn=2,
                             ks=(1,))

    def test_evaluate_requires_labels(self):
        index = RetrievalIndex(pack_codes(np.ones((3, 4))))
        with pytest.raises(ContractError):
            evaluate_queries(index, np.ones((1, 4)), np.zeros(1))

    def test_evaluate_k_bounds(self):
        index = RetrievalIndex(pack_codes(np.ones((3, 4))), labels=np.zeros(3))
        with pytest.raises(ContractError):
            evaluate_queries(index, np.ones((1, 4)), np.zeros(1), ks=(4,))


def naive_scores(db, labels, queries, query_labels, ks, features=None, query_features=None,
                 topn=None):
    """mAP and precision@k from a naive (distance, id) ranking, re-ranked
    head by naive Euclidean order, and naive_average_precision."""
    aps, precisions = [], {k: [] for k in ks}
    for i, (query, label) in enumerate(zip(queries, query_labels)):
        dists = np.count_nonzero(db != query, axis=1)
        order = np.array(sorted(range(len(db)), key=lambda j: (dists[j], j)))
        if topn is not None:
            head = naive_euclidean_order(features, order[:topn], query_features[i], topn)
            order = np.concatenate([head, order[len(head):]])
        relevant = labels[order] == label
        if relevant.any():
            aps.append(naive_average_precision(relevant))
        for k in ks:
            precisions[k].append(int(np.sum(relevant[:k])) / k)
    return float(np.mean(aps)), {k: float(np.mean(values)) for k, values in precisions.items()}


class TestEvaluateExact:
    """evaluate_queries equals a naive full ranking scored by a naive AP,
    bit for bit, with and without re-ranking."""

    @staticmethod
    def check(db, labels, queries, query_labels, rng, ks=(1, 5, 10)):
        features = rng.normal(size=(len(db), 3))
        query_features = rng.normal(size=(len(queries), 3))
        index = RetrievalIndex(pack_codes(db), labels=labels, features=features)
        for topn in (None, 0, 1, 17, len(db) + 5):
            got = evaluate_queries(index, queries, query_labels, query_features, topn, ks=ks)
            expected = naive_scores(db, labels, queries, query_labels, ks, features,
                                    query_features, topn)
            assert (got["map"], got["precision_at"]) == expected

    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_tie_heavy_codes(self, bits):
        rng = np.random.default_rng(bits)
        db = random_codes(rng, 300, bits)
        labels = rng.integers(0, 4, len(db))
        queries = np.concatenate([db[:3], random_codes(rng, 5, bits)])
        self.check(db, labels, queries, rng.integers(0, 4, len(queries)), rng)

    @pytest.mark.parametrize("bits", [100, 300])
    def test_multi_word_and_uint16_key(self, bits):
        rng = np.random.default_rng(bits)
        pool = random_codes(rng, 3, bits)
        db = np.concatenate([pool[rng.integers(0, 3, 150)], random_codes(rng, 50, bits)])
        labels = rng.integers(0, 3, len(db))
        queries = np.concatenate([pool, -pool[:1], random_codes(rng, 2, bits)])
        self.check(db, labels, queries, rng.integers(0, 3, len(queries)), rng)

    @staticmethod
    def blocks_case(bits, n=_SCAN_BLOCK + 3):
        """Database, labels in [0, 50) and features of n items, and six
        queries: copies of the first and last rows, a complement and three
        random codes.  int8 codes keep it small."""
        rng = np.random.default_rng(bits)
        db = np.where(rng.random((n, bits)) < 0.5, -1, 1).astype(np.int8)
        db[-2:] = db[:2]  # the last block holds duplicates of the first
        labels = rng.integers(0, 50, n)
        features = rng.normal(size=(n, 3))
        queries = np.concatenate([db[[0, n - 1]], -db[:1],
                                  np.where(rng.random((3, bits)) < 0.5, -1, 1).astype(np.int8)])
        return db, labels, features, queries, rng.normal(size=(len(queries), 3))

    @pytest.mark.parametrize("bits", [8, 70, 300])
    def test_more_than_one_scan_block(self, bits):
        # n is past one block and not a multiple of it; with two or more
        # CPUs the queries are ranked on several threads
        db, labels, features, queries, query_features = self.blocks_case(bits)
        n = len(db)
        packed = pack_codes(db)
        for query in queries[:3]:
            naive = np.count_nonzero(db != query, axis=1)
            assert np.array_equal(distances(packed, query), naive)
            order = coarse_rank(packed, query)
            assert np.array_equal(order, np.lexsort((np.arange(n), naive)))
        index = RetrievalIndex(packed, labels=labels, features=features)
        query_labels = labels[[0, n - 1, 5, 7, 9, 11]]
        for topn in (None, 17):
            got = evaluate_queries(index, queries, query_labels, query_features, topn)
            assert (got["map"], got["precision_at"]) == naive_scores(
                db, labels, queries, query_labels, (1, 5, 10), features, query_features, topn)

    @pytest.fixture
    def three_shares(self, monkeypatch):
        """Rank in three shares whatever the host's CPU count, switching
        threads as often as the interpreter allows, and count the executors
        made."""
        made = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(retrieval_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield made
        finally:
            sys.setswitchinterval(interval)

    def test_shares_warn_in_query_order_and_leave_no_thread(self, three_shares, caplog):
        db, labels, _, queries, _ = self.blocks_case(8)
        index = RetrievalIndex(pack_codes(db), labels=labels)
        query_labels = np.array([labels[0], 51, labels[5], labels[7], 50, labels[9]])
        threads = threading.active_count()
        with caplog.at_level(logging.WARNING, logger="finehash.retrieval"):
            got = evaluate_queries(index, queries, query_labels)
        assert len(three_shares) == 1
        assert threading.active_count() == threads
        assert [record.getMessage() for record in caplog.records] == [
            f"query with label {label!r} has no relevant database items; skipped"
            for label in query_labels[[1, 4]]]
        assert (got["map"], got["precision_at"]) == naive_scores(
            db, labels, queries, query_labels, (1, 5, 10))

    @pytest.mark.parametrize("share", [0, 1], ids=["caller", "helper"])
    def test_bad_query_in_a_share_raises_and_leaves_no_thread(self, three_shares, share):
        # with three shares, query 3 is the caller's and query 4 a helper's
        db, labels, _, queries, _ = self.blocks_case(8)
        index = RetrievalIndex(pack_codes(db), labels=labels)
        queries = queries.copy()
        queries[3 + share, 2] = 0
        threads = threading.active_count()
        with pytest.raises(DomainError, match="entries must be"):
            evaluate_queries(index, queries, labels[:6])
        assert len(three_shares) == 1
        assert threading.active_count() == threads

    def test_one_cpu_gives_the_same_result(self, monkeypatch):
        db, labels, features, queries, query_features = self.blocks_case(8)
        index = RetrievalIndex(pack_codes(db), labels=labels, features=features)
        args = (index, queries, labels[:6], query_features, 17)
        with monkeypatch.context() as patch:
            patch.setattr(retrieval_module, "_usable_cpus", lambda: 3)
            threaded = evaluate_queries(*args)
        # without sched_getaffinity the count falls back to os.cpu_count
        monkeypatch.delattr(retrieval_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(retrieval_module.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        assert evaluate_queries(*args) == threaded

    def test_one_scan_block_makes_no_executor(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an executor was made for one scan block")

        monkeypatch.setattr(retrieval_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        db, labels, _, queries, _ = self.blocks_case(8, n=_SCAN_BLOCK)
        got = evaluate_queries(RetrievalIndex(pack_codes(db), labels=labels), queries,
                               labels[:6])
        assert (got["map"], got["precision_at"]) == naive_scores(
            db, labels, queries, labels[:6], (1, 5, 10))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,)], ids=["short", "dim", "rank"])
    def test_query_features_checked_before_scoring(self, shape):
        rng = np.random.default_rng(0)
        db = random_codes(rng, 20, 8)
        index = RetrievalIndex(pack_codes(db), labels=rng.integers(0, 2, 20),
                               features=rng.normal(size=(20, 3)))
        with pytest.raises(DimensionError, match=r"expected \[3, 3\]"):
            evaluate_queries(index, db[:3], np.zeros(3), np.zeros(shape), topn=5, ks=(1,))
