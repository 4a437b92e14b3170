"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines as
they happen; without ``-s`` pytest shows them for failing tests only.  Each
test checks its criterion at the stated tolerance and nothing tighter, so
the suite doubles as a readable scorecard of the pipeline's guarantees.
"""

import contextlib
import io
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

import finehash.autodiff as ad
import helpers
from finehash.anchors import AnchorBank, exchange_features
from finehash.cli import main as cli_main
from finehash.config import default_run_config
from finehash.data import SynthConfig, build_similarity, generate_synthetic
from finehash.losses import LossWeights, batch_similarity_loss, total_objective
from finehash.model import ModelConfig, ModelParams, descriptor, forward_features, hash_layer
from finehash.pq import adc_distances, encode_pq, kmeans, pq_rank, train_pq
from finehash.retrieval import (
    RetrievalIndex,
    _distance_key,
    coarse_rank,
    evaluate_queries,
    pack_codes,
)
from finehash.trainer import (
    AlternatingTrainer,
    TrainConfig,
    encode_images,
    sweep_codes,
    update_code_column,
)


def report(number: int, description: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    return ok


SMALL_MODEL = ModelConfig(parts=2, bits=8, image_side=16, backbone_channels=(6, 8),
                          backbone_pools=(2, 2), refined_channels=8)
SMALL_SYNTH = SynthConfig(num_classes=3, per_class=6, queries_per_class=2,
                          image_side=16, parts_per_image=2, patch_size=4,
                          pattern_scale=0.5, seed=9)
SMALL_TRAIN = TrainConfig(outer_iters=1, epochs_per_iter=1, batch_size=6,
                          samples_per_epoch=12, seed=7)


@pytest.fixture(scope="module")
def small_trained():
    """One completed iteration of the small trainer, shared across criteria."""
    trainer = AlternatingTrainer(generate_synthetic(SMALL_SYNTH), SMALL_MODEL, SMALL_TRAIN)
    trainer.run_iteration()
    return trainer


@pytest.fixture(scope="module")
def benchmark_runs():
    """Full-scale training runs: three seeds, with and without exchanging."""
    config = default_run_config()
    model = replace(config.model, bits=16)
    runs = {}
    for seed in (0, 1, 2):
        for exchange in (True, False):
            started = time.monotonic()
            dataset = generate_synthetic(config.synth)
            train = replace(config.train, seed=seed, exchange=exchange)
            trainer = AlternatingTrainer(dataset, model, train)
            trainer.train()
            query_codes = encode_images(trainer.params, dataset.query_images)[0]
            index = RetrievalIndex(pack_codes(trainer.codes), labels=dataset.train_labels)
            score = evaluate_queries(index, query_codes, dataset.query_labels)["map"]
            runs[(seed, exchange)] = {
                "map": score, "seconds": time.monotonic() - started,
            }
    return runs


# -- criterion 1: gradient correctness ---------------------------------------


def _op_gradient_error(builder, arrays, rng) -> float:
    """Largest relative error between tape and finite-difference gradients."""
    probe = builder(*[ad.tensor(a) for a in arrays])
    weights = rng.standard_normal(probe.shape)

    def value(*arrs):
        out = builder(*[ad.tensor(a) for a in arrs])
        return ad.sum_all(ad.hadamard(out, ad.tensor(weights))).item()

    with ad.Tape() as tape:
        leaves = [ad.parameter(a) for a in arrays]
        loss = ad.sum_all(ad.hadamard(builder(*leaves), ad.tensor(weights)))
    tape.backward(loss)
    numeric = helpers.finite_difference(value, [a.copy() for a in arrays])
    return max(
        helpers.relative_error(leaf.grad, grad) for leaf, grad in zip(leaves, numeric)
    )


def _op_cases(rng):
    def away_from_zero(*shape):
        return rng.uniform(0.2, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    return [
        ("add", ad.add, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("sub", ad.sub, [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ("scale", lambda a: ad.scale(a, -1.7), [rng.standard_normal((2, 5))]),
        ("add_scalar", lambda a: ad.add_scalar(a, 0.6), [rng.standard_normal(5)]),
        ("hadamard", ad.hadamard, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))]),
        ("relu", ad.relu, [away_from_zero(3, 4)]),
        ("tanh", ad.tanh, [rng.standard_normal((3, 3))]),
        ("sigmoid", ad.sigmoid, [rng.standard_normal(6)]),
        ("sqrt", ad.sqrt, [rng.uniform(0.5, 2.0, size=(3, 3))]),
        ("matmul", ad.matmul, [rng.standard_normal((2, 3)), rng.standard_normal((3, 4))]),
        ("concat", lambda a, b, c: ad.concat([a, b, c]),
         [rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(1)]),
        ("reshape", lambda a: ad.reshape(a, (3, 4)), [rng.standard_normal((2, 6))]),
        ("sum_all", ad.sum_all, [rng.standard_normal((3, 3))]),
        ("channel_sum", ad.channel_sum, [rng.standard_normal((4, 4, 3))]),
        ("softmax", ad.softmax, [rng.standard_normal(6)]),
        ("global_avg_pool", ad.global_avg_pool, [rng.standard_normal((4, 4, 3))]),
        ("avg_pool2", lambda a: ad.avg_pool2(a, 2), [rng.standard_normal((4, 4, 2))]),
        ("conv2d", ad.conv2d, [rng.standard_normal((5, 5, 2)),
                               rng.standard_normal((3, 3, 2, 3)) * 0.5, rng.standard_normal(3)]),
        ("moveaxis", lambda a: ad.moveaxis(a, -1, -3), [rng.standard_normal((2, 3, 4, 5))]),
        # leading axes: a stack of maps or vectors in one call
        ("conv2d_stacked", ad.conv2d, [rng.standard_normal((2, 3, 4, 4, 2)),
                                       rng.standard_normal((3, 3, 2, 3)) * 0.5,
                                       rng.standard_normal(3)]),
        ("global_avg_pool_stacked", ad.global_avg_pool, [rng.standard_normal((2, 3, 4, 4, 3))]),
        ("avg_pool2_stacked", lambda a: ad.avg_pool2(a, 2), [rng.standard_normal((3, 4, 4, 2))]),
        ("softmax_stacked", ad.softmax, [rng.standard_normal((2, 3, 6))]),
        ("hadamard_broadcast", ad.hadamard, [rng.standard_normal((2, 4, 4, 1)),
                                             rng.standard_normal((4, 4, 3))]),
        ("matmul_broadcast", ad.matmul, [rng.standard_normal((3, 4)),
                                         rng.standard_normal((2, 4, 2))]),
        ("gated_conv2d", ad.gated_conv2d, [rng.standard_normal((2, 4, 4, 2)),
                                           rng.uniform(size=(2, 3, 4, 4)),
                                           rng.standard_normal((3, 3, 2, 3)) * 0.5,
                                           rng.standard_normal(3)]),
    ]


def _toy_batch_loss(params, images, codes, sim, bits, weights):
    features = forward_features(params, images)
    relaxed = hash_layer(params, descriptor(features.part_vecs, features.global_vec))
    return total_objective(relaxed, features, codes, sim, bits, weights)


def test_01_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    op_errors = {name: _op_gradient_error(builder, arrays, rng)
                 for name, builder, arrays in _op_cases(rng)}

    # Full training objective on a two-sample toy model, every parameter.
    config = ModelConfig(parts=2, bits=4, image_side=8, backbone_channels=(2, 3),
                         backbone_pools=(2, 1), refined_channels=3)
    params = helpers.float64_params(ModelParams.initialize(config, rng))
    images = rng.uniform(size=(2, 8, 8, 3))
    codes = rng.choice([-1.0, 1.0], size=(6, 4))
    sim = build_similarity(np.array([0, 1]), np.array([0, 1, 0, 1, 0, 1]))
    weights = LossWeights(spatial=0.3, channel=0.2, margin=0.4)

    named = params.named()
    arrays = [tensor.data for tensor in named.values()]

    def loss_value(*_arrs):
        return _toy_batch_loss(params, images, codes, sim, 4, weights).item()

    with ad.Tape() as tape:
        loss = _toy_batch_loss(params, images, codes, sim, 4, weights)
    tape.backward(loss)
    numeric = helpers.finite_difference(loss_value, arrays)
    loss_errors = {
        name: helpers.relative_error(tensor.grad, grad)
        for (name, tensor), grad in zip(named.items(), numeric)
    }

    elapsed = time.monotonic() - started
    worst_op = max(op_errors, key=op_errors.get)
    worst_param = max(loss_errors, key=loss_errors.get)
    ok = (max(op_errors.values()) < 1e-4 and max(loss_errors.values()) < 1e-4
          and elapsed < 60.0)
    assert report(
        1,
        f"reverse-mode gradients match central differences: worst op "
        f"{worst_op}={op_errors[worst_op]:.2e}, worst parameter "
        f"{worst_param}={loss_errors[worst_param]:.2e}, {elapsed:.1f}s < 60s",
        ok,
    )


# -- criterion 2: discrete code update optimality ----------------------------


def test_02_code_column_updates_are_optimal():
    def objective(relaxed, codes, sim, bits):
        return batch_similarity_loss(ad.tensor(relaxed), codes, sim, bits).item()

    rng = np.random.default_rng(22)
    optimal = True
    monotonic = True
    for _ in range(50):
        n, m, bits = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 5)
        relaxed = rng.uniform(-1.0, 1.0, size=(m, bits))
        codes = rng.choice([-1.0, 1.0], size=(n, bits))
        sim = rng.choice([-1.0, 1.0], size=(m, n))
        for sweep in range(2):
            for col in range(bits):
                before = objective(relaxed, codes, sim, bits)
                oracle = helpers.enumerate_code_column(relaxed, codes, sim, bits, col)
                codes[:, col] = update_code_column(relaxed, codes, sim, bits, col)
                after = objective(relaxed, codes, sim, bits)
                optimal &= bool(np.array_equal(codes, oracle))
                monotonic &= after <= before
        swept = sweep_codes(relaxed, codes, sim, bits, sweeps=1)
        monotonic &= (objective(relaxed, swept, sim, bits)
                      <= objective(relaxed, codes, sim, bits))
    assert report(
        2,
        "database code updates reach the sign-enumeration optimum on 50 random "
        f"instances, objective never increases (optimal={optimal}, "
        f"monotonic={monotonic})",
        optimal and monotonic,
    )


# -- criterion 3: anchors are class-part means -------------------------------


def test_03_anchors_equal_class_part_means(small_trained):
    trainer = small_trained
    by_class: dict[int, list[np.ndarray]] = {}
    for image, label in zip(trainer.train_images, trainer.train_labels):
        stacked = forward_features(trainer.params, image).part_vecs.data
        by_class.setdefault(int(label), []).append(stacked)
    worst = max(
        float(np.max(np.abs(trainer.anchors.get(c)
                            - np.mean(np.stack(rows), axis=0, dtype=np.float64))))
        for c, rows in by_class.items()
    )
    assert report(
        3, f"anchors equal per-class per-part feature means (max dev {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
    )


# -- criterion 4: exchange semantics -----------------------------------------


def test_04_exchange_identity_anchors_and_encode_invariance(small_trained):
    rng = np.random.default_rng(44)
    parts = ad.tensor(rng.standard_normal((3, 5)))
    anchors = rng.standard_normal((3, 5))

    kept = exchange_features(parts, anchors, np.ones(3))
    identity = bool(np.array_equal(kept.data, parts.data))

    swapped = exchange_features(parts, anchors, np.zeros(3))
    to_anchors = bool(np.array_equal(swapped.data, anchors))

    trainer = small_trained
    probe = trainer.train_images[:4]
    before = trainer.encode(probe)
    original = trainer.anchors
    trainer.anchors = AnchorBank(rng.standard_normal(original.table.shape))
    after = trainer.encode(probe)
    trainer.anchors = original
    invariant = bool(np.array_equal(before, after))

    assert report(
        4,
        "all-keep mask is the identity, all-swap mask yields anchors, and "
        f"encoding ignores the anchor bank (identity={identity}, "
        f"anchors={to_anchors}, encode_invariant={invariant})",
        identity and to_anchors and invariant,
    )


# -- criteria 5 and 6: end-to-end retrieval quality --------------------------


def test_05_synthetic_retrieval_beats_chance(benchmark_runs):
    run = benchmark_runs[(0, True)]
    rng = np.random.default_rng(55)
    dataset = generate_synthetic(default_run_config().synth)
    random_index = RetrievalIndex(
        pack_codes(rng.choice([-1.0, 1.0], size=(len(dataset.train_labels), 16))),
        labels=dataset.train_labels,
    )
    baseline = evaluate_queries(
        random_index, rng.choice([-1.0, 1.0], size=(len(dataset.query_labels), 16)),
        dataset.query_labels,
    )["map"]
    ok = run["map"] >= 0.40 and run["seconds"] <= 600.0
    assert report(
        5,
        f"default-config synthetic retrieval map {run['map']:.3f} >= 0.40 in "
        f"{run['seconds']:.0f}s <= 600s (random-code baseline {baseline:.3f})",
        ok,
    )


def test_06_exchanging_helps_on_average(benchmark_runs):
    with_mean = float(np.mean([benchmark_runs[(s, True)]["map"] for s in (0, 1, 2)]))
    without_mean = float(np.mean([benchmark_runs[(s, False)]["map"] for s in (0, 1, 2)]))
    assert report(
        6,
        f"3-seed mean map with exchanging {with_mean:.3f} >= without "
        f"{without_mean:.3f}",
        with_mean >= without_mean,
    )


# -- criterion 7: memory accounting ------------------------------------------


def test_07_bench_prints_reference_memory_figure():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["bench", "--items", "101000", "--bits", "32",
                         "--queries", "2", "--reps", "1"])
    shown = "404.0KB" in buffer.getvalue()
    assert report(
        7, f"bench prints 404.0KB for 101000 codes at 32 bits (exit={code}, shown={shown})",
        code == 0 and shown,
    )


# -- criterion 8: Hamming identity -------------------------------------------


def test_08_inner_product_hamming_identity():
    rng = np.random.default_rng(88)
    bits = 37
    left = rng.choice([-1.0, 1.0], size=(100_000, bits))
    right = rng.choice([-1.0, 1.0], size=(100_000, bits))
    inner = np.einsum("ij,ij->i", left, right).astype(np.int64)
    xor = pack_codes(left).words ^ pack_codes(right).words
    dists = np.bitwise_count(xor).sum(axis=1).astype(np.int64)
    ok = bool(np.array_equal(inner, bits - 2 * dists))
    assert report(
        8, f"inner product equals bits - 2*hamming on 100000 packed pairs (exact={ok})", ok,
    )


# -- criterion 9: ranking oracle equivalence ---------------------------------


def test_09_rankers_match_naive_references():
    rng = np.random.default_rng(99)

    codes = rng.choice([-1.0, 1.0], size=(1000, 24))
    packed = pack_codes(codes)
    coarse_ok = True
    for _ in range(5):
        query = rng.choice([-1.0, 1.0], size=24)
        order = coarse_rank(packed, query)
        naive = helpers.naive_hamming_order(codes, query, topn=1000)
        coarse_ok &= bool(np.array_equal(order, naive))

    features = rng.standard_normal((1000, 16))
    codebook = train_pq(features, subspaces=4, centroids=16, seed=5)
    pq_codes = encode_pq(codebook, features)
    pq_ok = True
    for _ in range(5):
        query = rng.standard_normal(16)
        order = pq_rank(codebook, pq_codes, query)
        # Naive lookup-table scoring: per-subspace squared distances summed
        # per item through plain python loops, ties broken by id.
        blocks = query.reshape(4, 4)
        keyed = []
        for item, row in enumerate(pq_codes):
            dist = 0.0
            for sub in range(4):
                diff = blocks[sub] - codebook.centroids[sub, row[sub]]
                dist += float(diff @ diff)
            keyed.append((dist, item))
        keyed.sort()
        pq_ok &= order.tolist() == [item for _, item in keyed]

    assert report(
        9,
        f"hamming and lookup-table rankers match naive references on 1000-item "
        f"databases (hamming={coarse_ok}, quantized={pq_ok})",
        coarse_ok and pq_ok,
    )


# -- criterion 10: packed scan speedup ---------------------------------------


def test_10_packed_scan_beats_float_scan():
    rng = np.random.default_rng(1010)
    codes = rng.choice([-1.0, 1.0], size=(100_000, 32))
    packed = pack_codes(codes)
    query_words = pack_codes(rng.choice([-1.0, 1.0], size=(8, 32))).words
    features = rng.standard_normal((100_000, 512)).astype(np.float32)
    query_feats = rng.standard_normal((8, 512)).astype(np.float32)

    def packed_rep() -> float:
        started = time.perf_counter()
        for row in query_words:
            _distance_key(packed, row)
        return time.perf_counter() - started

    def float_rep() -> float:
        started = time.perf_counter()
        for row in query_feats:
            diffs = features - row[None, :]
            np.sum(diffs * diffs, axis=1)
        return time.perf_counter() - started

    packed_rep(), float_rep()  # warm both paths before timing
    packed_med = float(np.median([packed_rep() for _ in range(5)]))
    float_med = float(np.median([float_rep() for _ in range(5)]))
    speedup = float_med / packed_med
    assert report(
        10,
        f"library packed 32-bit scan over 100000 items is {speedup:.0f}x faster than a "
        f"512-d float32 scan (>= 20x, median of 5)",
        speedup >= 20.0,
    )


# -- criterion 11: metric oracles --------------------------------------------


def test_11_metric_reference_values():
    # the metrics `eval` reports, on hand-built indexes whose query ranks
    # the items with labels (7, 3, 7) and (7, 3, 7, 3) in that order
    index, query = helpers.ranked_index([7, 3, 7])
    map_value = evaluate_queries(index, query[None, :], np.array([7]), ks=(1,))["map"]
    index, query = helpers.ranked_index([7, 3, 7, 3])
    p_at_4 = evaluate_queries(index, query[None, :], np.array([7]), ks=(4,))["precision_at"][4]
    map_ok = abs(map_value - 5.0 / 6.0) <= 1e-9
    p_ok = p_at_4 == 0.5
    assert report(
        11,
        f"map of relevance (1,0,1) = {map_value:.10f} (5/6 within 1e-9), "
        f"p@4 of (1,0,1,0) = {p_at_4} (exactly 0.5)",
        map_ok and p_ok,
    )


# -- criterion 12: quantizer sanity ------------------------------------------


def test_12_quantizer_objective_and_exact_limit():
    rng = np.random.default_rng(1212)
    points = rng.standard_normal((60, 5))
    trace = kmeans(points, 7, np.random.default_rng(3))[2]
    monotonic = all(b <= a for a, b in itertools.pairwise(trace))

    features = rng.standard_normal((30, 8))
    codebook = train_pq(features, subspaces=4, centroids=30, seed=4)
    pq_codes = encode_pq(codebook, features)
    recon = np.concatenate(
        [codebook.centroids[s, pq_codes[:, s]] for s in range(4)], axis=1
    )
    zero_error = bool(np.array_equal(recon, features))

    query = rng.standard_normal(8)
    adc_order = pq_rank(codebook, pq_codes, query)
    exact = np.sum((features - query) ** 2, axis=1)
    exact_order = np.lexsort((np.arange(30), exact))
    same_ranking = bool(np.array_equal(adc_order, exact_order))

    assert report(
        12,
        f"k-means objective is non-increasing and k=n quantization is exact "
        f"(monotonic={monotonic}, zero_error={zero_error}, ranking={same_ranking})",
        monotonic and zero_error and same_ranking,
    )
