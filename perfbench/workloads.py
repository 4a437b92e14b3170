"""The benchmark's workloads: train, serve and search-1m.

Every workload runs four timed stages, so each reports every end-to-end
metric:

* setup: make the inputs from the seed (three times; setup_s is the median);
* build: produce the served artifacts and load them back the way
  ``finehash query`` does (build_s);
* query: a closed loop with one client; each request is checked against a
  reference computed beforehand by ``oracles`` (query_p50_ms,
  query_p95_ms, queries_per_s);
* eval: Hamming-only ``evaluate_queries`` passes, checked against the
  oracle (eval_s is the median of three passes; map is their mAP).

A workload records perf_counter stamps only; ``end_to_end`` turns them into
seconds with a clock from ``clock`` once the run is over.  References are
computed between build and query with tracing paused; their time is
reported but is no metric.  All library calls go through module attributes
so the tracer's patches see them.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from finehash import data as fd
from finehash import retrieval as fr
from finehash import trainer as ft
from finehash.config import default_run_config
from finehash.errors import FineHashError

import clock
import oracles

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("eval_s", "s"),
    ("map", "fraction"),
    ("peak_rss_mb", "MB"),
)
TAIL_SAMPLES = 10  # samples the tail percentile must have beyond it
WARMUP_REQUESTS = 3
# repetitions of the short stages; each metric is the median
SETUP_REPS, EVAL_REPS = 5, 5
SERVE_BUILD_REPS = 3
SEARCH_SETUP_REPS, SEARCH_BUILD_REPS, SEARCH_EVAL_REPS = 3, 7, 3

# train and serve: the default synthetic set and architecture at 16 bits; a
# 4-iteration schedule crosses the warm-up boundary (iteration 1) and the
# first learning-rate drop (iteration 3)
BITS = 16
TRAIN_ITERS = 4
SERVE_TOPN, SERVE_TOPK = 50, 10

# search-1m: class-structured codes with random bit flips
SEARCH_SIZE = 1_000_000
SEARCH_BITS = 32
SEARCH_CLASSES = 100
SEARCH_DIM = 160
SEARCH_FLIP = 0.1
SEARCH_NOISE_ROWS = 1 << 16
SEARCH_QUERIES = 64
SEARCH_EVAL_QUERIES = 32
SEARCH_TOPN, SEARCH_TOPK = 100, 10


class Stamps:
    """perf_counter windows per stage repetition, and per request."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.stages: dict[str, list[list[tuple[float, float]]]] = {}
        self.requests: list[tuple[float, float]] = []
        self.loop: tuple[float, float] | None = None
        self._windows: list[tuple[float, float]] = []
        self._open = 0.0

    @contextmanager
    def stage(self, name: str):
        """One repetition of a stage; ``excluded`` carves checks out of it."""
        self._windows = []
        self.stages.setdefault(name, []).append(self._windows)
        with self._tracer.span(f"bench.{name}"):
            self._open = time.perf_counter()
            yield
            self._windows.append((self._open, time.perf_counter()))

    @contextmanager
    def excluded(self):
        self._windows.append((self._open, time.perf_counter()))
        try:
            with self._tracer.paused():
                yield
        finally:
            self._open = time.perf_counter()


@dataclass
class Result:
    stamps: Stamps
    tally: oracles.Tally
    map: float
    peak_rss_mb: float
    info: dict = field(default_factory=dict)


def tail_percentile(count: int) -> float:
    """The highest percentile, at most p95, with TAIL_SAMPLES beyond it."""
    return max(0.5, min(0.95, 1.0 - TAIL_SAMPLES / count))


def end_to_end(result: Result, clock) -> dict[str, float]:
    """Every END_TO_END metric, with times converted by clock."""
    stamps = result.stamps

    def stage(name: str) -> float:
        return median(sum(clock.seconds(a, b) for a, b in rep) for rep in stamps.stages[name])

    latencies = [clock.seconds(a, b) for a, b in stamps.requests]
    return {
        "setup_s": stage("setup"),
        "build_s": stage("build"),
        "query_p50_ms": 1e3 * float(np.median(latencies)),
        "query_p95_ms": 1e3 * float(np.quantile(latencies, tail_percentile(len(latencies)))),
        "queries_per_s": len(latencies) / clock.seconds(*stamps.loop),
        "eval_s": stage("eval"),
        "map": result.map,
        "peak_rss_mb": result.peak_rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(stamps: Stamps, tally, seconds: float, count: int, request, check) -> None:
    """One client: send request i only after request i - 1 completed.

    request(i) returns the output for query i % count; check(i, output)
    says whether it matches the reference.  A raised library error is a
    failed request; its latency still counts.
    """
    tracer = stamps._tracer

    def one(i: int) -> tuple[float, float]:
        error = output = None
        with tracer.span("bench.request"):
            started = time.perf_counter()
            try:
                output = request(i % count)
            except FineHashError as exc:
                error = exc
            ended = time.perf_counter()
        with tracer.paused():
            ok = error is None and check(i % count, output)
        tally.check(ok, f"request {i}: {error or 'result differs from the reference'}")
        return started, ended

    for i in range(WARMUP_REQUESTS):
        one(i)
    started = time.perf_counter()
    while not stamps.requests or time.perf_counter() - started < seconds:
        stamps.requests.append(one(len(stamps.requests)))
    stamps.loop = (started, time.perf_counter())


# ---------------------------------------------------------------------------
# train and serve: the finehash train -> query -> eval pipeline


def _same_checkpoint(path, trainer) -> bool:
    state = ft.load_checkpoint(path)
    want, got = trainer.params.arrays(), state.params.arrays()
    if want.keys() != got.keys() or not all(np.array_equal(want[k], got[k]) for k in want):
        return False
    if state.iteration != trainer.iteration or not np.array_equal(state.codes, trainer.codes):
        return False
    if (state.anchors is None) != (trainer.anchors is None):
        return False
    return trainer.anchors is None or (
        state.anchors.classes == trainer.anchors.classes
        and all(np.array_equal(state.anchors.get(c), trainer.anchors.get(c))
                for c in trainer.anchors.classes))


def _build_model(stamps: Stamps, tally, workdir: Path, dataset, run_config, iterations: int):
    """finehash train (checkpoint every iteration), then load back as query does.

    The checkpoint round-trip checks are carved out of the stage's time.
    """
    checkpoint = workdir / "model.fht1"
    with stamps.stage("build"):
        trainer = ft.AlternatingTrainer(dataset, run_config.model, run_config.train)
        for step in range(iterations + 1):
            if step:
                trainer.run_iteration()
            if step or not iterations:
                trainer.save(checkpoint)
                with stamps.excluded():
                    tally.check(_same_checkpoint(checkpoint, trainer),
                                f"checkpoint at iteration {trainer.iteration} does not round-trip")
        fr.save_packed(workdir / "db.fhc1", fr.pack_codes(trainer.codes))
        fr.save_features(workdir / "db.fhf1", trainer.encode_descriptors(dataset.train_images))
        fr.save_labels(workdir / "db_labels.csv", dataset.train_labels)
        state = ft.load_checkpoint(checkpoint)
        index = fr.RetrievalIndex(fr.load_packed(workdir / "db.fhc1"),
                                  fr.load_labels(workdir / "db_labels.csv"),
                                  fr.load_features(workdir / "db.fhf1"))
    return trainer, index, state


def model_workload(tracer, seed: int, seconds: float, workdir: Path, *, iterations: int,
                   build_reps: int, train_overrides: dict | None = None) -> Result:
    """The train (iterations > 0) or serve (iterations == 0) workload."""
    stamps, tally = Stamps(tracer), oracles.Tally()
    base = default_run_config()
    run_config = replace(
        base,
        model=replace(base.model, bits=BITS),
        train=replace(base.train, outer_iters=max(iterations, TRAIN_ITERS), seed=seed,
                      **(train_overrides or {})),
        synth=replace(base.synth, seed=seed),
    )

    for _ in range(SETUP_REPS):
        with stamps.stage("setup"):
            dataset = fd.generate_synthetic(run_config.synth)
            loaded = fd.load_manifest(fd.write_dataset(dataset, workdir / "data"))
    tally.check(np.array_equal(loaded.labels, dataset.labels)
                and np.array_equal(loaded.splits, dataset.splits)
                and np.abs(loaded.images - dataset.images).max() <= 0.5 / 255 + 1e-12,
                "dataset does not round-trip through the manifest")

    for _ in range(build_reps):
        trainer, index, state = _build_model(stamps, tally, workdir, dataset, run_config,
                                             iterations)

    # references: the queries as finehash query reads them, against the
    # served codes and features, and the two evaluation sets
    started = time.perf_counter()
    with tracer.paused():
        params, labels = state.params, dataset.train_labels
        ref_codes, ref_desc = ft.encode_images(params, loaded.query_images)
        expected = [oracles.top_results(state.codes, index.features, ref_codes[i], ref_desc[i],
                                        SERVE_TOPN, SERVE_TOPK) for i in range(len(ref_codes))]
        eval_queries = ft.encode_images(params, dataset.query_images)[0]
        eval_db = ft.encode_images(params, dataset.train_images)[0]
        ref_asym = oracles.evaluation(state.codes, labels, eval_queries, dataset.query_labels)
        ref_sym = oracles.evaluation(eval_db, labels, eval_queries, dataset.query_labels)
    reference_s = time.perf_counter() - started

    def request(i: int):
        codes, descriptors = ft.encode_images(params, loaded.query_images[i : i + 1])
        return codes[0], index.search(codes[0], descriptors[0], SERVE_TOPN)[:SERVE_TOPK]

    def check(i: int, output) -> bool:
        code, top = output
        return np.array_equal(code, ref_codes[i]) and np.array_equal(top, expected[i])

    closed_loop(stamps, tally, seconds, len(ref_codes), request, check)

    for _ in range(EVAL_REPS):
        with stamps.stage("eval"):
            queries = ft.encode_images(params, dataset.query_images)[0]
            asym = fr.evaluate_queries(index, queries, dataset.query_labels)
            db_codes = ft.encode_images(params, dataset.train_images)[0]
            sym = fr.evaluate_queries(fr.RetrievalIndex(fr.pack_codes(db_codes), labels),
                                      queries, dataset.query_labels)
        tally.check(oracles.same_evaluation(asym, ref_asym), "asymmetric mAP differs from the oracle")
        tally.check(oracles.same_evaluation(sym, ref_sym), "symmetric mAP differs from the oracle")

    info = {"map_asym": asym["map"], "map_sym": sym["map"], "reference_s": reference_s,
            "iterations": trainer.iteration}
    return Result(stamps, tally, asym["map"], peak_rss_mb(), info)


def run_train(tracer, seed: int, seconds: float, workdir: Path) -> Result:
    return model_workload(tracer, seed, seconds, workdir, iterations=TRAIN_ITERS, build_reps=1)


def run_serve(tracer, seed: int, seconds: float, workdir: Path) -> Result:
    return model_workload(tracer, seed, seconds, workdir, iterations=0,
                          build_reps=SERVE_BUILD_REPS)


# ---------------------------------------------------------------------------
# search-1m: packed Hamming search over a million class-structured codes


def search_inputs(seed: int, size: int = SEARCH_SIZE) -> dict:
    """Codes with per-bit flips around class centres, and float32 features
    around per-class feature centres; queries come from the same process.

    Feature noise is drawn from a pool of SEARCH_NOISE_ROWS rows, which
    keeps the set-up cheap; the few items that share class and noise row
    have equal features and exercise the re-rank's id tie-break.
    """
    rng = np.random.default_rng([seed, SEARCH_BITS])
    code_centres = rng.choice(np.array([-1.0, 1.0], dtype=np.float32),
                              size=(SEARCH_CLASSES, SEARCH_BITS))
    feature_centres = rng.normal(size=(SEARCH_CLASSES, SEARCH_DIM)).astype(np.float32)
    noise = rng.standard_normal((SEARCH_NOISE_ROWS, SEARCH_DIM), dtype=np.float32)

    def draw(count: int):
        labels = rng.integers(0, SEARCH_CLASSES, size=count)
        codes = code_centres[labels]
        codes[rng.random((count, SEARCH_BITS), dtype=np.float32) < SEARCH_FLIP] *= -1.0
        features = noise[rng.integers(0, SEARCH_NOISE_ROWS, size=count)]
        for start in range(0, count, 65536):  # bounded temporaries
            features[start : start + 65536] += feature_centres[labels[start : start + 65536]]
        return codes, labels, features

    codes, labels, features = draw(size)
    query_codes, query_labels, query_features = draw(SEARCH_QUERIES)
    return {"codes": codes, "labels": labels, "features": features,
            "query_codes": query_codes, "query_labels": query_labels,
            "query_features": query_features}


def run_search(tracer, seed: int, seconds: float, workdir: Path,
               size: int = SEARCH_SIZE) -> Result:
    stamps, tally = Stamps(tracer), oracles.Tally()
    inputs = None
    for _ in range(SEARCH_SETUP_REPS):
        inputs = None  # release the previous copy before making the next
        with stamps.stage("setup"):
            inputs = search_inputs(seed, size)

    path = workdir / "db.fhc1"
    for _ in range(SEARCH_BUILD_REPS):
        with stamps.stage("build"):
            fr.save_packed(path, fr.pack_codes(inputs["codes"]))
            index = fr.RetrievalIndex(fr.load_packed(path), inputs["labels"], inputs["features"])

    codes, features = inputs["codes"], inputs["features"]
    query_codes, query_features = inputs["query_codes"], inputs["query_features"]
    eval_codes = query_codes[:SEARCH_EVAL_QUERIES]
    eval_labels = inputs["query_labels"][:SEARCH_EVAL_QUERIES]
    started = time.perf_counter()
    expected = [oracles.top_results(codes, features, query_codes[i], query_features[i],
                                    SEARCH_TOPN, SEARCH_TOPK) for i in range(len(query_codes))]
    ref_eval = oracles.evaluation(codes, inputs["labels"], eval_codes, eval_labels)
    reference_s = time.perf_counter() - started

    def request(i: int):
        return index.search(query_codes[i], query_features[i], SEARCH_TOPN)[:SEARCH_TOPK]

    closed_loop(stamps, tally, seconds, len(query_codes), request,
                lambda i, top: np.array_equal(top, expected[i]))

    for _ in range(SEARCH_EVAL_REPS):
        with stamps.stage("eval"):
            result = fr.evaluate_queries(index, eval_codes, eval_labels)
        tally.check(oracles.same_evaluation(result, ref_eval), "mAP differs from the oracle")

    info = {"reference_s": reference_s, "database": size, "eval_queries": len(eval_codes)}
    return Result(stamps, tally, result["map"], peak_rss_mb(), info)


# each workload with the calibration kernel that slows down as its work does
WORKLOADS = {
    "train": (run_train, clock.ComputeKernel),
    "serve": (run_serve, clock.ComputeKernel),
    "search-1m": (run_search, clock.MemoryKernel),
}
