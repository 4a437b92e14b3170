"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They use shrunken inputs (a 20k-item search database, a two-iteration
schedule with small epochs) so the whole file runs in about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from finehash import retrieval as fr  # noqa: E402
from finehash import trainer as ft  # noqa: E402

SMALL = 20_000
TINY_TRAIN = {"samples_per_epoch": 16, "batch_size": 8, "epochs_per_iter": 1}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def small_search():
    inputs = workloads.search_inputs(seed=5, size=SMALL)
    index = fr.RetrievalIndex(fr.pack_codes(inputs["codes"]), inputs["labels"],
                              inputs["features"])
    return inputs, index


def test_swapped_top_k_pair_is_a_failure(small_search):
    inputs, index = small_search
    codes, features = inputs["codes"], inputs["features"]
    queries, query_features = inputs["query_codes"], inputs["query_features"]
    expected = [oracles.top_results(codes, features, queries[i], query_features[i], 100, 10)
                for i in range(len(queries))]

    def request(i):
        return index.search(queries[i], query_features[i], 100)[:10]

    def swapped(i):
        top = request(i).copy()
        top[[3, 4]] = top[[4, 3]]
        return top

    def check(i, top):
        return np.array_equal(top, expected[i])

    for fn, all_fail in ((request, False), (swapped, True)):
        tally = oracles.Tally()
        stamps = workloads.Stamps(tracing.Tracer())
        workloads.closed_loop(stamps, tally, 0.05, len(queries), fn, check)
        assert tally.attempted > workloads.WARMUP_REQUESTS
        assert tally.failed == (tally.attempted if all_fail else 0)


def test_evaluation_oracle_matches_and_rejects_a_changed_map(small_search):
    inputs, index = small_search
    queries, labels = inputs["query_codes"][:4], inputs["query_labels"][:4]
    got = fr.evaluate_queries(index, queries, labels)
    expected = oracles.evaluation(inputs["codes"], inputs["labels"], queries, labels)
    assert oracles.same_evaluation(got, expected)
    assert not oracles.same_evaluation(dict(got, map=got["map"] + 1e-6), expected)


def test_other_seeds_give_other_inputs_that_pass(tmp_path):
    first, second = (workloads.search_inputs(seed, SMALL) for seed in (1, 2))
    assert not np.array_equal(first["codes"], second["codes"])
    assert not np.array_equal(first["query_features"], second["query_features"])
    maps = set()
    wall = clock.WallClock()
    for seed in (1, 2):
        result = workloads.run_search(tracing.Tracer(), seed, 0.2, tmp_path, size=SMALL)
        assert result.tally.failed == 0 and result.tally.attempted > 0
        assert set(workloads.end_to_end(result, wall)) == {name for name, _ in workloads.END_TO_END}
        maps.add(result.map)
        serve = workloads.model_workload(tracing.Tracer(), seed, 0.2, tmp_path,
                                         iterations=0, build_reps=1)
        assert serve.tally.failed == 0 and serve.tally.attempted > 0
        maps.add(serve.map)
    assert len(maps) == 4


def test_training_checks_pass_and_maps_repeat_at_a_fixed_seed(tmp_path):
    runs = [workloads.model_workload(tracing.Tracer(), 3, 0.1, tmp_path, iterations=2,
                                     build_reps=1, train_overrides=TINY_TRAIN)
            for _ in range(2)]
    for run in runs:
        assert run.tally.failed == 0
        assert run.info["iterations"] == 2
    assert runs[0].info["map_asym"] == runs[1].info["map_asym"]
    assert runs[0].info["map_sym"] == runs[1].info["map_sym"]


def test_tracer_counts_layers_and_restores_the_package(tmp_path):
    originals = (ft.forward_features, fr.coarse_rank, ft.AlternatingTrainer.run_iteration)
    tracer = tracing.Tracer()
    tracer.install("finehash")
    try:
        result = workloads.model_workload(tracer, 4, 0.1, tmp_path, iterations=2,
                                          build_reps=1, train_overrides=TINY_TRAIN)
    finally:
        tracer.uninstall()
    assert (ft.forward_features, fr.coarse_rank, ft.AlternatingTrainer.run_iteration) == originals
    assert result.tally.failed == 0
    metrics = tracer.layer_metrics()
    assert [name for name, _, _ in tracing.LAYER_METRICS] == list(metrics)
    # constructor pass plus two refreshes per iteration; the first refresh
    # of each iteration repeats the previous pass with unchanged weights
    assert metrics["trainer.db_passes"] == 5
    assert metrics["trainer.db_passes_redundant"] == 2
    assert metrics["trainer.phase.theta.s"] > 0
    assert metrics["autodiff.backward.calls"] == 4
    assert metrics["autodiff.tape_records"] > 0
    assert metrics["checkpoint.save_arrays.calls"] == 2
    assert len(tracer.span_id) == sum(row["calls"] for row in tracer.tree_rows())


def test_reference_clock_scales_work_and_leaves_out_its_samples():
    kernel = clock.ComputeKernel()
    kernel.interval = 0.005
    reference = clock.ReferenceClock(kernel)
    reference.start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.3:
        pass
    middle = time.perf_counter()
    while time.perf_counter() - middle < 0.3:
        pass
    ended = time.perf_counter()
    reference.stop()
    summary = reference.summary()
    assert summary["calibration_samples"] > clock.SMOOTHING
    whole = reference.seconds(started, ended)
    assert whole == pytest.approx(reference.seconds(started, middle)
                                  + reference.seconds(middle, ended))
    # the kernel's own time is left out of the busy-wait it interrupted
    sampling = summary["calibration_samples"] * 2e-3 * summary["calibration_ms"]
    rate = kernel.reference / (1e-3 * summary["calibration_ms"])
    assert whole == pytest.approx((ended - started - sampling) * rate, rel=0.25)


def test_printed_metric_names_equal_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "serve", "--seed", "7", "--seconds", "0.3", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "serve", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
