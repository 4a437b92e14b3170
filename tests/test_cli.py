"""Tests for the command line front end."""

import argparse
import ast
import contextlib
import csv
import filecmp
import io
import json
import logging
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

import finehash.cli as cli_module
from finehash.checkpoint import load_arrays, save_arrays
from finehash.cli import build_parser, main
from finehash.config import load_config
from finehash.data import load_manifest
from finehash import trainer as trainer_module
from finehash.retrieval import (
    RetrievalIndex,
    coarse_rank,
    load_features,
    load_labels,
    load_packed,
    pack_codes,
    rerank,
    save_features,
    save_packed,
    unpack_codes,
)
from finehash.trainer import AlternatingTrainer, encode_images, load_checkpoint
from helpers import reference_u64_rows

TINY_CONFIG = """\
parts = 2
bits = 8
image_side = 16
backbone_channels = 6,8
backbone_pools = 2,2
refined_channels = 8
outer_iters = 2
epochs_per_iter = 1
batch_size = 6
samples_per_epoch = 12
seed = 7
synth_classes = 3
synth_per_class = 6
synth_queries_per_class = 2
synth_patch_size = 4
synth_pattern_scale = 0.5
synth_seed = 9
data_dir = data
"""


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit code, captured stdout)."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main([str(item) for item in argv])
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny config, its rendered dataset, and one trained run."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    code, _ = run_cli(["synth", "--config", config])
    assert code == 0
    code, _ = run_cli(["train", "--config", config, "--out-dir", root / "run"])
    assert code == 0
    return {
        "root": root,
        "config": config,
        "data": root / "data",
        "checkpoint": root / "run" / "model.fht1",
        "codes": root / "run" / "db.fhc1",
        "features": root / "run" / "db.fhf1",
        "labels": root / "run" / "db_labels.csv",
    }


# every option string of each subcommand; a flag added or removed shows here
OPTIONS = {
    "synth": ["--config", "--out", "--seed", "--parts"],
    "train": ["--config", "--out-dir", "--seed", "--bits", "--parts", "--no-exchange",
              "--resume", "--metrics-out"],
    "encode": ["--checkpoint", "--manifest", "--out", "--features", "--bits", "--split"],
    "index": ["--codes", "--labels", "--features"],
    "query": ["--checkpoint", "--codes", "--queries", "--features", "--topk", "--topn",
              "--split"],
    "eval": ["--checkpoints", "--data", "--config", "--ks", "--topn"],
    "bench": ["--codes", "--items", "--bits", "--queries", "--reps", "--seed", "--csv"],
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_surface(self, command):
        parser = build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert sorted(commands) == sorted(OPTIONS)
        options = [option for action in commands[command]._actions
                   for option in action.option_strings if option not in ("-h", "--help")]
        assert options == OPTIONS[command]

    def test_imports_no_private_library_name(self):
        # the front end goes through the library's public API only
        tree = ast.parse(Path(cli_module.__file__).read_text())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").split(".")[0] == "finehash")
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []

    def test_unknown_subcommand_exits_2(self):
        code, _ = run_cli(["nonsense"])
        assert code == 2

    def test_missing_required_flag_exits_2(self):
        code, _ = run_cli(["encode", "--out", "x.fhc1"])
        assert code == 2

    def test_nonpositive_topk_exits_2(self, workspace, monkeypatch):
        encoded = []
        monkeypatch.setattr(cli_module, "encode_images", lambda *args: encoded.append(args))
        code, _ = run_cli([
            "query", "--checkpoint", workspace["checkpoint"],
            "--codes", workspace["codes"], "--queries", workspace["data"],
            "--topk", "0",
        ])
        assert code == 2
        assert encoded == []  # rejected before any query image is encoded

    @pytest.mark.parametrize("ks", ["1,x", "0"])
    def test_bad_ks_exits_2(self, workspace, ks):
        code, _ = run_cli(["eval", "--checkpoints", workspace["checkpoint"],
                           "--data", workspace["data"], "--ks", ks])
        assert code == 2


class TestSynth:
    def test_writes_manifest_and_images(self, workspace):
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        assert len(dataset.labels) == 3 * (6 + 2)
        assert dataset.num_classes == 3

    def test_out_flag_overrides_data_dir(self, tmp_path, workspace):
        out = tmp_path / "elsewhere"
        code, stdout = run_cli(["synth", "--config", workspace["config"], "--out", out])
        assert code == 0
        assert (out / "manifest.csv").exists()
        assert stdout.strip().endswith("manifest.csv")

    def test_no_destination_exits_2(self, tmp_path):
        config = tmp_path / "nodir.cfg"
        config.write_text("synth_classes = 2\n")
        code, _ = run_cli(["synth", "--config", config])
        assert code == 2


class TestTrain:
    def test_writes_all_artifacts(self, workspace):
        for key in ("checkpoint", "codes", "features", "labels"):
            assert workspace[key].exists()

    def test_database_file_holds_optimizer_codes(self, workspace):
        state = load_checkpoint(workspace["checkpoint"])
        stored = unpack_codes(load_packed(workspace["codes"]))
        assert np.array_equal(stored, state.codes)

    def test_labels_match_dataset_train_split(self, workspace):
        labels = load_labels(workspace["labels"])
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        assert np.array_equal(labels, dataset.train_labels)

    def test_same_seed_reproduces_bytes(self, workspace, tmp_path):
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "again"])
        assert code == 0
        assert filecmp.cmp(tmp_path / "again" / "db.fhc1", workspace["codes"], shallow=False)
        assert filecmp.cmp(tmp_path / "again" / "model.fht1", workspace["checkpoint"],
                           shallow=False)

    def test_first_run_into_empty_data_dir_reproduces_bytes(self, tmp_path):
        # the first run renders the set, then trains on the 8-bit files it
        # wrote, as every later run does
        config = tmp_path / "tiny.cfg"
        config.write_text(TINY_CONFIG)
        for run in ("first", "second"):
            code, _ = run_cli(["train", "--config", config, "--out-dir", tmp_path / run])
            assert code == 0
        assert filecmp.cmp(tmp_path / "first" / "model.fht1", tmp_path / "second" / "model.fht1",
                           shallow=False)
        reports = [run_cli(["eval", "--checkpoints", tmp_path / "first" / "model.fht1"] + source)
                   for source in (["--config", config], ["--data", tmp_path / "data"])]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0

    def test_seed_override_changes_codes_only(self, workspace, tmp_path):
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "other", "--seed", "8"])
        assert code == 0
        assert not filecmp.cmp(tmp_path / "other" / "db.fhc1", workspace["codes"], shallow=False)
        # outputs that do not flow through the generators stay put
        assert filecmp.cmp(tmp_path / "other" / "db_labels.csv", workspace["labels"],
                           shallow=False)

    def test_unknown_config_key_exits_2(self, tmp_path, caplog):
        config = tmp_path / "bad.cfg"
        config.write_text("bots = 8\n")
        code, _ = run_cli(["train", "--config", config])
        assert code == 2
        assert "bots" in caplog.text

    def test_non_finite_config_value_exits_2(self, tmp_path, caplog):
        config = tmp_path / "nan.cfg"
        config.write_text("learning_rate = nan\n")
        code, _ = run_cli(["train", "--config", config, "--out-dir", tmp_path / "run"])
        assert code == 2
        assert "learning_rate must be finite" in caplog.text

    def count_database_passes(self, workspace, monkeypatch):
        """Record each encode_images call that covers the whole database."""
        db_size = len(load_labels(workspace["labels"]))
        passes = []

        def counting(params, images):
            passes.append(len(images) == db_size)
            return encode_images(params, images)

        monkeypatch.setattr(trainer_module, "encode_images", counting)
        return passes

    def test_features_come_from_the_last_bias_refresh(self, workspace, tmp_path, monkeypatch):
        passes = self.count_database_passes(workspace, monkeypatch)
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "run"])
        assert code == 0
        # one at construction, then one refresh before and one after each of
        # the two weight phases; db.fhf1 takes the last one's descriptors
        assert passes == [True] * (1 + 2 * 2)
        state = load_checkpoint(tmp_path / "run" / "model.fht1")
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        save_features(tmp_path / "expected.fhf1",
                      encode_images(state.params, dataset.train_images)[1])
        assert filecmp.cmp(tmp_path / "run" / "db.fhf1", tmp_path / "expected.fhf1",
                           shallow=False)

    def test_resume_at_end_encodes_database_once(self, workspace, tmp_path, monkeypatch):
        (tmp_path / "done").mkdir()
        shutil.copy(workspace["checkpoint"], tmp_path / "done" / "model.fht1")
        passes = self.count_database_passes(workspace, monkeypatch)
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "done", "--resume"])
        assert code == 0
        assert passes == [True]
        assert filecmp.cmp(tmp_path / "done" / "db.fhf1", workspace["features"], shallow=False)

    @pytest.mark.parametrize("saved, resumed", [((4, 10), (5, 8)), ((5, 8), (4, 10))])
    def test_resume_on_other_classes_exits_2(self, tmp_path, caplog, saved, resumed):
        # both sets hold 40 database images, so only the anchor bank differs
        def config(classes, per_class):
            path = tmp_path / f"{classes}x{per_class}.cfg"
            path.write_text(TINY_CONFIG.replace("data_dir = data\n", "").replace(
                "synth_classes = 3\nsynth_per_class = 6\n",
                f"synth_classes = {classes}\nsynth_per_class = {per_class}\n"))
            return path

        code, _ = run_cli(["train", "--config", config(*saved), "--out-dir", tmp_path])
        assert code == 0
        checkpoint = tmp_path / "model.fht1"
        arrays = load_arrays(checkpoint)
        arrays["state.iteration"] = np.array(1.0)  # leave an iteration to run
        save_arrays(checkpoint, arrays)
        code, _ = run_cli(["train", "--config", config(*resumed), "--out-dir", tmp_path,
                           "--resume"])
        assert code == 2
        assert "stored anchors" in caplog.text

    @pytest.mark.parametrize("iteration", [-3.0, 1e30])
    def test_resume_from_iteration_outside_schedule_exits_2(self, workspace, tmp_path, caplog,
                                                            iteration):
        arrays = load_arrays(workspace["checkpoint"])
        arrays["state.iteration"] = np.array(iteration)
        save_arrays(tmp_path / "model.fht1", arrays)
        code, _ = run_cli(["train", "--config", workspace["config"], "--out-dir", tmp_path,
                           "--resume"])
        assert code == 2
        assert "'state.iteration'" in caplog.text
        assert not (tmp_path / "db.fhc1").exists()

    @pytest.mark.parametrize("option, field", [(["--bits", "4"], "bits"),
                                               (["--seed", "9"], "seed"),
                                               (["--no-exchange"], "exchange")])
    def test_resume_with_other_settings_exits_2(self, workspace, tmp_path, caplog, option,
                                                field):
        arrays = load_arrays(workspace["checkpoint"])
        arrays["state.iteration"] = np.array(1.0)  # leave an iteration to run
        save_arrays(tmp_path / "model.fht1", arrays)
        shutil.copy(tmp_path / "model.fht1", tmp_path / "saved.fht1")
        code, _ = run_cli(["train", "--config", workspace["config"], "--out-dir", tmp_path,
                           "--resume", *option])
        assert code == 2
        assert re.search(rf"settings differ .*\b{field} \(run ", caplog.text)
        assert filecmp.cmp(tmp_path / "model.fht1", tmp_path / "saved.fht1", shallow=False)
        assert not (tmp_path / "db.fhc1").exists()

    def test_metrics_out_writes_every_iteration(self, workspace, tmp_path):
        metrics = tmp_path / "run.jsonl"
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "run", "--metrics-out", metrics])
        assert code == 0
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        config = load_config(workspace["config"])
        trainer = AlternatingTrainer(load_manifest(workspace["data"] / "manifest.csv"),
                                     config.model, config.train)
        history = trainer.train()
        assert len(lines) == len(history) == 2
        phases = ("bias_seconds", "theta_seconds", "code_seconds", "anchor_seconds")
        for line, expected in zip(lines, history):
            assert line.keys() == expected.keys()
            for field in ("iteration", "lr", "theta_loss", "code_objective", "codes_flipped",
                          "anchor_drift"):
                assert line[field] == expected[field]
            assert all(isinstance(line[field], float) and line[field] > 0.0
                       for field in phases)

        # a resume writes only the iterations it ran
        checkpoint = tmp_path / "run" / "model.fht1"
        arrays = load_arrays(checkpoint)
        arrays["state.iteration"] = np.array(1.0)
        save_arrays(checkpoint, arrays)
        code, _ = run_cli(["train", "--config", workspace["config"], "--out-dir",
                           tmp_path / "run", "--resume", "--metrics-out", metrics])
        assert code == 0
        assert [json.loads(line)["iteration"] for line in metrics.read_text().splitlines()] \
            == [1]

    def test_metrics_out_leaves_database_file_unchanged(self, workspace, tmp_path):
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "run", "--metrics-out", tmp_path / "m.jsonl"])
        assert code == 0
        assert filecmp.cmp(tmp_path / "run" / "db.fhc1", workspace["codes"], shallow=False)

    def test_bits_override_changes_code_length(self, workspace, tmp_path):
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "narrow", "--bits", "4"])
        assert code == 0
        assert load_packed(tmp_path / "narrow" / "db.fhc1").bits == 4


class TestEncode:
    def test_output_matches_library_encoding(self, workspace, tmp_path):
        out = tmp_path / "all.fhc1"
        code, stdout = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                                "--manifest", workspace["data"], "--out", out])
        assert code == 0
        assert stdout.strip() == str(out)
        state = load_checkpoint(workspace["checkpoint"])
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        expected = encode_images(state.params, dataset.images)[0]
        assert np.array_equal(unpack_codes(load_packed(out)), expected)

    def test_split_filter_narrows_rows(self, workspace, tmp_path):
        out = tmp_path / "queries.fhc1"
        code, _ = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                           "--manifest", workspace["data"], "--out", out,
                           "--split", "query"])
        assert code == 0
        assert len(load_packed(out)) == 6

    def test_empty_manifest_writes_empty_file(self, workspace, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("relative_path,label,split\n")
        out = tmp_path / "empty.fhc1"
        code, _ = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                           "--manifest", manifest, "--out", out])
        assert code == 0
        packed = load_packed(out)
        assert len(packed) == 0
        assert packed.bits == 8

    @pytest.mark.parametrize("empty", [False, True])
    def test_logs_throughput(self, workspace, tmp_path, caplog, empty):
        manifest, count = workspace["data"], 24
        if empty:  # no images: the rate must not divide by zero
            manifest, count = tmp_path / "empty.csv", 0
            manifest.write_text("relative_path,label,split\n")
        caplog.set_level(logging.INFO)
        code, _ = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                           "--manifest", manifest, "--out", tmp_path / "x.fhc1"])
        assert code == 0
        match = re.search(r"encoded (\d+) images at (\d+) bits in ([\d.]+) s "
                          r"\(([\d.]+) images/s\)", caplog.text)
        assert match is not None
        assert int(match[1]) == count and int(match[2]) == 8
        seconds, rate = float(match[3]), float(match[4])
        if count:
            assert rate > 0.0
            # the seconds are logged to the millisecond
            assert count / rate == pytest.approx(seconds, abs=6e-4)
        else:
            assert rate == 0.0

    def test_bits_mismatch_exits_2(self, workspace, tmp_path, caplog):
        code, _ = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                           "--manifest", workspace["data"],
                           "--out", tmp_path / "x.fhc1", "--bits", "16"])
        assert code == 2
        assert "8-bit" in caplog.text

    def test_features_flag_writes_descriptors(self, workspace, tmp_path):
        out = tmp_path / "q.fhc1"
        feats = tmp_path / "q.fhf1"
        code, _ = run_cli(["encode", "--checkpoint", workspace["checkpoint"],
                           "--manifest", workspace["data"], "--out", out,
                           "--features", feats, "--split", "query"])
        assert code == 0
        assert load_features(feats).shape == (6, 24)

    @pytest.mark.parametrize("name, value", [
        ("hash.weight", None),
        ("config.model.parts", np.array([2.0, 2.0])),
        ("config.model.bits", np.array(np.nan)),
    ])
    def test_malformed_checkpoint_exits_2(self, workspace, tmp_path, name, value):
        arrays = load_arrays(workspace["checkpoint"])
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        save_arrays(tmp_path / "bad.fht1", arrays)
        code, _ = run_cli(["encode", "--checkpoint", tmp_path / "bad.fht1",
                           "--manifest", workspace["data"], "--out", tmp_path / "q.fhc1"])
        assert code == 2


class TestIndex:
    def test_reports_stats(self, workspace):
        code, stdout = run_cli(["index", "--codes", workspace["codes"],
                                "--labels", workspace["labels"],
                                "--features", workspace["features"]])
        assert code == 0
        assert "items    18" in stdout
        assert "bits     8" in stdout
        assert "words    1 x uint8" in stdout
        assert "memory   18.0B" in stdout
        assert "classes  3" in stdout

    @pytest.mark.parametrize("count, bits, memory", [(73000, 9, "146.0KB"), (1000, 12, "2.0KB"),
                                                     (101000, 32, "404.0KB")])
    def test_memory_is_the_packed_row_bytes(self, tmp_path, count, bits, memory):
        # whole words a row: a 9- or 12-bit code takes 2 bytes, not bits / 8
        path = tmp_path / "codes.fhc1"
        save_packed(path, pack_codes(np.where(np.arange(count * bits).reshape(count, bits) % 3,
                                              1, -1).astype(np.int8)))
        code, stdout = run_cli(["index", "--codes", path])
        assert code == 0
        assert f"memory   {memory}" in stdout

    def test_old_u64_layout_exits_2(self, tmp_path, caplog):
        # the older layout padded every code to a uint64 word; at 32 bits
        # and fewer it no longer matches the row length, and is not read
        codes = np.where(np.random.default_rng(5).random((7, 32)) < 0.5, -1.0, 1.0)
        path = tmp_path / "old.fhc1"
        path.write_bytes(b"FHC1" + struct.pack("<QQ", 7, 32)
                         + reference_u64_rows(codes).tobytes())
        code, stdout = run_cli(["index", "--codes", path])
        assert code == 2
        assert stdout == ""
        assert "rows of 1 x uint32 for 32-bit codes" in caplog.text

    def test_mismatched_labels_exit_2(self, workspace, tmp_path):
        labels = tmp_path / "short.csv"
        labels.write_text("id,label\n0,0\n")
        code, _ = run_cli(["index", "--codes", workspace["codes"], "--labels", labels])
        assert code == 2

    @pytest.mark.parametrize("option", ["--pq-out", "--subspaces", "--centroids",
                                        "--pq-iters", "--seed"])
    def test_quantizer_options_exit_2(self, workspace, tmp_path, option):
        out = tmp_path / "pq.fhq1"
        value = out if option == "--pq-out" else "4"
        code, stdout = run_cli(["index", "--codes", workspace["codes"],
                                "--features", workspace["features"], option, value])
        assert code == 2
        assert stdout == ""
        assert not out.exists()


class TestQuery:
    def query_args(self, workspace, extra):
        return ["query", "--checkpoint", workspace["checkpoint"],
                "--codes", workspace["codes"], "--queries", workspace["data"],
                "--split", "query"] + extra

    def parse(self, stdout):
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["query", "rank", "item"]
        return rows[1:]

    def test_row_count_is_queries_times_topk(self, workspace):
        code, stdout = run_cli(self.query_args(workspace, ["--topk", "5"]))
        assert code == 0
        assert len(self.parse(stdout)) == 6 * 5

    def test_matches_library_ranking(self, workspace):
        state = load_checkpoint(workspace["checkpoint"])
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        codes, descriptors = encode_images(state.params, dataset.query_images)
        features = load_features(workspace["features"])
        index = RetrievalIndex(load_packed(workspace["codes"]), features=features)
        for topn in (None, 4, 9):  # the default is --topn = --topk
            extra = [] if topn is None else ["--topn", topn]
            code, stdout = run_cli(self.query_args(
                workspace, ["--topk", "4", "--features", workspace["features"]] + extra))
            assert code == 0
            rows = self.parse(stdout)
            topn = 4 if topn is None else topn
            for i in range(6):
                expected = index.search(codes[i], descriptors[i], topn=topn)[:4]
                # the first topk of the re-ranked full ranking
                full = rerank(coarse_rank(index.packed, codes[i]), features, descriptors[i],
                              topn)
                got = [int(row[2]) for row in rows if int(row[0]) == i]
                assert got == expected.tolist() == full[:4].tolist()

    def test_topn_below_topk_exits_2(self, workspace, caplog, monkeypatch):
        encoded = []
        monkeypatch.setattr(cli_module, "encode_images", lambda *args: encoded.append(args))
        code, stdout = run_cli(self.query_args(
            workspace, ["--topk", "5", "--topn", "3", "--features", workspace["features"]]))
        assert code == 2
        assert stdout == ""
        assert "--topn 3 is below --topk 5" in caplog.text
        assert encoded == []  # rejected before any query image is encoded

    def test_topk_above_database_exits_2(self, workspace, caplog, monkeypatch):
        encoded = []
        monkeypatch.setattr(cli_module, "encode_images", lambda *args: encoded.append(args))
        code, stdout = run_cli(self.query_args(workspace, ["--topk", "1000"]))
        assert code == 2
        assert stdout == ""
        assert "--topk 1000 outside [1, " in caplog.text
        assert encoded == []

    def test_no_features_skips_rerank(self, workspace):
        code, stdout = run_cli(self.query_args(workspace, ["--topk", "3", "--topn", "9"]))
        assert code == 0
        rows = self.parse(stdout)

        state = load_checkpoint(workspace["checkpoint"])
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        codes = encode_images(state.params, dataset.query_images)[0]
        index = RetrievalIndex(load_packed(workspace["codes"]))
        for i in range(6):
            expected = index.search(codes[i])[:3]
            got = [int(row[2]) for row in rows if int(row[0]) == i]
            assert got == expected.tolist()

    def test_hamming_only_prints_head_of_full_ranking(self, workspace, tmp_path):
        # a database of three repeated codes ties almost every item; the rows
        # must still be the first topk of the full (distance, id) order
        state = load_checkpoint(workspace["checkpoint"])
        dataset = load_manifest(workspace["data"] / "manifest.csv")
        codes = encode_images(state.params, dataset.query_images)[0]
        pool = np.concatenate([codes[:2], -codes[:1]])
        path = tmp_path / "ties.fhc1"
        save_packed(path, pack_codes(pool[np.random.default_rng(0).integers(0, 3, 80)]))
        packed = load_packed(path)
        for topk in (1, 7, 30, 80):
            code, stdout = run_cli(["query", "--checkpoint", workspace["checkpoint"],
                                    "--codes", path, "--queries", workspace["data"],
                                    "--split", "query", "--topk", topk])
            assert code == 0
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(["query", "rank", "item"])
            for i, query in enumerate(codes):
                for rank, item in enumerate(coarse_rank(packed, query)[:topk]):
                    writer.writerow([i, rank, int(item)])
            assert stdout == expected.getvalue()

    @staticmethod
    def latency_line(caplog):
        lines = [m for m in caplog.messages if m.startswith("search latency")]
        assert len(lines) == 1
        return lines[0]

    def test_logs_search_latency(self, workspace, caplog):
        caplog.set_level(logging.INFO)
        code, _ = run_cli(self.query_args(workspace, ["--topk", "3"]))
        assert code == 0
        match = re.fullmatch(r"search latency over (\d+) queries: p50=([\d.]+) ms",
                             self.latency_line(caplog))
        assert match is not None
        assert int(match[1]) == 6
        assert float(match[2]) >= 0.0

    def test_logs_tail_with_ten_queries_beyond_it(self, workspace, caplog, monkeypatch):
        # 48 queries: p79 is the highest whole percentile with 10 beyond
        # it (48 x 21% = 10.08; p80 would leave 9.6)
        encode = cli_module.encode_images
        monkeypatch.setattr(cli_module, "encode_images", lambda params, images: tuple(
            np.tile(array, (8, 1)) for array in encode(params, images)))
        caplog.set_level(logging.INFO)
        code, stdout = run_cli(self.query_args(workspace, ["--topk", "3"]))
        assert code == 0
        assert len(self.parse(stdout)) == 48 * 3
        match = re.fullmatch(r"search latency over (\d+) queries: "
                             r"p50=([\d.]+) ms p(\d+)=([\d.]+) ms", self.latency_line(caplog))
        assert match is not None
        assert int(match[1]) == 48 and int(match[3]) == 79
        assert 0.0 <= float(match[2]) <= float(match[4])

    def test_topk_beyond_database_exits_2(self, workspace):
        code, _ = run_cli(self.query_args(workspace, ["--topk", "99"]))
        assert code == 2

    def test_overflowing_weights_exit_3(self, workspace, tmp_path, caplog):
        # finite on disk and in float32, but the second conv overflows float32
        arrays = load_arrays(workspace["checkpoint"])
        for name in arrays:
            if name.endswith(".kernel"):
                arrays[name] = arrays[name] * 1e20
        checkpoint = tmp_path / "scaled.fht1"
        save_arrays(checkpoint, arrays)
        load_checkpoint(checkpoint)
        with np.errstate(over="ignore", invalid="ignore"):
            code, stdout = run_cli(["query", "--checkpoint", checkpoint,
                                    "--codes", workspace["codes"],
                                    "--queries", workspace["data"], "--split", "query"])
        assert code == 3
        assert stdout == ""
        assert "numeric failure: conv2d" in caplog.text

    def test_non_finite_features_exit_2(self, workspace, tmp_path, caplog):
        features = load_features(workspace["features"])
        features[1, 0] = np.nan
        features[2, 3] = np.inf
        path = tmp_path / "bad.fhf1"
        save_features(path, features)
        code, stdout = run_cli(self.query_args(workspace, ["--features", path]))
        assert code == 2
        assert stdout == ""
        assert "bad.fhf1: feature row 1 holds NaN or Inf" in caplog.text


class TestEval:
    def test_report_matches_library_metrics(self, workspace):
        code, stdout = run_cli(["eval", "--checkpoints", workspace["checkpoint"],
                                "--data", workspace["data"], "--ks", "1,3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["bits", "exchange", "map", "p@1", "p@3", "queries"]
        assert len(rows) == 2
        bits, exchange, map_score, p1, p3, queries = rows[1]
        assert (bits, exchange, queries) == ("8", "on", "6")
        assert 0.0 <= float(map_score) <= 1.0
        assert 0.0 <= float(p1) <= 1.0 and 0.0 <= float(p3) <= 1.0

    def test_multiple_checkpoints_make_multiple_rows(self, workspace, tmp_path):
        code, _ = run_cli(["train", "--config", workspace["config"],
                           "--out-dir", tmp_path / "narrow", "--bits", "4"])
        assert code == 0
        code, stdout = run_cli(["eval", "--checkpoints", workspace["checkpoint"],
                                tmp_path / "narrow" / "model.fht1",
                                "--data", workspace["data"], "--ks", "1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert [row[0] for row in rows[1:]] == ["8", "4"]

    def test_exchange_ablation_is_train_no_exchange_then_eval(self, workspace, tmp_path):
        # a rate and warm-up at which the two arms end up ranking differently
        config = tmp_path / "ablation.cfg"
        config.write_text(TINY_CONFIG.replace("data_dir = data", f"data_dir = {workspace['data']}")
                          + "warmup_fraction = 0\nlearning_rate = 0.05\n")
        for arm, extra in (("on", []), ("off", ["--no-exchange"])):
            code, _ = run_cli(["train", "--config", config, "--out-dir", tmp_path / arm] + extra)
            assert code == 0
        code, stdout = run_cli(["eval", "--checkpoints", tmp_path / "on" / "model.fht1",
                                tmp_path / "off" / "model.fht1", "--data", workspace["data"]])
        assert code == 0
        rows = list(csv.reader(io.StringIO(stdout)))
        assert [row[1] for row in rows[1:]] == ["on", "off"]
        assert rows[1][2] != rows[2][2]

    @pytest.mark.parametrize("option", [["--no-exchange"], ["--seed", "3"]])
    def test_training_options_exit_2(self, workspace, option):
        code, stdout = run_cli(["eval", "--checkpoints", workspace["checkpoint"],
                                "--data", workspace["data"]] + option)
        assert code == 2
        assert stdout == ""

    def test_needs_a_dataset_source(self, workspace):
        code, _ = run_cli(["eval", "--checkpoints", workspace["checkpoint"]])
        assert code == 2

    def test_wrong_dataset_size_exits_2(self, workspace, tmp_path):
        manifest = tmp_path / "tiny.csv"
        rows = (workspace["data"] / "manifest.csv").read_text().splitlines()
        manifest.write_text("\n".join(rows[:3]) + "\n")
        code, _ = run_cli(["eval", "--checkpoints", workspace["checkpoint"],
                           "--data", manifest])
        assert code == 2


class TestBench:
    def test_table_reports_memory_and_speedup(self, tmp_path):
        code, stdout = run_cli(["bench", "--items", "2000", "--bits", "32",
                                "--queries", "4", "--reps", "2",
                                "--csv", tmp_path / "bench.csv"])
        assert code == 0
        assert "8.0KB" in stdout
        assert "speedup" in stdout
        rows = list(csv.reader((tmp_path / "bench.csv").open()))
        record = dict(zip(rows[0], rows[1]))
        assert record["database"] == "2000"
        assert float(record["speedup"]) == pytest.approx(
            float(record["float_seconds"]) / float(record["packed_seconds"]), rel=1e-3
        )

    def test_reference_memory_figure(self):
        code, stdout = run_cli(["bench", "--items", "101000", "--bits", "32",
                                "--queries", "2", "--reps", "1"])
        assert code == 0
        assert "404.0KB" in stdout

    def test_packed_memory_counts_whole_words(self):
        # 1000 12-bit codes take 2 bytes a row
        code, stdout = run_cli(["bench", "--items", "1000", "--bits", "12",
                                "--queries", "1", "--reps", "1"])
        assert code == 0
        assert re.search(r"^packed .* 2\.0KB$", stdout, re.M)

    def test_codes_file_source(self, workspace):
        code, stdout = run_cli(["bench", "--codes", workspace["codes"],
                                "--queries", "2", "--reps", "1"])
        assert code == 0
        assert "database 18" in stdout


def _entry(name: bytes, rank: int, extents: tuple[int, ...] = ()) -> bytes:
    """An FHT1 checkpoint whose one entry header claims ``rank`` and ``extents``."""
    return (b"FHT1" + struct.pack("<I", len(name)) + name + struct.pack("<I", rank)
            + struct.pack(f"<{len(extents)}Q", *extents))


# file name, its bytes, the command line around it ({file} is its path) and
# the name of the file or key the error message must carry
MALFORMED = {
    "labels not utf-8": ("db_labels.csv", b"id,label\n0,\xff\n",
                         ["index", "--codes", "{codes}", "--labels", "{file}"], "db_labels.csv"),
    "label past int64": ("db_labels.csv", b"id,label\n0,99999999999999999999999\n",
                         ["index", "--codes", "{codes}", "--labels", "{file}"], "db_labels.csv"),
    "code width past the bound": ("db.fhc1", b"FHC1" + struct.pack("<QQ", 0, 2**64 - 1),
                                  ["index", "--codes", "{file}"], "db.fhc1"),
    "manifest not utf-8": ("manifest.csv", b"relative_path,label,split\n\xff,0,query\n",
                           ["eval", "--checkpoints", "{checkpoint}", "--data", "{file}"],
                           "manifest.csv"),
    "config comment not utf-8": ("run.cfg", b"bits = 8  # \xff\n",
                                 ["synth", "--config", "{file}", "--out", "{dir}"], "run.cfg"),
    "checkpoint name not utf-8": ("model.fht1", _entry(b"\xff", 0) + struct.pack("<d", 1.0),
                                  ["encode", "--checkpoint", "{file}", "--manifest", "{data}",
                                   "--out", "{dir}/q.fhc1"], "model.fht1"),
    "checkpoint name past the end": ("model.fht1", b"FHT1" + struct.pack("<I", 0xFFFFFFFF),
                                     ["encode", "--checkpoint", "{file}", "--manifest", "{data}",
                                      "--out", "{dir}/q.fhc1"], "model.fht1"),
    "checkpoint rank past the end": ("model.fht1", _entry(b"w", 0xFFFFFFFF),
                                     ["encode", "--checkpoint", "{file}", "--manifest", "{data}",
                                      "--out", "{dir}/q.fhc1"], "model.fht1"),
    "checkpoint values past the end": ("model.fht1", _entry(b"w", 1, (2**61,)),
                                       ["encode", "--checkpoint", "{file}", "--manifest",
                                        "{data}", "--out", "{dir}/q.fhc1"], "model.fht1"),
    "checkpoint shape too large": ("model.fht1", _entry(b"w", 2, (0, 2**62)),
                                   ["encode", "--checkpoint", "{file}", "--manifest", "{data}",
                                    "--out", "{dir}/q.fhc1"], "model.fht1"),
    "feature dimension too large": ("db.fhf1", b"FHF1" + struct.pack("<QQ", 0, 2**62),
                                    ["index", "--codes", "{codes}", "--features", "{file}"],
                                    "db.fhf1"),
    "refined_channels 0": ("run.cfg", b"refined_channels = 0\n",
                           ["train", "--config", "{file}", "--out-dir", "{dir}"],
                           "refined_channels"),
    "backbone channel 0": ("run.cfg", b"backbone_channels = 0,32,32\n",
                           ["train", "--config", "{file}", "--out-dir", "{dir}"],
                           "backbone_channels"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_2_naming_it(workspace, tmp_path, caplog, case):
    name, content, argv, named = MALFORMED[case]
    path = tmp_path / name
    path.write_bytes(content)
    places = {"file": path, "dir": tmp_path, "codes": workspace["codes"],
              "checkpoint": workspace["checkpoint"], "data": workspace["data"]}
    code, _ = run_cli([arg.format(**places) for arg in argv])
    assert code == 2
    assert named in caplog.text
