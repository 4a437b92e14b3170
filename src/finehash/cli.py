"""Command line front end for training, encoding, and retrieval.

One executable with a subcommand per pipeline stage:

* ``synth``   render the synthetic part-based dataset to disk
* ``train``   run the alternating optimizer and write model plus database files
* ``encode``  hash manifest images with a trained checkpoint
* ``index``   validate a packed code file against labels and features, print stats
* ``query``   rank database items for each query image, CSV on stdout
* ``eval``    mean average precision report for one or more checkpoints
* ``bench``   timing and memory table for the packed distance scan

Logs go to stderr and data goes to stdout, so any command can sit in a
pipeline.  Exit codes: 0 on success, 2 for configuration, usage, and data
errors, 3 when a numeric guard trips.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .config import RunConfig, default_run_config, load_config
from .data import Dataset, generate_synthetic, load_manifest, write_dataset
from .errors import ConfigError, ContractError, FineHashError, NumericError
from .retrieval import (
    RetrievalIndex,
    bench_scan,
    evaluate_queries,
    format_bytes,
    load_features,
    load_labels,
    load_packed,
    pack_codes,
    save_features,
    save_labels,
    save_packed,
    unpack_codes,
)
from .trainer import AlternatingTrainer, encode_images, load_checkpoint

LOG = logging.getLogger(__name__)

CHECKPOINT_NAME = "model.fht1"
CODES_NAME = "db.fhc1"
FEATURES_NAME = "db.fhf1"
LABELS_NAME = "db_labels.csv"
# queries that the logged tail percentile of query latency must have beyond it
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# shared helpers


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file plus command line overrides, defaults when no file given."""
    config = load_config(args.config) if args.config else default_run_config()
    model, train, synth = config.model, config.train, config.synth
    if getattr(args, "bits", None) is not None:
        model = replace(model, bits=args.bits)
    if getattr(args, "parts", None) is not None:
        model = replace(model, parts=args.parts)
        synth = replace(synth, parts_per_image=args.parts)
    if getattr(args, "seed", None) is not None:
        if args.command == "synth":
            synth = replace(synth, seed=args.seed)
        else:
            train = replace(train, seed=args.seed)
    if getattr(args, "no_exchange", False):
        train = replace(train, exchange=False)
    return RunConfig(model=model, train=train, synth=synth, data_dir=config.data_dir)


def _manifest_path(path: str | Path) -> Path:
    """Accept either a manifest.csv or the directory that contains one."""
    path = Path(path)
    return path / "manifest.csv" if path.is_dir() else path


def _resolve_dataset(config: RunConfig) -> Dataset:
    """Load the configured dataset, rendering the synthetic set there first if
    absent, so that the first run trains on the same 8-bit files as later ones."""
    if config.data_dir is None:
        LOG.info("no data_dir configured, generating the synthetic set in memory")
        return generate_synthetic(config.synth)
    manifest = config.data_dir / "manifest.csv"
    if not manifest.exists():
        LOG.info("no manifest under %s, rendering the synthetic set there", config.data_dir)
        manifest = write_dataset(generate_synthetic(config.synth), config.data_dir)
    LOG.info("loading dataset from %s", manifest)
    return load_manifest(manifest)


def _select_images(dataset: Dataset, split: str) -> np.ndarray:
    """Manifest images, optionally narrowed to one split tag."""
    if split == "all":
        return dataset.images
    return dataset.images[dataset.splits == split]


def _positive(kind: type, name: str):
    """argparse type factory for strictly positive numbers."""

    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text}")
        return value

    return parse


def _cutoffs(text: str) -> tuple[int, ...]:
    """argparse type for --ks: comma-separated positive integers."""
    return tuple(map(_positive(int, "--ks"), text.split(",")))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    out = Path(args.out) if args.out else config.data_dir
    if out is None:
        raise ConfigError("synth: give --out or set data_dir in the config file")
    dataset = generate_synthetic(config.synth)
    manifest = write_dataset(dataset, out)
    LOG.info(
        "wrote %d images (%d database, %d queries) across %d classes",
        len(dataset.labels), len(dataset.train_indices), len(dataset.query_indices),
        dataset.num_classes,
    )
    print(manifest)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    dataset = _resolve_dataset(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / CHECKPOINT_NAME
    if args.resume and checkpoint.exists():
        LOG.info("resuming from %s", checkpoint)
        trainer = AlternatingTrainer.from_checkpoint(checkpoint, dataset)
        # the run keeps the checkpoint's settings, so any other would be silently
        # ignored; model and schedule field names share one config namespace
        ran = {**asdict(config.model), **asdict(config.train)}
        kept = {**asdict(trainer.model_config), **asdict(trainer.train_config)}
        differing = [f"{key} (run {ran[key]!r}, checkpoint {kept[key]!r})"
                     for key in ran if ran[key] != kept[key]]
        if differing:
            raise ConfigError(f"train --resume: settings differ from {checkpoint}: "
                              + "; ".join(differing))
    else:
        trainer = AlternatingTrainer(dataset, config.model, config.train)
    trainer.train(checkpoint_path=checkpoint)
    if args.metrics_out:
        with atomic_write(args.metrics_out, "w") as fh:
            fh.writelines(json.dumps(metrics) + "\n" for metrics in trainer.history)

    # The database ships the optimizer's discrete codes; queries get encoded
    # by the network, so retrieval stays asymmetric end to end.
    save_packed(out_dir / CODES_NAME, pack_codes(trainer.codes))
    save_features(out_dir / FEATURES_NAME, trainer.database_descriptors())
    save_labels(out_dir / LABELS_NAME, dataset.train_labels)
    for name in (CHECKPOINT_NAME, CODES_NAME, FEATURES_NAME, LABELS_NAME):
        print(out_dir / name)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    state = load_checkpoint(args.checkpoint)
    stored_bits = state.params.config.bits
    if args.bits is not None and args.bits != stored_bits:
        raise ContractError(
            f"encode: checkpoint stores {stored_bits}-bit codes, --bits asked for {args.bits}"
        )
    dataset = load_manifest(_manifest_path(args.manifest))
    started = time.perf_counter()
    codes, descriptors = encode_images(state.params, _select_images(dataset, args.split))
    seconds = time.perf_counter() - started
    save_packed(args.out, pack_codes(codes))
    if args.features:
        save_features(args.features, descriptors)
    LOG.info("encoded %d images at %d bits in %.3f s (%.1f images/s)", len(codes),
             stored_bits, seconds, len(codes) / seconds if len(codes) else 0.0)
    print(args.out)
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    packed = load_packed(args.codes)
    labels = load_labels(args.labels) if args.labels else None
    features = load_features(args.features) if args.features else None
    RetrievalIndex(packed, labels, features)  # cross-checks the row counts
    print(f"items    {len(packed)}")
    print(f"bits     {packed.bits}")
    print(f"words    {packed.words.shape[1]} x {packed.words.dtype.name}")
    print(f"memory   {format_bytes(packed.words.nbytes)}")
    if labels is not None:
        print(f"classes  {len(np.unique(labels))}")
    if features is not None:
        print(f"features {features.shape[1]}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    state = load_checkpoint(args.checkpoint)
    packed = load_packed(args.codes)
    if packed.bits != state.params.config.bits:
        raise ContractError(
            f"query: database codes are {packed.bits}-bit but the checkpoint "
            f"produces {state.params.config.bits}-bit codes"
        )
    features = load_features(args.features) if args.features else None
    if features is not None and features.shape[1] != state.params.config.descriptor_dim:
        raise ContractError(
            f"query: feature file has dimension {features.shape[1]}, checkpoint "
            f"descriptors have {state.params.config.descriptor_dim}"
        )
    index = RetrievalIndex(packed, features=features)
    topk = args.topk
    if not 1 <= topk <= len(index):
        raise ContractError(f"query: --topk {topk} outside [1, {len(index)}]")
    if features is None:
        # Hamming ranking only: without stored features there is nothing to
        # re-rank with, so any --topn shortlist is moot, and the search
        # returns the first topk of the (distance, id) order.
        if args.topn is not None:
            LOG.info("no --features given, skipping the re-rank stage")
        topn = topk
    else:
        topn = args.topn if args.topn is not None else topk
        if topn < topk:
            # search returns only the re-ranked shortlist, so it must hold topk rows
            raise ContractError(f"query: --topn {topn} is below --topk {topk}")

    dataset = load_manifest(_manifest_path(args.queries))
    codes, descriptors = encode_images(state.params, _select_images(dataset, args.split))

    results = []
    latencies_ms = []
    for code, feature in zip(codes, descriptors):
        started = time.perf_counter()
        results.append(index.search(code, None if features is None else feature, topn)[:topk])
        latencies_ms.append(1000.0 * (time.perf_counter() - started))
    writer = csv.writer(sys.stdout)
    writer.writerow(["query", "rank", "item"])
    for query_id, order in enumerate(results):
        for rank, item in enumerate(order):
            writer.writerow([query_id, rank, int(item)])
    LOG.info("ranked %d queries against %d items", len(codes), len(index))
    count = len(latencies_ms)
    if count:
        summary = f"search latency over {count} queries: p50={np.median(latencies_ms):.3f} ms"
        if count >= 4 * TAIL_SAMPLES:
            # the highest whole percentile, at most p99, with TAIL_SAMPLES
            # queries beyond it; below 40 queries no percentile is a tail
            tail = min(99, 100 - -(-100 * TAIL_SAMPLES // count))
            summary += f" p{tail}={np.percentile(latencies_ms, tail):.3f} ms"
        LOG.info(summary)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.config:
        config = _load_run_config(args)
        dataset = _resolve_dataset(config)
    elif args.data:
        dataset = load_manifest(_manifest_path(args.data))
    else:
        raise ConfigError("eval: give --data or --config to locate the dataset")

    writer = csv.writer(sys.stdout)
    writer.writerow(["bits", "exchange", "map"] + [f"p@{k}" for k in args.ks] + ["queries"])
    for path in args.checkpoints:
        state = load_checkpoint(path)
        metrics = _evaluate_checkpoint(state.params, state.codes, dataset, args.ks, args.topn)
        writer.writerow(
            [state.params.config.bits, "on" if state.train_config.exchange else "off",
             f"{metrics['map']:.4f}"]
            + [f"{metrics['precision_at'][k]:.4f}" for k in args.ks]
            + [metrics["queries"]]
        )
    return 0


def _evaluate_checkpoint(params, codes: np.ndarray, dataset: Dataset,
                         ks: tuple[int, ...], topn: int | None) -> dict:
    """MAP and precision@k of one model over the dataset's query split."""
    train_labels = dataset.train_labels
    if len(codes) != len(train_labels):
        raise ContractError(
            f"eval: checkpoint stores {len(codes)} database codes but the "
            f"dataset's train-db split has {len(train_labels)} items"
        )
    features = None
    query_features = None
    query_codes, query_descriptors = encode_images(params, dataset.query_images)
    if topn is not None:
        features = encode_images(params, dataset.train_images)[1]
        query_features = query_descriptors
    index = RetrievalIndex(pack_codes(codes), labels=train_labels, features=features)
    return evaluate_queries(index, query_codes, dataset.query_labels,
                            query_features, topn, ks)


def cmd_bench(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.codes:
        codes = unpack_codes(load_packed(args.codes))
        if len(codes) == 0:
            raise ContractError(f"bench: {args.codes} holds no codes")
    else:
        codes = rng.choice([-1.0, 1.0], size=(args.items, args.bits))
    queries = rng.choice([-1.0, 1.0], size=(args.queries, codes.shape[1]))

    result = bench_scan(codes, queries, reps=args.reps)
    packed_memory = format_bytes(result["packed_bytes"])
    float_memory = format_bytes(result["database"] * result["bits"] * 4.0)

    print(f"database {result['database']}  bits {result['bits']}  "
          f"queries {result['queries']}  reps {result['reps']}")
    print(f"{'mode':<8} {'median_s':>12} {'spread_s':>12} {'memory':>10}")
    print(f"{'packed':<8} {result['packed_seconds']:>12.6f} "
          f"{result['packed_spread']:>12.6f} {packed_memory:>10}")
    print(f"{'float32':<8} {result['float_seconds']:>12.6f} "
          f"{result['float_spread']:>12.6f} {float_memory:>10}")
    print(f"speedup  {result['speedup']:.2f}x")

    if args.csv:
        with atomic_write(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["database", "bits", "queries", "reps", "packed_seconds",
                      "packed_spread", "float_seconds", "float_spread", "speedup",
                      "packed_memory"]
            writer.writerow(header)
            writer.writerow([result["database"], result["bits"], result["queries"],
                             result["reps"], f"{result['packed_seconds']:.9f}",
                             f"{result['packed_spread']:.9f}",
                             f"{result['float_seconds']:.9f}",
                             f"{result['float_spread']:.9f}",
                             f"{result['speedup']:.4f}", packed_memory])
        LOG.info("wrote %s", args.csv)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finehash",
        description="Train part-attentive hash codes and search them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    synth = sub.add_parser("synth", help="render the synthetic dataset to disk")
    synth.add_argument("--config", help="run configuration file")
    synth.add_argument("--out", help="output directory (default: the config's data_dir)")
    synth.add_argument("--seed", type=int, help="override the generator seed")
    synth.add_argument("--parts", type=_positive(int, "--parts"),
                       help="override parts per image")
    synth.set_defaults(func=cmd_synth)

    train = sub.add_parser("train", help="run the alternating optimizer")
    train.add_argument("--config", help="run configuration file")
    train.add_argument("--out-dir", default=".",
                       help="where the checkpoint and database files go")
    train.add_argument("--seed", type=int, help="override the training seed")
    train.add_argument("--bits", type=_positive(int, "--bits"), help="override the code length")
    train.add_argument("--parts", type=_positive(int, "--parts"),
                       help="override the attended part count")
    train.add_argument("--no-exchange", action="store_true",
                       help="disable training-time feature exchanging")
    train.add_argument("--resume", action="store_true",
                       help="continue from an existing checkpoint in --out-dir")
    train.add_argument("--metrics-out", metavar="FILE",
                       help="once training ends, write one JSON line per iteration with "
                            "the learning rate, phase losses, codes flipped and phase "
                            "seconds; after --resume it holds only the iterations this "
                            "invocation ran")
    train.set_defaults(func=cmd_train)

    encode = sub.add_parser("encode", help="hash manifest images with a checkpoint")
    encode.add_argument("--checkpoint", required=True, help="trained model file")
    encode.add_argument("--manifest", required=True,
                        help="manifest.csv or a directory containing one")
    encode.add_argument("--out", required=True, help="packed code file to write")
    encode.add_argument("--features", help="also write descriptors to this file")
    encode.add_argument("--bits", type=int,
                        help="expected code length; a mismatch with the checkpoint fails")
    encode.add_argument("--split", choices=("train-db", "query", "all"), default="all",
                        help="encode only this manifest split")
    encode.set_defaults(func=cmd_encode)

    index = sub.add_parser("index", help="validate packed codes and print their stats")
    index.add_argument("--codes", required=True, help="packed code file")
    index.add_argument("--labels", help="database label CSV")
    index.add_argument("--features", help="database descriptor file")
    index.set_defaults(func=cmd_index)

    query = sub.add_parser("query", help="rank database items for query images")
    query.add_argument("--checkpoint", required=True, help="trained model file")
    query.add_argument("--codes", required=True, help="packed database code file")
    query.add_argument("--queries", required=True,
                       help="query manifest.csv or a directory containing one")
    query.add_argument("--features", help="database descriptors for re-ranking")
    query.add_argument("--topk", type=_positive(int, "--topk"), default=10,
                       help="results per query")
    query.add_argument("--topn", type=_positive(int, "--topn"),
                       help="re-rank shortlist size (default: same as --topk)")
    query.add_argument("--split", choices=("train-db", "query", "all"), default="all",
                       help="rank only this manifest split")
    query.set_defaults(func=cmd_query)

    evaluate = sub.add_parser("eval", help="retrieval quality of trained checkpoints")
    evaluate.add_argument("--checkpoints", required=True, nargs="+",
                          help="one report row per checkpoint")
    evaluate.add_argument("--data", help="dataset directory or manifest.csv")
    evaluate.add_argument("--config", help="run configuration locating the dataset")
    evaluate.add_argument("--ks", type=_cutoffs, default="1,5,10",
                          help="precision cutoffs, comma separated")
    evaluate.add_argument("--topn", type=_positive(int, "--topn"),
                          help="re-rank shortlist size; omit for Hamming-only")
    evaluate.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="time the packed scan against float32")
    bench.add_argument("--codes", help="packed code file (default: random codes)")
    bench.add_argument("--items", type=_positive(int, "--items"), default=101000,
                       help="database size for random codes")
    bench.add_argument("--bits", type=_positive(int, "--bits"), default=32,
                       help="code length for random codes")
    bench.add_argument("--queries", type=_positive(int, "--queries"), default=50)
    bench.add_argument("--reps", type=_positive(int, "--reps"), default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", help="also write the table to this CSV file")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        LOG.error("numeric failure: %s", exc)
        return 3
    except FineHashError as exc:
        LOG.error("%s", exc)
        return 2
    except OSError as exc:
        LOG.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
