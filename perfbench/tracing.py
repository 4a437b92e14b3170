"""Span tracing of finehash from outside the package.

``Tracer.install`` wraps every public function of the traced modules and a
few public methods, patching each name in the namespace of every finehash
module that holds it (``finehash.trainer.forward_features``,
``finehash.autodiff.conv2d``, ...), so calls resolve to the wrapper no
matter which module makes them.  ``uninstall`` puts the originals back.

A span is (id, parent id, call-path node, start, end).  Spans are kept in
flat arrays in memory and written out by ``save``.  While a span is open
the tracer also accumulates, per call-path node, the call count, the total
time, the strict self time (duration minus all child spans) and the layer
self time (duration minus the child spans that belong to other layers).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import logging
import os
import re
import time
from array import array
from contextlib import contextmanager

import numpy as np

# the traced layers; pq, config and cli are on no workload's path, but the
# names they import from the layers are patched too
LAYERS = ("trainer", "model", "autodiff", "losses", "anchors", "retrieval", "checkpoint", "data")
ALL_MODULES = LAYERS + ("pq", "config", "cli")
# public methods worth a span of their own
METHODS = {
    "trainer": {"AlternatingTrainer": ("__init__", "run_iteration", "train", "save",
                                       "encode", "encode_descriptors")},
    "retrieval": {"RetrievalIndex": ("search",)},
    "autodiff": {"Tape": ("backward",)},
}
# called inside every autodiff op; a span for it would double the span count
SKIP = {"autodiff": ("active_tape",)}
# public autodiff functions that are not differentiable ops
AUTODIFF_NON_OPS = ("tensor", "parameter", "sign_pm1", "active_tape")
TRAINER_SPANS = ("trainer.AlternatingTrainer.__init__", "trainer.AlternatingTrainer.run_iteration")
PHASE_LINE = re.compile(r"phase=(\w+) .*seconds=([0-9.]+)")

# (name, unit, end-to-end metric it should move @ workload)
LAYER_METRICS = (
    ("trainer.run_iteration.s", "s", "build_s @ train"),
    ("trainer.phase.theta.s", "s", "build_s @ train"),
    ("trainer.phase.v.s", "s", "build_s @ train"),
    ("trainer.phase.anchor.s", "s", "build_s @ train"),
    ("trainer.encode_images.images", "count", "build_s @ train; query_p50_ms @ serve"),
    ("trainer.encode_images.s", "s", "build_s @ train"),
    ("trainer.sweep_codes.s", "s", "build_s @ train"),
    ("trainer.db_passes", "count", "build_s @ train"),
    ("trainer.db_passes_redundant", "count", "build_s @ train"),
    ("trainer.codes_flipped", "count", "build_s, map @ train"),
    ("model.forward_features.calls", "count", "build_s @ train; query_p50_ms @ serve"),
    ("model.forward_features.s", "s", "build_s @ train; query_p50_ms @ serve"),
    ("model.hash_layer.calls", "count", "build_s @ train; query_p50_ms @ serve"),
    ("model.hash_layer.s", "s", "build_s @ train; query_p50_ms @ serve"),
    ("autodiff.ops", "count", "build_s @ train; query_p50_ms @ serve"),
    ("autodiff.conv2d.s", "s", "build_s @ train; query_p50_ms @ serve"),
    ("autodiff.matmul.s", "s", "build_s @ train; query_p50_ms @ serve"),
    ("autodiff.backward.calls", "count", "build_s @ train"),
    ("autodiff.backward.s", "s", "build_s @ train"),
    ("autodiff.tape_records", "count", "build_s @ train"),
    ("losses.total_objective.calls", "count", "build_s @ train"),
    ("losses.total_objective.s", "s", "build_s @ train"),
    ("anchors.compute_anchor_bank.s", "s", "build_s @ train"),
    ("anchors.exchange_features.calls", "count", "build_s @ train"),
    ("anchors.exchange_features.s", "s", "build_s @ train"),
    ("retrieval.hamming_distances.s", "s", "query_p50_ms, eval_s @ search-1m"),
    ("retrieval.coarse_rank.s", "s", "query_p50_ms, eval_s @ search-1m"),
    ("retrieval.rerank.s", "s", "query_p50_ms @ search-1m"),
    ("retrieval.evaluate_queries.s", "s", "eval_s @ search-1m"),
    ("retrieval.pack_codes.s", "s", "build_s @ search-1m"),
    ("retrieval.scan_bytes", "computed_B/query", "query_p50_ms, eval_s @ search-1m"),
    ("checkpoint.save_arrays.calls", "count", "build_s @ train"),
    ("checkpoint.save_arrays.s", "s", "build_s @ train"),
    ("checkpoint.save_arrays.bytes", "B", "build_s @ train"),
    ("checkpoint.load_arrays.s", "s", "build_s @ serve"),
    ("data.generate_synthetic.s", "s", "setup_s @ train, serve"),
    ("data.write_dataset.s", "s", "setup_s @ train, serve"),
    ("data.load_manifest.s", "s", "setup_s @ train, serve"),
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _weights_fingerprint(params) -> bytes:
    """Digest of every weight except the hash bias, which the trainer's
    own bias refresh rewrites right after each full-database encode."""
    digest = hashlib.blake2b(digest_size=16)
    for name, tens in sorted(params.named().items()):
        if name != "hash.bias":
            digest.update(tens.data.tobytes())
    return digest.digest()


class _PhaseLines(logging.Handler):
    """Sums the trainer's own ``phase=<name> ... seconds=<s>`` log lines."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.seconds: dict[str, float] = {}
        self.parsed = 0

    def emit(self, record):
        match = PHASE_LINE.search(record.getMessage())
        if match:
            phase, seconds = match.group(1), float(match.group(2))
            self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
            self.parsed += 1


class Tracer:
    """In-memory span recorder plus the per-layer counters."""

    def __init__(self):
        self.recording = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        # spans, one entry per closed span
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_node = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # call-path tree: node -> (parent node, name) and aggregates
        self._node_index: dict[tuple[int, str], int] = {}
        self.node_parent: list[int] = []
        self.node_name: list[str] = []
        self.node_calls: list[int] = []
        self.node_total: list[float] = []
        self.node_self: list[float] = []
        self.node_layer_self: list[float] = []
        self.counters: dict[str, float] = {}
        self.flips_per_iteration: list[int] = []
        self.scan_bytes: list[int] = []
        self._last_pass: bytes | None = None
        self._ops: set[str] = set()
        self._phases = _PhaseLines()
        self._trainer_logger = None
        self._trainer_level = logging.NOTSET

    # -- spans -------------------------------------------------------------

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self._node_index.get(key)
        if node is None:
            node = self._node_index[key] = len(self.node_name)
            self.node_parent.append(parent)
            self.node_name.append(name)
            self.node_calls.append(0)
            self.node_total.append(0.0)
            self.node_self.append(0.0)
            self.node_layer_self.append(0.0)
        return node

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        node = self._node(parent[1] if parent else -1, name)
        span = self._next_id
        self._next_id += 1
        # [span id, node, layer, start, child time, time in other layers]
        self._stack.append([span, node, _layer(name), time.perf_counter(), 0.0, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span, node, layer, start, child, foreign = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.span_id.append(span)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_node.append(node)
        self.span_start.append(start)
        self.span_end.append(end)
        self.node_calls[node] += 1
        self.node_total[node] += duration
        self.node_self[node] += duration - child
        self.node_layer_self[node] += duration - foreign
        if parent:
            parent[4] += duration
            parent[5] += duration if parent[2] != layer else foreign

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code; a no-op while not recording."""
        if not self.recording:
            yield
            return
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def paused(self):
        """Run reference computations without spans or counters."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _inside(self, names: tuple[str, ...]) -> bool:
        return any(self.node_name[frame[1]] in names for frame in self._stack)

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- counters at span boundaries ---------------------------------------

    def _before(self, name: str, args):
        if name == "trainer.AlternatingTrainer.run_iteration":
            return args[0].codes.copy()
        if name == "trainer.AlternatingTrainer.__init__":
            self._last_pass = None  # redundancy is counted within one trainer
        elif name == "autodiff.Tape.backward":
            self._count("autodiff.tape_records", len(args[0]))
        elif name == "trainer.encode_images":
            self._count("trainer.encode_images.images", len(args[1]))
            if self._inside(TRAINER_SPANS):
                fingerprint = _weights_fingerprint(args[0])
                self._count("trainer.db_passes")
                self._count("trainer.db_passes_redundant", fingerprint == self._last_pass)
                self._last_pass = fingerprint
        elif name == "retrieval.hamming_distances":
            self.scan_bytes.append(args[0].words.nbytes)
        elif name in self._ops:
            self._count("autodiff.ops")
        return None

    def _after(self, name: str, args, state) -> None:
        if name == "trainer.AlternatingTrainer.run_iteration":
            changed = int(np.count_nonzero(np.any(state != args[0].codes, axis=1)))
            self.flips_per_iteration.append(changed)
            self._count("trainer.codes_flipped", changed)
        elif name == "checkpoint.save_arrays":
            self._count("checkpoint.save_arrays.bytes", os.path.getsize(args[0]))

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._before(name, args)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer._after(name, args, state)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self, package) -> None:
        modules = {name: importlib.import_module(f"{package}.{name}") for name in ALL_MODULES}
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                if (not inspect.isfunction(fn) or attr.startswith("_")
                        or fn.__module__ != module.__name__ or attr in SKIP.get(layer, ())):
                    continue
                if layer == "autodiff" and attr not in AUTODIFF_NON_OPS:
                    self._ops.add(f"autodiff.{attr}")
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for holder in modules.values():
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held, value))
                            setattr(holder, held, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, f"{layer}.{cls_name}.{method}"))
        self._trainer_logger = logging.getLogger(f"{package}.trainer")
        self._trainer_level = self._trainer_logger.level
        self._trainer_logger.setLevel(logging.INFO)
        self._trainer_logger.addHandler(self._phases)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        if self._trainer_logger is not None:
            self._trainer_logger.removeHandler(self._phases)
            self._trainer_logger.setLevel(self._trainer_level)

    # -- results -----------------------------------------------------------

    def _sum(self, field: list, name: str, parent: str | None = None,
             not_parent: str | None = None) -> float:
        total = 0.0
        for node, node_name in enumerate(self.node_name):
            if node_name != name:
                continue
            up = self.node_parent[node]
            up_name = self.node_name[up] if up >= 0 else None
            if (parent is None or up_name == parent) and (not_parent is None or up_name != not_parent):
                total += field[node]
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS; `.s` is the layer self time."""
        runs = self._sum(self.node_calls, "trainer.AlternatingTrainer.run_iteration")
        if runs and not self._phases.parsed:
            raise RuntimeError("traced run: no trainer 'phase=... seconds=...' log line parsed")
        calls, layer_self = self.node_calls, self.node_layer_self
        coarse = "retrieval.coarse_rank"
        values = {
            "trainer.run_iteration.s": self._sum(layer_self, "trainer.AlternatingTrainer.run_iteration"),
            "trainer.encode_images.s": self._sum(layer_self, "trainer.encode_images"),
            "trainer.sweep_codes.s": self._sum(layer_self, "trainer.sweep_codes"),
            "model.forward_features.calls": self._sum(calls, "model.forward_features"),
            "model.forward_features.s": self._sum(layer_self, "model.forward_features"),
            "model.hash_layer.calls": self._sum(calls, "model.hash_layer"),
            "model.hash_layer.s": self._sum(layer_self, "model.hash_layer"),
            "autodiff.conv2d.s": self._sum(layer_self, "autodiff.conv2d"),
            "autodiff.matmul.s": self._sum(layer_self, "autodiff.matmul"),
            "autodiff.backward.calls": self._sum(calls, "autodiff.Tape.backward"),
            "autodiff.backward.s": self._sum(layer_self, "autodiff.Tape.backward"),
            "losses.total_objective.calls": self._sum(calls, "losses.total_objective"),
            "losses.total_objective.s": self._sum(layer_self, "losses.total_objective"),
            "anchors.compute_anchor_bank.s": self._sum(layer_self, "anchors.compute_anchor_bank"),
            "anchors.exchange_features.calls": self._sum(calls, "anchors.exchange_features"),
            "anchors.exchange_features.s": self._sum(layer_self, "anchors.exchange_features"),
            "retrieval.hamming_distances.s": self._sum(self.node_self, "retrieval.hamming_distances"),
            # sort and query packing: the scan under it has its own metric
            coarse + ".s": self._sum(layer_self, coarse)
            - self._sum(self.node_total, "retrieval.hamming_distances", parent=coarse),
            "retrieval.rerank.s": self._sum(layer_self, "retrieval.rerank"),
            # scoring only: the ranking under it has its own metrics
            "retrieval.evaluate_queries.s": self._sum(layer_self, "retrieval.evaluate_queries")
            - self._sum(self.node_total, "retrieval.RetrievalIndex.search",
                        parent="retrieval.evaluate_queries"),
            # database packing only; query packing counts under coarse_rank
            "retrieval.pack_codes.s": self._sum(self.node_total, "retrieval.pack_codes",
                                                not_parent=coarse),
            "retrieval.scan_bytes": float(np.mean(self.scan_bytes)) if self.scan_bytes else 0.0,
            "checkpoint.save_arrays.calls": self._sum(calls, "checkpoint.save_arrays"),
            "checkpoint.save_arrays.s": self._sum(layer_self, "checkpoint.save_arrays"),
            "checkpoint.load_arrays.s": self._sum(layer_self, "checkpoint.load_arrays"),
            "data.generate_synthetic.s": self._sum(layer_self, "data.generate_synthetic"),
            "data.write_dataset.s": self._sum(layer_self, "data.write_dataset"),
            "data.load_manifest.s": self._sum(layer_self, "data.load_manifest"),
        }
        for phase in ("theta", "v", "anchor"):
            values[f"trainer.phase.{phase}.s"] = self._phases.seconds.get(phase, 0.0)
        for name in ("trainer.encode_images.images", "trainer.db_passes",
                     "trainer.db_passes_redundant", "trainer.codes_flipped", "autodiff.ops",
                     "autodiff.tape_records", "checkpoint.save_arrays.bytes"):
            values[name] = float(self.counters.get(name, 0))
        return {name: values[name] for name, _, _ in LAYER_METRICS}

    def layer_self_times(self) -> dict[str, float]:
        """Strict self time summed per layer; these partition traced time."""
        totals: dict[str, float] = {}
        for node, name in enumerate(self.node_name):
            totals[_layer(name)] = totals.get(_layer(name), 0.0) + self.node_self[node]
        return totals

    def tree_rows(self) -> list[dict]:
        """Call-path tree: one row per node, with its parent node id."""
        return [
            {"id": node, "parent": self.node_parent[node], "name": self.node_name[node],
             "calls": self.node_calls[node], "total_s": self.node_total[node],
             "self_s": self.node_self[node]}
            for node in range(len(self.node_name))
        ]

    def save(self, stem: str, summary: dict) -> list[str]:
        """Write the spans (npz) and the summary with the tree (json)."""
        spans = stem + "-spans.npz"
        np.savez(spans, id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 node=np.frombuffer(self.span_node, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 node_name=np.array(self.node_name), node_parent=np.array(self.node_parent))
        report = stem + "-summary.json"
        with open(report, "w") as fh:
            json.dump(dict(summary, tree=self.tree_rows(),
                           codes_flipped_per_iteration=self.flips_per_iteration), fh, indent=1)
        return [spans, report]
