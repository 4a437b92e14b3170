"""The benchmark still finds every name it uses in the package.

``perfbench/tracing.py`` imports each traced module and a few public
methods by name, and the workloads import finehash names and read module
attributes such as ``fr.save_features``.  The tier-1 suite never runs
perfbench, so deleting one of those names would pass here and break only
benchmark runs.  One test installs the tracer over the package and
uninstalls it again, without running a workload; another parses
``perfbench/*.py`` and looks every such name up.  Names alone miss the
attributes read off returned objects, such as ``state.anchors.classes``, so
a third runs the benchmark's checkpoint comparison on a small trainer.
"""

import ast
import contextlib
import importlib
import inspect
from pathlib import Path

from finehash import retrieval as fr
from finehash import trainer as ft
from finehash.data import SynthConfig, generate_synthetic
from finehash.model import ModelConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _hooked():
    return (ft.forward_features, fr.coarse_rank, ft.AlternatingTrainer.encode)


def test_tracer_installs_over_the_package_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = _hooked()
    tracer = tracing.Tracer()
    try:
        tracer.install("finehash")
        assert tracer.recording
        assert all(now is not before for now, before in zip(_hooked(), originals))
    finally:
        tracer.uninstall()
    assert all(now is before for now, before in zip(_hooked(), originals))


def _dotted(node: ast.Attribute) -> list[str] | None:
    """['fr', 'RetrievalIndex', 'search'] for ``fr.RetrievalIndex.search``;
    None when the chain starts at anything but a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def test_benchmark_names_exist_in_the_package():
    # the benchmark imports finehash names and reads module attributes such
    # as fr.save_features; deleting one would break every benchmark run
    checked = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("finehash"):
                module = importlib.import_module(node.module)
                for name in node.names:
                    if not hasattr(module, name.name) and hasattr(module, "__path__"):
                        with contextlib.suppress(ImportError):  # a submodule, maybe
                            importlib.import_module(f"{node.module}.{name.name}")
                    assert hasattr(module, name.name), f"{path.name}: {node.module}.{name.name}"
                    aliases[name.asname or name.name] = getattr(module, name.name)
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in aliases or not inspect.ismodule(aliases[chain[0]]):
                continue
            target = aliases[chain[0]]
            for attr in chain[1:]:
                assert hasattr(target, attr), f"{path.name}: {'.'.join(chain)}"
                target = getattr(target, attr)
            checked.append(".".join(chain))
    assert "fr.save_features" in checked and "ft.AlternatingTrainer.run_iteration" in checked


def test_benchmark_checkpoint_comparison_reads_a_saved_trainer(monkeypatch, tmp_path):
    # the train and serve workloads check each checkpoint they write with
    # _same_checkpoint, which reads the weights, codes and anchor bank back
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    dataset = generate_synthetic(SynthConfig(num_classes=3, per_class=6, queries_per_class=2,
                                             image_side=16, parts_per_image=2, patch_size=4))
    model = ModelConfig(parts=2, bits=8, image_side=16, backbone_channels=(6, 8),
                        backbone_pools=(2, 2), refined_channels=8)
    train = ft.TrainConfig(outer_iters=2, epochs_per_iter=1, batch_size=6, samples_per_epoch=12,
                           warmup_fraction=0.0)
    trainer = ft.AlternatingTrainer(dataset, model, train)
    path = tmp_path / "model.fht1"
    for anchors in (False, True):  # iteration 0, then after one exchanging iteration
        assert (trainer.anchors is not None) == anchors
        trainer.save(path)
        assert workloads._same_checkpoint(path, trainer)
        trainer.run_iteration()
    assert not workloads._same_checkpoint(path, trainer)  # one iteration on
