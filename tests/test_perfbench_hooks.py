"""The benchmark tracer still finds every name it patches in the package.

``perfbench/tracing.py`` imports each traced module and a few public
methods by name.  The tier-1 suite never imports perfbench, so deleting one
of those modules or methods would pass here and break only traced benchmark
runs.  This installs the tracer over the package and uninstalls it again,
without running a workload.
"""

from pathlib import Path

from finehash import retrieval as fr
from finehash import trainer as ft

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
