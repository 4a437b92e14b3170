"""finehash benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload {train,serve,search-1m} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS and OpenMP are pinned to one thread before numpy is
imported.  With ``--trace 0`` the result holds the end-to-end metrics.
With ``--trace 1`` the workload runs twice in this process, untraced and
then traced: the result holds the per-layer metrics of the traced pass,
and the report above it gives the span tree, the self time per layer and
the tracing overhead (traced minus untraced end-to-end values).  Traces
are written under ``.perfbench-out/`` in the checkout.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _import_package():
    """Import finehash from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "finehash" / "__init__.py").is_file():
        raise SystemExit(f"error: no finehash sources under {src}")
    sys.path.insert(0, str(src))
    import finehash

    if Path(finehash.__file__).resolve().parent != (src / "finehash").resolve():
        raise SystemExit(f"error: imported finehash from {finehash.__file__}, not {src}")


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run(workload, kernel, seed, seconds, tracer):
    """One pass; returns the result, its metrics in reference seconds, and
    the same metrics in wall-clock seconds."""
    import clock
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    reference = clock.ReferenceClock(kernel())
    reference.start()
    try:
        result = workload(tracer, seed, seconds, workdir)
    finally:
        reference.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result.info.update(
        requests=len(result.stamps.requests),
        tail_percentile=round(100 * workloads.tail_percentile(len(result.stamps.requests)), 1),
        **reference.summary(),
    )
    return (result, workloads.end_to_end(result, reference),
            workloads.end_to_end(result, clock.WallClock()))


def _print_pass(label: str, result, metrics: dict, wall: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{label} metric {name} = {value:.6g} {units[name]}")
    print(f"{label} wall-clock " + json.dumps({k: round(v, 6) for k, v in wall.items()}))
    print(f"{label} info " + json.dumps(result.info))
    for message in result.tally.messages:
        print(f"{label} FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload, kernel = workloads.WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    units = dict(workloads.END_TO_END)

    untraced, metrics, wall = _run(workload, kernel, args.seed, args.seconds,
                                   tracing.Tracer())
    _print_pass("untraced" if args.trace else "run", untraced, metrics, wall, units)
    results = [untraced]

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install("finehash")
        try:
            traced, traced_metrics, traced_wall = _run(workload, kernel, args.seed,
                                                         args.seconds, tracer)
        finally:
            tracer.uninstall()
        results.append(traced)
        _print_pass("traced", traced, traced_metrics, traced_wall, units)
        overhead = {name: traced_metrics[name] - metrics[name] for name in units}
        layer = tracer.layer_metrics()
        print_report(tracer, layer, overhead, units)
        stem = str(OUT / f"trace-{args.workload}-seed{args.seed}")
        summary = {"env": env, "untraced": metrics, "traced": traced_metrics,
                   "untraced_wall_clock": wall, "traced_wall_clock": traced_wall,
                   "overhead": overhead, "layer_metrics": layer,
                   "layer_self_s": tracer.layer_self_times()}
        for path in tracer.save(stem, summary):
            print(f"trace written to {Path(path).relative_to(ROOT)}")
        metrics = layer
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}

    attempted = sum(r.tally.attempted for r in results)
    failed = sum(r.tally.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def print_report(tracer, metrics: dict, overhead: dict, units: dict) -> None:
    import tracing

    rows = tracer.tree_rows()
    traced_total = sum(row["total_s"] for row in rows if row["parent"] < 0)
    print("span tree (id parent calls total_s self_s name), nodes with >= 0.1% self time:")
    for row in rows:
        if row["self_s"] >= 1e-3 * traced_total:
            print(f"  {row['id']:4d} {row['parent']:4d} {row['calls']:9d} "
                  f"{row['total_s']:9.4f} {row['self_s']:9.4f} {row['name']}")
    print("self time per layer (s):")
    for layer, seconds in sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:11s} {seconds:9.4f}")
    print("per-layer metrics -> end-to-end metric they should move:")
    for name, unit, moves in tracing.LAYER_METRICS:
        print(f"  {name:34s} {metrics[name]:14.6g} {unit:16s} -> {moves}")
    print("tracing overhead (traced - untraced):")
    for name, delta in overhead.items():
        print(f"  {name:14s} {delta:+.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
