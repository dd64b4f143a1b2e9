"""Seeded benchmark of uctensor: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-powerlaw --seed 1 --seconds 20 --trace 0

The untraced run (``--trace 0``) sets the workload up several times,
then repeats its operation for about ``--seconds`` seconds and reports
the end-to-end metrics.  The traced run (``--trace 1``) spends half the
time untraced and half with spans around the library's public functions,
reports the per-layer metrics, runs the linearity gate
(``cli.experiment_scaling``) and writes its spans under
``.perfbench/traces/``.  Both runs check every operation's outputs.

Standard output carries an ``environment`` record, a ``report`` record
with the workload's own figures, and as its last line the result:
``{"correct", "attempted", "failed", "metrics"}``.  When every operation
raises, the result says ``correct: false`` and leaves out the metrics
that need a timed operation.  Without the library sources under ``src/``
the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One client on one core: BLAS thread pools (pinv and matmul in the LCSP
# oracle) would otherwise spin on a shared core and time the scheduler.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (3, 50)  # fewest and most set-ups per run ...
SETUP_SECONDS = 1.0  # ... repeating until they add up to this
MIN_OPS = 3  # an untraced run times at least this many operations
LINEARITY_BOUND = 2.5  # cli.experiment_scaling's own pass mark


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "uctensor" / "__init__.py").is_file():
        _fail(f"no library sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import uctensor

    if Path(uctensor.__file__).resolve().parent != (src / "uctensor").resolve():
        _fail(f"imported uctensor from {uctensor.__file__}, not {src}")


def _cache_bytes() -> dict:
    """L2 and L3 sizes of cpu0, read from sysfs; None where unreadable."""
    sizes = {"l2_bytes": None, "l3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if level in ("2", "3"):
            sizes[f"l{level}_bytes"] = value
    return sizes


def _bandwidth_note(working: int, llc: int | None) -> str:
    if llc is None:
        return "last-level cache size unknown; this benchmark makes no memory-bandwidth claim"
    where = "inside" if working < llc else "larger than"
    return (f"computed working set {working} B is {where} the {llc >> 20} MiB "
            "last-level cache; this benchmark makes no memory-bandwidth claim")


def _median_seconds(outcomes) -> float | None:
    """Median seconds of the operations that did not raise; None if all did."""
    timed = [o.seconds for o in outcomes if o.seconds == o.seconds]
    return statistics.median(timed) if timed else None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import numpy as np

    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Scope, measure, sweep_bytes
    from uctensor import cli

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[0] or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_REPEATS[1]):
            gc.collect()
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
        workload.prepare_checks()
        gc.collect()
        gc.freeze()  # keep the inputs out of the collector's scans during timing

        entries, ids = workload.largest_fit()
        moved, working = sweep_bytes(entries, ids)
        caches = _cache_bytes()
        print(json.dumps({
            "record": "environment",
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, **caches,
            "inputs": workload.sizes(),
            "canonical_scaling.sweep_bytes_computed": {
                "value": moved, "unit": "B", "computed": True,
                "working_set_bytes": working, "entries": entries, "subtensors": ids,
            },
            "bandwidth": _bandwidth_note(working, caches["l3_bytes"]),
        }), flush=True)

        if args.trace:
            half = args.seconds / 2
            outcomes = measure(workload, half, Scope(), 1)
            untraced_s = _median_seconds(outcomes)
            tracer = Tracer()
            layers.instrument(tracer)
            with tracer.installed():
                traced = measure(workload, half, Scope(tracer), 1,
                                  lambda: layers.probe_sweeps(tracer, tracer.ops[-1]))
            linearity, _ = cli.experiment_scaling()
            ratio = linearity["max_ratio_per_doubling"]
            traced_s = _median_seconds(traced)
            extra = {
                "canonical_scaling.residual_max": workload.residual_max,
                "canonical_scaling.max_ratio_per_doubling": ratio,
                "canonical_scaling.sweep_bytes_computed": moved,
                "trace.overhead_s": None if None in (traced_s, untraced_s)
                else traced_s - untraced_s,
            }
            values = layers.layer_values(tracer.ops, extra)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.PER_LAYER if values[name] is not None}
            gate_failed = int(ratio > LINEARITY_BOUND)
            if gate_failed:
                print(f"perfbench: linearity gate: {ratio:.3f} per doubling is above "
                      f"{LINEARITY_BOUND}", file=sys.stderr)
            _write_trace(tracer, args, metrics)
        else:
            outcomes = measure(workload, args.seconds, Scope(), MIN_OPS)
            op_s = _median_seconds(outcomes)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                **({"op_s": {"value": op_s, "unit": "s"}} if op_s is not None else {}),
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
            traced, gate_failed = [], 0

        # the report's figures come from untraced operations only
        timed = [o for o in outcomes if o.seconds == o.seconds]
        figures = workload.report(timed) if timed else {}
        outcomes += traced
        attempted = sum(o.attempted for o in outcomes) + args.trace
        failed = sum(o.failed for o in outcomes) + gate_failed
        wrong = [w for o in outcomes for w in o.wrong]
        for message in wrong[:5]:
            print(f"perfbench: wrong output: {message}", file=sys.stderr)
        figures["failed_ratio"] = (failed / attempted, "ratio")
        figures["operations"] = (len(timed), "count")
        print(json.dumps({
            "record": "report", "workload": args.workload, "seed": args.seed,
            "setup_s_each": setup_times,
            "op_s_each": [o.seconds for o in timed],
            "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        }))
        print(json.dumps({
            "correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_trace(tracer, args, metrics: dict) -> None:
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    ops = [{
        "calls": dict(op.calls),
        "inclusive_ns": dict(op.incl_ns),
        "self_ns": dict(op.self_ns),
        "counts": dict(op.counts),
        "fits": op.fits,
    } for op in tracer.ops]
    path = out / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.as_dict(), "operations": ops, "metrics": metrics}, fh)


if __name__ == "__main__":
    sys.exit(main())
