"""Which library calls the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>`` after the ``uctensor`` module
that defines the function, so module self times group by the text before
the first dot.  A function imported by name into another module is
wrapped under both names, because the importer calls its own binding.
"""

from __future__ import annotations

import inspect
import os
import time

from uctensor import canonical_scaling, cli, completion, ingest, lcsp_oracle
from uctensor import properties, support
from uctensor.canonical_scaling import ScalingState
from uctensor.sparse_tensor import SparseTensor

from .spans import Tracer

MODULES = (
    "ingest", "sparse_tensor", "canonical_scaling", "completion", "cli",
    "support", "properties", "lcsp_oracle", "perfbench",
)

PROPERTY_CHECKS = (
    "check_unit_consistency", "check_gauge_uniqueness", "check_scale_fairness",
    "check_consensus_ordering", "find_consensus_sets",
)

_CSA_SIGNATURE = inspect.signature(canonical_scaling.csa)

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("ingest.parse_s", "s"),
    ("ingest.records", "count"),
    ("sparse_tensor.build_s", "s"),
    ("sparse_tensor.order_s", "s"),
    ("sparse_tensor.groups_s", "s"),
    ("canonical_scaling.csa_s", "s"),
    ("canonical_scaling.sweep_ms", "ms"),
    ("canonical_scaling.sweep_share", "ratio"),
    ("canonical_scaling.sweeps", "count"),
    ("canonical_scaling.budget_hits", "count"),
    ("canonical_scaling.residual_max", "log"),
    ("canonical_scaling.max_ratio_per_doubling", "ratio"),
    ("canonical_scaling.sweep_bytes_computed", "B"),
    ("completion.tca_s", "s"),
    ("completion.predict_us", "us"),
    ("completion.predict_calls", "count"),
    ("cli.save_s", "s"),
    ("cli.artifact_bytes", "B"),
    ("cli.load_s", "s"),
    ("support.witness_calls", "count"),
    ("support.witness_s", "s"),
    ("support.witness_hit_ratio", "ratio"),
    ("properties.check_s", "s"),
    ("properties.fits", "count"),
    ("lcsp_oracle.build_s", "s"),
    ("lcsp_oracle.solve_s", "s"),
) + tuple((f"{m}.self_s", "s") for m in MODULES) + (
    ("trace.overhead_s", "s"),
)


# -- hooks: counts that only a call's arguments or result reveal -------------


def _on_csa(tracer: Tracer, args, kwargs, result, error, duration):
    bound = _CSA_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    report = result[2] if error is None else getattr(error, "report", None)
    if report is None:
        return
    tracer.op.fits.append({
        "tensor": bound.arguments["tensor"],
        "k": bound.arguments["k"],
        "sweeps": report.sweeps,
        "budget_hit": report.sweeps >= bound.arguments["max_sweeps"],
        "csa_ns": duration,
        "in_properties": tracer.within("properties."),
    })


def _on_artifact(tracer: Tracer, args, kwargs, result, error, duration):
    if error is None:
        tracer.op.counts["cli.artifact_bytes"] += os.path.getsize(args[0])


def _on_parse(tracer: Tracer, args, kwargs, result, error, duration):
    if error is None:
        tracer.op.counts["ingest.records"] += len(result[0])


def _on_witness(tracer: Tracer, args, kwargs, result, error, duration):
    if result is not None:
        tracer.op.counts["support.witness_hits"] += 1


def instrument(tracer: Tracer) -> None:
    """Register wrappers around each module's public entry points."""
    w = tracer.wrap
    for owner in (ingest, cli):
        w(owner, "parse_ratings", "ingest.parse_ratings", hook=_on_parse)
    w(ingest.IdMap, "resolve", "ingest.resolve", hot=True)
    w(ingest.IdMap, "unresolve", "ingest.unresolve", hot=True)

    w(SparseTensor, "__init__", "sparse_tensor.build")
    for method in ("known_indices", "coords_array", "values_array"):
        w(SparseTensor, method, "sparse_tensor.order", hot=True)
    w(SparseTensor, "groups", "sparse_tensor.groups", hot=True)

    for owner in (canonical_scaling, completion, cli, properties):
        w(owner, "csa", "canonical_scaling.csa", hook=_on_csa)
    for owner in (canonical_scaling, properties):
        w(owner, "apply_scaling", "canonical_scaling.apply_scaling")
    w(canonical_scaling, "residual", "canonical_scaling.residual")

    for owner in (completion, cli, properties):
        w(owner, "tca", "completion.tca")
    w(completion, "predict", "completion.predict", hot=True)

    w(cli, "main", "cli.main")
    w(cli, "load_ratings", "cli.load_ratings")
    w(cli, "save_model", "cli.save_model", hook=_on_artifact)
    w(cli, "load_model", "cli.load_model", hook=_on_artifact)

    w(support, "witness", "support.witness", hot=True, hook=_on_witness)
    w(support, "is_fully_supported", "support.is_fully_supported")

    for name in PROPERTY_CHECKS:
        for owner in (properties, cli):
            w(owner, name, f"properties.{name}")

    for owner in (lcsp_oracle, cli):
        w(owner, "build_constraints", "lcsp_oracle.build_constraints")
        w(owner, "solve_lcsp", "lcsp_oracle.solve_lcsp")
    w(cli, "oracle_complete", "lcsp_oracle.oracle_complete", hot=True)
    w(properties, "gauge_check", "lcsp_oracle.gauge_check")


# -- the sweep probe ----------------------------------------------------------


def time_one_sweep(tensor: SparseTensor, k: int, min_seconds: float = 0.002) -> float:
    """Seconds of one ``sweep()`` on a fresh state, timed from outside.

    After one untimed sweep, sweeps in a loop for at least three sweeps
    and ``min_seconds``, so sub-millisecond sweeps are timed over many.
    """
    state = ScalingState(tensor, k)
    canonical_scaling.sweep(state)
    count = 0
    started = time.perf_counter()
    while True:
        canonical_scaling.sweep(state)
        count += 1
        elapsed = time.perf_counter() - started
        if count >= 3 and elapsed >= min_seconds:
            return elapsed / count


def probe_sweeps(tracer: Tracer, op) -> None:
    """Attach a one-sweep time to each fit of ``op`` and drop its tensor."""
    with tracer.paused():
        for fit in op.fits:
            tensor = fit.pop("tensor", None)
            if tensor is not None:
                fit["sweep_s"] = time_one_sweep(tensor, fit["k"])


# -- per-layer metrics --------------------------------------------------------


def layer_values(ops: list, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics over the traced operations ``ops``.

    Times are means per operation.  Counts come from the first traced
    operation, which runs the same inputs in every run of a seed, so they
    repeat exactly.  ``extra`` supplies the metrics measured outside the
    traced operations (residuals, the linearity gate, computed bytes,
    tracing overhead).
    """
    n = len(ops)
    first = ops[0]

    def mean_s(*names: str) -> float:
        return sum(op.incl_ns.get(nm, 0) for op in ops for nm in names) / n / 1e9

    fits = [f for op in ops for f in op.fits]
    swept = sum(f["sweeps"] * f["sweep_s"] for f in fits)
    sweeps = sum(f["sweeps"] for f in fits)
    csa_s = sum(f["csa_ns"] for f in fits) / 1e9
    predict_calls = sum(op.calls.get("completion.predict", 0) for op in ops)
    witness_calls = first.calls.get("support.witness", 0)

    values = {
        "ingest.parse_s": mean_s("ingest.parse_ratings"),
        "ingest.records": first.counts.get("ingest.records", 0),
        "sparse_tensor.build_s": mean_s("sparse_tensor.build"),
        "sparse_tensor.order_s": mean_s("sparse_tensor.order"),
        "sparse_tensor.groups_s": mean_s("sparse_tensor.groups"),
        "canonical_scaling.csa_s": mean_s("canonical_scaling.csa"),
        "canonical_scaling.sweep_ms": 1e3 * swept / sweeps if sweeps else 0.0,
        "canonical_scaling.sweep_share": swept / csa_s if csa_s else 0.0,
        "canonical_scaling.sweeps": sum(f["sweeps"] for f in first.fits),
        "canonical_scaling.budget_hits": sum(f["budget_hit"] for f in first.fits),
        "completion.tca_s": mean_s("completion.tca"),
        "completion.predict_us": (
            1e6 * mean_s("completion.predict") * n / predict_calls
            if predict_calls else 0.0
        ),
        "completion.predict_calls": first.calls.get("completion.predict", 0),
        "cli.save_s": mean_s("cli.save_model"),
        "cli.artifact_bytes": first.counts.get("cli.artifact_bytes", 0),
        "cli.load_s": mean_s("cli.load_model"),
        "support.witness_calls": witness_calls,
        "support.witness_s": mean_s("support.witness"),
        "support.witness_hit_ratio": (
            first.counts.get("support.witness_hits", 0) / witness_calls
            if witness_calls else 0.0
        ),
        "properties.check_s": mean_s(*(f"properties.{c}" for c in PROPERTY_CHECKS)),
        "properties.fits": sum(f["in_properties"] for f in first.fits),
        "lcsp_oracle.build_s": mean_s("lcsp_oracle.build_constraints"),
        "lcsp_oracle.solve_s": mean_s("lcsp_oracle.solve_lcsp"),
    }
    for module in MODULES:
        values[f"{module}.self_s"] = sum(op.self_ns.get(module, 0) for op in ops) / n / 1e9
    values.update(extra)
    return values
