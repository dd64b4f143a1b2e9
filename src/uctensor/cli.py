"""Command-line drivers: complete, predict, verify, experiment.

Commands speak either human-readable lines or line-delimited JSON records
with stable field names (``--format jsonl``), and every run starts by
echoing its full effective configuration so it can be reproduced.  Exit
codes: 0 success, 1 property or convergence failure, 2 input error.
Commands raise ``IngestError`` or ``CapacityError`` for bad input, and
``main`` alone turns either into one ``error`` record and exit code 2;
the parser raises ``IngestError`` for an argv it refuses, so that ends
the same way.  The experiments live beside the code they exercise, in
``properties`` and ``canonical_scaling``.
"""

from __future__ import annotations

import argparse
import base64
import functools
import hashlib
import json
import math
import sys
import time
from typing import Iterator

import numpy as np

from . import support as _support
from .canonical_scaling import (
    DEFAULT_EPSILON, DEFAULT_MAX_SWEEPS, ConvergenceReport, ScalingFamily, csa, experiment_scaling,
)
from .completion import CompletionModel, predict_many, predicted_blocks, round_to_scale, tca
from .errors import CapacityError, ConvergenceError, IngestError, OrderingSpecError, UnknownIdError
from .ingest import IdMap, Schema, decode_text, idmap_from_dict, idmap_to_dict, parse_ratings
# oracle_complete goes uncalled here: perfbench's traced run wraps it
# under this module's name too
from .lcsp_oracle import build_constraints, oracle_complete, solve_lcsp  # noqa: F401
from .properties import (
    MISSING_CAP, OrderingSpec, PropertyReport, checked_cells, check_consensus_ordering,
    check_gauge_uniqueness, check_oracle_equivalence, check_scale_fairness,
    check_unit_consistency, experiment_consensus, experiment_fairness, find_consensus_sets,
)
from .sparse_tensor import SparseTensor

MODEL_FORMAT = "uctensor-model"
MODEL_VERSION = 4

ALL_PROPERTIES = (
    "full_support",
    "unit_consistency",
    "gauge_uniqueness",
    "scale_fairness",
    "consensus_ordering",
    "oracle_equivalence",
)


def _config_record(
    command: str, fmt: str, k: int | None = None, epsilon: float = DEFAULT_EPSILON,
    max_sweeps: int = DEFAULT_MAX_SWEEPS, seed: int = 0, oracle_cap: int = 500, **extra,
) -> dict:
    """The ``config`` record of one invocation's effective settings, then ``extra``."""
    return {
        "record": "config", "command": command, "k": k, "epsilon": epsilon,
        "max_sweeps": max_sweeps, "seed": seed, "format": fmt, "oracle_cap": oracle_cap,
        "missing_cap": MISSING_CAP, **extra,
    }


class Emitter:
    """Writes records as human lines or JSON lines."""

    def __init__(self, fmt: str, out=None):
        if fmt not in ("human", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        self.fmt = fmt
        self.out = out if out is not None else sys.stdout

    def emit(self, rec: dict) -> None:
        if self.fmt == "jsonl":
            self.out.write(json.dumps(rec, sort_keys=True) + "\n")
            return
        kind = rec.get("record", "info")
        if kind == "config":
            pairs = ", ".join(
                f"{k}={v}" for k, v in rec.items() if k not in ("record", "command")
            )
            self.out.write(f"[{rec.get('command')}] config: {pairs}\n")
        elif kind == "convergence":
            status = "converged" if rec["converged"] else "DID NOT CONVERGE"
            self.out.write(
                f"{status} in {rec['sweeps']} sweeps (final v={rec['final_v']:.3e}, "
                f"stop={rec['stop_reason']}, residual={rec['residual']:.3e})\n"
            )
        elif kind == "property":
            tag = "PASS" if rec["passed"] else "FAIL"
            if rec.get("informational"):
                tag = "INFO"
            line = (
                f"{tag} {rec['name']}: max deviation {rec['max_deviation']:.3e} "
                f"({rec['instances']} instances)"
            )
            if rec["violations"]:
                line += f"; {len(rec['violations'])} violations; first: {rec['violations'][0]}"
            for note in rec.get("notes", ()):
                line += f"\n  note: {note}"
            self.out.write(line + "\n")
        elif kind == "error":
            self.out.write(f"error: {rec['message']}\n")
        elif kind == "warning":
            self.out.write(f"warning: {rec['message']}\n")
        else:
            pairs = ", ".join(f"{k}={v}" for k, v in rec.items() if k != "record")
            self.out.write(f"{kind}: {pairs}\n")


def _prediction_lines(fmt: str, ids, raws, known: bool, rounded) -> Iterator[str]:
    """Prediction records as :class:`Emitter` would write them, one line per cell.

    ``ids`` holds each cell's ids joined: "a,b" for human lines, '"a", "b"'
    (each id JSON-encoded) for JSON lines, whose keys are in sorted order.
    ``known`` holds for every cell; ``rounded`` is None or one value per
    cell.  Each raw value is finite, so its repr is also its JSON text.
    """
    if fmt == "jsonl":
        flag = "true" if known else "false"
        if rounded is None:
            return (
                f'{{"ids": [{i}], "known": {flag}, "raw": {r!r}, "record": "prediction"}}\n'
                for i, r in zip(ids, raws)
            )
        return (
            f'{{"ids": [{i}], "known": {flag}, "raw": {r!r}, "record": "prediction", '
            f'"rounded": {q!r}}}\n'
            for i, r, q in zip(ids, raws, rounded)
        )
    tail = " [known]\n" if known else "\n"
    if rounded is None:
        return (f"{i} -> {r!r}{tail}" for i, r in zip(ids, raws))
    return (f"{i} -> {r!r} (rounded {q}){tail}" for i, r, q in zip(ids, raws, rounded))


# -- schema / input helpers -------------------------------------------------


def schema_from_args(args) -> Schema:
    roles = [r.strip().lower() for r in args.schema.split(",")]
    key_columns = tuple(i for i, r in enumerate(roles) if r == "key")
    value_columns = [i for i, r in enumerate(roles) if r == "value"]
    bad = [r for r in roles if r not in ("key", "value")]
    if bad or len(value_columns) != 1 or len(key_columns) < 2:
        raise IngestError(
            f"--schema must list 'key' columns (>=2) and exactly one 'value', got {args.schema!r}"
        )
    transform = None
    if args.transform:
        try:
            a, b = (float(p) for p in args.transform.split(","))
        except ValueError:
            raise IngestError(
                f"--transform expects 'a,b', got {args.transform!r}"
            ) from None
        transform = (a, b)
    return Schema(
        key_columns=key_columns,
        value_column=value_columns[0],
        delimiter=args.delimiter,
        header=args.header,
        transform=transform,
    )


def load_ratings(path: str, schema: Schema, dedupe: str | None):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:  # a file that cannot be read is bad input too
        raise IngestError(str(exc)) from None
    digest = hashlib.sha256(raw).hexdigest()
    tensor, idmap = parse_ratings(decode_text(raw), schema, dedupe)
    return tensor, idmap, digest


# -- model artifact ---------------------------------------------------------


def save_model(path: str, model: CompletionModel, idmap: IdMap, digest: str) -> None:
    report = model.report
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "k": model.k,
        "extents": list(model.source.extents),
        "epsilon": report.epsilon,
        "max_sweeps": report.max_sweeps,
        "sweeps": report.sweeps,
        "converged": report.converged,
        "v_trace": report.v_trace,
        "stop_reason": report.stop_reason,
        "residual": report.residual,
        "source_digest": digest,
        # base64 of little-endian bytes: the known set as columns in flat-index
        # order, and one vector per group of source.groups(k), by fixed row
        "coords": [_encode(column, _coord_dtype(model.source.extents))
                   for column in model.source.coords_array().T],
        "values": _encode(model.source.values_array(), "<f8"),
        "log_coeffs": [_encode(vec, "<f8") for vec in model.scaling.coeffs],
        "idmap": idmap_to_dict(idmap),
    }
    text = json.dumps(payload, sort_keys=True)  # one call: the C encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path: str) -> tuple[CompletionModel, IdMap, str]:
    """Read a :func:`save_model` artifact; ValueError for any malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    found = (payload.get("format"), payload.get("version")) if isinstance(payload, dict) else None
    if found is None or found[0] != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    if found[1] != MODEL_VERSION:
        raise ValueError(
            f"{path} is a {MODEL_FORMAT} file of version {found[1]!r}, and this "
            f"uctensor reads version {MODEL_VERSION} only; rerun `uctensor complete` "
            "on the ratings to rebuild it"
        )
    try:
        extents = tuple(int(n) for n in payload["extents"])
        # the id map first: its size bounds the extents by the file's
        idmap = idmap_from_dict(payload["idmap"])
        if idmap.extents() != extents:
            raise ValueError(f"id map of extents {idmap.extents()} does not fit extents {extents}")
        tensor = _stored_tensor(extents, payload.pop("coords"), payload.pop("values"))
        k = int(payload["k"])
        groups = tensor.groups(k)  # ValueError for k outside [1, d-1]
        vectors = payload["log_coeffs"]
        if not isinstance(vectors, list):
            raise TypeError(f"log_coeffs must be a list, got {type(vectors).__name__}")
        coeffs = [_decode(vec, "<f8", "coefficients") for vec in vectors]
        if [len(c) for c in coeffs] != [len(g.counts) for g in groups]:
            raise ValueError(
                f"coefficient vectors of lengths {[len(c) for c in coeffs]} do not fit "
                f"the {len(groups)} subtensor groups of sizes {[len(g.counts) for g in groups]}"
            )
        if not all(np.isfinite(c).all() for c in coeffs):
            raise ValueError("coefficient vectors hold non-finite values")
        family = ScalingFamily(k, groups, coeffs)
        if not isinstance(payload["stop_reason"], str):
            raise TypeError(f"stop_reason must be a string, got {payload['stop_reason']!r}")
        report = ConvergenceReport(
            sweeps=int(payload["sweeps"]),
            v_trace=[float(v) for v in payload["v_trace"]],
            epsilon=float(payload["epsilon"]),
            max_sweeps=int(payload["max_sweeps"]),
            converged=bool(payload["converged"]),
            stop_reason=payload["stop_reason"],
            residual=float(payload["residual"]),
        )
        return CompletionModel(tensor, family, report, k), idmap, payload["source_digest"]
    except (TypeError, IndexError, KeyError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path} is malformed: {type(exc).__name__}: {exc}") from None


def _stored_tensor(extents: tuple[int, ...], columns, values) -> SparseTensor:
    """The tensor of an artifact's coordinate columns and values.

    There must be one column per dimension, as long as the values.
    ``from_arrays`` refuses the rest: out-of-bounds or repeated indices,
    and values that are not positive and finite.
    """
    if not isinstance(columns, list) or len(columns) != len(extents):
        raise ValueError(f"coords must hold {len(extents)} columns, one per dimension")
    columns = [_decode(column, _coord_dtype(extents), "index coordinates") for column in columns]
    values = _decode(values, "<f8", "values")
    if any(len(column) != len(values) for column in columns):
        raise ValueError(
            f"coordinate columns of lengths {[len(c) for c in columns]} "
            f"do not match the {len(values)} values"
        )
    return SparseTensor.from_arrays(extents, np.column_stack(columns), values)


def _coord_dtype(extents: tuple[int, ...]) -> str:
    """Stored coordinates' dtype: 4 bytes while every extent fits in them."""
    return "<i4" if max(extents, default=0) < 2**31 else "<i8"


def _encode(array: np.ndarray, dtype: str) -> str:
    """A 1-d array as the base64 text of its ``dtype`` bytes."""
    return base64.b64encode(array.astype(dtype).tobytes()).decode("ascii")


def _decode(text, dtype: str, what: str) -> np.ndarray:
    """An :func:`_encode` field as a native 1-d array: ValueError unless it
    is a string of strict base64 whose bytes are whole ``dtype`` items."""
    if not isinstance(text, str):
        raise TypeError(f"{what} must be a base64 string, got {type(text).__name__}")
    try:  # binascii.Error, a character outside ASCII, or bytes of no whole item
        raw = base64.b64decode(text, validate=True)
        return np.frombuffer(raw, dtype).astype(np.dtype(dtype).newbyteorder("="))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


# -- subcommands ------------------------------------------------------------


def cmd_complete(args, emitter: Emitter) -> int:
    tensor, idmap, digest = load_ratings(args.ratings, schema_from_args(args), args.dedupe)
    k = args.k if args.k is not None else tensor.d - 1
    emitter.emit(_config_record(
        "complete", args.format, k=args.k, epsilon=args.epsilon, max_sweeps=args.max_sweeps,
        ratings=args.ratings, output=args.output, extents=list(tensor.extents),
        known=len(tensor), effective_k=k, source_digest=digest,
    ))
    started = time.perf_counter()
    try:  # --k outside 1..d-1, or fit settings the fit refuses
        model = tca(tensor, k, epsilon=args.epsilon, max_sweeps=args.max_sweeps)
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    elapsed = time.perf_counter() - started
    try:
        save_model(args.output, model, idmap, digest)
    except OSError as exc:
        raise IngestError(f"cannot write model: {exc}") from None
    emitter.emit({
        **_convergence_record(model.report),
        "seconds": round(elapsed, 6), "model": args.output,
    })
    return 0


def _convergence_record(report: ConvergenceReport) -> dict:
    return {
        "record": "convergence", "converged": report.converged, "sweeps": report.sweeps,
        "final_v": report.v_trace[-1], "epsilon": report.epsilon,
        "stop_reason": report.stop_reason, "residual": report.residual,
    }


def cmd_predict(args, emitter: Emitter) -> int:
    try:
        model, idmap, digest = load_model(args.model)
    except (OSError, ValueError) as exc:
        raise IngestError(f"cannot load model: {exc}") from None
    bounds = None
    if args.round:
        try:
            lo, hi = (float(p) for p in args.round.split(","))
            if not lo < hi:
                raise ValueError
        except ValueError:
            raise IngestError(f"--round expects 'lo,hi' with lo < hi, got {args.round!r}") from None
        bounds = (lo, hi)
    emitter.emit(_config_record(
        "predict", args.format, k=model.k, epsilon=model.report.epsilon,
        max_sweeps=model.report.max_sweeps, model=args.model, source_digest=digest, all=args.all,
    ))

    fmt = args.format
    write = emitter.out.write
    # how _prediction_lines wants ids joined
    sep, encode = (", ", json.dumps) if fmt == "jsonl" else (",", str)
    asked = successes = 0
    if args.all:  # block by block, one line (and one write) per cell
        blocks = predicted_blocks(model)  # CapacityError past the box cap
        columns = [np.array([encode(i) for i in ids], dtype=object) for ids in idmap.to_id]
        for block, predictions in blocks:
            raws = predictions.tolist()
            keys = map(sep.join, zip(*(
                col[block[:, dim] - 1].tolist() for dim, col in enumerate(columns)
            )))
            rounded = [round_to_scale(r, *bounds) for r in raws] if bounds else None
            for line in _prediction_lines(fmt, keys, raws, False, rounded):
                write(line)
            asked += len(raws)
        successes = asked
    for q in args.queries:  # explicit queries: one row each, no dict of the known cells
        asked += 1
        ids = tuple(p.strip() for p in q.split(args.delimiter))
        try:
            row = np.array([idmap.resolve(ids)])
            raw = predict_many(model, row).item()
        except (UnknownIdError, ValueError, IndexError) as exc:
            emitter.emit({
                "record": "error", "query": list(ids), "message": str(exc),
            })
            continue
        successes += 1
        rounded = [round_to_scale(raw, *bounds)] if bounds else None
        known = model.source.locate(row).item() >= 0
        for line in _prediction_lines(fmt, [sep.join(map(encode, ids))], [raw], known, rounded):
            write(line)
    if not asked:
        emitter.emit({"record": "warning", "message": "no queries given"})
        return 0
    return 0 if successes else 2


def _parse_consensus_spec(text: str, tensor: SparseTensor, idmap: IdMap) -> OrderingSpec:
    """Parse 'dim:id1,id2,...' into an ordering spec, ids in ascending
    preference; the check reads the slices' common support from the tensor."""
    try:
        dim_part, gamma_part = text.split(":", 1)
        dim = int(dim_part)
    except ValueError:
        raise IngestError(
            f"--consensus-spec expects 'dim:id1,id2,...', got {text!r}"
        ) from None
    if not 1 <= dim <= tensor.d:
        raise IngestError(f"--consensus-spec dimension {dim} out of range")
    gamma = []
    for token in gamma_part.split(","):
        coord = idmap.to_coord[dim - 1].get(token.strip())
        if coord is None:
            raise IngestError(
                f"--consensus-spec id {token.strip()!r} unknown in dimension {dim}"
            )
        if coord in gamma:
            raise IngestError(f"--consensus-spec repeats id {token.strip()!r}")
        gamma.append(coord)
    return OrderingSpec(dim, tuple(gamma))


def cmd_verify(args, emitter: Emitter) -> int:
    tensor, idmap, digest = load_ratings(args.ratings, schema_from_args(args), args.dedupe)
    k = args.k if args.k is not None else tensor.d - 1
    wanted = [p.strip() for p in args.properties.split(",")] if args.properties else list(ALL_PROPERTIES)
    unknown = [p for p in wanted if p not in ALL_PROPERTIES]
    if unknown:
        raise IngestError(f"unknown properties: {unknown}")
    if not 1 <= k <= tensor.d - 1:
        raise IngestError(f"--k {k} is outside 1..{tensor.d - 1} for a {tensor.d}-d tensor")
    declared_specs = [
        _parse_consensus_spec(text, tensor, idmap) for text in (args.consensus_spec or [])
    ]
    emitter.emit(_config_record(
        "verify", args.format, k=args.k, seed=args.seed, oracle_cap=args.oracle_cap,
        ratings=args.ratings, effective_k=k, properties=wanted,
        extents=list(tensor.extents), known=len(tensor), source_digest=digest,
    ))

    # one witness scan, on first use, for full_support and the compared cells
    cap = _support.DEFAULT_SCAN_CAP if "full_support" in wanted else MISSING_CAP
    scanned = functools.cache(lambda: _support.scan(tensor, cap))
    compared = functools.cache(lambda: checked_cells(scanned()))
    # one fit of (tensor, k), on first use, for every check that refits it
    fitted = functools.cache(lambda: csa(tensor, k))
    fully_supported = None
    spec_error = False
    reports: list[PropertyReport] = []
    for name in wanted:
        try:  # a check past a size cap is skipped with a warning
            if name == "full_support":
                failures = _support.unsupported_cells(tensor, scanned())
                fully_supported = not len(failures)
                reports.append(PropertyReport(
                    name="full_support",
                    instances=tensor.box_size - len(tensor),
                    max_deviation=0.0,
                    violations=[],
                    passed=True,
                    informational=True,
                    notes=[
                        f"{len(failures)} unsupported missing indices"
                        + (f"; first {tuple(failures[0].tolist())}" if len(failures) else "")
                    ],
                ))
            elif name == "unit_consistency":
                reports.append(check_unit_consistency(
                    tensor, k, trials=args.trials, seed=args.seed, cells=compared(), fit=fitted(),
                ))
            elif name == "gauge_uniqueness":
                rep = check_gauge_uniqueness(
                    tensor, k, orderings=args.orderings, seed=args.seed, cells=compared(),
                    fit=fitted(),
                )
                if fully_supported is False:
                    rep.informational = True
                    rep.notes.append("tensor lacks full support; result is informational")
                reports.append(rep)
            elif name == "scale_fairness":
                try:
                    reports.append(check_scale_fairness(
                        tensor, dim=1, slice_index=int(tensor.coords_array()[:, 0].min()),
                        factor=args.factor, fit=fitted() if k == tensor.d - 1 else None,
                    ))
                except ValueError as exc:  # a --factor past the float range
                    raise IngestError(str(exc)) from None
            elif name == "consensus_ordering":
                _, family, report = fitted()
                model = CompletionModel(tensor, family, report, k)
                specs = declared_specs or [
                    spec for dim in range(1, tensor.d + 1)
                    for spec in find_consensus_sets(tensor, dim, min_size=2)
                ]
                if not specs:
                    reports.append(PropertyReport(
                        name="consensus_ordering", instances=0, max_deviation=0.0,
                        violations=[], passed=True, tolerance=0.0,
                        notes=["no unanimously ordered slice sets found; vacuous"],
                    ))
                for ospec in specs:
                    try:
                        rep = check_consensus_ordering(model, ospec)
                    except OrderingSpecError as exc:
                        # a bad declaration is an input problem, not a failed property
                        spec_error = True
                        emitter.emit({
                            "record": "error",
                            "message": f"ordering spec invalid ({exc.clause} clause): {exc}",
                            "clause": exc.clause,
                        })
                        continue
                    rep.notes.append(f"dim {ospec.dim}, slices {list(ospec.gamma)}")
                    reports.append(rep)
            elif name == "oracle_equivalence":
                try:  # the direct solve, under both oracle caps
                    if len(tensor) > args.oracle_cap:
                        raise CapacityError(
                            f"{len(tensor)} known entries over cap {args.oracle_cap}"
                        )
                    oracle = solve_lcsp(tensor, k, build_constraints(tensor, k))
                except CapacityError as exc:
                    raise CapacityError(f"oracle checks skipped: {exc}") from None
                reports.append(check_oracle_equivalence(tensor, k, oracle, fitted(), compared()))
        except CapacityError as exc:
            emitter.emit({"record": "warning", "message": str(exc)})

    for rep in reports:
        emitter.emit(rep.as_dict())
    if any(not rep.passed and not rep.informational for rep in reports):
        return 1
    return 2 if spec_error else 0


# -- experiments ------------------------------------------------------------


def _check_experiment_size(args) -> None:
    """Raise ``IngestError`` for a ``--user`` past ``--rows``, or if the named
    experiment's largest matrix has more than ``support.DEFAULT_SCAN_CAP``
    cells; called before anything is allocated."""
    cap = _support.DEFAULT_SCAN_CAP
    if args.name == "consensus":
        size = f"--users {args.users} x (--base-products {args.base_products} + 3)"
        cells = args.users * (args.base_products + 3)
    elif args.name == "fairness":
        if args.user > args.rows:
            raise IngestError(f"--user {args.user} is outside 1..{args.rows}")
        size, cells = f"--rows {args.rows} x --cols {args.cols}", args.rows * args.cols
    else:  # the last shape has rows * cols * 2**doublings cells
        if args.doublings >= cap.bit_length():  # 2**doublings alone passes the cap
            raise IngestError(f"--doublings {args.doublings} grows past the support scan cap {cap}")
        size = f"--rows {args.rows} x --cols {args.cols} x 2^--doublings {args.doublings}"
        cells = args.rows * args.cols << args.doublings
    if cells > cap:
        raise IngestError(f"{size} is {cells} cells, over the support scan cap {cap}")


def cmd_experiment(args, emitter: Emitter) -> int:
    _check_experiment_size(args)
    emitter.emit(_config_record("experiment", args.format, seed=args.seed, name=args.name))
    if args.name == "consensus":
        summary, data = experiment_consensus(
            users=args.users, base_products=args.base_products, seed=args.seed,
        )
    elif args.name == "fairness":
        try:
            summary, data = experiment_fairness(
                rows=args.rows, cols=args.cols, density=args.density, user=args.user,
                factor=args.factor, top_n=args.top_n, seed=args.seed,
            )
        except ValueError as exc:  # a --factor past the float range
            raise IngestError(str(exc)) from None
    else:
        summary, data = experiment_scaling(
            base_rows=args.rows, base_cols=args.cols, doublings=args.doublings,
            sweeps_per_measure=args.sweeps_per_measure, seed=args.seed,
        )
    emitter.emit(summary)
    lines = ["\t".join(str(v) for v in row) for row in data]
    text = "\n".join(lines) + "\n"
    if args.data:
        try:
            with open(args.data, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IngestError(f"cannot write data: {exc}") from None
        emitter.emit({"record": "info", "data_file": args.data, "rows": len(data) - 1})
    elif args.format == "human":
        sys.stdout.write(text)
    else:
        header = data[0]
        for row in data[1:]:
            rec = {"record": "data", "experiment": args.name}
            # NaN is not JSON: a figure with nothing to compare against is null
            rec.update({str(k): None if isinstance(v, float) and math.isnan(v) else v
                        for k, v in zip(header, row)})
            emitter.emit(rec)
    return 0 if summary["passed"] else 1


# -- argument parsing -------------------------------------------------------


def _at_least(least: int) -> tuple:
    return lambda value: value >= least, f"at least {least}"


def _between(least: int, most: int) -> tuple:
    return lambda value: least <= value <= most, f"from {least} to {most}"


_POSITIVE = (lambda value: 0 < value < math.inf, "positive and finite")

# Every numeric flag's bound, by command, as (test, text): main refuses a
# value that fails its test before the command runs or reads a file.  The
# rest need more than the flag: --k is checked against the tensor, and
# complete's --epsilon and --max-sweeps by the fit itself.
FLAG_BOUNDS = {
    "verify": {
        # each trial and each ordering is one more fit of the whole file
        "--trials": _between(1, 1000), "--orderings": _between(1, 1000), "--factor": _POSITIVE,
        "--oracle-cap": _at_least(0), "--seed": _at_least(0),
    },
    "experiment": {  # whichever experiment is named
        "--users": _at_least(2), "--base-products": _at_least(1),
        "--rows": _at_least(1), "--cols": _at_least(1),
        "--density": (lambda value: 0 < value <= 1, "in (0, 1]"),
        "--user": _at_least(1), "--factor": _POSITIVE, "--top-n": _at_least(1),
        "--doublings": _at_least(1), "--sweeps-per-measure": _at_least(1),
        "--seed": _at_least(0),
    },
}


def _check_flags(args) -> None:
    """Raise ``IngestError`` naming the first flag outside its ``FLAG_BOUNDS`` bound."""
    for flag, (within, bound) in FLAG_BOUNDS.get(args.command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if not within(value):
            raise IngestError(f"{flag} must be {bound}, got {value}")


def _delimiter(text: str) -> str:
    """A ``--delimiter`` value: any string but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise ``IngestError``, for ``main`` to report."""

    def error(self, message: str):
        raise IngestError(f"{self.prog}: {message}")


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schema", default="key,key,value",
                   help="comma-separated column roles, e.g. key,key,value")
    p.add_argument("--delimiter", default=",", type=_delimiter,
                   help="field delimiter ('::' accepted)")
    p.add_argument("--header", action="store_true", help="skip the first line")
    p.add_argument("--transform", default=None, metavar="a,b",
                   help="affine value transform a*value+b (result must be positive)")
    p.add_argument("--dedupe", default=None, choices=("last", "mean-log"),
                   help="duplicate-key policy; default is to error")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None,
                   help="subtensor dimensionality (default d-1)")
    p.add_argument("--format", default="human", choices=("human", "jsonl"))


@functools.cache  # built once per process: building it costs more than most parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uctensor",
        description="Unit-consistent completion of sparse positive rating tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="fit a completion model from a ratings file")
    p.add_argument("ratings")
    p.add_argument("-o", "--output", default="model.json")
    _add_schema_flags(p)
    _add_config_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS,
                   help="cap on sweeps or CG iterations per fit")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("predict", help="query a saved model")
    p.add_argument("model")
    p.add_argument("queries", nargs="*",
                   help="queries as delimiter-joined external ids, e.g. u2,p2")
    p.add_argument("--all", action="store_true", help="predict every missing cell")
    p.add_argument("--delimiter", default=",", type=_delimiter)
    p.add_argument("--round", default=None, metavar="lo,hi",
                   help="also emit the prediction rounded and clamped to [lo, hi]")
    p.add_argument("--format", default="human", choices=("human", "jsonl"))
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run property checks against a ratings file")
    p.add_argument("ratings")
    p.add_argument("--properties", default=None,
                   help=f"comma-separated subset of: {','.join(ALL_PROPERTIES)}")
    bounds = FLAG_BOUNDS["verify"]
    p.add_argument("--trials", type=int, default=20,
                   help=f"random scaling trials for unit consistency, {bounds['--trials'][1]}")
    p.add_argument("--orderings", type=int, default=5,
                   help=f"random sweep orders for gauge uniqueness, {bounds['--orderings'][1]}")
    p.add_argument("--factor", type=float, default=1.25,
                   help="scale factor for the fairness check")
    p.add_argument("--oracle-cap", type=int, default=500,
                   help="max known entries for the direct-solve cross-check")
    p.add_argument("--consensus-spec", action="append", metavar="dim:id1,id2,...",
                   help="declare a unanimously ordered slice set to check "
                        "(ids in ascending preference); repeatable")
    _add_schema_flags(p)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a synthetic experiment")
    p.add_argument("name", choices=("consensus", "fairness", "scaling"))
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--base-products", type=int, default=40)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--user", type=int, default=1)
    p.add_argument("--factor", type=float, default=1.25)
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--doublings", type=int, default=5)
    p.add_argument("--sweeps-per-measure", type=int, default=8,
                   help="fewest sweeps per timed repeat; each also runs >= 10 ms")
    p.add_argument("--data", default=None, help="write the plot-ready table here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="human", choices=("human", "jsonl"))
    p.set_defaults(func=cmd_experiment)

    return parser


def _asked_format(argv: list[str]) -> str:
    """The format ``argv`` asks for, read without the parser: "jsonl" if
    its last ``--format`` names it, "human" otherwise."""
    fmt = "human"
    for flag, value in zip(argv, [*argv[1:], ""]):
        if flag == "--format":
            fmt = value
        elif flag.startswith("--format="):
            fmt = flag[len("--format="):]
    return "jsonl" if fmt == "jsonl" else "human"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    emitter = Emitter(_asked_format(argv))  # until the parser has read the argv
    try:
        args = build_parser().parse_args(argv)
        emitter = Emitter(args.format)
        if args.command == "experiment":
            if args.rows is None:
                args.rows = 30 if args.name == "fairness" else 32
            if args.cols is None:
                args.cols = 20 if args.name == "fairness" else 32
        _check_flags(args)
        return args.func(args, emitter)
    except (IngestError, CapacityError) as exc:  # bad input, or input past a size cap
        emitter.emit({"record": "error", "message": str(exc)})
        return 2
    except ConvergenceError as exc:  # a fit that ran its budget out, in any command
        emitter.emit(_convergence_record(exc.report))
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
