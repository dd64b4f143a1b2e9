"""Parsing delimited rating files into sparse tensors.

Input is delimited UTF-8 text: one record per line, d key columns (user,
product, further attribute axes) and exactly one value column.  External
string ids are remapped to 1-based coordinates in first-seen order
through an :class:`IdMap`, so the mapping is stable across runs given the
same input order.  Values must be strictly positive after the optional
affine transform; zero is reserved for absence, and the tool never
shifts a scale on its own.

Duplicate key tuples are hard errors by default — each cell holds one
rating, and silently aggregating would corrupt the line products the
scaler relies on.  An explicit dedupe policy ("last" or "mean-log",
geometric mean) can be opted into.

The canonical output format is a sorted CSV (rows ascending by flat
index) plus a sidecar id-map file; parse/serialize round-trips are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import DuplicateRecordError, ParseError, RecordError, UnknownIdError
from .sparse_tensor import Index, SparseTensor


@dataclass(frozen=True)
class Schema:
    """Column layout and value handling for a rating file.

    ``key_columns`` name the 0-based columns holding the d coordinate
    ids, in dimension order; ``value_column`` holds the rating.
    ``transform`` is an optional affine pair (a, b) applied as
    a * value + b before the positivity check.
    """

    key_columns: tuple[int, ...] = (0, 1)
    value_column: int = 2
    delimiter: str = ","
    header: bool = False
    transform: tuple[float, float] | None = None

    def __post_init__(self):
        if len(self.key_columns) < 2:
            raise ValueError("at least 2 key columns are required")
        if len(set(self.key_columns)) != len(self.key_columns):
            raise ValueError(f"key columns repeat: {self.key_columns}")
        if self.value_column in self.key_columns:
            raise ValueError("value column collides with a key column")
        if not self.delimiter:
            raise ValueError("delimiter must be non-empty")

    @property
    def d(self) -> int:
        return len(self.key_columns)

    def apply_transform(self, value: float) -> float:
        if self.transform is None:
            return value
        a, b = self.transform
        return a * value + b


class IdMap:
    """Per-dimension bijection between external string ids and coordinates."""

    def __init__(self, d: int):
        self.to_coord: list[dict[str, int]] = [dict() for _ in range(d)]
        self.to_id: list[list[str]] = [[] for _ in range(d)]

    @property
    def d(self) -> int:
        return len(self.to_coord)

    def intern(self, dim: int, external: str) -> int:
        """Coordinate for an id, assigning the next one on first sight."""
        table = self.to_coord[dim]
        coord = table.get(external)
        if coord is None:
            self.to_id[dim].append(external)
            coord = len(self.to_id[dim])
            table[external] = coord
        return coord

    def resolve(self, ids: Iterable[str]) -> Index:
        """External ids (one per dimension) to an index vector."""
        ids = tuple(ids)
        if len(ids) != self.d:
            raise ValueError(f"expected {self.d} ids, got {len(ids)}")
        coords = []
        for dim, external in enumerate(ids):
            coord = self.to_coord[dim].get(external)
            if coord is None:
                raise UnknownIdError(f"unknown id {external!r} in dimension {dim + 1}")
            coords.append(coord)
        return tuple(coords)

    def unresolve(self, idx: Index) -> tuple[str, ...]:
        """Index vector back to external ids."""
        if len(idx) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(idx)}")
        out = []
        for dim, coord in enumerate(idx):
            if not 1 <= coord <= len(self.to_id[dim]):
                raise UnknownIdError(f"coordinate {coord} unmapped in dimension {dim + 1}")
            out.append(self.to_id[dim][coord - 1])
        return tuple(out)

    def extents(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.to_id)


def _iter_lines(source: IO | Iterable[str]) -> Iterable[str]:
    for raw in source:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        yield raw


def parse_ratings(
    source: IO | Iterable[str],
    schema: Schema = Schema(),
    dedupe: str | None = None,
    idmap: IdMap | None = None,
) -> tuple[SparseTensor, IdMap]:
    """Read a delimited rating file into a tensor plus its id map.

    ``dedupe`` is ``None`` (duplicates are errors), ``"last"`` (later
    record wins) or ``"mean-log"`` (geometric mean of all records for the
    cell).

    By default ids are assigned coordinates in first-seen order and the
    extents are the per-dimension id counts.  Passing the sidecar
    ``idmap`` instead resolves ids through it strictly (unknown ids are
    errors, the map is not extended), which makes re-parsing a canonical
    CSV + sidecar pair reproduce the original (tensor, map) exactly.

    Raises
    ------
    ParseError
        Line does not split into enough columns, or a number fails to
        parse.  Carries the 1-based line number.
    RecordError
        Transformed value is not strictly positive.
    DuplicateRecordError
        Repeated key tuple without a dedupe policy; names the later line.
    UnknownIdError
        An id is missing from a caller-provided ``idmap``.
    """
    if dedupe not in (None, "last", "mean-log"):
        raise ValueError(f"unknown dedupe policy {dedupe!r}")
    fixed_map = idmap is not None
    if idmap is None:
        idmap = IdMap(schema.d)
    elif idmap.d != schema.d:
        raise ValueError(
            f"idmap covers {idmap.d} dimensions but the schema has {schema.d} keys"
        )
    cells: dict[Index, float] = {}
    log_acc: dict[Index, list[float]] = {}
    needed = max(max(schema.key_columns), schema.value_column) + 1

    for lineno, line in enumerate(_iter_lines(source), start=1):
        if schema.header and lineno == 1:
            continue
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(schema.delimiter)
        if len(parts) < needed:
            raise ParseError(
                f"line {lineno}: expected at least {needed} columns, got {len(parts)}",
                line=lineno,
            )
        try:
            raw_value = float(parts[schema.value_column])
        except ValueError:
            raise ParseError(
                f"line {lineno}: value {parts[schema.value_column]!r} is not a number",
                line=lineno,
            ) from None
        value = schema.apply_transform(raw_value)
        if not (value > 0 and math.isfinite(value)):
            raise RecordError(
                f"line {lineno}: transformed value {value!r} is not strictly positive "
                "(zero marks absent entries)",
                line=lineno,
            )
        keys = tuple(parts[col].strip() for col in schema.key_columns)
        if fixed_map:
            try:
                idx = idmap.resolve(keys)
            except UnknownIdError as exc:
                raise UnknownIdError(f"line {lineno}: {exc}") from None
        else:
            idx = tuple(idmap.intern(dim, key) for dim, key in enumerate(keys))
        if idx in cells:
            if dedupe is None:
                raise DuplicateRecordError(
                    f"line {lineno}: duplicate rating for key "
                    f"{idmap.unresolve(idx)}",
                    line=lineno,
                )
            if dedupe == "last":
                cells[idx] = value
            else:
                log_acc[idx].append(math.log(value))
        else:
            cells[idx] = value
            if dedupe == "mean-log":
                log_acc[idx] = [math.log(value)]

    if dedupe == "mean-log":
        for idx, logs in log_acc.items():
            if len(logs) > 1:
                cells[idx] = math.exp(sum(logs) / len(logs))
    extents = idmap.extents()
    if not cells:
        raise RecordError("no records parsed", line=None)
    return SparseTensor(extents, cells), idmap


def write_ratings(
    tensor: SparseTensor, idmap: IdMap, target: IO, delimiter: str = ","
) -> None:
    """Write the canonical sorted CSV: keys ascending by flat index.

    Values are written with full round-trip precision, so rewriting the
    parse result reproduces the file bit for bit.
    """
    for idx, value in zip(tensor.coords_array().tolist(), tensor.values_array().tolist()):
        ids = idmap.unresolve(idx)
        target.write(delimiter.join(ids) + delimiter + repr(value) + "\n")


def idmap_to_dict(idmap: IdMap) -> dict:
    return {"dimensions": [list(ids) for ids in idmap.to_id]}


def idmap_from_dict(payload: dict) -> IdMap:
    dims = payload["dimensions"]
    idmap = IdMap(len(dims))
    for dim, ids in enumerate(dims):
        for external in ids:
            idmap.intern(dim, str(external))
    return idmap


def write_idmap(idmap: IdMap, target: IO) -> None:
    json.dump(idmap_to_dict(idmap), target, indent=2, sort_keys=True)
    target.write("\n")


def read_idmap(source: IO) -> IdMap:
    return idmap_from_dict(json.load(source))
