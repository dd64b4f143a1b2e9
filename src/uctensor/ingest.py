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

Parsing takes the whole text at once.  A regular file, where every
record has the same column count, every value parses and is positive
after the transform, every id is known and no key repeats, is read in
a few passes over whole columns: one split into lines, one flat split
of the fields, ``float`` over the value column, ``str.strip`` and
first-seen interning over each key column, and
:meth:`SparseTensor.from_arrays` for the tensor.  Any irregular record
sends the same text through the line-by-line loop, which is the one
place that raises a record's error, naming its line, and that applies a
dedupe policy; so errors and dedupe results do not depend on the path.

The canonical output format is a sorted CSV (rows ascending by flat
index) plus a sidecar id-map file; parse/serialize round-trips are exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

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

    @property
    def needed(self) -> int:
        """Fewest columns a record may have."""
        return max(max(self.key_columns), self.value_column) + 1

    def apply_transform(self, value: float) -> float:
        if self.transform is None:
            return value
        a, b = self.transform
        return a * value + b


_lookup = dict.__getitem__  # looked up once: per call, it cost resolve about 7%


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
        """External ids (one per dimension) to an index vector.

        Raises TypeError for a bare string, whose characters would pass
        for ids, ValueError for the wrong number of ids, and
        UnknownIdError, naming the dimension, for an id not in the map.
        """
        if type(ids) is not tuple:
            if isinstance(ids, str):
                raise TypeError(f"expected one id per dimension, got the string {ids!r}")
            ids = tuple(ids)
        tables = self.to_coord
        if len(ids) != len(tables):
            raise ValueError(f"expected {len(tables)} ids, got {len(ids)}")
        try:
            return tuple(map(_lookup, tables, ids))
        except KeyError:
            dim = next(dim for dim, (table, external) in enumerate(zip(tables, ids))
                       if external not in table)
            raise UnknownIdError(f"unknown id {ids[dim]!r} in dimension {dim + 1}") from None

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


def decode_text(raw: bytes) -> str:
    """UTF-8 text of a file's bytes, without a leading byte-order mark.

    Raises
    ------
    ParseError
        The bytes are not UTF-8; names the line and byte offset of the
        first bad byte.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"line {lineno}: byte 0x{raw[exc.start]:02x} at offset {exc.start} "
            "is not valid UTF-8",
            line=lineno,
        ) from None
    return text.removeprefix("\ufeff")


def _read_text(source: str | bytes | IO) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        return decode_text(source)
    if not isinstance(source, str):
        raise TypeError(f"expected str, bytes or a file object, got {type(source).__name__}")
    return source


def parse_ratings(
    source: str | bytes | IO,
    schema: Schema = Schema(),
    dedupe: str | None = None,
    idmap: IdMap | None = None,
) -> tuple[SparseTensor, IdMap]:
    """Read a delimited rating file into a tensor plus its id map.

    ``source`` is the file's text, its bytes (UTF-8, an optional leading
    byte-order mark dropped) or a file object to read whole.  Lines end
    at ``"\n"`` only; trailing ``"\r"`` is dropped.

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
        Line does not split into enough columns, a number fails to
        parse, or bytes are not UTF-8.  Carries the 1-based line number.
    RecordError
        Transformed value is not strictly positive.
    DuplicateRecordError
        Repeated key tuple without a dedupe policy; names the later line.
    UnknownIdError
        An id is missing from a caller-provided ``idmap``.
    TypeError
        ``source`` is not text, bytes or a file object.
    """
    if dedupe not in (None, "last", "mean-log"):
        raise ValueError(f"unknown dedupe policy {dedupe!r}")
    if idmap is not None and idmap.d != schema.d:
        raise ValueError(
            f"idmap covers {idmap.d} dimensions but the schema has {schema.d} keys"
        )
    text = _read_text(source)
    return _parse_regular(text, schema, idmap) or _parse_lines(
        text.split("\n"), schema, dedupe, idmap
    )


def _parse_regular(
    text: str, schema: Schema, idmap: IdMap | None
) -> tuple[SparseTensor, IdMap] | None:
    """The whole-text parse: the result, or None when any record is irregular.

    Irregular means no records, lines of differing column counts or too
    few columns, a value that does not parse, a transformed value that
    is not positive and finite, an id outside a fixed ``idmap``, or a
    repeated key.  Each pass runs over a whole column in C.
    """
    lines = text.split("\n")
    if schema.header:
        del lines[:1]
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    lines = list(filter(None, lines))
    delimiter = schema.delimiter
    counts = set(map(str.count, lines, itertools.repeat(delimiter)))
    if len(counts) != 1:
        return None
    width = counts.pop() + 1
    if width < schema.needed:
        return None
    n = len(lines)
    # no field holds "\n", so joining on it keeps a delimiter from matching
    # across two lines; replace matches as split does, left to right
    fields = "\n".join(lines).replace(delimiter, "\n").split("\n")
    del lines
    try:
        values = np.fromiter(
            map(float, fields[schema.value_column::width]), np.float64, count=n
        )
    except ValueError:
        return None
    if schema.transform is not None:
        a, b = schema.transform
        with np.errstate(all="ignore"):  # inf and nan are refused below
            values = a * values + b
    fixed_map = idmap is not None
    if not fixed_map:
        idmap = IdMap(schema.d)
    coords = np.empty((n, schema.d), dtype=np.int64)
    for dim, col in enumerate(schema.key_columns):
        keys = list(map(str.strip, fields[col::width]))
        if fixed_map:
            table = idmap.to_coord[dim]
        else:  # first-seen order
            table = dict(zip(dict.fromkeys(keys), itertools.count(1)))
            idmap.to_coord[dim] = table
            idmap.to_id[dim] = list(table)
        try:
            coords[:, dim] = np.fromiter(map(table.__getitem__, keys), np.int64, count=n)
        except KeyError:
            return None
    try:
        return SparseTensor.from_arrays(idmap.extents(), coords, values), idmap
    except ValueError:  # a value not positive and finite, or a repeated key
        return None


def _parse_lines(
    lines: Iterable[str], schema: Schema, dedupe: str | None, idmap: IdMap | None
) -> tuple[SparseTensor, IdMap]:
    """The line-by-line parse behind :func:`parse_ratings`.

    It runs whenever the whole-text parse finds an irregular record, so
    it is the one place that raises for a bad line, naming its number,
    and that applies a dedupe policy.
    """
    fixed_map = idmap is not None
    if idmap is None:
        idmap = IdMap(schema.d)
    cells: dict[Index, float] = {}
    log_acc: dict[Index, list[float]] = {}
    needed = schema.needed

    for lineno, line in enumerate(lines, start=1):
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
