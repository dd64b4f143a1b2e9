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

Parsing reads the text in chunks of whole lines, so its transient
strings are bounded by a chunk, and reads each chunk a whole column at a
time: ``float`` over the values, ``str.strip`` and interning over each
key column, the id tables carried from chunk to chunk.  Only a chunk
with a bad record is read again line by line, to name its first bad
line.  Repeated keys are found, and a dedupe policy applied, on the
coordinate arrays of the whole file.

The canonical output format is a sorted CSV (rows ascending by flat
index) plus a sidecar id-map file; parse/serialize round-trips are exact.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DuplicateRecordError, ParseError, RecordError, UnknownIdError
from .sparse_tensor import Index, SparseTensor, _radix_keys

# Characters of whole lines parsed at a time: a chunk's strings, about 4 MB
# of short rating lines, are all the parse holds besides its arrays, and a
# 1M-entry file parsed no faster in chunks 16 times larger.
CHUNK = 1 << 18


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

    @classmethod
    def from_tables(cls, tables: Iterable[dict[str, int]]) -> "IdMap":
        """The map whose per-dimension tables number their ids 1, 2, ... in order."""
        idmap = cls(0)
        idmap.to_coord = list(tables)
        idmap.to_id = [list(table) for table in idmap.to_coord]
        return idmap

    @property
    def d(self) -> int:
        return len(self.to_coord)

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
        raise ValueError(f"idmap covers {idmap.d} dimensions but the schema has {schema.d} keys")
    text = _read_text(source)
    fixed = idmap is not None
    tables = idmap.to_coord if fixed else [
        defaultdict(itertools.count(1).__next__) for _ in range(schema.d)  # first-seen order
    ]
    chunks = []
    for pos, lineno, lines in _line_chunks(text, schema.header):
        chunk = _read_columns(lines, schema, tables)
        if chunk is None:  # the chunk's first bad line, unless a key repeats before it
            bad, error = _first_error(lines, lineno, schema, idmap)
            if dedupe is None:
                with contextlib.suppress(RecordError):  # no record before the bad line
                    parse_ratings(text[:pos] + "\n".join(lines[:bad]), schema, None, idmap)
            raise error
        chunks.append(chunk)
    counts = [len(values) for _, values in chunks]
    if not sum(counts):
        raise RecordError("no records parsed", line=None)
    if not fixed:
        idmap = IdMap.from_tables(map(dict, tables))
    extents = idmap.extents()
    coords, values = (np.concatenate(part) for part in zip(*chunks))
    del chunks  # the chunks' arrays, freed before the tensor sorts its copies
    if dedupe is not None:
        coords, values = _merge_repeats(coords, values, extents, dedupe)
    try:
        return SparseTensor.from_arrays(extents, coords, values), idmap
    except ValueError:  # coords and values are checked, so a key repeats
        _, first = np.unique(_radix_keys(coords, extents), return_index=True)
        repeat = record = int(np.delete(np.arange(len(coords)), first).min())
    for (_, lineno, lines), count in zip(_line_chunks(text, schema.header), counts):
        if record < count:
            break
        record -= count
    lineno = [lineno + i for i, line in enumerate(lines) if line][record]
    key = idmap.unresolve(tuple(coords[repeat].tolist()))
    raise DuplicateRecordError(f"line {lineno}: duplicate rating for key {key}", line=lineno)


def _line_chunks(text: str, header: bool) -> Iterator[tuple[int, int, list[str]]]:
    """Runs of whole lines of ``text``, about ``CHUNK`` characters each: the
    offset of each in ``text``, the number of its first line, and its lines,
    trailing ``"\r"`` dropped and the header line blanked."""
    strip = "\r" in text
    lineno = pos = 0
    while pos < len(text):
        end = text.find("\n", pos + CHUNK)
        end = len(text) if end < 0 else end
        lines = text[pos:end].split("\n")
        if strip:
            lines = [line.rstrip("\r") for line in lines]
        if header and not pos:
            lines[0] = ""
        yield pos, lineno + 1, lines
        lineno += len(lines)
        pos = end + 1


def _read_columns(
    lines: list[str], schema: Schema, tables: list[dict[str, int]]
) -> tuple[np.ndarray, np.ndarray] | None:
    """A chunk's coordinates and values, read a whole column at a time, or
    None for a bad record; ids are interned once every value has passed."""
    lines = list(filter(None, lines))
    delimiter, width = schema.delimiter, schema.needed
    counts = set(map(str.count, lines, itertools.repeat(delimiter)))
    if min(counts, default=width) + 1 < width:
        return None
    if len(counts) == 1:
        width = counts.pop() + 1
        # no field holds "\n", so joining on it keeps a delimiter from matching
        # across two lines; replace matches as split does, left to right
        fields = "\n".join(lines).replace(delimiter, "\n").split("\n")
    else:  # ragged lines, or none: the first fields of each, as many as needed
        fields = [field for line in lines for field in line.split(delimiter, width)[:width]]
    try:  # a ValueError is a value that does not parse, a KeyError an unknown id
        values = np.fromiter(map(float, fields[schema.value_column::width]), np.float64)
        if schema.transform is not None:
            a, b = schema.transform
            with np.errstate(all="ignore"):  # inf and nan are refused below
                values = a * values + b
        if not ((values > 0.0) & np.isfinite(values)).all():
            return None
        coords = np.empty((len(values), schema.d), dtype=np.int64)
        for dim, (col, table) in enumerate(zip(schema.key_columns, tables)):
            keys = map(str.strip, fields[col::width])
            coords[:, dim] = np.fromiter(map(table.__getitem__, keys), np.int64, len(values))
    except (ValueError, KeyError):
        return None
    return coords, values


def _first_error(lines: list[str], lineno: int, schema: Schema,
                 idmap: IdMap | None) -> tuple[int, Exception]:
    """The position in ``lines`` of the first bad line, and its error, as a
    record at a time raises it; ``lineno`` numbers the first line."""
    needed = schema.needed
    for i, line in enumerate(lines):
        if not line:
            continue
        parts, at = line.split(schema.delimiter), f"line {lineno + i}"
        if len(parts) < needed:
            return i, ParseError(f"{at}: expected at least {needed} columns, got {len(parts)}",
                                 line=lineno + i)
        try:
            value = schema.apply_transform(float(parts[schema.value_column]))
        except ValueError:
            return i, ParseError(f"{at}: value {parts[schema.value_column]!r} is not a number",
                                 line=lineno + i)
        if not (value > 0 and math.isfinite(value)):
            return i, RecordError(f"{at}: transformed value {value!r} is not strictly positive "
                                  "(zero marks absent entries)", line=lineno + i)
        if idmap is not None:
            try:
                idmap.resolve([parts[col].strip() for col in schema.key_columns])
            except UnknownIdError as exc:
                return i, UnknownIdError(f"{at}: {exc}")
    raise AssertionError("no bad line in a chunk the column reader refused")


def _merge_repeats(coords: np.ndarray, values: np.ndarray, extents: tuple[int, ...],
                   dedupe: str) -> tuple[np.ndarray, np.ndarray]:
    """One record per key, in flat-index order: its last record's value, or
    the geometric mean of its records by ``math.log`` and ``math.exp`` in
    file order, as a record at a time gives it."""
    keys = _radix_keys(coords[:, ::-1], extents[::-1])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    first, ends = order[starts], np.append(starts[1:], len(order))
    if dedupe == "last":
        return coords[first], values[order[ends - 1]]
    merged = values[first]
    for run in np.flatnonzero(ends - starts > 1).tolist():
        logs = [math.log(value) for value in values[order[starts[run]:ends[run]]].tolist()]
        merged[run] = math.exp(sum(logs) / len(logs))
    return coords[first], merged


def write_ratings(tensor: SparseTensor, idmap: IdMap, target: IO, delimiter: str = ",") -> None:
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
    """The map of :func:`idmap_to_dict`'s payload; ValueError for a repeated id."""
    tables = []
    for dim, ids in enumerate(payload["dimensions"]):
        ids = list(map(str, ids))
        table = dict(zip(ids, itertools.count(1)))
        if len(table) != len(ids):
            repeated = next(external for external, n in Counter(ids).items() if n > 1)
            raise ValueError(f"dimension {dim + 1} repeats id {repeated!r}")
        tables.append(table)
    return IdMap.from_tables(tables)


def write_idmap(idmap: IdMap, target: IO) -> None:
    json.dump(idmap_to_dict(idmap), target, indent=2, sort_keys=True)
    target.write("\n")


def read_idmap(source: IO) -> IdMap:
    return idmap_from_dict(json.load(source))
