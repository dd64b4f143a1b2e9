"""Sparse positive d-dimensional tensors and their subtensor combinatorics.

A :class:`SparseTensor` keeps its known entries as two arrays: an (N, d)
int array of 1-based index vectors, rows ascending by the mixed-radix
linearization :func:`flat_index`, and the N values aligned with them.
:meth:`SparseTensor.from_arrays` builds one from such arrays, rows in any
order; the constructor takes a mapping from index tuples to values, or
(index, value) pairs, and converts them to arrays.  ``entries``, the
values keyed by index tuple in flat-index order, is a dict view built on
first use, for scalar lookups; :meth:`SparseTensor.locate` finds known
cells without it, by one binary search.  All values are strictly
positive; zero is reserved to mean "absent".  Tensors are immutable
after construction, so concurrent read access is safe.

A k-dimensional subtensor is identified by the set of dimensions it fixes
and the coordinates it fixes them at.  For the common case k = d-1 this
is a single (dimension, slice) pair — a row or column of a matrix, a
slab of a 3-d tensor.  Every known entry belongs to exactly C(d, k)
subtensors.  :meth:`SparseTensor.groups` gathers them by fixed-dimension
subset into :class:`SubtensorGroup` arrays: row p of a group's ``fixed``
holds the coordinates of its p-th subtensor, and a scaling family's
``coeffs[g][p]`` belongs to ``groups[g].fixed[p]``.

Cells and subtensors are found by mixed-radix integer keys
(:func:`_radix_keys`): a known cell by its 0-based flat index, which
orders the rows, and a subtensor fixing several dimensions by its fixed
coordinates, which order its group's rows.  A slice needs no key.

Iteration order is deterministic everywhere: fixed-dimension subsets
ascend lexicographically, slices ascend, and entries ascend by flat
index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

Index = tuple[int, ...]

# Cells per flat-index range that SparseTensor.missing_blocks scans at a
# time: large enough to amortize numpy's per-call cost, small enough that a
# block's arrays (64 KiB for d = 2) stay under the allocator's mmap
# threshold; 16,384-cell blocks raised a serving process's peak RSS by
# about 1.5 MB, and were no faster.
MISSING_BLOCK = 4_096

_INT64_MAX = int(np.iinfo(np.int64).max)


def _radix_keys(coords: np.ndarray, radices: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix keys of 1-based coordinate rows, the last column fastest.

    Keys ascend with the rows' lexicographic order.  They are int64 when
    every key over ``radices`` fits in one, Python ints otherwise.
    """
    dtype = np.int64 if math.prod(radices) <= _INT64_MAX else object
    keys = np.zeros(len(coords), dtype=dtype)
    for column, n in zip(coords.T, radices):  # in place: no temporary key arrays
        keys *= n
        keys += column.astype(dtype, copy=False)
        keys -= 1
    return keys


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the ascending ``sorted_keys``; -1 where absent."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return np.where(hit, pos, -1)


class SubtensorId(NamedTuple):
    """Names one k-dimensional subtensor: the key type of ``ScalingFamily.log_coeffs``.

    ``fixed_dims`` are the 1-based dimensions held constant (d-k of them,
    ascending); ``fixed_coords`` are the coordinates they are held at.
    For k = d-1 the id ``((i,), (j,))`` is slice j of dimension i.
    """

    fixed_dims: tuple[int, ...]
    fixed_coords: tuple[int, ...]

    @classmethod
    def line(cls, dim: int, slice_index: int) -> "SubtensorId":
        """The k = d-1 id fixing ``dim`` at ``slice_index``."""
        return cls((dim,), (slice_index,))


@dataclass
class SubtensorGroup:
    """All subtensors sharing one fixed-dimension subset, in array form.

    ``fixed`` is an (n, d-k) int array: row p holds the coordinates that
    subtensor p fixes its dimensions at.  ``labels[t]`` gives, for the
    t-th known entry (in flat-index order), the row of ``fixed`` of the
    one subtensor of this group containing it.  ``counts`` are
    known-entry counts per subtensor; a zero count marks an empty one.
    ``keys`` are the radix keys of ``fixed``'s rows over ``extents``,
    ascending; with one fixed dimension row p is slice p + 1 and ``keys``
    is None.
    """

    fixed_dims: tuple[int, ...]
    fixed: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    # extents of the fixed dimensions, the radices of the keys
    extents: tuple[int, ...]
    keys: np.ndarray | None

    def slot(self, idx: Index) -> int | None:
        """Row of ``fixed`` of the subtensor containing ``idx``; None if it has none.

        ``idx`` is an index :func:`check_index` accepts.  A slice's row is
        its coordinate minus one; any other row is found by a binary
        search of ``keys``.
        """
        if self.keys is None:
            return index(idx[self.fixed_dims[0] - 1]) - 1
        key = 0
        for dim, n in zip(self.fixed_dims, self.extents):
            key = key * n + index(idx[dim - 1]) - 1
        pos = int(self.keys.searchsorted(key))  # the method: np.searchsorted costs 2.7x
        return pos if pos < len(self.keys) and self.keys.item(pos) == key else None

    def slots(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`slot` of each row of an (n, d) array of in-bounds indices; -1 for none."""
        fixed = coords[:, [dim - 1 for dim in self.fixed_dims]]
        if self.keys is None:
            return fixed[:, 0] - 1
        return _find(self.keys, _radix_keys(fixed, self.extents))


def flat_index(idx: Index, extents: tuple[int, ...]) -> int:
    """Mixed-radix linearization of a 1-based index vector.

    The first dimension varies fastest; the result ranges over
    1..prod(extents) and is a bijection on the extent box.
    """
    if len(idx) != len(extents):
        raise IndexError(f"index {idx} has wrong length for extents {extents}")
    j = 1
    stride = 1
    for alpha, n in zip(idx, extents):
        if not 1 <= alpha <= n:
            raise IndexError(f"index {idx} out of bounds for extents {extents}")
        j += (alpha - 1) * stride
        stride *= n
    return j


def check_index(idx: Iterable, extents: tuple[int, ...]) -> Index:
    """``idx`` as a tuple, once it is a valid query index for ``extents``.

    Raises what :func:`~uctensor.completion.predict_many` raises for the
    same row, in its order: IndexError for the wrong length, TypeError
    for a coordinate that is not an integer (bool and numpy integers
    are), then IndexError for one out of bounds.
    """
    idx = tuple(idx)
    if len(idx) != len(extents):
        raise IndexError(f"index {idx} has wrong length for extents {extents}")
    check_ints(idx)
    flat_index(idx, extents)
    return idx


def check_rows(coords, extents: tuple[int, ...]) -> np.ndarray:
    """``coords`` as an (n, d) int64 array, once every row is a valid index for ``extents``.

    Raises as :func:`check_index` does, naming the first offending row,
    except that any array numpy cannot hold as ints (bools, floats, ints
    beyond int64) is a TypeError.
    """
    d = len(extents)
    try:
        rows = np.asarray(coords)
    except ValueError:  # rows of differing lengths
        for i, row in enumerate(coords):
            if len(row) != d:
                raise IndexError(
                    f"row {i}: index {tuple(row)} has wrong length for extents {extents}"
                ) from None
        raise TypeError("index coordinates must be ints") from None
    if rows.ndim and not len(rows):
        return np.empty((0, d), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != d:
        first = tuple(np.atleast_1d(rows[0] if rows.ndim else rows).tolist())
        raise IndexError(f"row 0: index {first} has wrong length for extents {extents}")
    if rows.dtype.kind not in "iu":
        i = next((i for i, r in enumerate(rows.tolist()) if np.asarray(r).dtype.kind not in "iu"), 0)
        raise TypeError(
            f"row {i}: index coordinates must be ints, got {tuple(rows[i].tolist())} "
            f"in an array of {rows.dtype}"
        )
    outside = np.flatnonzero(((rows < 1) | (rows > extents)).any(axis=1))
    if outside.size:
        i = outside[0]
        raise IndexError(
            f"row {i}: index {tuple(rows[i].tolist())} out of bounds for extents {extents}"
        )
    return rows.astype(np.int64, copy=False)


def check_ints(idx: Index) -> None:
    """Raise TypeError unless every coordinate of ``idx`` is an integer."""
    try:
        for c in idx:
            index(c)
    except TypeError:
        raise TypeError(f"index coordinates must be ints, got {idx}") from None


def unflatten(flat: np.ndarray, extents: tuple[int, ...]) -> np.ndarray:
    """The (m, d) int array of 1-based indices at 0-based flat indices ``flat``.

    The first dimension varies fastest, as in :func:`flat_index`.
    """
    columns = []
    for n in extents:
        columns.append(flat % n + 1)
        flat = flat // n
    return np.column_stack(columns).astype(np.int64)


class SparseTensor:
    """Immutable sparse tensor with strictly positive known entries.

    Parameters
    ----------
    extents:
        Dimensional extents (n_1, ..., n_d), all positive.
    entries:
        Mapping from 1-based index tuples of ints to positive values, or
        an iterable of (index, value) pairs.  Iterables with repeated keys
        are rejected rather than silently collapsed.  Both are converted
        to arrays and go through :meth:`from_arrays`.
    """

    __slots__ = ("extents", "_coords", "_values", "_groups", "_flat", "_entries")

    def __init__(
        self,
        extents: Iterable[int],
        entries: Mapping[Index, float] | Iterable[tuple[Index, float]],
    ):
        if isinstance(entries, Mapping):
            keys = list(entries)
            values = np.fromiter(entries.values(), dtype=np.float64, count=len(keys))
        else:
            pairs = list(entries)
            keys = list(map(itemgetter(0), pairs))
            values = np.fromiter(map(itemgetter(1), pairs), dtype=np.float64, count=len(pairs))
        self._adopt(extents, keys, values)

    @classmethod
    def from_arrays(cls, extents: Iterable[int], coords, values) -> "SparseTensor":
        """Tensor from an (N, d) int array of 1-based indices and N values, rows in any order.

        Raises
        ------
        ValueError
            Non-positive extents, a value that is not positive and finite,
            a repeated index, or a count of values other than of indices.
        IndexError, TypeError
            As :func:`check_rows` raises them.

        Each message names the first offending row.
        """
        tensor = cls.__new__(cls)
        tensor._adopt(extents, coords, values)
        return tensor

    def _adopt(self, extents: Iterable[int], coords, values) -> None:
        """Validate ``coords`` and ``values``, then keep them sorted into flat order."""
        self.extents = extents = tuple(int(n) for n in extents)
        if not extents or any(n < 1 for n in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        rows = check_rows(coords, extents)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(rows),):
            raise ValueError(f"{values.size} values for {len(rows)} indices")
        invalid = np.flatnonzero(~((values > 0.0) & np.isfinite(values)))
        if invalid.size:
            t = invalid[0]
            raise ValueError(
                f"entry {tuple(rows[t].tolist())} has value {values[t].item()!r}, "
                "not a positive finite number"
            )

        # sorted by the flat keys, which stay unstored: kept, they raise peak
        # memory; keys are distinct on every tensor built, so any sort will do
        flat = _radix_keys(rows[:, ::-1], extents[::-1])
        order = np.argsort(flat)
        flat = flat[order]
        repeated = np.flatnonzero(flat[1:] == flat[:-1])
        del flat
        rows = rows[order]
        if repeated.size:
            raise ValueError(f"duplicate entry at {tuple(rows[repeated[0]].tolist())}")
        self._coords = rows
        self._values = values[order]
        self._groups: dict[int, list[SubtensorGroup]] = {}
        self._flat: np.ndarray | None = None
        self._entries: dict[Index, float] | None = None

    # -- basic access ----------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.extents)

    @property
    def box_size(self) -> int:
        return int(np.prod(self.extents, dtype=object))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, idx: Index) -> bool:
        return tuple(idx) in self.entries

    def get(self, idx: Index) -> float | None:
        """Stored value at ``idx``, or ``None`` if the entry is absent."""
        return self.entries.get(check_index(idx, self.extents))

    @property
    def entries(self) -> dict[Index, float]:
        """Known values keyed by index tuple, in flat-index order.

        A view of the arrays for scalar lookups, built on first use.
        """
        if self._entries is None:
            # tuples zipped from d column lists, not one list per row:
            # faster, and a quarter less transient memory at 250k entries
            keys = zip(*self._coords.T.tolist())
            self._entries = dict(zip(keys, self._values.tolist()))
        return self._entries

    def known_indices(self) -> tuple[Index, ...]:
        """All known index vectors, ascending by :func:`flat_index`."""
        return tuple(self.entries)

    def missing_indices(self) -> Iterator[Index]:
        """Iterate the complement of the known set, ascending by flat index."""
        for block in self.missing_blocks():
            yield from map(tuple, block.tolist())

    def missing_blocks(self) -> Iterator[np.ndarray]:
        """The complement of the known set as (m, d) int arrays, ascending by flat index.

        Scans the box one range of ``MISSING_BLOCK`` flat indices at a
        time, so memory stays bounded by the block whatever the box size;
        a range with no missing cell yields nothing.
        """
        known = self._flat_keys()
        box = self.box_size
        for start in range(0, box, MISSING_BLOCK):
            stop = min(start + MISSING_BLOCK, box)
            lo, hi = np.searchsorted(known, [start, stop])
            free = np.ones(stop - start, dtype=bool)
            free[(known[lo:hi] - start).astype(np.int64)] = False
            flat = np.arange(start, stop, dtype=known.dtype)[free]
            if flat.size:
                yield unflatten(flat, self.extents)

    def locate(self, coords: np.ndarray) -> np.ndarray:
        """Row of :meth:`coords_array` holding each row of ``coords``; -1 where missing.

        ``coords`` is an (n, d) int array of in-bounds 1-based indices.
        """
        return _find(self._flat_keys(), _radix_keys(coords[:, ::-1], self.extents[::-1]))

    def _flat_keys(self) -> np.ndarray:
        """0-based flat indices of the known entries, ascending; built on first use."""
        if self._flat is None:
            self._flat = _radix_keys(self._coords[:, ::-1], self.extents[::-1])
        return self._flat

    def coords_array(self) -> np.ndarray:
        """Known indices as an (N, d) int array, rows in flat-index order."""
        return self._coords

    def values_array(self) -> np.ndarray:
        """Known values aligned with :meth:`coords_array`."""
        return self._values

    def __repr__(self) -> str:
        return f"SparseTensor(extents={self.extents}, known={len(self)})"

    # -- subtensor combinatorics ------------------------------------------

    def groups(self, k: int) -> list[SubtensorGroup]:
        """Subtensor groups for dimensionality k, cached per tensor.

        One group per fixed-dimension subset, subsets ascending
        lexicographically.  For k = d-1 each group covers every slice of
        its dimension (empty slices included, flagged by a zero count);
        for smaller k only coordinate combinations occupied by at least
        one known entry get a row.
        """
        if not 1 <= k <= self.d - 1:
            raise ValueError(f"k must be in [1, {self.d - 1}], got {k}")
        if k not in self._groups:
            self._groups[k] = self._build_groups(k)
        return self._groups[k]

    def _build_groups(self, k: int) -> list[SubtensorGroup]:
        coords = self.coords_array()
        out = []
        for fixed in itertools.combinations(range(self.d), self.d - k):
            dims = tuple(f + 1 for f in fixed)
            radices = tuple(self.extents[f] for f in fixed)
            if len(fixed) == 1:
                rows = np.arange(1, radices[0] + 1, dtype=np.int64)[:, None]
                labels = coords[:, fixed[0]] - 1
                keys = None
            else:
                columns = coords[:, list(fixed)]
                keys, first, labels = np.unique(
                    _radix_keys(columns, radices), return_index=True, return_inverse=True
                )
                rows = columns[first]
            counts = np.bincount(labels, minlength=len(rows))
            out.append(SubtensorGroup(dims, rows, labels, counts, radices, keys))
        return out


def all_indices(extents: tuple[int, ...]) -> Iterator[Index]:
    """Every index vector of the extent box, ascending by flat index."""
    rngs = [range(1, n + 1) for n in reversed(extents)]
    for rev in itertools.product(*rngs):
        yield tuple(reversed(rev))
