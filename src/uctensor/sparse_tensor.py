"""Sparse positive d-dimensional tensors and their subtensor combinatorics.

A :class:`SparseTensor` stores only its known entries, keyed by 1-based
index vectors (plain tuples of ints).  All values are strictly positive;
zero is reserved to mean "absent".  Tensors are immutable after
construction, so concurrent read access is safe.

A k-dimensional subtensor is identified by the set of dimensions it fixes
and the coordinates it fixes them at (:class:`SubtensorId`).  For the
common case k = d-1 this is a single (dimension, slice) pair — a row or
column of a matrix, a slab of a 3-d tensor.  Every known entry belongs to
exactly C(d, k) subtensors.

Iteration order is deterministic everywhere: fixed-dimension subsets
ascend lexicographically, slices ascend, and entries ascend by their
mixed-radix linearization :func:`flat_index`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
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
    for column, n in zip(coords.T, radices):
        keys = keys * n + (column.astype(dtype) - 1)
    return keys


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the ascending ``sorted_keys``; -1 where absent."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return np.where(hit, pos, -1)


class SubtensorId(NamedTuple):
    """Identifies one k-dimensional subtensor by its fixed coordinates.

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

    ``labels[t]`` gives, for the t-th known entry (in flat-index order),
    the position in ``ids`` of the one subtensor of this group containing
    it.  ``counts`` are known-entry counts per id; a zero count marks an
    empty subtensor.
    """

    fixed_dims: tuple[int, ...]
    ids: list[SubtensorId]
    labels: np.ndarray
    counts: np.ndarray
    # extents of the fixed dimensions, the radices of the ids' keys in slots()
    extents: tuple[int, ...]
    _slots: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _keys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def slot(self, idx: Index) -> int | None:
        """Position in ``ids`` of the subtensor containing ``idx``; None if it has no id.

        The map from fixed coordinates to positions is built on first use.
        """
        if self._slots is None:
            bare = len(self.fixed_dims) == 1  # itemgetter of one item returns it bare
            coords = [sid.fixed_coords[0] if bare else sid.fixed_coords for sid in self.ids]
            key = itemgetter(*(dim - 1 for dim in self.fixed_dims))
            self._slots = (key, {c: pos for pos, c in enumerate(coords)})
        key, positions = self._slots
        return positions.get(key(idx))

    def slots(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`slot` of each row of an (n, d) array of in-bounds indices; -1 for no id.

        With one fixed dimension every slice has an id, at its coordinate
        minus one.  Otherwise the ids are occupied combinations in the
        ascending order ``np.unique`` gives them, searched by their keys.
        """
        fixed = coords[:, [dim - 1 for dim in self.fixed_dims]]
        if len(self.fixed_dims) == 1:
            return fixed[:, 0] - 1
        if self._keys is None:
            own = np.array([sid.fixed_coords for sid in self.ids], dtype=np.int64)
            self._keys = _radix_keys(own.reshape(len(self.ids), len(self.extents)), self.extents)
        return _find(self._keys, _radix_keys(fixed, self.extents))


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


def unflatten_index(j: int, extents: tuple[int, ...]) -> Index:
    """Inverse of :func:`flat_index`."""
    if not 1 <= j <= int(np.prod(extents)):
        raise IndexError(f"flat index {j} out of range for extents {extents}")
    j -= 1
    coords = []
    for n in extents:
        coords.append(j % n + 1)
        j //= n
    return tuple(coords)


class SparseTensor:
    """Immutable sparse tensor with strictly positive known entries.

    Parameters
    ----------
    extents:
        Dimensional extents (n_1, ..., n_d), all positive.
    entries:
        Mapping from 1-based index tuples of ints to positive values, or
        an iterable of (index, value) pairs.  Iterables with repeated keys
        are rejected rather than silently collapsed.  ``entries`` keeps
        the caller's index tuples, in the caller's order.
    """

    __slots__ = ("extents", "entries", "_known", "_coords", "_values", "_groups", "_flat")

    def __init__(
        self,
        extents: Iterable[int],
        entries: Mapping[Index, float] | Iterable[tuple[Index, float]],
    ):
        self.extents = tuple(int(n) for n in extents)
        if not self.extents or any(n < 1 for n in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")

        if isinstance(entries, Mapping):
            store = {idx: float(val) for idx, val in entries.items()}
        else:
            store = {}
            for idx, val in entries:
                idx = tuple(idx)
                if idx in store:
                    raise ValueError(f"duplicate entry at {idx}")
                store[idx] = float(val)
        wrong = next((idx for idx in store if len(idx) != self.d), None)
        if wrong is not None:
            raise IndexError(f"index {wrong} has wrong length for extents {self.extents}")
        keys = list(store)
        coords = np.array(keys).reshape(len(keys), self.d)
        if keys and coords.dtype.kind not in "iu":
            raise TypeError(f"index coordinates must be 64-bit ints, got {coords.dtype} values")
        coords = coords.astype(np.int64, copy=False)
        outside = np.flatnonzero(((coords < 1) | (coords > self.extents)).any(axis=1))
        if outside.size:
            raise IndexError(
                f"index {keys[outside[0]]} out of bounds for extents {self.extents}"
            )
        values = np.fromiter(store.values(), dtype=np.float64, count=len(keys))
        invalid = np.flatnonzero(~((values > 0.0) & np.isfinite(values)))
        if invalid.size:
            idx = keys[invalid[0]]
            raise ValueError(f"entry {idx} has non-positive value {store[idx]!r}")

        # lexsort's last key is its primary one, and the last dimension
        # varies slowest in flat_index: columns in order give flat order
        order = np.lexsort(coords.T)
        self.entries = store
        # reorder the caller's own tuples: rebuilding them costs 8x the memory
        self._known = tuple(np.fromiter(keys, dtype=object, count=len(keys))[order])
        self._coords = coords[order]
        self._values = values[order]
        self._groups: dict[int, list[SubtensorGroup]] = {}
        self._flat: np.ndarray | None = None

    # -- basic access ----------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.extents)

    @property
    def box_size(self) -> int:
        return int(np.prod(self.extents, dtype=object))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, idx: Index) -> bool:
        return tuple(idx) in self.entries

    def get(self, idx: Index) -> float | None:
        """Stored value at ``idx``, or ``None`` if the entry is absent."""
        idx = tuple(idx)
        flat_index(idx, self.extents)
        return self.entries.get(idx)

    def known_indices(self) -> tuple[Index, ...]:
        """All known index vectors, ascending by :func:`flat_index`."""
        return self._known

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
            if not flat.size:
                continue
            columns = []
            for n in self.extents:  # the first dimension varies fastest
                columns.append(flat % n + 1)
                flat = flat // n
            yield np.column_stack(columns).astype(np.int64)

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
        """Known values aligned with :meth:`known_indices`."""
        return self._values

    def __repr__(self) -> str:
        return f"SparseTensor(extents={self.extents}, known={len(self.entries)})"

    # -- subtensor combinatorics ------------------------------------------

    def groups(self, k: int) -> list[SubtensorGroup]:
        """Subtensor groups for dimensionality k, cached per tensor.

        One group per fixed-dimension subset, subsets ascending
        lexicographically.  For k = d-1 each group covers every slice of
        its dimension (empty slices included, flagged by a zero count);
        for smaller k only coordinate combinations occupied by at least
        one known entry get an id.
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
                n = self.extents[fixed[0]]
                labels = coords[:, fixed[0]] - 1
                ids = [SubtensorId(dims, (j,)) for j in range(1, n + 1)]
                counts = np.bincount(labels, minlength=n)
            else:
                sub = coords[:, list(fixed)]
                if len(sub):
                    uniq, labels = np.unique(sub, axis=0, return_inverse=True)
                    labels = labels.ravel()
                else:
                    uniq = np.empty((0, len(fixed)), dtype=np.int64)
                    labels = np.empty(0, dtype=np.int64)
                ids = [
                    SubtensorId(dims, tuple(int(c) for c in row)) for row in uniq
                ]
                counts = np.bincount(labels, minlength=len(ids))
            out.append(SubtensorGroup(dims, ids, labels, counts, radices))
        return out


def subtensor_ids(tensor: SparseTensor, k: int) -> list[SubtensorId]:
    """All subtensor ids of dimensionality k, in deterministic order.

    For k = d-1 this is every (dimension, slice) pair, count sum(n_i),
    empty slices included; for smaller k, only occupied ids.
    """
    return [sid for g in tensor.groups(k) for sid in g.ids]


def members(tensor: SparseTensor, sid: SubtensorId) -> list[Index]:
    """Known entries lying in the given subtensor, ascending by flat index."""
    dims = tuple(sid.fixed_dims)
    coords = tuple(sid.fixed_coords)
    if len(dims) != len(coords) or not dims:
        raise ValueError(f"malformed subtensor id {sid}")
    for dim, c in zip(dims, coords):
        if not 1 <= dim <= tensor.d:
            raise ValueError(f"id {sid} names dimension {dim} of a {tensor.d}-d tensor")
        if not 1 <= c <= tensor.extents[dim - 1]:
            raise ValueError(f"id {sid} fixes dimension {dim} outside its extent")
    return [
        idx
        for idx in tensor.known_indices()
        if all(idx[dim - 1] == c for dim, c in zip(dims, coords))
    ]


def membership(idx: Index, k: int, d: int) -> list[SubtensorId]:
    """The C(d, k) subtensor ids containing ``idx``.

    For k = d-1 these are the d ids ((i,), (alpha_i,)); in general one id
    per fixed-dimension subset of size d-k.
    """
    if len(idx) != d:
        raise ValueError(f"index {idx} is not {d}-dimensional")
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, {d - 1}], got {k}")
    return [
        SubtensorId(tuple(f + 1 for f in fixed), tuple(idx[f] for f in fixed))
        for fixed in itertools.combinations(range(d), d - k)
    ]


def all_indices(extents: tuple[int, ...]) -> Iterator[Index]:
    """Every index vector of the extent box, ascending by flat index."""
    rngs = [range(1, n + 1) for n in reversed(extents)]
    for rev in itertools.product(*rngs):
        yield tuple(reversed(rev))
