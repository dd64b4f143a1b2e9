"""Hypercube support checks for missing entries.

A missing index is *supported* when it sits at one vertex of an axis-
aligned d-dimensional hypercube whose remaining 2^d - 1 vertices are all
known entries.  A matrix entry (i, j), for example, is supported when
(i+p, j), (i, j+q) and (i+p, j+q) are known for some p, q != 0: it is a
butterfly of the bipartite known pattern with one edge missing.  Support
at every missing index makes the completed tensor independent of which
scaling family the iteration happened to produce.

Every offset component must be nonzero: with any zero component, distinct
vertex selectors collide on the same cell and the figure degenerates to a
lower-dimensional face.

:func:`scan` and :class:`SupportIndex` decide support for many cells at
once by an exact array join, one dimension at a time.  A missing x = (x1, x')
is supported exactly when some y1 with (y1, x') known leaves x' supported
in the (d-1)-dimensional pattern of the cells z' with (x1, z') and
(y1, z') both known; in one dimension any known cell will do.  Each pair
(x1, y1) becomes one batch of the next dimension's join, by sorting and
binary search over radix keys.  Every cell takes its candidates y1 in
rounds of 1, 2, 4, ..., and cells leave the join, at every level, once
decided.  A :class:`SupportIndex` keys and sorts the known cells once, so
each query then costs only its own cells' join.  Besides the index, the
queried cells and the mask, no array the join builds holds more than
``JOIN_BLOCK`` rows, or one slice of the known pattern where a slice is
longer: the cells go through in chunks of that many.

:func:`witness` finds the certificate itself, the lexicographically
smallest offset, by the same recursion run on one cell over plain arrays:
its candidates y1 ascend, each recursing on its pattern, and in one
dimension the smallest offset is the smallest known cell's.  It reads
no index and keeps no cache, so one call costs O(N) plus the cells the
patterns of its candidates share; it is an offline verification tool,
never on the prediction path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .sparse_tensor import Index, SparseTensor, _find, _radix_keys, check_index

DEFAULT_SCAN_CAP = 1_000_000

# Most rows of any array the witness join builds at a time: cells, (cell,
# candidate) pairs, and the cells of the patterns built for them.  Scans of
# a 300x200 power-law file, a 30^3 cube and a 2x200^2 block-diagonal file
# ran no faster with blocks of 65,536 or 262,144, and held up to 4.5 times
# the memory; 4,096 was up to twice as slow.
JOIN_BLOCK = 16_384


@dataclass(frozen=True)
class SupportWitness:
    """A hypercube certifying one missing index.

    ``corners`` are the 2^d - 1 known vertices ``missing + delta * offset``
    over all 0/1 selectors ``delta`` except all-zeros, ordered by selector
    (first dimension varying fastest).
    """

    missing: Index
    offset: tuple[int, ...]
    corners: tuple[Index, ...]


def _corners(idx: Index, offset: tuple[int, ...]) -> list[Index]:
    selectors = (rev[::-1] for rev in itertools.product((0, 1), repeat=len(idx)))
    return [tuple(i + s * o for i, s, o in zip(idx, delta, offset))
            for delta in selectors if any(delta)]


def _smallest_offset(cells: np.ndarray, x: Index,
                     extents: tuple[int, ...]) -> tuple[int, ...] | None:
    """The lexicographically smallest offset of a witness for ``x`` in the
    pattern of ``cells``, an (n, m) int array of known cells over
    ``extents`` without ``x``; None if it has none.

    The recursion of the module docstring, on this one cell: candidates y1
    ascend along its fibre in the first dimension, so the first offset
    found is the smallest.  Each level groups the cells z' shared with
    row x1 by their first coordinate with one ``isin`` and one stable
    sort, so a candidate's pattern is one slice of them.
    """
    if len(extents) == 1:
        return (int(cells[:, 0].min()) - x[0],) if len(cells) else None
    first, rest = cells[:, 0], _radix_keys(cells[:, 1:], extents[1:])
    (key,) = _radix_keys(np.array([x[1:]], dtype=np.int64), extents[1:])
    shared = np.isin(rest, rest[first == x[0]])
    order = np.argsort(first[shared], kind="stable")
    rows, patterns = first[shared][order], cells[shared][order, 1:]
    candidates = np.sort(first[rest == key])
    lo, hi = (np.searchsorted(rows, candidates, side) for side in ("left", "right"))
    # only a pattern holding a cell of the fibre of x' along its first dimension has a witness
    (tail,) = _radix_keys(np.array([x[2:]], dtype=np.int64), extents[2:])
    on = np.concatenate([[0], np.cumsum(_radix_keys(patterns[:, 1:], extents[2:]) == tail)])
    live = on[hi] > on[lo]
    for a, b in zip(lo[live].tolist(), hi[live].tolist()):
        found = _smallest_offset(patterns[a:b], x[1:], extents[1:])
        if found is not None:
            return (rows[a].item() - x[0],) + found
    return None


def witness(tensor: SparseTensor, idx: Index) -> SupportWitness | None:
    """Smallest hypercube witness for a missing index, or None; ValueError if it is known."""
    idx = check_index(idx, tensor.extents)
    if tensor.locate(np.array([idx], dtype=np.int64))[0] >= 0:
        raise ValueError(f"index {idx} is a known entry, not a missing one")
    offset = _smallest_offset(tensor.coords_array(), idx, tensor.extents)
    return None if offset is None else SupportWitness(idx, offset, tuple(_corners(idx, offset)))


class SupportIndex:
    """A tensor's known cells, keyed and sorted once for any number of
    :meth:`witnessed` queries, each decided by the join of the module
    docstring."""

    def __init__(self, tensor: SparseTensor):
        # one row per dimension, last first, so that flat order is the join's key order
        self._top = _Level(np.zeros(len(tensor), np.int64),
                           np.ascontiguousarray(tensor.coords_array().T[::-1]), 1,
                           tensor.extents[::-1])

    def witnessed(self, cells: np.ndarray) -> np.ndarray:
        """Mask over ``cells``, an (m, d) int array of in-bounds missing
        indices, of those :func:`witness` finds a witness for."""
        decided = np.zeros(len(cells), dtype=bool)
        for q0 in range(0, len(cells), JOIN_BLOCK):
            chunk = cells[q0:q0 + JOIN_BLOCK]
            self._top.mark(np.zeros(len(chunk), np.int64), np.ascontiguousarray(chunk.T[::-1]),
                           np.arange(q0, q0 + len(chunk)), decided)
        return decided


def _keys(batch: np.ndarray, rows: np.ndarray, radices: tuple[int, ...]) -> np.ndarray:
    """Radix keys of 0-based batch ids followed by 1-based coordinate rows."""
    return _radix_keys(np.vstack([batch + 1, rows]).T, radices)


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., s - 1 for each size s in turn."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _parts(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ranges of ``sizes`` summing to at most ``JOIN_BLOCK``, or one item each."""
    ends, start = np.cumsum(sizes), 0
    while start < len(sizes):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + JOIN_BLOCK, "right")), start + 1)
        yield start, stop
        start = stop


class _Level:
    """One dimension of the join: the known cells ``kc`` of the patterns of
    batches 0..nb-1, batch ``kb``, keyed and sorted for :meth:`mark`.

    Cells are columns of 1-based coordinates over ``extents``, one row per
    dimension, ascending by (batch, first coordinate, rest).  A query
    x = (x1, x') has a witness in its batch's pattern exactly when some y1
    in its fibre along the first dimension, (y1, x') known, leaves x' a
    witness in the pattern P of the cells z' with (x1, z') and (y1, z')
    both known; P is symmetric in x1 and y1.  So each (batch, {x1, y1})
    becomes one batch of the next level, one dimension down, until d = 1,
    where any known cell is a witness.
    """

    def __init__(self, kb, kc, nb, extents):
        self.kc, self.nb, self.extents = kc, nb, extents
        if len(extents) == 1:
            self.counts = np.bincount(kb, minlength=nb)
            return
        self.radices = (nb,) + extents
        self.keys = _keys(kb, kc, self.radices)
        self.rows = _keys(kb, kc[0], self.radices[:2])
        fibres = _keys(kb, kc[1:], (nb,) + extents[1:])
        order = np.argsort(fibres, kind="stable")  # each fibre ascending
        self.fibres, self.along = fibres[order], kc[0, order]

    def mark(self, qb, qc, owner, decided) -> None:
        """Set ``decided[owner[q]]`` for each query q whose cell ``qc[:, q]``,
        missing from the pattern of batch ``qb[q]``, has a witness in it.

        Takes at most ``JOIN_BLOCK`` queries: each level passes the next
        one at most that many.
        """
        if len(self.extents) == 1:
            decided[owner[self.counts[qb] > 0]] = True
            return
        lo, hi = (np.searchsorted(self.fibres, _keys(qb, qc[1:], (self.nb,) + self.extents[1:]),
                                  side) for side in ("left", "right"))
        # candidates in rounds of 1, 2, 4, ... per cell, dropping decided cells
        live, width = np.flatnonzero(lo < hi), 1
        while live.size:
            take = np.minimum(hi[live] - lo[live], width)
            for s0, s1 in _parts(take):
                q, t = live[s0:s1], take[s0:s1]
                t = np.where(decided[owner[q]], 0, t)
                q = np.repeat(q, t)
                self._pairs(qb[q], qc[0, q], self.along[lo[q] + _ranks(t)], qc[1:, q], owner[q],
                            decided)
            lo[live] += take
            live = live[(lo[live] < hi[live]) & ~decided[owner[live]]]
            width = min(2 * width, JOIN_BLOCK)

    def _pairs(self, b, x, y, tail, who, decided) -> None:
        """:meth:`mark` for queries joined to one candidate each: batch b,
        first coordinate x and the rest ``tail`` of the cell, and the
        candidate y."""
        n, radices = self.extents[0], self.radices
        low, high = np.minimum(x, y), np.maximum(x, y)
        pkeys = _keys(b, np.vstack([low, high]), (self.nb, n, n))
        # the queries grouped by pair: ``pair`` numbers the pairs 0, 1, ... in order
        order = np.argsort(pkeys)
        pkeys = pkeys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = pkeys[1:] != pkeys[:-1]
        pair = np.cumsum(first) - 1
        first = order[first]
        pb, low, high = b[first], low[first], high[first]
        # each pair's pattern: the cells of its shorter row that the other holds too
        ends = _keys(np.tile(pb, 2), np.concatenate([low, high]), radices[:2])
        start, stop = (np.searchsorted(self.rows, ends, side).reshape(2, -1)
                       for side in ("left", "right"))
        short = (stop - start).argmin(axis=0)  # which row is the shorter: 0 low, 1 high
        start, size = np.choose(short, start), np.choose(short, stop - start)
        other = np.where(short, low, high)
        for p0, p1 in _parts(size):
            e = np.repeat(np.arange(p0, p1), size[p0:p1])
            if not e.size:
                continue
            cell = self.kc[1:, start[e] + _ranks(size[p0:p1])]
            hit = _find(self.keys, _keys(pb[e], np.vstack([other[e], cell]), radices)) >= 0
            span = slice(*np.searchsorted(pair, [p0, p1]))
            sub = order[span]
            _Level(e[hit] - p0, cell[:, hit], p1 - p0, self.extents[1:]).mark(
                pair[span] - p0, tail[:, sub], who[sub], decided)


def scan(tensor: SparseTensor, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``cap`` missing cells in flat order, as an (m, d) int array,
    and a mask over them of those :func:`witness` finds a witness for."""
    blocks, count = [np.empty((0, tensor.d), np.int64)], 0
    for block in tensor.missing_blocks():
        if count >= cap:
            break
        blocks.append(block[:cap - count])
        count += len(blocks[-1])
    cells = np.concatenate(blocks)
    return cells, SupportIndex(tensor).witnessed(cells)


def unsupported_cells(tensor: SparseTensor, scanned: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The cells of a :func:`scan` without a witness, as an (f, d) int array;
    a :class:`CapacityError` carrying them as tuples if missing cells lie
    past the scan."""
    cells, mask = scanned
    failures = cells[~mask]
    if tensor.box_size - len(tensor) > len(cells):
        raise CapacityError(f"more than {len(cells)} missing cells to scan",
                            partial=list(map(tuple, failures.tolist())))
    return failures


def is_fully_supported(
    tensor: SparseTensor, scan_cap: int = DEFAULT_SCAN_CAP
) -> tuple[bool, list[Index]]:
    """Whether every missing index has a witness; failures list those without.

    Raises :class:`CapacityError` (carrying the failures found so far)
    when more than ``scan_cap`` missing cells would need scanning.
    """
    failures = list(map(tuple, unsupported_cells(tensor, scan(tensor, scan_cap)).tolist()))
    return not failures, failures
