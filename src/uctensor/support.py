"""Hypercube support checks for missing entries.

A missing index is *supported* when it sits at one vertex of an axis-
aligned d-dimensional hypercube whose remaining 2^d - 1 vertices are all
known entries.  A matrix entry (i, j), for example, is supported when
(i+p, j), (i, j+q) and (i+p, j+q) are known for some p, q != 0.  Support
at every missing index makes the completed tensor independent of which
scaling family the iteration happened to produce.

Every offset component must be nonzero: with any zero component, distinct
vertex selectors collide on the same cell and the figure degenerates to a
lower-dimensional face.

The search is exponential in d in the worst case.  It is an offline
verification tool, never on the prediction path.  The candidate offsets
per dimension point into the missing cell's fibre, the known cells that
differ from it in that dimension alone, and :func:`scan` searches each
missing cell once for every check that reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .sparse_tensor import Index, SparseTensor, flat_index

DEFAULT_SCAN_CAP = 1_000_000


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


def _search_offset(tensor: SparseTensor, idx: Index) -> tuple[int, ...] | None:
    """Depth-first search for the lexicographically smallest valid offset.

    Candidates per dimension are differences toward the cell's fibre,
    ascending; a partial offset is pruned as soon as one of the corners it
    already determines is absent.
    """
    known = tensor.entries
    candidates = [[j - c for j in line.tolist()] for c, line in zip(idx, tensor.fibres(idx))]
    if any(not c for c in candidates):
        return None

    def search(dim: int, prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        if dim == len(idx):
            return prefix
        for s in candidates[dim]:
            # new corners at this depth: selector 1 on `dim`, free below it;
            # the first, with no selector set below, is on the fibre
            tail = (idx[dim] + s,) + idx[dim + 1:]
            if all(
                tuple(i + b * p for i, b, p in zip(idx, delta, prefix)) + tail in known
                for delta in itertools.islice(itertools.product((0, 1), repeat=dim), 1, None)
            ):
                found = search(dim + 1, prefix + (s,))
                if found is not None:
                    return found
        return None

    return search(0, ())


def witness(tensor: SparseTensor, idx: Index) -> SupportWitness | None:
    """Smallest hypercube witness for a missing index, or None; ValueError if it is known."""
    idx = tuple(idx)
    flat_index(idx, tensor.extents)
    if idx in tensor.entries:
        raise ValueError(f"index {idx} is a known entry, not a missing one")
    offset = _search_offset(tensor, idx)
    return None if offset is None else SupportWitness(idx, offset, tuple(_corners(idx, offset)))


def scan(tensor: SparseTensor, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``cap`` missing cells in flat order, as an (m, d) int array,
    and a mask over them of those :func:`witness` finds a witness for."""
    blocks, witnessed = [np.empty((0, tensor.d), np.int64)], []
    for block in tensor.missing_blocks():
        if len(witnessed) >= cap:
            break
        blocks.append(block[:cap - len(witnessed)])
        cells = map(tuple, blocks[-1].tolist())
        witnessed.extend(_search_offset(tensor, idx) is not None for idx in cells)
    return np.concatenate(blocks), np.array(witnessed, dtype=bool)


def unsupported(tensor: SparseTensor, scanned: tuple[np.ndarray, np.ndarray]) -> list[Index]:
    """The cells of a :func:`scan` without a witness, as tuples; a
    :class:`CapacityError` carrying them if missing cells lie past the scan."""
    cells, witnessed = scanned
    failures = list(map(tuple, cells[~witnessed].tolist()))
    if tensor.box_size - len(tensor) > len(cells):
        raise CapacityError(f"more than {len(cells)} missing cells to scan", partial=failures)
    return failures


def is_fully_supported(
    tensor: SparseTensor, scan_cap: int = DEFAULT_SCAN_CAP
) -> tuple[bool, list[Index]]:
    """Whether every missing index has a witness; failures list those without.

    Raises :class:`CapacityError` (carrying the failures found so far)
    when more than ``scan_cap`` missing cells would need scanning.
    """
    failures = unsupported(tensor, scan(tensor, scan_cap))
    return not failures, failures
