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
verification tool, never on the prediction path; candidate offsets per
dimension are limited to differences toward occupied slices, which keeps
the space proportional to the support's geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    d = len(idx)
    out = []
    for rev_delta in itertools.product((0, 1), repeat=d):
        delta = rev_delta[::-1]
        if not any(delta):
            continue
        out.append(tuple(idx[i] + delta[i] * offset[i] for i in range(d)))
    return out


def _occupied_slices(tensor: SparseTensor) -> list[list[int]]:
    """Per dimension, the ascending coordinates holding a known entry."""
    return [np.unique(column).tolist() for column in tensor.coords_array().T]


def _search_offset(
    tensor: SparseTensor, idx: Index, occupied: list[list[int]]
) -> tuple[int, ...] | None:
    """Depth-first search for the lexicographically smallest valid offset.

    Candidates per dimension are differences toward occupied slices,
    ascending; a partial offset is pruned as soon as one of the corners it
    already determines is absent.
    """
    known = tensor.entries
    candidates = [
        [j - idx[dim] for j in occupied[dim] if j != idx[dim]]
        for dim in range(tensor.d)
    ]
    if any(not c for c in candidates):
        return None

    d = tensor.d

    def search(dim: int, prefix: tuple[int, ...]) -> tuple[int, ...] | None:
        if dim == d:
            return prefix
        for s in candidates[dim]:
            # new corners at this depth: selector 1 on `dim`, free below it
            ok = True
            for delta in itertools.product((0, 1), repeat=dim):
                corner = (
                    tuple(idx[i] + delta[i] * prefix[i] for i in range(dim))
                    + (idx[dim] + s,)
                    + idx[dim + 1:]
                )
                if corner not in known:
                    ok = False
                    break
            if ok:
                found = search(dim + 1, prefix + (s,))
                if found is not None:
                    return found
        return None

    return search(0, ())


def _missing(tensor: SparseTensor, idx: Index) -> Index:
    """``idx`` as a tuple; IndexError out of bounds, ValueError if it is known."""
    idx = tuple(idx)
    flat_index(idx, tensor.extents)
    if idx in tensor.entries:
        raise ValueError(f"index {idx} is a known entry, not a missing one")
    return idx


def witness(tensor: SparseTensor, idx: Index) -> SupportWitness | None:
    """Smallest hypercube witness for a missing index, or None."""
    idx = _missing(tensor, idx)
    offset = _search_offset(tensor, idx, _occupied_slices(tensor))
    if offset is None:
        return None
    return SupportWitness(idx, offset, tuple(_corners(idx, offset)))


def supported(tensor: SparseTensor, cells: Iterable[Index]) -> Iterator[Index]:
    """The missing ``cells`` that have a witness, in order, as tuples.

    Filters as :func:`witness` would, with the occupied slices found once
    for the whole scan instead of once per cell.
    """
    occupied = _occupied_slices(tensor)
    for idx in cells:
        idx = _missing(tensor, idx)
        if _search_offset(tensor, idx, occupied) is not None:
            yield idx


def is_fully_supported(
    tensor: SparseTensor, scan_cap: int = DEFAULT_SCAN_CAP
) -> tuple[bool, list[Index]]:
    """Whether every missing index has a witness; failures list those without.

    Raises :class:`CapacityError` (carrying the failures found so far)
    when more than ``scan_cap`` missing cells would need scanning.
    """
    failures: list[Index] = []
    occupied = _occupied_slices(tensor)
    scanned = 0
    for idx in tensor.missing_indices():
        scanned += 1
        if scanned > scan_cap:
            raise CapacityError(
                f"more than {scan_cap} missing cells to scan", partial=failures
            )
        if _search_offset(tensor, idx, occupied) is None:
            failures.append(idx)
    return not failures, failures
