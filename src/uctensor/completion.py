"""Fill missing tensor entries from the canonical-scaling coefficients.

The completion rule is forced by the canonical form: a missing entry of
the canonical tensor can only take the value 1 (any other value would
break some unit subtensor product through it), so transforming back gives

    prediction(idx) = product of inverse scaling coefficients over the
                      subtensors containing idx
                    = exp(-sum of log coefficients)

Known entries pass through unchanged.  A fitted model answers a query in
C(d, k) coefficient lookups plus one exponentiation — d lookups in the
usual k = d-1 case.  :func:`predict` answers one query in one pass that
checks and reads each subtensor group once; :func:`predict_many` answers
an array of them with one gather per group, to the same bits.  Both
refuse a query the same way: IndexError for the wrong length or a
coordinate out of bounds, TypeError for one that is not an integer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import support as _support
from .canonical_scaling import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_SWEEPS,
    ConvergenceReport,
    ScalingFamily,
    csa,
)
from .errors import CapacityError
from .sparse_tensor import Index, SparseTensor, check_index, check_ints, check_rows

COMPLETE_ALL_CAP = 10_000_000  # largest extent box predicted_blocks fills


@dataclass
class CompletionModel:
    """Frozen result of a completion run: source tensor plus scaling family.

    ``predict`` is pure and safe for concurrent callers.
    """

    source: SparseTensor
    scaling: ScalingFamily
    report: ConvergenceReport
    k: int

    def predict(self, idx: Index) -> float:
        return predict(self, idx)

    def supported(self, idx: Index) -> bool:
        """Whether the prediction at ``idx`` is pinned down by the known set.

        Known entries are trivially supported.  A missing entry is when it
        has a hypercube witness, decided by the join ``verify``'s scan runs,
        on this one cell, over an index of the source built on first use.
        A witness is a sufficient certificate that the prediction is the
        same in every gauge, not a necessary one: a cell without one may
        still be gauge-invariant.
        """
        cell = np.array([check_index(idx, self.source.extents)], dtype=np.int64)
        return bool(self.source.locate(cell)[0] >= 0 or self._support_index.witnessed(cell)[0])

    @functools.cached_property
    def _support_index(self) -> _support.SupportIndex:
        return _support.SupportIndex(self.source)


def tca(
    tensor: SparseTensor,
    k: int | None = None,
    epsilon: float = DEFAULT_EPSILON,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> CompletionModel:
    """Fit a completion model: canonical scaling, then invert at queries.

    ``k`` defaults to d-1 (slice scaling); ``epsilon`` and ``max_sweeps``
    go to :func:`csa`, whose report keeps them.  Preprocessing is one
    scaling run, linear in the number of known entries per sweep for
    fixed d.

    Raises
    ------
    ValueError
        Empty tensor or k out of range.
    ConvergenceError
        Propagated from the scaling run.
    """
    if len(tensor) == 0:
        raise ValueError("cannot complete a tensor with no known entries")
    if k is None:
        k = tensor.d - 1
    _, family, report = csa(tensor, k, epsilon=epsilon, max_sweeps=max_sweeps)
    return CompletionModel(tensor, family, report, k)


def mca(
    matrix: SparseTensor, epsilon: float = DEFAULT_EPSILON, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> CompletionModel:
    """Matrix special case of :func:`tca` (d = 2, row/column scaling)."""
    if matrix.d != 2:
        raise ValueError(f"mca requires a 2-dimensional tensor, got d={matrix.d}")
    return tca(matrix, 1, epsilon, max_sweeps)


def predict(model: CompletionModel, idx: Index) -> float:
    """Predicted value at ``idx``: stored value if known, else exp(-sum s).

    Raises what :func:`predict_many` raises for the same row.
    """
    idx = tuple(idx)
    stored = model.source.entries.get(idx)
    if stored is None:  # log_sum_at checks the index as it reads
        return math.exp(-model.scaling.log_sum_at(idx))
    check_ints(idx)  # equal floats hash alike: (1.0, 2) finds the cell (1, 2)
    return stored


def predict_many(model: CompletionModel, coords) -> np.ndarray:
    """Predictions at each row of an (n, d) int array of 1-based indices.

    Equal bit for bit to ``[predict(model, idx) for idx in coords]``: the
    coefficient sums add in :meth:`ScalingFamily.log_sum_at`'s order and
    exponentiate through ``math.exp``, and known cells return their
    stored values.

    Raises what :meth:`SparseTensor.from_arrays` raises for the same
    rows: :func:`~uctensor.sparse_tensor.check_rows` checks both.
    """
    source = model.source
    rows = check_rows(coords, source.extents)
    at = source.locate(rows)
    known = at >= 0
    out = np.empty(len(rows))
    out[known] = source.values_array()[at[known]]
    total = model.scaling.log_sums(rows[~known])
    out[~known] = list(map(math.exp, (-total).tolist()))
    return out


def round_to_scale(raw: float, low: float, high: float) -> float:
    """Clamp and round a raw prediction onto a discrete rating scale.

    Raw values stay the primary output: when ranking items whose rounded
    ratings tie, order them by the raw values.
    """
    if not low < high:
        raise ValueError(f"scale bounds must satisfy low < high, got [{low}, {high}]")
    return float(min(high, max(low, round(raw))))


def predicted_blocks(model: CompletionModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every missing cell of the source's extent box with its prediction.

    Returns an iterator of ``(cells, predictions)``, one pair per
    :meth:`SparseTensor.missing_blocks` block, in flat-index order.
    Raises ``CapacityError`` at once for a box of more than
    ``COMPLETE_ALL_CAP`` cells; use :func:`predict` per query instead for
    large index spaces.  :func:`complete_all` and ``uctensor predict
    --all`` both fill the box through it.
    """
    box = model.source.box_size
    if box > COMPLETE_ALL_CAP:
        raise CapacityError(
            f"extent box has {box} cells, above the cap {COMPLETE_ALL_CAP}; query per cell instead"
        )
    return ((block, predict_many(model, block)) for block in model.source.missing_blocks())


def complete_all(model: CompletionModel) -> SparseTensor:
    """Dense-in-box tensor combining known entries and predictions.

    Refuses what :func:`predicted_blocks` refuses.
    """
    source = model.source
    blocks = list(predicted_blocks(model))
    coords = np.concatenate([source.coords_array(), *(cells for cells, _ in blocks)])
    values = np.concatenate([source.values_array(), *(preds for _, preds in blocks)])
    return SparseTensor.from_arrays(source.extents, coords, values)
