"""Exact small-instance solver for the log canonical scaling problem.

In log space, canonical scaling asks for the vector x closest to the
known log values a subject to a zero sum over every non-empty subtensor:

    minimize  ||x - a||^2 / 2   subject to  C x = 0

where C has one 0/1 row per non-empty subtensor and one column per known
entry.  The solution is the Euclidean projection onto the null space of C:

    x = a - C^T (C C^T)^+ C a,      s = -(C C^T)^+ C a,      x = a + C^T s

The pseudoinverse absorbs the rank deficiency of C C^T caused by gauge
freedom (coefficient perturbations whose membership sums vanish on every
known entry leave x unchanged).  This is a direct, non-iterative
reference used to cross-check :func:`~uctensor.canonical_scaling.csa` and
its completions; it is built for correctness on small instances, not for
speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical_scaling import ScalingFamily, _membership_sums
from .errors import CapacityError
from .sparse_tensor import Index, SparseTensor, check_index

SIZE_CAP = 2000
PINV_CUTOFF = 1e-10
PROJECTION_TOL = 1e-10


@dataclass
class ConstraintSystem:
    """Membership matrix of known entries against non-empty subtensors.

    Rows follow the deterministic subtensor order (fixed-dimension subsets
    ascending, then slices ascending), restricted to non-empty
    subtensors; columns follow known entries ascending by flat index, and
    ``columns`` holds their indices as the tensor's (N, d) ``coords_array``.
    ``matrix[i, t]`` is 1 iff entry t lies in subtensor i.  ``a`` is the
    log-value vector aligned with the columns.
    """

    k: int
    columns: np.ndarray
    matrix: np.ndarray
    a: np.ndarray


def build_constraints(tensor: SparseTensor, k: int) -> ConstraintSystem:
    """Assemble the constraint matrix and log vector for a tensor.

    Every column carries exactly C(d, k) ones, one per subtensor
    containing that entry.  Raises :class:`CapacityError`, before the
    matrix is built, when either side is above ``SIZE_CAP``.
    """
    if len(tensor) == 0:
        raise ValueError("cannot build constraints for an empty tensor")
    groups = tensor.groups(k)
    n_rows = sum(int(np.count_nonzero(g.counts)) for g in groups)
    if len(tensor) > SIZE_CAP or n_rows > SIZE_CAP:
        raise CapacityError(
            f"constraint system is {n_rows}x{len(tensor)}, above the oracle cap {SIZE_CAP}"
        )
    matrix = np.vstack([np.flatnonzero(g.counts)[:, None] == g.labels for g in groups])
    matrix = matrix.astype(np.float64)
    a = np.log(tensor.values_array())
    return ConstraintSystem(k, tensor.coords_array(), matrix, a)


def solve_lcsp(
    tensor: SparseTensor, k: int, system: ConstraintSystem | None = None
) -> tuple[np.ndarray, ScalingFamily]:
    """Project the log values onto the constraint null space.

    Returns ``(x, family)`` like :func:`csa`: the canonical log values
    (aligned with the known entries in flat-index order) and one scaling
    family realizing them, 0 on empty subtensors.  The family is one
    particular gauge; only gauge-invariant quantities are meaningful.

    Raises :class:`CapacityError` as :func:`build_constraints` does.
    """
    if system is None:
        system = build_constraints(tensor, k)
    c = system.matrix
    gram = c @ c.T
    s = -np.linalg.pinv(gram, rcond=PINV_CUTOFF) @ (c @ system.a)
    x = system.a + c.T @ s
    worst = float(np.abs(c @ x).max(initial=0.0))
    if worst > PROJECTION_TOL:
        raise ArithmeticError(
            f"projection residual {worst:.3e} exceeds {PROJECTION_TOL:.1e}"
        )
    rows = iter(s.tolist())  # one per non-empty subtensor, group by group
    groups = tensor.groups(k)
    coeffs = [np.array([next(rows) if n else 0.0 for n in g.counts]) for g in groups]
    return x, ScalingFamily(k, groups, coeffs)


def oracle_complete(
    tensor: SparseTensor,
    k: int,
    idx: Index,
    presolved: ScalingFamily | None = None,
) -> float:
    """Completion value at a missing index from the direct solve.

    Under full support the value is gauge-invariant.  For one cell, a
    hypercube witness (the support module) certifies that; it is
    sufficient, not necessary, so a cell without one may still have a
    gauge-invariant value.
    Pass ``presolved``, the family :func:`solve_lcsp` returned, to reuse
    one solve across many queries.  An index that is not a valid query
    raises what :func:`~uctensor.completion.predict` raises.
    """
    idx = check_index(idx, tensor.extents)
    if tensor.locate(np.array([idx], dtype=np.int64))[0] >= 0:
        raise ValueError(f"index {idx} is known; completion applies to missing entries")
    family = presolved if presolved is not None else solve_lcsp(tensor, k)[1]
    return math.exp(-family.log_sum_at(idx))


def gauge_check(
    s1: ScalingFamily,
    s2: ScalingFamily,
    tensor: SparseTensor,
    tolerance: float = 1e-8,
) -> tuple[bool, float]:
    """Whether two scaling families are gauges of the same canonical form.

    Computes t = s2 - s1 in log space and returns the largest |membership
    sum of t| over the known entries, plus a flag for it being below
    ``tolerance``.  A true flag certifies both families scale the tensor
    to the identical canonical form.
    """
    if s1.k != s2.k:
        raise ValueError(f"family dimensionalities differ: {s1.k} vs {s2.k}")
    diff = [b - a for a, b in zip(s1.coeffs, s2.coeffs, strict=True)]
    worst = float(np.abs(_membership_sums(tensor, s1.k, diff)).max(initial=0.0))
    return worst < tolerance, worst
