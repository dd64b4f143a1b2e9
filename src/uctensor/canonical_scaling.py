"""Iterative log-space scaling of a sparse positive tensor to canonical form.

Canonical form means: the product of the known entries of every non-empty
k-dimensional subtensor equals 1.  The transform works entirely in natural
logs, where the target is a zero sum per subtensor.  Each step centers one
subtensor's known log values,

    rho = -mean(log values over the subtensor's known entries)

adding rho to those values in place (Gauss-Seidel: later subtensors in the
same sweep see the update) and accumulating rho into that subtensor's
scaling coefficient.  Each such step is the orthogonal projection of the
log vector onto one zero-sum hyperplane, so the iteration converges to the
Euclidean projection onto their intersection — the canonical form.

Sign convention, fixed once and used everywhere: with ``s`` the
accumulated log coefficients,

    log canonical(idx) = log original(idx) + sum of s over the subtensors
                         containing idx

so the canonical tensor is the original scaled *by* exp(s), and completion
downstream divides by it (predictions are exp(-sum s)).

The squared step sizes accumulated during one sweep form the convergence
measure ``v``; it resets at the start of every sweep.  Convergence is
declared after the first sweep with v below the threshold.  A few extra
polish sweeps then run until v reaches the floating-point floor: the
geometric contraction makes them cheap, and they take the subtensor
products to full precision instead of leaving an error of order sqrt(v).
The result stays in log space, as the canonical log values ``x`` in the
order ``solve_lcsp`` uses; :func:`apply_scaling` exponentiates at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError
from .sparse_tensor import Index, SparseTensor, SubtensorGroup, SubtensorId

DEFAULT_EPSILON = 1e-12
DEFAULT_MAX_SWEEPS = 10_000

# Extra sweeps after the epsilon test passes stop once v falls below this;
# double precision puts the attainable floor around 1e-31 for unit-scale logs.
POLISH_FLOOR = 1e-28


@dataclass(eq=False)
class ScalingFamily:
    """Log scaling coefficients of a tensor's k-dimensional subtensors.

    One float vector per subtensor group, as the sweep keeps them:
    ``coeffs[g][p]`` belongs to ``groups[g].ids[p]``.  Empty subtensors
    have coefficient 0, and so do those without an id (for k < d-1 only
    occupied subtensors are enumerated).
    """

    k: int
    groups: list[SubtensorGroup]
    coeffs: list[np.ndarray]

    @property
    def log_coeffs(self) -> dict[SubtensorId, float]:
        """The coefficients keyed by subtensor id, rebuilt on every access."""
        pairs = zip(self.groups, self.coeffs)
        return {sid: s for g, vec in pairs for sid, s in zip(g.ids, vec.tolist())}

    def log_sum_at(self, idx: Index) -> float:
        """Sum of coefficients over the subtensors containing ``idx``."""
        total = 0.0
        for group, vec in zip(self.groups, self.coeffs):
            if (pos := group.slot(idx)) is not None:
                total += vec[pos]
        return total


@dataclass
class ConvergenceReport:
    """Outcome of an iterative scaling run."""

    sweeps: int
    v_trace: list[float]
    epsilon: float
    converged: bool


class ScalingState:
    """Mutable state of an in-progress scaling run.

    Exposes the log values and per-group coefficient accumulators so the
    iteration can be driven one sweep at a time (timing studies, per-sweep
    invariant checks).  ``order`` permutes the processing order of the
    fixed-dimension groups; within a group, subtensors are disjoint, so
    the group is processed as one vectorized centering step whose result
    is identical to processing its subtensors sequentially.
    """

    def __init__(self, tensor: SparseTensor, k: int, order: Sequence[int] | None = None):
        self.k = k
        self.groups = tensor.groups(k)
        if order is None:
            self.order = list(range(len(self.groups)))
        else:
            self.order = [int(g) for g in order]
            if sorted(self.order) != list(range(len(self.groups))):
                raise ValueError(
                    f"order must permute range({len(self.groups)}), got {order}"
                )
        self.log_values = np.log(tensor.values_array())
        self.log_coeffs = [np.zeros(len(g.ids)) for g in self.groups]
        self.v_trace: list[float] = []

    @property
    def sweeps(self) -> int:
        return len(self.v_trace)

    def family(self) -> ScalingFamily:
        return ScalingFamily(self.k, self.groups, [c.copy() for c in self.log_coeffs])

    def report(self, epsilon: float) -> ConvergenceReport:
        converged = bool(self.v_trace) and self.v_trace[-1] < epsilon
        return ConvergenceReport(self.sweeps, list(self.v_trace), epsilon, converged)


def sweep(state: ScalingState) -> float:
    """One full pass over all non-empty subtensors; returns this pass's v.

    Empty subtensors contribute nothing and their coefficients stay 0.
    """
    v = 0.0
    for gi in state.order:
        group = state.groups[gi]
        sums = np.bincount(
            group.labels, weights=state.log_values, minlength=len(group.ids)
        )
        rho = np.where(group.counts > 0, -sums / np.maximum(group.counts, 1), 0.0)
        state.log_values += rho[group.labels]
        state.log_coeffs[gi] += rho
        v += float(rho @ rho)
    state.v_trace.append(v)
    return v


def csa(
    tensor: SparseTensor,
    k: int,
    epsilon: float = DEFAULT_EPSILON,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    order: Sequence[int] | None = None,
) -> tuple[np.ndarray, ScalingFamily, ConvergenceReport]:
    """Scale ``tensor`` to canonical form over its k-dimensional subtensors.

    Returns ``(x, family, report)``: the canonical log values ``x``
    (aligned with ``tensor.known_indices()``, zero sum over every
    non-empty subtensor), the scaling family realizing them, and the
    convergence report.  ``apply_scaling(tensor, family)`` gives the
    canonical tensor.  The input tensor is not modified.  Once v passes
    the epsilon test, sweeping continues to the numerical floor (still
    within ``max_sweeps``), so results do not depend on how far above the
    floor epsilon sits.

    Raises
    ------
    ConvergenceError
        If v is still at or above ``epsilon`` after ``max_sweeps`` sweeps.
        The exception carries the report for the failed run.
    """
    if len(tensor) == 0:
        raise ValueError("cannot scale a tensor with no known entries")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")

    state = ScalingState(tensor, k, order)
    for _ in range(max_sweeps):
        v = sweep(state)
        if v < epsilon and v < POLISH_FLOOR:
            break
    report = state.report(epsilon)
    if not report.converged:
        raise ConvergenceError(
            f"no convergence after {state.sweeps} sweeps "
            f"(last v={report.v_trace[-1]:.3e}, epsilon={epsilon:.3e})",
            report=report,
        )
    return state.log_values, state.family(), report


def residual(tensor: SparseTensor, k: int) -> float:
    """Worst canonical-form violation: max |sum of log values| per subtensor.

    Zero for a tensor in exact canonical form; empty subtensors are
    skipped.
    """
    log_values = np.log(tensor.values_array())
    worst = 0.0
    for group in tensor.groups(k):
        sums = np.bincount(group.labels, weights=log_values, minlength=len(group.ids))
        occupied = group.counts > 0
        if occupied.any():
            worst = max(worst, float(np.abs(sums[occupied]).max()))
    return worst


def _membership_sums(
    tensor: SparseTensor, k: int, coeffs: Sequence[np.ndarray]
) -> np.ndarray:
    """Per known entry, the sum of ``coeffs`` over the subtensors containing it.

    ``coeffs`` holds one vector per group of ``tensor.groups(k)``, gathered
    through the group's labels as :func:`sweep` does.
    """
    groups = tensor.groups(k)
    if [len(c) for c in coeffs] != [len(g.ids) for g in groups]:
        raise ValueError("coefficient vectors do not match the tensor's subtensor groups")
    total = np.zeros(len(tensor))
    for group, vec in zip(groups, coeffs):
        total += vec[group.labels]
    return total


def apply_scaling(tensor: SparseTensor, family: ScalingFamily) -> SparseTensor:
    """Scale every known entry by exp(sum of coefficients containing it)."""
    log_sums = _membership_sums(tensor, family.k, family.coeffs)
    scaled = tensor.values_array() * np.exp(log_sums)
    return SparseTensor(tensor.extents, dict(zip(tensor.known_indices(), scaled.tolist())))
