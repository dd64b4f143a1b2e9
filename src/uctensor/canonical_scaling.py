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
measure ``v``; it resets at the start of every sweep.

The same projection solves the linear system ``C Cᵀ s = −C a``, with
``C`` the 0/1 membership matrix of known entries (columns) in non-empty
subtensors (rows) and ``a`` the known log values; then ``x = a + Cᵀs``.
:func:`csa` runs one warm sweep, peels the tree-shaped parts of the
pattern exactly, and runs Jacobi-preconditioned conjugate gradients on
the core left.  A subtensor with one live known entry forces that
entry's x to 0; removing the entry leaves the other constraints in the
same form, so a queue over the live counts peels every chain, star and
dangling tree in O(N), for any d and k, and back-substitution in
reverse peel order gives their coefficients.  Every use of ``C`` goes
through one ``C x``, :func:`_subtensor_sums`, and one ``Cᵀ s``,
:func:`_entry_sums`: a bincount over, and a gather through, the group
labels.  Gauss-Seidel contracts slowly on poorly connected patterns (a
chain of length L needs on the order of L² sweeps, and CG without
peeling about 2L iterations; a ring, which does not peel, still takes
CG about L); :func:`sweep` stays available to drive the paper's
iteration one pass at a time.  For a CG iteration ``v`` is the squared
norm of the centering steps every subtensor of the core would take at
once, the same kind of measure as a sweep's, one value per step.

Once v is below epsilon, a run stops when v reaches the floating-point
floor, ``n_occupied · (ε_mach · max(1, max |log value|))²`` over the
occupied subtensors, or when v has set no new minimum for
``STALL_STEPS`` steps; otherwise it runs until its step budget is spent,
and it has converged if the last v is below epsilon.  Going on past
epsilon takes the subtensor products to full precision instead of leaving
an error of order sqrt(v), and neither stop depends on instance
size.  The result stays in log space, as the canonical log values ``x``
in the order ``solve_lcsp`` uses; :func:`apply_scaling` exponentiates at
the boundary.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError
from .sparse_tensor import Index, SparseTensor, SubtensorGroup, SubtensorId

DEFAULT_EPSILON = 1e-12
DEFAULT_MAX_SWEEPS = 10_000

# Steps without a new minimum of v, once v is below epsilon, after which
# rounding noise is taken to have stalled the run.
STALL_STEPS = 10


@dataclass(eq=False)
class ScalingFamily:
    """Log scaling coefficients of a tensor's k-dimensional subtensors.

    One float vector per subtensor group, as the sweep keeps them:
    ``coeffs[g][p]`` belongs to ``groups[g].fixed[p]``.  Empty subtensors
    have coefficient 0, and so do those without a row (for k < d-1 only
    occupied subtensors are enumerated).
    """

    k: int
    groups: list[SubtensorGroup]
    coeffs: list[np.ndarray]

    @property
    def log_coeffs(self) -> dict[SubtensorId, float]:
        """The coefficients keyed by subtensor id, rebuilt on every access."""
        return {
            SubtensorId(g.fixed_dims, tuple(row)): s
            for g, vec in zip(self.groups, self.coeffs)
            for row, s in zip(g.fixed.tolist(), vec.tolist())
        }

    def log_sum_at(self, idx: Index) -> float:
        """Sum of coefficients over the subtensors containing ``idx``."""
        total = 0.0
        for group, vec in zip(self.groups, self.coeffs):
            if (pos := group.slot(idx)) is not None:
                total += vec[pos]
        return total

    def log_sums(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`log_sum_at` of each row of an (n, d) array of in-bounds indices.

        Adds in the same group order from the same zero, so every sum
        equals :meth:`log_sum_at`'s bit for bit.
        """
        total = np.zeros(len(coords))
        for group, vec in zip(self.groups, self.coeffs):
            pos = group.slots(coords)
            found = pos >= 0  # log_sum_at skips subtensors without a row
            total[found] += vec[pos[found]]
        return total


@dataclass
class ConvergenceReport:
    """Outcome of an iterative scaling run."""

    sweeps: int
    v_trace: list[float]
    epsilon: float
    converged: bool
    # Why the run ended: "floor", "stagnation" or "budget".  residual is the
    # worst |sum of canonical log values| over a subtensor at the end.  The
    # model artifact stores both, so a reloaded report carries them too.
    stop_reason: str
    residual: float


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
        # one flat vector, so a whole-system step can update every group at once
        sizes = [len(g.counts) for g in self.groups]
        self.coeffs_flat = np.zeros(sum(sizes))
        self.log_coeffs = np.split(self.coeffs_flat, np.cumsum(sizes)[:-1])
        self.v_trace: list[float] = []

    @property
    def sweeps(self) -> int:
        return len(self.v_trace)

    def family(self) -> ScalingFamily:
        return ScalingFamily(self.k, self.groups, [c.copy() for c in self.log_coeffs])

    def report(self, epsilon: float, stop_reason: str) -> ConvergenceReport:
        converged = bool(self.v_trace) and self.v_trace[-1] < epsilon
        return ConvergenceReport(
            self.sweeps, list(self.v_trace), epsilon, converged, stop_reason,
            _worst_sum(self.groups, self.log_values),
        )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-d float arrays, summed in one order whatever the thread count.

    ``a @ b`` calls BLAS, which splits long vectors across its threads and
    so rounds differently under a different thread count; the fitted
    coefficients, and the artifact's bytes, would follow it.
    """
    return float(np.einsum("i,i", a, b))


def sweep(state: ScalingState) -> float:
    """One full pass over all non-empty subtensors; returns this pass's v.

    Empty subtensors contribute nothing and their coefficients stay 0.
    """
    v = 0.0
    for gi in state.order:
        group = state.groups[gi]
        sums = np.bincount(
            group.labels, weights=state.log_values, minlength=len(group.counts)
        )
        rho = np.where(group.counts > 0, -sums / np.maximum(group.counts, 1), 0.0)
        state.log_values += rho[group.labels]
        state.log_coeffs[gi] += rho
        v += _dot(rho, rho)
    state.v_trace.append(v)
    return v


def _peel(
    groups: Sequence[SubtensorGroup], counts: np.ndarray
) -> tuple[list[int], list[int], np.ndarray, np.ndarray] | None:
    """Peel every entry that is the only live entry of some subtensor, until none is.

    ``counts`` are the groups' counts laid out as ``coeffs_flat``.  Such an
    entry's canonical log value is 0, and removing it leaves the other
    subtensors' constraints in the same form, so one queue over the live
    counts peels every tree-shaped part of the pattern.  A subtensor's
    last live entry is the sum of its live entries' positions once its
    count is 1, so no member lists are needed.

    Returns, in peel order, the peeled entries, the subtensor that peeled
    each, and each one's subtensors as a row, all as positions in
    ``coeffs_flat``; then the live counts left.  None if no count is 1.
    """
    queue = np.flatnonzero(counts == 1).tolist()
    if not queue:
        return None
    # exact in float64 while the position sums stay below 2**53
    positions = _subtensor_sums(groups, np.arange(len(groups[0].labels), dtype=float))
    offsets = np.cumsum([0] + [len(g.counts) for g in groups[:-1]]).tolist()
    # scalar numpy updates: converting whole arrays to lists costs more than
    # the few peels of a large, well-connected pattern
    live, left = counts.copy(), positions
    entries, peelers, members = [], [], []
    while queue:
        q = queue.pop()
        if live.item(q) != 1:  # its last entry was peeled by another subtensor
            continue
        t = int(left.item(q))
        entries.append(t)
        peelers.append(q)
        members.append([offset + group.labels.item(t) for offset, group in zip(offsets, groups)])
        for q in members[-1]:
            live[q] -= 1
            left[q] -= t
            if live.item(q) == 1:
                queue.append(q)
    return entries, peelers, np.array(members), live


def _cg_steps(state: ScalingState) -> Iterator[float]:
    """Jacobi-preconditioned conjugate gradients on ``C Cᵀ s = −C x``; yields each v.

    ``C`` is the 0/1 membership matrix of known entries in subtensors, so
    ``C Cᵀ`` has the known-entry counts on its diagonal.  The first step is
    one :func:`sweep`, which also absorbs a single-group rescaling exactly.
    Then :func:`_peel` takes the tree-shaped parts off the pattern, and CG
    runs on the core left: the groups' labels at the live entries, with
    the live counts.  Every CG step moves ``s`` along a search direction
    ``p`` and ``x`` along ``w = Cᵀp``, then recomputes the residual
    ``r = −C x`` from ``x`` itself, at the same cost as the usual
    recurrence ``r −= α C w``, which drifts away from the true residual
    once ``r·z`` underflows.  v is ``z·z`` with ``z = r / counts``, the
    centering steps all subtensors would take at once; an empty core
    gives v = 0.

    Closing the generator after the first step writes the core's ``x``
    back and back-substitutes the peeled entries, last peeled first: each
    one's coefficient sum, recomputed as CG and later peels left it, is
    taken out of the coefficient of the subtensor that peeled it, so the
    entry ends with x = 0.  Subtensors left with no live entry keep the
    coefficients the sweep gave them.
    """
    yield sweep(state)
    groups, x, s = state.groups, state.log_values, state.coeffs_flat
    counts = np.concatenate([g.counts for g in groups])
    peeled = _peel(groups, counts)
    if peeled is None:
        yield from _cg(groups, x, s, counts, state.v_trace)
        return
    entries, peelers, members, counts = peeled
    base = x[entries] - s[members].sum(axis=1)  # x less its coefficient sum
    core = np.ones(len(x), dtype=bool)  # a mask: faster to gather and scatter by
    core[entries] = False
    ends = np.cumsum([len(g.counts) for g in groups])
    core_groups = [
        replace(g, labels=g.labels[core], counts=c)
        for g, c in zip(groups, np.split(counts, ends[:-1]))
    ]
    core_x = x[core]
    try:
        yield from _cg(core_groups, core_x, s, counts, state.v_trace)
    finally:
        x[core] = core_x
        touched = np.unique(members)  # each peeler is among its entry's subtensors
        coeffs = dict(zip(touched.tolist(), s[touched].tolist()))
        for at, peeler, value in zip(members.tolist()[::-1], peelers[::-1], base.tolist()[::-1]):
            coeffs[peeler] -= value + sum(coeffs[q] for q in at)
        s[peelers] = [coeffs[q] for q in peelers]
        x[entries] = 0.0


def _cg(
    groups: Sequence[SubtensorGroup], x: np.ndarray, s: np.ndarray, counts: np.ndarray,
    v_trace: list[float],
) -> Iterator[float]:
    """The CG steps of :func:`_cg_steps`, moving ``x`` and ``s`` in place."""
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    # r and z are the rows of one array, so that one reduction gives r·z and
    # z·z: each reduction without BLAS costs more per call than a BLAS dot
    rows = np.empty((2, len(counts)))
    r, z = rows

    def update_residual() -> tuple[float, float]:
        """Set ``r = −C x`` and ``z = r / counts`` in place; return ``r·z`` and ``z·z``."""
        _subtensor_sums(groups, x, out=r)
        np.negative(r, out=r)
        np.multiply(r, inv_counts, out=z)
        rz, zz = np.einsum("ij,j->i", rows, z).tolist()  # not BLAS: see _dot
        return rz, zz

    rz, _ = update_residual()
    p = z.copy()
    # per-group views into p, which is therefore updated in place below
    p_groups = np.split(p, np.cumsum([len(g.counts) for g in groups])[:-1])
    while True:
        w = _entry_sums(groups, p_groups)
        ww = _dot(w, w)
        alpha = rz / ww if ww > 0 else 0.0  # w = 0 only once r is exactly 0
        s += alpha * p
        x += alpha * w
        rz_old = rz
        rz, v = update_residual()
        v_trace.append(v)
        yield v
        p *= rz / rz_old
        p += z


def _run_until_stop(steps: Iterable[float], epsilon: float, floor: float) -> str:
    """Take v values from ``steps`` until the stop rule fires; return why it stopped."""
    best, since_best = math.inf, 0
    for v in steps:
        best, since_best = (v, 0) if v < best else (best, since_best + 1)
        if v < epsilon and v <= floor:
            return "floor"
        if v < epsilon and since_best >= STALL_STEPS:
            return "stagnation"
    return "budget"


def csa(
    tensor: SparseTensor,
    k: int,
    epsilon: float = DEFAULT_EPSILON,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    order: Sequence[int] | None = None,
) -> tuple[np.ndarray, ScalingFamily, ConvergenceReport]:
    """Scale ``tensor`` to canonical form over its k-dimensional subtensors.

    Returns ``(x, family, report)``: the canonical log values ``x``
    (aligned with ``tensor.coords_array()``, zero sum over every
    non-empty subtensor), the scaling family realizing them, and the
    convergence report.  ``apply_scaling(tensor, family)`` gives the
    canonical tensor.  The input tensor is not modified.

    The projection is solved by peeling and then Jacobi-preconditioned
    conjugate gradients on the core, after one warm :func:`sweep`, which
    processes the groups in ``order`` (default: group order).  A different
    order leaves the coefficients in a different gauge but gives the same
    ``x``.  The warm sweep and each CG iteration are one step against
    ``max_sweeps``; peeling takes none, and a pattern that peels entirely
    stops at the step after the sweep, with v = 0.
    ``report.stop_reason`` says which part of the stop rule (module
    docstring) ended the run: ``"floor"``, ``"stagnation"`` or
    ``"budget"``.

    Raises
    ------
    ConvergenceError
        If the last v is at or above ``epsilon`` when the run stops.  The
        exception carries the report for the failed run.
    """
    if len(tensor) == 0:
        raise ValueError("cannot scale a tensor with no known entries")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")

    state = ScalingState(tensor, k, order)
    # closing the steps writes back the entries they peeled
    with contextlib.closing(_cg_steps(state)) as steps:
        first = next(steps)
        # rounding noise scales with the log values as the first step leaves
        # them (it removes any common offset of the input)
        occupied = sum(int(np.count_nonzero(g.counts)) for g in state.groups)
        scale = max(1.0, float(np.abs(state.log_values).max()))
        floor = occupied * (np.finfo(float).eps * scale) ** 2
        budget = itertools.chain([first], itertools.islice(steps, max_sweeps - 1))
        stop_reason = _run_until_stop(budget, epsilon, floor)
    report = state.report(epsilon, stop_reason)
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
    return _worst_sum(tensor.groups(k), np.log(tensor.values_array()))


def _subtensor_sums(groups: Sequence[SubtensorGroup], x: np.ndarray, out=None) -> np.ndarray:
    """``C x``: the sum of ``x`` over each subtensor, laid out as ``coeffs_flat``; 0 if empty."""
    return np.concatenate(
        [np.bincount(g.labels, weights=x, minlength=len(g.counts)) for g in groups], out=out
    )


def _entry_sums(groups: Sequence[SubtensorGroup], coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """``Cᵀ s``: each known entry's sum of ``coeffs``, one vector per group, in group order."""
    total = coeffs[0][groups[0].labels]
    for group, vec in zip(groups[1:], coeffs[1:]):
        total += vec[group.labels]
    return total


def _worst_sum(groups: Sequence[SubtensorGroup], log_values: np.ndarray) -> float:
    occupied = np.concatenate([g.counts for g in groups]) > 0
    return float(np.abs(_subtensor_sums(groups, log_values)[occupied]).max(initial=0.0))


def _membership_sums(
    tensor: SparseTensor, k: int, coeffs: Sequence[np.ndarray]
) -> np.ndarray:
    """Per known entry, the sum of ``coeffs`` over the subtensors containing it.

    ``coeffs`` holds one vector per group of ``tensor.groups(k)``.
    """
    groups = tensor.groups(k)
    if [len(c) for c in coeffs] != [len(g.counts) for g in groups]:
        raise ValueError("coefficient vectors do not match the tensor's subtensor groups")
    return _entry_sums(groups, coeffs)


def apply_scaling(tensor: SparseTensor, family: ScalingFamily) -> SparseTensor:
    """Scale every known entry by exp(sum of coefficients containing it)."""
    log_sums = _membership_sums(tensor, family.k, family.coeffs)
    scaled = tensor.values_array() * np.exp(log_sums)
    return SparseTensor.from_arrays(tensor.extents, tensor.coords_array(), scaled)
