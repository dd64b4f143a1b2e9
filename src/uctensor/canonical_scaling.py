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
iteration one pass at a time, and :func:`experiment_scaling` times it.
For a CG iteration ``v`` is the squared norm of the centering steps
every subtensor of the core would take at once, the same kind of measure
as a sweep's, one value per step.

:func:`csa_many` fits many value vectors on one pattern, such as the
rescaled copies a property check compares, in one run: the rows of an
(m, N) array of log values step together, one bincount or gather per
group serving every row, and the pattern is peeled once.  Each row keeps
its own warm-sweep order, stop rule and report, and a row that stops
leaves the arrays.  Its dot products stay one ``einsum`` per row, so
every row's result equals its own :func:`csa` bit for bit; ``csa`` is
the one-row case.

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

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError
from .sparse_tensor import Index, SparseTensor, SubtensorGroup, SubtensorId, check_index

DEFAULT_EPSILON = 1e-12
DEFAULT_MAX_SWEEPS = 10_000

# Most rows × known entries in one chunk of a batched fit: each (rows,
# entries) float array of a chunk stays within 128 KiB, like MISSING_BLOCK.
# Unit consistency on 490- and 900-entry files ran no faster with chunks
# of 4,096 to 262,144.
FIT_BLOCK = 16_384

# Steps without a new minimum of v, once v is below epsilon, after which
# rounding noise is taken to have stalled the run.
STALL_STEPS = 10

MEASURE_SECONDS = 0.01  # shortest timed stretch of sweeps in experiment_scaling


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
        """Sum of coefficients over the subtensors containing ``idx``.

        One pass over the groups, each read with ``item``.  For k = d-1
        each slice group checks the coordinate it fixes against its
        extent; the groups together fix every dimension, so only the
        length needs a check of its own.  For smaller k the index is
        checked once, and each group finds its row by a binary search.
        A refused ``idx`` raises what
        :func:`~uctensor.sparse_tensor.check_index` raises.
        """
        d, extents, slices, keyed = self._plan
        if len(idx) != d:
            check_index(idx, extents)  # raises
        coeffs = self.coeffs  # read on every call: callers may swap the vectors
        total = 0.0
        try:
            if slices:  # k = d - 1: a slice's row is its coordinate - 1
                for g, dim, n in slices:
                    c = idx[dim]
                    if not 0 < c <= n:
                        check_index(idx, extents)  # raises
                    total += coeffs[g].item(c - 1)
            else:  # k < d - 1: each dimension is fixed by several groups, so check once
                check_index(idx, extents)
                for g, group in keyed:
                    if (pos := group.slot(idx)) is not None:
                        total += coeffs[g].item(pos)
        except TypeError:  # a coordinate that is not an integer
            check_index(idx, extents)
            raise
        return total

    @functools.cached_property
    def _plan(self) -> tuple[int, tuple[int, ...], list[tuple], list[tuple]]:
        """d, the extents, and per group what :meth:`log_sum_at` reads, built on first use.

        A slice group gives its position, its 0-based dimension and that
        dimension's extent; any other group its position and itself.
        Every group of one k fixes as many dimensions, so one of the two
        lists holds them all, in order.  Positions, not vectors, are kept,
        since ``coeffs`` may be swapped; indexing it costs less than
        zipping with it, whose setup alone is about a fifth of a slice
        query.
        """
        extents = [0] * (self.k + len(self.groups[0].fixed_dims))
        slices, keyed = [], []
        for g, group in enumerate(self.groups):
            for dim, n in zip(group.fixed_dims, group.extents):
                extents[dim - 1] = n
            if group.keys is None:
                slices.append((g, group.fixed_dims[0] - 1, group.extents[0]))
            else:
                keyed.append((g, group))
        return len(extents), tuple(extents), slices, keyed

    def log_sums(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`log_sum_at` of each row of an (n, d) array of in-bounds indices.

        Adds in the same group order from the same zero, so every sum
        equals :meth:`log_sum_at`'s bit for bit.
        """
        return self.sums_at([group.slots(coords) for group in self.groups])

    def sums_at(self, slots: Sequence[np.ndarray]) -> np.ndarray:
        """:meth:`log_sums` at the cells whose rows are ``slots``, one array per group.

        ``slots`` is what each group's ``slots`` gives for the cells, so
        families of one pattern can share it.
        """
        total = np.zeros(len(slots[0]))
        for vec, pos in zip(self.coeffs, slots):
            found = pos >= 0  # log_sum_at skips subtensors without a row
            total[found] += vec[pos[found]]
        return total


@dataclass
class ConvergenceReport:
    """Outcome of an iterative scaling run."""

    sweeps: int
    v_trace: list[float]
    epsilon: float
    max_sweeps: int  # the step budget the run had
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
        self.order = _check_order(order, len(self.groups))
        self.log_values = np.log(tensor.values_array())
        # one flat vector, so a whole-system step can update every group at once
        offsets = _offsets(self.groups)
        self.coeffs_flat = np.zeros(offsets[-1])
        self.log_coeffs = _blocks(self.coeffs_flat, offsets)

    def family(self) -> ScalingFamily:
        return ScalingFamily(self.k, self.groups, [c.copy() for c in self.log_coeffs])


def _check_order(order: Sequence[int] | None, n_groups: int) -> list[int]:
    """A sweep order as a list of group positions: ``order``, once it permutes
    ``range(n_groups)``, or group order for None."""
    group_order = list(range(n_groups))
    if order is None:
        return group_order
    order = [int(g) for g in order]
    if sorted(order) != group_order:
        raise ValueError(f"order must permute range({n_groups}), got {order}")
    return order


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-d float arrays, summed in one order whatever the thread count.

    ``a @ b`` calls BLAS, which splits long vectors across its threads and
    so rounds differently under a different thread count; the fitted
    coefficients, and the artifact's bytes, would follow it.  Batched
    runs call it once per row: one ``einsum`` over a 2-d array rounds its
    long rows differently from the same ``einsum`` over each row.
    """
    return float(np.einsum("i,i", a, b))


def sweep(state: ScalingState) -> float:
    """One full pass over all non-empty subtensors; returns this pass's v.

    Empty subtensors contribute nothing and their coefficients stay 0.
    """
    return _sweep_rows(
        state.groups, state.log_values[None], state.coeffs_flat[None], [state.order]
    )[0]


def _sweep_rows(
    groups: Sequence[SubtensorGroup], x: np.ndarray, s: np.ndarray,
    orders: Sequence[Sequence[int]],
) -> list[float]:
    """One sweep of each row of ``x`` (m, N) and ``s`` (m, n), in place; returns each row's v.

    Row r processes the groups in ``orders[r]``.  The rows sharing an
    order take each centering step together, one bincount over all of
    them, and each row's v adds up in its own order.
    """
    offsets = _offsets(groups)
    v = [0.0] * len(x)
    by_order: dict[tuple[int, ...], list[int]] = {}
    for r, order in enumerate(orders):
        by_order.setdefault(tuple(order), []).append(r)
    for order, rows in by_order.items():
        if len(rows) == 1:  # views of the one row
            xs, ss = x[rows[0]], s[rows[0]]
        else:  # copies unless every row shares the order, written back below
            xs, ss = (x, s) if len(rows) == len(x) else (x[rows], s[rows])
        weights = xs.ravel()  # a view, which the steps below update
        row_groups = _row_groups(groups, len(rows))
        for gi in order:
            group, lo, hi = groups[gi], offsets[gi], offsets[gi + 1]
            sums = np.bincount(row_groups[gi].labels, weights, len(rows) * (hi - lo))
            sums = sums.reshape(xs.shape[:-1] + (-1,))
            rho = np.where(group.counts > 0, -sums / np.maximum(group.counts, 1), 0.0)
            xs += rho.take(group.labels, -1)
            ss[..., lo:hi] += rho
            for r, rho_r in zip(rows, rho.reshape(len(rows), -1)):
                v[r] += _dot(rho_r, rho_r)
        if 1 < len(rows) < len(x):
            x[rows], s[rows] = xs, ss
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
    offsets = _offsets(groups)
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


@dataclass
class _Core:
    """What CG runs on once :func:`_peel` has taken the tree-shaped parts off a pattern."""

    groups: list[SubtensorGroup]  # labels at the core entries, with the live counts
    inv_counts: np.ndarray  # 1 / live count per subtensor; 0 where none is live
    mask: np.ndarray | None  # the core entries; None when nothing peeled
    peeled: tuple[list[int], list[int], np.ndarray] | None  # entries, peelers, members


def _core(groups: Sequence[SubtensorGroup]) -> _Core:
    counts = np.concatenate([g.counts for g in groups])
    peeled = _peel(groups, counts)
    if peeled is None:
        return _Core(list(groups), np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0), None, None)
    entries, peelers, members, counts = peeled
    mask = np.ones(len(groups[0].labels), dtype=bool)  # a mask: faster to gather and scatter by
    mask[entries] = False
    core_groups = [
        replace(g, labels=g.labels[mask], counts=c)
        for g, c in zip(groups, _blocks(counts, _offsets(groups)))
    ]
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    return _Core(core_groups, inv_counts, mask, (entries, peelers, members))


def _row_groups(groups: Sequence[SubtensorGroup], m: int) -> list[SubtensorGroup]:
    """``groups`` for the entries of m rows, as :func:`_subtensor_sums` takes them.

    Row r's entry with label p gets label r·n_g + p, so one bincount
    sums every row's subtensors.
    """
    if m == 1:
        return list(groups)
    return [
        replace(g, labels=(g.labels + len(g.counts) * np.arange(m)[:, None]).ravel())
        for g in groups
    ]


def _back_substitute(s: np.ndarray, peeled: tuple, base: np.ndarray) -> None:
    """Give the peeled entries of one row x = 0, last peeled first, in place in ``s``.

    Each entry's coefficient sum, recomputed as CG and later peels left
    it, is taken out of the coefficient of the subtensor that peeled it.
    ``base`` holds each entry's x less its coefficient sum after the warm
    sweep.  Scalar Python floats: a numpy call per entry costs more than
    this whole loop for one row.
    """
    _, peelers, members = peeled
    touched = np.unique(members)  # each peeler is among its entry's subtensors
    coeffs = dict(zip(touched.tolist(), s[touched].tolist()))
    for at, peeler, value in zip(members.tolist()[::-1], peelers[::-1], base.tolist()[::-1]):
        coeffs[peeler] -= value + sum(coeffs[q] for q in at)
    s[peelers] = [coeffs[q] for q in peelers]


class _StopRule:
    """The module docstring's stop rule for one run, fed its v values one at a time."""

    def __init__(self, epsilon: float, floor: float):
        self.epsilon, self.floor = epsilon, floor
        self.best, self.since_best = math.inf, 0

    def __call__(self, v: float) -> str | None:
        """Why the run stops after this v, or None to go on."""
        self.best, self.since_best = (v, 0) if v < self.best else (self.best, self.since_best + 1)
        if v < self.epsilon and v <= self.floor:
            return "floor"
        if v < self.epsilon and self.since_best >= STALL_STEPS:
            return "stagnation"
        return None


def _per_row(factors: list[float]):
    """Factors to scale each row of a 2-d array by: a column, or a float for one row."""
    return factors[0] if len(factors) == 1 else np.array(factors)[:, None]


def _fit_chunk(
    groups: Sequence[SubtensorGroup], x: np.ndarray, orders: Sequence[Sequence[int]],
    epsilon: float, max_sweeps: int, core: Callable[[], _Core],
) -> tuple[np.ndarray, list[list[float]], list[str]]:
    """Fit each row of ``x`` (m, N) in place; return the coefficients, v traces and stop reasons.

    The coefficients are (m, n), each row laid out as ``coeffs_flat``.
    The warm sweep is step 1.  Then ``core()`` peels the pattern, once
    for all chunks, and CG steps every row still going at once.  A row
    that stops leaves the arrays: its core x is written back and its
    peeled entries back-substituted.
    """
    offsets = _offsets(groups)
    m, n = len(x), offsets[-1]
    s = np.zeros((m, n))
    traces = [[v] for v in _sweep_rows(groups, x, s, orders)]
    # rounding noise scales with the log values as the first step leaves
    # them (it removes any common offset of the input)
    occupied = sum(int(np.count_nonzero(g.counts)) for g in groups)
    eps = np.finfo(float).eps
    rules = [
        _StopRule(epsilon, occupied * (eps * max(1.0, scale)) ** 2)
        for scale in np.abs(x).max(axis=1).tolist()
    ]
    reasons = [
        rule(trace[0]) or ("budget" if max_sweeps == 1 else None)
        for rule, trace in zip(rules, traces)
    ]
    live = [r for r, reason in enumerate(reasons) if reason is None]
    if not live:
        return s, traces, reasons

    fit = core()
    peeled, mask = fit.peeled, fit.mask
    if peeled is not None:  # each entry's x less its coefficient sum
        entries, _, members = peeled
        bases = [x[r, entries] - s[r][members].sum(axis=1) for r in live]
    # per row: s and the core's x, moved together along p and w = Cᵀp;
    # r = −C x and z = r / counts, each pair contiguous for one reduction
    sx = np.empty((len(live), len(fit.groups[0].labels) + n))
    pw = np.empty_like(sx)
    sx[:, :n] = s[live]
    rows = x if len(live) == m else x[live]
    if mask is None:
        sx[:, n:] = rows
    else:
        np.compress(mask, rows, axis=1, out=sx[:, n:])
    rz = np.empty((len(live), 2, n))

    def views():
        """Views into the arrays, 1-d when one row is left, and the rows' groups.

        Taken again once stopped rows leave the arrays.
        """
        rows = (sx[0], pw[0], rz[0]) if len(sx) == 1 else (sx, pw, rz)
        p = rows[1][..., :n]
        return (
            rows[0][..., n:], p, _blocks(p, offsets), rows[1][..., n:], rows[2][..., 0, :],
            rows[2][..., 1, :], list(pw[:, n:]), [(pair, pair[1]) for pair in rz],
            _row_groups(fit.groups, len(sx)),
        )

    def update_residual() -> list[list[float]]:
        """Set r and z of every row in place; return each row's ``[r·z, z·z]``."""
        _subtensor_sums(row_groups, core_x, out=r)
        np.negative(r, out=r)
        np.multiply(r, fit.inv_counts, out=z)
        return [np.einsum("ij,j->i", pair, zr).tolist() for pair, zr in rz_rows]  # not BLAS: see _dot

    core_x, p, p_groups, w, r, z, w_rows, rz_rows, row_groups = views()
    rz_now = [pair[0] for pair in update_residual()]
    p[...] = z
    for step in range(2, max_sweeps + 1):
        _entry_sums(fit.groups, p_groups, out=w)
        ww = [_dot(row, row) for row in w_rows]
        alpha = [a / b if b > 0 else 0.0 for a, b in zip(rz_now, ww)]  # w = 0 only once r is 0
        sx += _per_row(alpha) * pw
        pairs = update_residual()
        keep = []
        for i, row in enumerate(live):
            v = pairs[i][1]
            traces[row].append(v)
            reason = rules[row](v)
            if reason is None and step < max_sweeps:
                keep.append(i)
                continue
            reasons[row] = reason or "budget"
            s[row] = sx[i, :n]
            if mask is None:
                x[row] = sx[i, n:]
            else:
                x[row, mask] = sx[i, n:]
                x[row, entries] = 0.0
                _back_substitute(s[row], peeled, bases[i])
        rz_old, rz_now = rz_now, [pair[0] for pair in pairs]
        if len(keep) < len(live):  # stopped rows are never touched again
            if not keep:
                break
            live = [live[i] for i in keep]
            rz_old, rz_now = [rz_old[i] for i in keep], [rz_now[i] for i in keep]
            if peeled is not None:
                bases = [bases[i] for i in keep]
            sx, pw, rz = sx[keep], pw[keep], rz[keep]
            core_x, p, p_groups, w, r, z, w_rows, rz_rows, row_groups = views()
        p *= _per_row([a / b for a, b in zip(rz_now, rz_old)])
        p += z
    return s, traces, reasons


def csa_many(
    tensor: SparseTensor,
    k: int,
    log_values: Iterable[np.ndarray],
    orders: Iterable[Sequence[int] | None] | None = None,
    epsilon: float = DEFAULT_EPSILON,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> Iterator[tuple[np.ndarray, ScalingFamily, ConvergenceReport]]:
    """:func:`csa` of each row of ``log_values``, all on ``tensor``'s pattern, in one run.

    ``log_values`` yields 1-d arrays (the rows of an (m, N) array will
    do): each row's log values for the known entries of ``tensor``, in
    the order of its ``coords_array()``; ``tensor``'s own values are not
    read.  ``orders``, if given, yields each row's warm-sweep order (None
    for group order).  Returns an iterator over ``csa``'s result for
    each row, in row order.  Row r's result equals, bit for bit, ``csa``
    on a tensor with the same pattern and values ``exp(log_values[r])``:
    each row keeps its own step count, stop reason and report.

    Rows are read and fitted in chunks of at most ``FIT_BLOCK`` rows ×
    entries (at least one row), so memory stays bounded by a chunk.  A
    chunk steps all its rows together: each step's numpy calls serve
    every row still going instead of one.

    Raises
    ------
    ValueError
        As :func:`csa` does, at once; and, once its chunk is read, for a
        row of another length or with a value that is not finite, or a
        row without an order.
    ConvergenceError
        For the first row whose last v is at or above ``epsilon`` when it
        stops, once the rows before it are yielded.  It carries that
        row's report.
    """
    if len(tensor) == 0:
        raise ValueError("cannot scale a tensor with no known entries")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    groups = tensor.groups(k)
    orders = itertools.repeat(None) if orders is None else iter(orders)
    return _fit_rows(k, groups, iter(log_values), orders, epsilon, max_sweeps)


def _fit_rows(
    k: int, groups: list[SubtensorGroup], rows: Iterator[np.ndarray],
    orders: Iterator[Sequence[int] | None], epsilon: float, max_sweeps: int,
) -> Iterator[tuple[np.ndarray, ScalingFamily, ConvergenceReport]]:
    """The chunks of :func:`csa_many`, read, fitted and reported in turn."""
    n_entries = len(groups[0].labels)
    core = functools.cache(lambda: _core(groups))  # peeled on first use, once for all chunks
    offsets = _offsets(groups)
    step = max(1, FIT_BLOCK // n_entries)
    while chunk := list(itertools.islice(rows, step)):
        x = np.array(chunk, dtype=np.float64)
        del chunk  # a row nothing else holds is freed once copied
        if x.ndim != 2 or x.shape[1] != n_entries:
            raise ValueError(f"log values of shape {x.shape[1:]} for {n_entries} entries")
        if not np.isfinite(x).all():
            raise ValueError("log values must be finite")
        chunk_orders = [_check_order(o, len(groups)) for o in itertools.islice(orders, len(x))]
        if len(chunk_orders) < len(x):
            raise ValueError("fewer orders than rows of log values")
        s, traces, reasons = _fit_chunk(groups, x, chunk_orders, epsilon, max_sweeps, core)
        for x_r, s_r, trace, reason, res in zip(x, s, traces, reasons, _worst_sums(groups, x)):
            report = ConvergenceReport(
                len(trace), trace, epsilon, max_sweeps, trace[-1] < epsilon, reason, res
            )
            if not report.converged:
                raise ConvergenceError(
                    f"no convergence after {report.sweeps} sweeps "
                    f"(last v={trace[-1]:.3e}, epsilon={epsilon:.3e})",
                    report=report,
                )
            yield x_r, ScalingFamily(k, groups, _blocks(s_r, offsets)), report


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
    ``"budget"``.  This is the one-row case of :func:`csa_many`.

    Raises
    ------
    ConvergenceError
        If the last v is at or above ``epsilon`` when the run stops.  The
        exception carries the report for the failed run.
    """
    # a generator, so that the one row is not held beside the fit's copy
    log_values = (np.log(values) for values in [tensor.values_array()])
    return next(csa_many(tensor, k, log_values, [order], epsilon, max_sweeps))


def residual(tensor: SparseTensor, k: int) -> float:
    """Worst canonical-form violation: max |sum of log values| per subtensor.

    Zero for a tensor in exact canonical form; empty subtensors are
    skipped.
    """
    return _worst_sums(tensor.groups(k), np.log(tensor.values_array())[None])[0]


def _offsets(groups: Sequence[SubtensorGroup]) -> list[int]:
    """Where each group's subtensors start in ``coeffs_flat``, then its length."""
    return list(itertools.accumulate((len(g.counts) for g in groups), initial=0))


def _blocks(a: np.ndarray, offsets: list[int]) -> list[np.ndarray]:
    """Views of each group's block of the last axis of ``a``."""
    return [a[..., lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def _subtensor_sums(groups: Sequence[SubtensorGroup], x: np.ndarray, out=None) -> np.ndarray:
    """``C x``: the sum of ``x`` over each subtensor, laid out as ``coeffs_flat``; 0 if empty.

    ``x`` may also be an (m, N) array of rows, with the groups
    :func:`_row_groups` gives for m rows; then the sums are (m, n), one
    row each.  One bincount per group: each subtensor sums
    its entries in entry order from 0.
    """
    weights = x.ravel()  # a copy only for a strided view of several rows
    if x.ndim == 1:
        parts = [np.bincount(g.labels, weights, len(g.counts)) for g in groups]
    else:
        m = len(x)
        parts = [np.bincount(g.labels, weights, m * len(g.counts)).reshape(m, -1) for g in groups]
    return np.concatenate(parts, axis=-1, out=out)


def _entry_sums(
    groups: Sequence[SubtensorGroup], coeffs: Sequence[np.ndarray], out=None
) -> np.ndarray:
    """``Cᵀ s``: each known entry's sum of ``coeffs``, one vector per group, in group order.

    ``coeffs`` may also hold one (m, n_g) block per group, for m rows;
    then the sums are (m, N).  ``take`` in "wrap" mode: the labels are in
    range, and unlike "raise" it writes into ``out`` unbuffered.
    """
    total = coeffs[0].take(groups[0].labels, -1, out, "wrap")
    for group, vec in zip(groups[1:], coeffs[1:]):
        total += vec.take(group.labels, -1, None, "wrap")
    return total


def _worst_sums(groups: Sequence[SubtensorGroup], x: np.ndarray) -> list[float]:
    """Per row of ``x`` (m, N), the worst |sum| over a non-empty subtensor."""
    occupied = np.concatenate([g.counts for g in groups]) > 0
    sums = _subtensor_sums(_row_groups(groups, len(x)), x)
    return np.abs(sums[:, occupied]).max(axis=1, initial=0.0).tolist()


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


def scaled_values(tensor: SparseTensor, family: ScalingFamily) -> np.ndarray:
    """Each known value times exp(sum of coefficients containing it), in ``coords_array()`` order."""
    return tensor.values_array() * np.exp(_membership_sums(tensor, family.k, family.coeffs))


def apply_scaling(tensor: SparseTensor, family: ScalingFamily) -> SparseTensor:
    """Scale every known entry by exp(sum of coefficients containing it)."""
    return SparseTensor.from_arrays(
        tensor.extents, tensor.coords_array(), scaled_values(tensor, family)
    )


def experiment_scaling(
    base_rows: int = 32,
    base_cols: int = 32,
    doublings: int = 5,
    sweeps_per_measure: int = 8,
    repeats: int = 5,
    seed: int = 0,
) -> tuple[dict, list[tuple]]:
    """Per-sweep wall time as the number of known entries doubles.

    Each size is timed ``repeats`` times and the fastest per-sweep time
    kept, which filters scheduler noise out of the small sizes.  A repeat
    runs at least ``sweeps_per_measure`` sweeps and ``MEASURE_SECONDS``,
    so sub-millisecond sweeps are timed over many, and the repeats cycle
    through the sizes, so a slow spell of the host slows them all.
    """
    rng = np.random.default_rng(seed)
    shapes = [(base_rows, base_cols)]
    for i in range(doublings):
        r, c = shapes[-1]
        shapes.append((r * 2, c) if i % 2 == 0 else (r, c * 2))
    tensors = []
    for r, c in shapes:
        values = np.exp(rng.uniform(-1.0, 1.0, size=(r, c)))
        cells = ((i + 1, j + 1) for i in range(r) for j in range(c))
        tensors.append(SparseTensor((r, c), zip(cells, values.ravel().tolist())))
    best = [(float("inf"), 0, 0.0)] * len(tensors)  # per-sweep s, sweeps, wall s
    for _ in range(repeats):
        for n, tensor in enumerate(tensors):
            state = ScalingState(tensor, 1)
            count, elapsed, started = 0, 0.0, time.perf_counter()
            while count < sweeps_per_measure or elapsed < MEASURE_SECONDS:
                sweep(state)
                count += 1
                elapsed = time.perf_counter() - started
            best[n] = min(best[n], (elapsed / count, count, elapsed))
    per_sweep = [b[0] for b in best]
    ratios = [float("nan")] + [b / a for a, b in zip(per_sweep, per_sweep[1:])]
    max_ratio = max(ratios[1:], default=0.0)
    data = [("entries", "sweeps", "wall_seconds", "per_sweep_seconds", "ratio_vs_previous")]
    data.extend(
        (len(t), count, wall, s, ratio) for t, (s, count, wall), ratio in zip(tensors, best, ratios)
    )
    summary = {
        "record": "experiment",
        "name": "scaling",
        "doublings": doublings,
        "max_ratio_per_doubling": max_ratio,
        "passed": max_ratio <= 2.5,
        "seed": seed,
    }
    return summary, data
