"""Executable checks of the completion method's behavioral guarantees.

Each check builds completion models under some perturbation (rescaling,
warm-sweep order permutation) or evaluates a structural claim (order
preservation across unanimously ranked slices) and reports the worst
deviation it saw together with any concrete counterexamples.  Checks are
deterministic given their seed, which every report carries for replay.

The fits a check compares all share the input's pattern, so a check
fits its perturbed copies (rescaled values, permuted sweep orders) as
one batch with :func:`~uctensor.canonical_scaling.csa_many`, from their
values alone, and takes the input's own ``csa`` fit as ``fit=`` when the
caller already has it.  Each fit equals a fit of its own bit for bit.

The consensus code reads a slice's known set from one sort of the known
rows per dimension: rows by slice, then by point (the index without the
slice's coordinate) in lexicographic order, so every occupied slice is
one contiguous block of points and values.

The ``consensus`` and ``fairness`` experiments of ``uctensor experiment``
live here too: each plants a guarantee's premise in a synthetic matrix
and measures it with the checks' own helpers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sparse_tensor as _sparse_tensor
from . import support as _support
# apply_scaling goes uncalled here: perfbench's traced run wraps it under
# this module's name too
from .canonical_scaling import (  # noqa: F401
    ConvergenceReport, ScalingFamily, apply_scaling, csa, csa_many, scaled_values,
)
from .completion import CompletionModel, predict_many, tca
from .errors import CapacityError, IngestError, OrderingSpecError
from .lcsp_oracle import gauge_check
from .sparse_tensor import SparseTensor

STRICTNESS_SLACK = 1e-12
MISSING_CAP = 20_000  # missing cells, in flat order, that checked_cells reads
# random matrices experiment_fairness draws before giving up on full support
FULL_SUPPORT_DRAWS = 100


@dataclass(frozen=True)
class OrderingSpec:
    """A set of slices along one dimension, unanimously ranked.

    ``gamma`` lists slice indices of dimension ``dim`` in ascending
    preference.  The spec holds on a tensor when every slice in ``gamma``
    has the same non-empty known set of points (indices over the other
    dimensions), their common support, and the known values rise strictly
    along ``gamma`` at every point of it.
    """

    dim: int
    gamma: tuple[int, ...]


@dataclass
class PropertyReport:
    """Outcome of one property check."""

    name: str
    instances: int
    max_deviation: float
    violations: list[str]
    passed: bool
    tolerance: float | None = None
    seed: int | None = None
    informational: bool = False
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "record": "property",
            "name": self.name,
            "instances": self.instances,
            "max_deviation": self.max_deviation,
            "violations": list(self.violations),
            "passed": self.passed,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "informational": self.informational,
            "notes": list(self.notes),
        }


def _distinct_less(x, y, slack: float = STRICTNESS_SLACK):
    """x strictly below y by more than a relative slack (roundoff guard).

    Takes two floats, or two arrays of the same shape, compared elementwise.
    """
    return (x < y) & ((y - x) > slack * np.maximum(abs(x), abs(y)))


def _sorted_by_slice(
    coords: np.ndarray, values: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Known rows sorted by their slice along ``dim``, then by point.

    A row's point is its index without coordinate ``dim``; points sort
    lexicographically.  Returns the rows' slice coordinates, points and
    values in that order, so each occupied slice is one contiguous block.
    """
    column, points = coords[:, dim - 1], np.delete(coords, dim - 1, axis=1)
    order = np.lexsort((*points.T[::-1], column))
    return column[order], points[order], values[order]


def random_scaling_family(
    rng: np.random.Generator, tensor: SparseTensor, k: int, spread: float = 2.0
) -> ScalingFamily:
    """Positive scaling family for ``tensor``, one log-uniform coefficient per subtensor.

    One vector per subtensor group, covering every row of the group, with
    logs uniform in [-spread, spread].
    """
    groups = tensor.groups(k)
    return ScalingFamily(k, groups, [rng.uniform(-spread, spread, len(g.counts)) for g in groups])


def checked_cells(scanned: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The missing cells the checks compare predictions on, as an (m, d) int array.

    These are the cells among the first ``MISSING_CAP`` rows of a
    :func:`support.scan <uctensor.support.scan>` that have a hypercube
    witness.  A witness certifies that the prediction is the same in
    every gauge (it is sufficient, not necessary), and without that
    certificate a deviation could come from the gauge alone.
    """
    cells, witnessed = scanned
    return cells[:MISSING_CAP][witnessed[:MISSING_CAP]]


Fit = tuple[np.ndarray, ScalingFamily, ConvergenceReport]  # what csa returns


def _model(tensor: SparseTensor, k: int, fit: Fit) -> CompletionModel:
    """The model of a fit of ``tensor``, or of a tensor with its pattern.

    Predictions at ``tensor``'s missing cells do not read the values, so
    they are the same from either.
    """
    return CompletionModel(tensor, fit[1], fit[2], k)


def _at_least_one(count: int, what: str) -> None:
    if count < 1:
        raise ValueError(f"{what} must be at least 1, got {count}")


def check_unit_consistency(
    tensor: SparseTensor,
    k: int,
    trials: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
    cells: np.ndarray | None = None,
    fit: Fit | None = None,
) -> PropertyReport:
    """Rescaling inputs by a random positive family rescales predictions.

    For each trial draws a family T, completes both the original and the
    T-scaled tensor, and compares the scaled predictions against the
    predictions of the scaled tensor on ``cells``, by default
    :func:`checked_cells`.  A note counts the first ``MISSING_CAP``
    missing cells left out of ``cells`` (which must be among them).
    ``fit``, if given, is ``csa(tensor, k)``'s result, used instead of
    fitting the original again.  The scaled tensors are fitted as one
    batch (:func:`csa_many`) from their values, without building them.

    Raises ``ValueError`` for fewer than one trial.
    """
    _at_least_one(trials, "trials")
    rng = np.random.default_rng(seed)
    if cells is None:
        cells = checked_cells(_support.scan(tensor, MISSING_CAP))
    excluded = min(MISSING_CAP, tensor.box_size - len(tensor)) - len(cells)
    notes = [f"{excluded} unsupported missing indices excluded"] if excluded else []
    base_preds = predict_many(_model(tensor, k, fit or csa(tensor, k)), cells)
    # drawn one trial at a time, as the batch reads its rows
    families, drawn = itertools.tee(random_scaling_family(rng, tensor, k) for _ in range(trials))
    rows = (np.log(scaled_values(tensor, family)) for family in drawn)
    worst = 0.0
    violations: list[str] = []
    slots = [group.slots(cells) for group in tensor.groups(k)]  # shared by every family
    for trial, (family, (_, scaled, _)) in enumerate(zip(families, csa_many(tensor, k, rows))):
        expected = base_preds * np.exp(family.sums_at(slots))
        # predict_many's values at missing cells, without its checks and lookups
        actual = np.array(list(map(math.exp, (-scaled.sums_at(slots)).tolist())))
        devs = np.abs(actual / expected - 1.0)
        worst = float(np.fmax.reduce(devs, initial=worst))  # a NaN deviation counts for nothing
        for i in np.flatnonzero(devs > tolerance).tolist():
            violations.append(
                f"trial {trial}: idx {tuple(cells[i].tolist())} "
                f"expected {expected[i].item()!r} got {actual[i].item()!r}"
            )
    return PropertyReport(
        name="unit_consistency",
        instances=trials,
        max_deviation=worst,
        violations=violations,
        passed=not violations and worst <= tolerance,
        tolerance=tolerance,
        seed=seed,
        notes=notes,
    )


def validate_ordering_spec(tensor: SparseTensor, spec: OrderingSpec) -> None:
    """Check both clauses of an ordering spec against a tensor.

    Raises :class:`OrderingSpecError` with ``clause="support"`` naming the
    first slice, in ``gamma`` order, whose known set differs from the
    first slice's, or when that common set is empty; with
    ``clause="ordering"`` naming the first consecutive pair and, within
    it, the first point in lexicographic order where the known values do
    not rise strictly.  Raises ``ValueError`` for a dimension or slice out
    of range, or a ``gamma`` that is empty or repeats a slice.
    """
    if not 1 <= spec.dim <= tensor.d:
        raise ValueError(f"dimension {spec.dim} invalid for a {tensor.d}-d tensor")
    if len(set(spec.gamma)) != len(spec.gamma) or not spec.gamma:
        raise ValueError(f"gamma must be non-empty and duplicate-free: {spec.gamma}")
    for g in spec.gamma:
        if not 1 <= g <= tensor.extents[spec.dim - 1]:
            raise ValueError(f"slice {g} outside extent of dimension {spec.dim}")

    coords = tensor.coords_array()
    inside = np.isin(coords[:, spec.dim - 1], spec.gamma)
    column, points, values = _sorted_by_slice(
        coords[inside], tensor.values_array()[inside], spec.dim
    )
    starts = np.searchsorted(column, spec.gamma)
    stops = np.searchsorted(column, spec.gamma, side="right")
    common = points[starts[0]:stops[0]]
    for g, start, stop in zip(spec.gamma, starts.tolist(), stops.tolist()):
        if not np.array_equal(points[start:stop], common):
            raise OrderingSpecError(
                f"slice {g} has a different known set than slice {spec.gamma[0]}",
                clause="support",
            )
    if not len(common):
        raise OrderingSpecError("common support is empty", clause="support")

    table = values[starts[:, None] + np.arange(len(common))]  # one row per slice of gamma
    unordered = np.argwhere(~_distinct_less(table[:-1], table[1:]))
    if len(unordered):
        a, p = unordered[0].tolist()
        low, high = table[a, p].item(), table[a + 1, p].item()
        raise OrderingSpecError(
            f"slices {spec.gamma[a]} and {spec.gamma[a + 1]} are not strictly ordered "
            f"at {tuple(common[p].tolist())}: {low!r} vs {high!r}",
            clause="ordering",
        )


def check_consensus_ordering(model: CompletionModel, spec: OrderingSpec) -> PropertyReport:
    """Predictions preserve a unanimous ranking of slices.

    For every index pattern missing from all slices in ``gamma``, asserts
    the predicted values are strictly increasing along ``gamma``.  The
    patterns are the cells of the other dimensions' box, in flat order,
    taken ``MISSING_BLOCK`` at a time, so memory stays bounded by a block
    whatever the box size; all of a block's cells along ``gamma`` are
    predicted in one batch.
    """
    tensor = model.source
    validate_ordering_spec(tensor, spec)
    dim, gamma = spec.dim, np.array(spec.gamma)
    other_extents = tuple(n for i, n in enumerate(tensor.extents) if i != dim - 1)
    box = math.prod(other_extents)
    instances = 0
    worst = 0.0
    violations: list[str] = []
    for start in range(0, box, _sparse_tensor.MISSING_BLOCK):
        stop = min(start + _sparse_tensor.MISSING_BLOCK, box)
        patterns = _sparse_tensor.unflatten(np.arange(start, stop), other_extents)
        # the slices share one known set, so a pattern is missing from all
        # of them when it is missing from the first
        first = np.insert(patterns, dim - 1, gamma[0], axis=1)
        patterns = patterns[tensor.locate(first) < 0]
        instances += len(patterns)
        cells = np.insert(
            np.repeat(patterns, len(gamma), axis=0), dim - 1, np.tile(gamma, len(patterns)),
            axis=1,
        )
        preds = predict_many(model, cells).reshape(len(patterns), len(gamma))
        ordered = _distinct_less(preds[:, :-1], preds[:, 1:])
        for p, a in np.argwhere(~ordered).tolist():  # pattern by pattern, as in flat order
            low, high = preds[p, a].item(), preds[p, a + 1].item()
            worst = max(worst, (low - high) / max(abs(high), 1e-300))
            violations.append(
                f"pattern {tuple(patterns[p].tolist())}: slice {spec.gamma[a]} predicted "
                f"{low!r} not below slice {spec.gamma[a + 1]} at {high!r}"
            )
    return PropertyReport(
        name="consensus_ordering",
        instances=instances,
        max_deviation=worst,
        violations=violations,
        passed=not violations,
        tolerance=0.0,
    )


def _rescaled_predictions(
    tensor: SparseTensor, dim: int, slice_index: int, factor: float, fit: Fit | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Predictions at the missing cells before and after one slice is rescaled.

    Fits ``tensor`` at k = d-1, unless ``fit`` is that fit already, and
    again with ``log(factor)`` added to the log of every known entry of
    slice ``slice_index`` along ``dim``, both as one batch.  Returns the
    missing cells as an (m, d) int array in flat order, the mask of those
    inside the slice, and the two fits' predictions at them.  Refuses,
    before any of that, more than ``support.DEFAULT_SCAN_CAP`` missing
    cells, and raises ValueError where ``factor`` takes a value of the
    slice, or a prediction inside it, outside the positive floats.
    """
    missing, cap = tensor.box_size - len(tensor), _support.DEFAULT_SCAN_CAP
    if missing > cap:
        raise CapacityError(f"scale fairness would compare {missing} missing cells over cap {cap}")
    k, coords, values = tensor.d - 1, tensor.coords_array(), tensor.values_array()
    in_slice = coords[:, dim - 1] == slice_index
    _check_scaled(values[in_slice], factor, "a value", dim, slice_index)
    logs = np.log(values)
    rows = [np.where(in_slice, logs + math.log(factor), logs)]
    if fit is None:
        rows.insert(0, logs)
    fits = list(csa_many(tensor, k, rows))
    before, after = _model(tensor, k, fit or fits[0]), _model(tensor, k, fits[-1])
    cells = np.concatenate([*tensor.missing_blocks(), np.empty((0, tensor.d), np.int64)])
    inside = cells[:, dim - 1] == slice_index
    p_before = predict_many(before, cells)
    _check_scaled(p_before[inside], factor, "a prediction", dim, slice_index)
    return cells, inside, p_before, predict_many(after, cells)


def _check_scaled(values: np.ndarray, factor: float, what: str, dim: int, slice_index: int) -> None:
    """Raise ValueError unless every ``values * factor`` is a positive finite float."""
    with np.errstate(over="ignore", under="ignore"):
        scaled = values * factor
    bad = np.flatnonzero(~((scaled > 0.0) & np.isfinite(scaled)))
    if bad.size:
        raise ValueError(
            f"factor {factor!r} takes {what} of slice {slice_index} of dimension {dim}, "
            f"{values[bad[0]].item()!r}, to {scaled[bad[0]].item()!r}, outside the float range"
        )


def _first_rank_changes(
    cells: np.ndarray, dim: int, p_before: np.ndarray, p_after: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per slice of ``dim``, the first rank at which its ranking of ``cells`` changes.

    Ranks each slice's cells by descending prediction, ties by index,
    once under ``p_before`` and once under ``p_after``.  Returns the slice
    coordinates present in ``cells``, ascending, and for each the 0-based
    rank of the first cell the two rankings disagree on, as a float, or
    infinity when they agree.  A slice's top-n list changed exactly when
    its first change is below n.
    """
    slices = cells[:, dim - 1]
    ranked = [
        cells[np.lexsort((*cells[:, ::-1].T, -preds, slices))] for preds in (p_before, p_after)
    ]
    coords, starts, sizes = np.unique(np.sort(slices), return_index=True, return_counts=True)
    # positions where the rankings disagree, plus one past the end, so that
    # each slice finds one at or after its start
    differ = np.flatnonzero(np.append((ranked[0] != ranked[1]).any(axis=1), True))
    first = differ[np.searchsorted(differ, starts)] - starts
    return coords, np.where(first < sizes, first, np.inf)


def check_scale_fairness(
    tensor: SparseTensor,
    dim: int,
    slice_index: int,
    factor: float,
    tolerance: float = 1e-9,
    top_n: int = 10,
    fit: Fit | None = None,
) -> PropertyReport:
    """One slice rescaling its values moves no one else's predictions.

    Scales all known entries of slice ``slice_index`` along ``dim`` by
    ``factor`` and recompletes.  Predictions outside the slice must be
    unchanged (within ``tolerance`` relative) and their per-slice top-N
    rankings identical; predictions inside the slice must scale by
    exactly ``factor``.  ``fit``, if given, is ``csa(tensor, d - 1)``'s
    result, used instead of fitting the original again.  Raises
    CapacityError above ``support.DEFAULT_SCAN_CAP`` missing cells.
    """
    if not factor > 0:
        raise ValueError(f"factor must be positive, got {factor}")
    if not (tensor.coords_array()[:, dim - 1] == slice_index).any():
        raise ValueError(f"slice {slice_index} of dimension {dim} has no known entries")

    cells, inside, p_before, p_after = _rescaled_predictions(
        tensor, dim, slice_index, factor, fit
    )
    devs = np.abs(p_after / np.where(inside, p_before * factor, p_before) - 1.0)
    worst = float(devs.max()) if len(devs) else 0.0
    violations = [
        f"{'in-slice' if inside[i] else 'other-slice'} prediction moved at "
        f"{tuple(cells[i].tolist())}: dev {devs[i]:.3e}"
        for i in np.flatnonzero(devs > tolerance)
    ]
    coords, first = _first_rank_changes(
        cells[~inside], dim, p_before[~inside], p_after[~inside]
    )
    violations.extend(
        f"top-{top_n} list changed for slice {coord} of dim {dim}"
        for coord in coords[first < top_n].tolist()
    )
    return PropertyReport(
        name="scale_fairness",
        instances=len(cells),
        max_deviation=worst,
        violations=violations,
        passed=not violations and worst <= tolerance,
        tolerance=tolerance,
    )


def check_gauge_uniqueness(
    tensor: SparseTensor,
    k: int,
    orderings: int = 5,
    seed: int = 0,
    tolerance: float = 1e-8,
    cells: np.ndarray | None = None,
    fit: Fit | None = None,
) -> PropertyReport:
    """Warm-sweep order changes the coefficients but nothing observable.

    Runs the scaler in group order and under random permutations of the
    order its warm sweep processes the groups in, and asserts (a) canonical
    log values agree, (b) every pair of scaling families differs by a pure
    gauge, (c) predictions agree on ``cells``, by default
    :func:`checked_cells`: supported missing cells only, so on tensors
    without full support the prediction clause skips the cells without a
    witness.  ``fit``, if given, is ``csa(tensor, k)``'s result, the
    group-order run; the permuted runs are fitted as one batch.

    Raises ``ValueError`` for fewer than one ordering.
    """
    _at_least_one(orderings, "orderings")
    rng = np.random.default_rng(seed)
    n_groups = len(tensor.groups(k))
    orders = [list(range(n_groups))]
    for _ in range(orderings):
        orders.append([int(g) for g in rng.permutation(n_groups)])

    log_values = np.log(tensor.values_array())
    permuted = csa_many(tensor, k, itertools.repeat(log_values, orderings), orders[1:])
    runs = [fit or csa(tensor, k), *permuted]
    models = [_model(tensor, k, run) for run in runs]

    worst = 0.0
    violations: list[str] = []

    base_x = runs[0][0]
    for run_i, (x, _, _) in enumerate(runs[1:], start=1):
        dev = float(np.abs(x - base_x).max())
        worst = max(worst, dev)
        if dev > tolerance:
            violations.append(f"canonical log values diverge for order {run_i}: {dev:.3e}")

    for i, j in itertools.combinations(range(len(runs)), 2):
        ok, gauge_dev = gauge_check(runs[i][1], runs[j][1], tensor, tolerance)
        worst = max(worst, gauge_dev)
        if not ok:
            violations.append(
                f"orders {i} and {j} are not gauge-equivalent: {gauge_dev:.3e}"
            )

    if cells is None:
        cells = checked_cells(_support.scan(tensor, MISSING_CAP))
    preds = np.array([predict_many(m, cells) for m in models])
    devs = np.abs(preds / preds[0] - 1.0).max(axis=0)
    worst = float(np.fmax.reduce(devs, initial=worst))  # a NaN deviation counts for nothing
    for i in np.flatnonzero(devs > tolerance).tolist():
        violations.append(
            f"predictions diverge at {tuple(cells[i].tolist())}: {devs[i].item():.3e}"
        )

    return PropertyReport(
        name="gauge_uniqueness",
        instances=len(orders),
        max_deviation=worst,
        violations=violations,
        passed=not violations and worst <= tolerance,
        tolerance=tolerance,
        seed=seed,
    )


def check_oracle_equivalence(
    tensor: SparseTensor,
    k: int,
    oracle: tuple[np.ndarray, ScalingFamily],
    fit: Fit,
    cells: np.ndarray,
) -> PropertyReport:
    """The iterative fit agrees with the direct solve.

    ``oracle`` is what :func:`~uctensor.lcsp_oracle.solve_lcsp` returns
    for ``(tensor, k)`` and ``fit`` what ``csa(tensor, k)`` returns.  Their
    canonical log values must agree within 1e-8, and their predictions at
    ``cells``, missing cells as an (m, d) int array, within 1e-6 relative.
    """
    x, family = oracle
    dev_canonical = float(np.abs(fit[0] - x).max())
    preds = predict_many(_model(tensor, k, fit), cells)
    # oracle_complete at every cell, in one pass: log_sums equals log_sum_at
    references = map(math.exp, (-family.log_sums(cells)).tolist())
    dev_pred = 0.0
    for pred, reference in zip(preds.tolist(), references):
        dev_pred = max(dev_pred, abs(pred / reference - 1.0))
    violations = []
    if dev_canonical > 1e-8:
        violations.append(f"canonical log values diverge from projection: {dev_canonical:.3e}")
    if dev_pred > 1e-6:
        violations.append(f"predictions diverge from direct solve: {dev_pred:.3e}")
    return PropertyReport(
        name="oracle_equivalence",
        instances=len(cells),
        max_deviation=max(dev_canonical, dev_pred),
        violations=violations,
        passed=not violations,
        tolerance=1e-8,
    )


def find_consensus_sets(
    tensor: SparseTensor, dim: int, min_size: int = 2
) -> list[OrderingSpec]:
    """Maximal runs of identically supported, strictly ordered slices.

    Groups the occupied slices along ``dim`` by their known set of points,
    ranks each group by its value profile (the values at the points in
    lexicographic order, compared lexicographically, ties by slice index),
    and splits the ranking into maximal runs where every consecutive pair
    is strictly ordered at every point.  Runs shorter than ``min_size``
    are dropped.  Output order follows the smallest slice index of each
    group, then the ranking.  Costs one sort of the known rows.
    """
    if not 1 <= dim <= tensor.d:
        raise ValueError(f"dimension {dim} invalid for a {tensor.d}-d tensor")
    column, points, values = _sorted_by_slice(tensor.coords_array(), tensor.values_array(), dim)
    slices, starts = np.unique(column, return_index=True)
    bounds = np.append(starts, len(column)).tolist()
    groups: dict[bytes, list[int]] = {}  # blocks of slices in ascending order, by points
    for block, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        groups.setdefault(points[start:stop].tobytes(), []).append(block)

    specs: list[OrderingSpec] = []
    for blocks in groups.values():
        if len(blocks) < min_size:
            continue
        size = bounds[blocks[0] + 1] - bounds[blocks[0]]
        members = slices[blocks]
        table = values[starts[blocks][:, None] + np.arange(size)]
        ranked = np.lexsort((members, *table.T[::-1]))
        table = table[ranked]
        breaks = np.flatnonzero(~_distinct_less(table[:-1], table[1:]).all(axis=1)) + 1
        specs.extend(
            OrderingSpec(dim, tuple(run.tolist()))
            for run in np.split(members[ranked], breaks) if len(run) >= min_size
        )
    return specs


# -- experiments ------------------------------------------------------------


def _random_full_support_matrix(rng, rows, cols, density):
    """The first of up to ``FULL_SUPPORT_DRAWS`` random matrices with full support.

    A draw with an empty row or column is skipped unscanned: the missing
    cells of an empty line have no fibre, so none has a witness.  The
    draws stop early once their scans would cover more than
    ``support.DEFAULT_SCAN_CAP`` missing cells in all.  Raises
    ``IngestError``, naming the shape, the density and the draws made, if
    no draw has full support.
    """
    scanned, cap = 0, _support.DEFAULT_SCAN_CAP
    for draw in range(1, FULL_SUPPORT_DRAWS + 1):
        known = rng.random((rows, cols)) < density
        if not (known.any(axis=0).all() and known.any(axis=1).all()):
            continue
        scanned += known.size - int(known.sum())
        if scanned > cap:
            break
        values = np.exp(rng.uniform(-1.0, 1.0, size=int(known.sum())))
        tensor = SparseTensor.from_arrays((rows, cols), np.argwhere(known) + 1, values)
        ok, _ = _support.is_fully_supported(tensor)
        if ok:
            return tensor
    raise IngestError(
        f"no {rows}x{cols} matrix of density {density} with full support in {draw} draws"
        + (f"; one more scan would pass the support scan cap {cap}" if scanned > cap else "")
    )


def experiment_consensus(
    users: int = 50, base_products: int = 40, seed: int = 0
) -> tuple[dict, list[tuple]]:
    """Planted unanimous ranking: half the users rate three extra products
    3 > 2 > 1; control users' predictions must reproduce that order."""
    rng = np.random.default_rng(seed)
    raters = users // 2
    cols = base_products + 3
    table = np.full((users, cols), np.nan)  # NaN where unrated
    table[:, :base_products] = rng.uniform(1.0, 5.0, size=(users, base_products))
    table[:raters, base_products:] = [3.0, 2.0, 1.0]
    known = ~np.isnan(table)
    tensor = SparseTensor.from_arrays(table.shape, np.argwhere(known) + 1, table[known])
    model = tca(tensor, 1)
    best, mid, worst = base_products + 1, base_products + 2, base_products + 3
    report = check_consensus_ordering(model, OrderingSpec(dim=2, gamma=(worst, mid, best)))
    control = np.arange(raters + 1, users + 1)
    cells = np.column_stack([np.repeat(control, 3), np.tile([worst, mid, best], len(control))])
    preds = predict_many(model, cells).reshape(-1, 3).tolist()
    rows = [(u, low, middle, high, int(low < middle < high))
            for u, (low, middle, high) in zip(control.tolist(), preds)]
    summary = {
        "record": "experiment",
        "name": "consensus",
        "users": users,
        "products": cols,
        "raters": raters,
        "control_users": users - raters,
        "violations": len(report.violations),
        "max_deviation": report.max_deviation,
        "passed": report.passed,
        "seed": seed,
    }
    return summary, [("user", "pred_low", "pred_mid", "pred_high", "ordered")] + rows


def experiment_fairness(
    rows: int = 30,
    cols: int = 20,
    density: float = 0.5,
    user: int = 1,
    factor: float = 1.25,
    top_n: int = 10,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> tuple[dict, list[tuple]]:
    """One user rescales all their ratings; nobody else's predictions or
    top-N lists may move."""
    rng = np.random.default_rng(seed)
    tensor = _random_full_support_matrix(rng, rows, cols, density)
    cells, inside, p_before, p_after = _rescaled_predictions(tensor, 1, user, factor)
    others = ~inside
    changed_predictions = int((np.abs(p_after[others] / p_before[others] - 1.0) > tolerance).sum())
    _, first = _first_rank_changes(cells[others], 1, p_before[others], p_after[others])
    # users whose top-n list changed: those whose ranking first changes below rank n
    changed_by_n = {n: int((first < n).sum()) for n in range(1, top_n + 1)}
    summary = {
        "record": "experiment",
        "name": "fairness",
        "rows": rows,
        "cols": cols,
        "known": len(tensor),
        "scaled_user": user,
        "factor": factor,
        "changed_predictions": changed_predictions,
        "changed_top_n_lists": changed_by_n[top_n],
        "passed": changed_predictions == 0 and all(v == 0 for v in changed_by_n.values()),
        "seed": seed,
    }
    data = [("top_n", "users_with_changed_list")]
    data.extend((n, changed_by_n[n]) for n in sorted(changed_by_n))
    return summary, data
