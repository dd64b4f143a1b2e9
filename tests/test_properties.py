import math

import numpy as np
import pytest

from uctensor import properties, sparse_tensor, support
from uctensor.canonical_scaling import apply_scaling, csa, csa_many
from uctensor.completion import CompletionModel, predict_many, tca
from uctensor.errors import CapacityError, OrderingSpecError
from uctensor.lcsp_oracle import gauge_check, oracle_complete, solve_lcsp
from uctensor.properties import (
    OrderingSpec,
    _distinct_less,
    _rescaled_predictions,
    check_consensus_ordering,
    check_gauge_uniqueness,
    check_oracle_equivalence,
    check_scale_fairness,
    check_unit_consistency,
    checked_cells,
    find_consensus_sets,
    random_scaling_family,
    validate_ordering_spec,
)
from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import scan

from conftest import make_golden, random_full_support, reference_consensus_sets, staircase


def consensus_example():
    """3 users x 4 products; users 1-2 rate products 1-3 as (1,2,4) and
    (2,4,8); product 4 is rated (1,2,3) by everyone.  Consistent with the
    rank-one profile x=(1,2,3), y=(1,2,4,1)."""
    return SparseTensor(
        (3, 4),
        {
            (1, 1): 1.0, (1, 2): 2.0, (1, 3): 4.0, (1, 4): 1.0,
            (2, 1): 2.0, (2, 2): 4.0, (2, 3): 8.0, (2, 4): 2.0,
            (3, 4): 3.0,
        },
    )


class TestUnitConsistency:
    def test_passes_on_golden(self, golden_matrix):
        report = check_unit_consistency(golden_matrix, 1, trials=10, seed=0)
        assert report.passed
        assert report.max_deviation < 1e-6
        assert report.seed == 0

    def test_passes_on_random_cube_k1(self):
        rng = np.random.default_rng(4)
        tensor = random_full_support(rng, 3, extent_hi=5, box_cap=125)
        report = check_unit_consistency(tensor, 1, trials=5, seed=1)
        assert report.passed, report.violations[:1]

    def test_unsupported_cells_excluded_with_note(self):
        # a staircase plus a disjoint 2x2 block: 13 missing cells have no
        # witness, and their predictions follow the gauge, not the data
        path = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
        entries = {idx: 1.0 + 0.25 * n for n, idx in enumerate(path)}
        entries.update(
            {(a, b): 1.0 + 0.3 * a + 0.7 * b for a in (4, 5) for b in (4, 5)}
        )
        tensor = SparseTensor((5, 5), entries)
        report = check_unit_consistency(tensor, 1, trials=5, seed=0)
        assert report.passed, report.violations[:1]
        assert report.notes == ["13 unsupported missing indices excluded"]

    def test_deterministic_given_seed(self, golden_matrix):
        a = check_unit_consistency(golden_matrix, 1, trials=5, seed=9)
        b = check_unit_consistency(golden_matrix, 1, trials=5, seed=9)
        assert a == b

    def test_identity_rescaling_moves_nothing(self, golden_matrix):
        from uctensor.canonical_scaling import apply_scaling
        from uctensor.properties import random_scaling_family

        identity = random_scaling_family(
            np.random.default_rng(0), golden_matrix, 1, spread=0.0
        )
        base = tca(golden_matrix, 1)
        rescaled = tca(apply_scaling(golden_matrix, identity), 1)
        assert rescaled.predict((2, 2)) == base.predict((2, 2))

    def test_larger_cube_harness(self):
        rng = np.random.default_rng(88)
        tensor = random_full_support(
            rng, 3, extent_lo=8, extent_hi=10, box_cap=800, density=(0.5, 0.7)
        )
        report = check_unit_consistency(tensor, 2, trials=3, seed=2)
        assert report.passed
        assert report.max_deviation < 1e-6


class TestValidateOrderingSpec:
    def test_support_mismatch_raises_support_clause(self):
        tensor = SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 3.0})
        spec = OrderingSpec(dim=2, gamma=(1, 2))
        with pytest.raises(OrderingSpecError) as excinfo:
            validate_ordering_spec(tensor, spec)
        assert excinfo.value.clause == "support"

    def test_later_slice_with_another_known_set(self):
        tensor = consensus_example()  # products 1-3 rated by users 1-2, product 4 by all
        for gamma, bad in (((1, 2, 4), 4), ((4, 1), 1)):
            with pytest.raises(OrderingSpecError) as excinfo:
                validate_ordering_spec(tensor, OrderingSpec(dim=2, gamma=gamma))
            assert excinfo.value.clause == "support"
            assert str(excinfo.value) == (
                f"slice {bad} has a different known set than slice {gamma[0]}"
            )

    def test_unoccupied_first_slice(self):
        tensor = SparseTensor((3, 2), {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0})
        with pytest.raises(OrderingSpecError) as excinfo:
            validate_ordering_spec(tensor, OrderingSpec(dim=1, gamma=(3, 1)))
        assert str(excinfo.value) == "slice 1 has a different known set than slice 3"
        with pytest.raises(OrderingSpecError) as excinfo:
            validate_ordering_spec(tensor, OrderingSpec(dim=1, gamma=(3,)))
        assert excinfo.value.clause == "support"
        assert str(excinfo.value) == "common support is empty"

    def test_non_strict_input_raises_ordering_clause(self):
        tensor = SparseTensor(
            (2, 2), {(1, 1): 2.0, (1, 2): 2.0, (2, 1): 5.0, (2, 2): 5.0}
        )
        spec = OrderingSpec(dim=2, gamma=(1, 2))
        with pytest.raises(OrderingSpecError) as excinfo:
            validate_ordering_spec(tensor, spec)
        assert excinfo.value.clause == "ordering"

    def test_first_non_strict_point_in_lexicographic_order(self):
        # slices 1 < 2 of dim 2 tie at points (1, 2) and (2, 1); flat order,
        # first dimension fastest, meets (2, 1) first, the message names (1, 2)
        low = {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0}
        high = {(1, 1): 1.5, (1, 2): 2.0, (2, 1): 3.0}
        entries = {(i, 1, l): v for (i, l), v in low.items()}
        entries.update({(i, 2, l): v for (i, l), v in high.items()})
        tensor = SparseTensor((2, 2, 2), entries)
        with pytest.raises(OrderingSpecError) as excinfo:
            validate_ordering_spec(tensor, OrderingSpec(dim=2, gamma=(1, 2)))
        assert excinfo.value.clause == "ordering"
        assert str(excinfo.value) == (
            "slices 1 and 2 are not strictly ordered at (1, 2): 2.0 vs 2.0"
        )


class TestConsensusOrdering:
    def test_rank1_example(self):
        tensor = consensus_example()
        model = tca(tensor, 1)
        spec = OrderingSpec(dim=2, gamma=(1, 2, 3))
        report = check_consensus_ordering(model, spec)
        assert report.passed and not report.violations
        assert report.instances == 1  # only user 3 is missing from those slices
        preds = [model.predict((3, p)) for p in (1, 2, 3)]
        assert preds == pytest.approx([3.0, 6.0, 12.0], rel=1e-9)
        oracle = [oracle_complete(tensor, 1, (3, p)) for p in (1, 2, 3)]
        assert preds == pytest.approx(oracle, rel=1e-9)

    def test_single_slice_is_vacuous(self):
        tensor = consensus_example()
        model = tca(tensor, 1)
        spec = OrderingSpec(dim=2, gamma=(3,))
        report = check_consensus_ordering(model, spec)
        assert report.passed and report.violations == []

    def test_violations_match_a_per_pattern_reference(self):
        # slices 1-3 of dim 2 of a 5x3x4 box share a known set and rise
        # along it; a random scaling family in place of the fitted one
        # breaks that order at some patterns, and the batched check must
        # report what a scalar loop over the patterns finds, in its order
        from uctensor.completion import CompletionModel
        from uctensor.properties import _distinct_less, random_scaling_family

        rng = np.random.default_rng(3)
        shared = [(1, 1), (2, 3), (4, 2), (5, 4)]
        entries = {
            (i, g, l): g * float(rng.uniform(1, 2)) ** g for i, l in shared for g in (1, 2, 3)
        }
        tensor = SparseTensor((5, 3, 4), entries)
        spec = OrderingSpec(dim=2, gamma=(1, 2, 3))
        fitted = tca(tensor, 2)
        model = CompletionModel(tensor, random_scaling_family(rng, tensor, 2), fitted.report, 2)
        want = []
        patterns = [p for p in all_indices((5, 4)) if p not in shared]
        for p in patterns:
            preds = [model.predict((p[0], g, p[1])) for g in spec.gamma]
            want.extend(
                f"pattern {p}: slice {spec.gamma[a]} predicted {preds[a]!r} "
                f"not below slice {spec.gamma[a + 1]} at {preds[a + 1]!r}"
                for a in range(2) if not _distinct_less(preds[a], preds[a + 1])
            )
        report = check_consensus_ordering(model, spec)
        assert report.instances == len(patterns) == 16
        assert 0 < len(want) < 32 and report.violations == want
        assert check_consensus_ordering(fitted, spec).violations == []


class TestScaleFairness:
    def test_factor_one_changes_nothing(self, golden_matrix):
        report = check_scale_fairness(golden_matrix, dim=1, slice_index=1, factor=1.0)
        assert report.passed and report.max_deviation < 1e-12

    def test_golden_in_slice_scaling(self):
        golden = make_golden()
        report = check_scale_fairness(golden, dim=1, slice_index=2, factor=1.25)
        assert report.passed
        # degenerate case: the only missing entry sits in the scaled slice,
        # so the check verified it scales to 6 * 1.25 = 7.5 exactly
        assert report.instances == 1
        scaled = SparseTensor(
            (2, 2),
            {
                idx: (v * 1.25 if idx[0] == 2 else v)
                for idx, v in golden.entries.items()
            },
        )
        assert tca(scaled, 1).predict((2, 2)) == pytest.approx(7.5, rel=1e-9)

    def test_random_matrix(self):
        rng = np.random.default_rng(12)
        tensor = random_full_support(
            rng, 2, extent_lo=8, extent_hi=12, box_cap=150, density=0.6
        )
        slice_index = sorted({idx[0] for idx in tensor.entries})[0]
        report = check_scale_fairness(tensor, dim=1, slice_index=slice_index, factor=1.25)
        assert report.passed, report.violations[:1]

    def test_peeled_inputs_keep_the_sweep_gauge(self):
        # peeling after the warm sweep leaves a rescaled group-0 slice absorbed
        # as exactly as before; peeling before it would move the
        # gauge-dependent cell (2, 1) of the diagonal by 25%
        diagonal = SparseTensor((2, 2), {(1, 1): 1.0, (2, 2): 2.0})
        report = check_scale_fairness(diagonal, dim=1, slice_index=1, factor=1.25)
        assert report.passed and report.max_deviation == 0.0
        rng = np.random.default_rng(0)
        entries = {(i, j): float(np.exp(rng.uniform(-1, 1)))
                   for i in range(1, 5) for j in range(1, 5) if (i + j) % 3}
        for idx in [(4, 5), (5, 5), (5, 6), (6, 6), (6, 7)]:  # a chain off row 4
            entries[idx] = float(np.exp(rng.uniform(-1, 1)))
        tensor = SparseTensor((6, 7), entries)
        for slice_index in (1, 4, 5, 6):
            report = check_scale_fairness(tensor, dim=1, slice_index=slice_index, factor=1.25)
            # rounding only, as without peeling
            assert report.passed and report.max_deviation <= 1e-14

    def test_empty_slice_rejected(self):
        tensor = SparseTensor((3, 2), make_golden().entries)  # row 3 empty
        with pytest.raises(ValueError):
            check_scale_fairness(tensor, dim=1, slice_index=3, factor=2.0)

    def test_bad_factor_rejected(self, golden_matrix):
        with pytest.raises(ValueError):
            check_scale_fairness(golden_matrix, dim=1, slice_index=1, factor=0.0)

    def test_refused_above_the_scan_cap_before_fitting(self, monkeypatch):
        tensor = SparseTensor((3, 3), make_golden().entries)  # 6 missing cells
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 6)
        assert check_scale_fairness(tensor, dim=1, slice_index=1, factor=2.0).instances == 6
        monkeypatch.setattr(support, "DEFAULT_SCAN_CAP", 5)
        monkeypatch.setattr(properties, "csa_many", None)  # neither fitted
        monkeypatch.setattr(SparseTensor, "missing_blocks", None)  # nor enumerated
        with pytest.raises(CapacityError, match="6 missing cells over cap 5"):
            check_scale_fairness(tensor, dim=1, slice_index=1, factor=2.0)


class TestFirstRankChanges:
    def test_matches_sorted_reference_at_every_n(self):
        # made-up predictions for five slices of dim 1; slice 4 has a tie
        # that stays, slice 5 gains one that the index breaks the other way
        sizes = {1: 6, 2: 5, 3: 6, 4: 3, 5: 2}
        cells = np.array([(i, j) for i, n in sizes.items() for j in range(1, n + 1)])
        rng = np.random.default_rng(5)
        before = rng.permutation(len(cells)) + 1.0
        at = {tuple(c): r for r, c in enumerate(cells.tolist())}
        before[at[4, 2]] = before[at[4, 1]]
        before[at[5, 1]], before[at[5, 2]] = 1.0, 2.0

        def ranked(preds, i):
            rows = [at[i, j] for j in range(1, sizes[i] + 1)]
            return sorted(rows, key=lambda r: (-preds[r], tuple(cells[r])))

        after = before.copy()
        for i, a, b in ((1, 0, 4), (2, 2, 3), (3, 4, 5)):  # swap ranks a and b
            order = ranked(before, i)
            after[order[a]], after[order[b]] = before[order[b]], before[order[a]]
        after[[at[4, j] for j in (1, 2, 3)]] *= 2.0
        after[at[5, 1]] = 2.0

        shuffle = rng.permutation(len(cells))  # any row order
        coords, first = properties._first_rank_changes(
            cells[shuffle], 1, before[shuffle], after[shuffle]
        )
        assert coords.tolist() == [1, 2, 3, 4, 5]
        assert first.tolist() == [0, 2, 4, np.inf, 0]
        for n in range(1, 8):
            changed = [ranked(before, i)[:n] != ranked(after, i)[:n] for i in sizes]
            assert (first < n).tolist() == changed, n

    def test_no_cells(self):
        coords, first = properties._first_rank_changes(
            np.empty((0, 3), np.int64), 2, np.empty(0), np.empty(0)
        )
        assert coords.size == 0 and first.size == 0


class TestGaugeUniqueness:
    def test_symmetric_dense_matrix(self):
        tensor = SparseTensor(
            (2, 2), {(1, 1): 2.0, (1, 2): 3.0, (2, 1): 3.0, (2, 2): 2.0}
        )
        report = check_gauge_uniqueness(tensor, 1, orderings=3, seed=0)
        assert report.passed

    def test_golden_both_orders_predict_six(self, golden_matrix):
        from uctensor.canonical_scaling import csa
        from uctensor.completion import CompletionModel

        for order in ([0, 1], [1, 0]):
            _, family, report = csa(golden_matrix, 1, order=order)
            model = CompletionModel(golden_matrix, family, report, 1)
            assert model.predict((2, 2)) == pytest.approx(6.0, rel=1e-8)

    def test_random_cube(self):
        rng = np.random.default_rng(40)
        tensor = random_full_support(rng, 3, extent_hi=8, box_cap=512, density=0.55)
        report = check_gauge_uniqueness(tensor, 2, orderings=5, seed=3)
        assert report.passed, report.violations[:1]
        assert report.max_deviation < 1e-8

    def test_cube_at_forty_percent_density(self):
        # full support is vanishingly rare at this density, so the
        # prediction clause covers only the supported subset; the
        # canonical and gauge clauses hold regardless
        rng = np.random.default_rng(4040)
        entries = {
            idx: float(np.exp(rng.uniform(-1.0, 1.0)))
            for idx in all_indices((8, 8, 8))
            if rng.random() < 0.4
        }
        tensor = SparseTensor((8, 8, 8), entries)
        report = check_gauge_uniqueness(tensor, 2, orderings=5, seed=7)
        assert report.passed, report.violations[:1]

    def test_staircase(self, monkeypatch):
        # a chain ran the sweep budget out before csa solved with CG; every
        # warm order must now fit, with the same x and gauge-equal families
        monkeypatch.setattr(properties, "MISSING_CAP", 200)
        tensor = staircase(np.random.default_rng(100), 100)
        report = check_gauge_uniqueness(tensor, 1, orderings=5, seed=0)
        assert report.passed, report.violations[:1]
        assert report.instances == 6 and report.max_deviation < 1e-8

    def test_deterministic_given_seed(self, golden_matrix):
        a = check_gauge_uniqueness(golden_matrix, 1, orderings=3, seed=5)
        b = check_gauge_uniqueness(golden_matrix, 1, orderings=3, seed=5)
        assert a == b


class TestOracleEquivalence:
    def test_fit_agrees_with_direct_solve(self, golden_matrix):
        fit = csa(golden_matrix, 1)
        rep = check_oracle_equivalence(
            golden_matrix, 1, solve_lcsp(golden_matrix, 1), fit, np.array([[2, 2]])
        )
        assert rep.passed and rep.name == "oracle_equivalence" and rep.instances == 1
        assert rep.max_deviation < 1e-12 and rep.tolerance == 1e-8

    def test_diverging_fit_is_reported(self, golden_matrix):
        x, family, report = csa(golden_matrix, 1)
        rep = check_oracle_equivalence(
            golden_matrix, 1, solve_lcsp(golden_matrix, 1), (x + 1e-6, family, report),
            np.array([[2, 2]]),
        )
        assert not rep.passed and len(rep.violations) == 1
        assert rep.violations[0].startswith("canonical log values diverge from projection: ")
        assert rep.max_deviation == pytest.approx(1e-6)


class TestFindConsensusSets:
    def test_recovers_planted_triple(self):
        # same construction as the consensus experiment, small scale
        rng = np.random.default_rng(0)
        users, base = 8, 5
        entries = {}
        for u in range(1, users + 1):
            for p in range(1, base + 1):
                entries[(u, p)] = float(rng.uniform(1.0, 5.0))
        for u in range(1, users // 2 + 1):
            entries[(u, base + 1)] = 3.0
            entries[(u, base + 2)] = 2.0
            entries[(u, base + 3)] = 1.0
        tensor = SparseTensor((users, base + 3), entries)
        specs = find_consensus_sets(tensor, dim=2, min_size=3)
        planted = [s for s in specs if set(s.gamma) == {base + 1, base + 2, base + 3}]
        assert len(planted) == 1
        assert planted[0].gamma == (base + 3, base + 2, base + 1)  # ascending values

    def test_unique_supports_yield_nothing(self):
        tensor = SparseTensor(
            (3, 3),
            {(1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0},  # one rater per product
        )
        assert find_consensus_sets(tensor, dim=2, min_size=2) == []

    def test_identical_slices_not_strict(self):
        tensor = SparseTensor(
            (2, 3), {(i, j): 2.0 for i in (1, 2) for j in (1, 2, 3)}
        )
        assert find_consensus_sets(tensor, dim=2, min_size=2) == []

    def test_found_specs_validate(self):
        tensor = consensus_example()
        for spec in find_consensus_sets(tensor, dim=2, min_size=2):
            validate_ordering_spec(tensor, spec)

    def test_matches_the_per_slice_reference(self):
        # small boxes, values 1-3 and random densities, so that slices often
        # share a known set, tie at some point or have no known entry
        rng = np.random.default_rng(14)
        found = longer = 0
        for _ in range(600):
            d = int(rng.integers(2, 5))
            extents = tuple(int(n) for n in rng.integers(1, 14 - 2 * d, size=d))
            density = rng.uniform(0.1, 0.8)
            entries = {
                idx: float(rng.integers(1, 4))
                for idx in all_indices(extents) if rng.random() < density
            }
            if rng.random() < 0.5:  # empty one slice of one dimension
                dim = int(rng.integers(1, d + 1))
                gone = int(rng.integers(1, extents[dim - 1] + 1))
                entries = {idx: v for idx, v in entries.items() if idx[dim - 1] != gone}
            if not entries:
                continue
            tensor = SparseTensor(extents, entries)
            for dim in range(1, d + 1):
                for min_size in (2, 3):
                    specs = find_consensus_sets(tensor, dim, min_size)
                    want = reference_consensus_sets(entries, dim, min_size)
                    assert [(s.dim, s.gamma) for s in specs] == want
                    found += len(want)
                    longer += sum(len(gamma) > 2 for _, gamma in want)
        assert found > 100 and longer > 10


def sequential_unit_consistency(tensor, k, trials, seed, cells, tolerance):
    """Unit consistency with one tensor built and fitted per trial: (worst, violations)."""
    rng = np.random.default_rng(seed)
    base_preds = predict_many(tca(tensor, k), cells)
    worst, violations = 0.0, []
    for trial in range(trials):
        family = random_scaling_family(rng, tensor, k)
        expected = base_preds * np.exp(family.log_sums(cells))
        actual = predict_many(tca(apply_scaling(tensor, family), k), cells)
        devs = np.abs(actual / expected - 1.0)
        worst = float(np.fmax.reduce(devs, initial=worst))
        violations.extend(
            f"trial {trial}: idx {tuple(cells[i].tolist())} "
            f"expected {expected[i].item()!r} got {actual[i].item()!r}"
            for i in np.flatnonzero(devs > tolerance).tolist()
        )
    return worst, violations


class TestBatchedFits:
    """The checks fit their rescaled copies as one batch, and may share one base fit."""

    CASES = ((2, 1, 7), (3, 1, 5), (3, 2, 5), (4, 2, 3))

    def tensors(self):
        rng = np.random.default_rng(90)
        for d, k, extent_hi in self.CASES:
            yield random_full_support(rng, d, extent_hi=extent_hi, box_cap=150), k

    def test_unit_consistency_matches_a_fit_per_rescaled_tensor(self):
        # tolerance 0 lists every deviation, so its exact value is compared
        for tensor, k in self.tensors():
            cells = checked_cells(scan(tensor, properties.MISSING_CAP))
            report = check_unit_consistency(tensor, k, trials=6, tolerance=0.0, seed=5)
            worst, violations = sequential_unit_consistency(tensor, k, 6, 5, cells, 0.0)
            assert (report.max_deviation, report.violations) == (worst, violations)

    def test_gauge_uniqueness_matches_a_fit_per_order(self):
        for tensor, k in self.tensors():
            report = check_gauge_uniqueness(tensor, k, orderings=4, seed=6, tolerance=0.0)
            rng = np.random.default_rng(6)
            n_groups = len(tensor.groups(k))
            orders = [None] + [rng.permutation(n_groups).tolist() for _ in range(4)]
            runs = [csa(tensor, k, order=order) for order in orders]
            base = runs[0][0]
            worst = max(float(np.abs(x - base).max()) for x, _, _ in runs[1:])
            for i in range(len(runs)):
                for j in range(i + 1, len(runs)):
                    worst = max(worst, gauge_check(runs[i][1], runs[j][1], tensor)[1])
            cells = checked_cells(scan(tensor, properties.MISSING_CAP))
            preds = np.array([
                predict_many(CompletionModel(tensor, fam, rep, k), cells) for _, fam, rep in runs
            ])
            worst = float(np.fmax.reduce(np.abs(preds / preds[0] - 1.0).max(axis=0), initial=worst))
            assert report.max_deviation == worst

    def test_scale_fairness_matches_fitting_the_rescaled_tensor(self):
        # the slice is rescaled in logs, log(1.5) added to its log values,
        # and that fit, alone in its batch, is the one the check compares
        for tensor, _ in self.tensors():
            d = tensor.d
            coords, logs = tensor.coords_array(), np.log(tensor.values_array())
            shifted = np.where(coords[:, 0] == 1, logs + math.log(1.5), logs)
            (fit,) = csa_many(tensor, d - 1, [shifted])
            before, after = tca(tensor, d - 1), CompletionModel(tensor, fit[1], fit[2], d - 1)
            cells, inside, p_before, p_after = _rescaled_predictions(tensor, 1, 1, 1.5)
            assert p_before.tobytes() == predict_many(before, cells).tobytes()
            assert p_after.tobytes() == predict_many(after, cells).tobytes()

    def test_a_given_base_fit_changes_no_report(self):
        for tensor, k in self.tensors():
            fit = csa(tensor, k)
            assert check_unit_consistency(tensor, k, trials=4, seed=3, fit=fit) == \
                check_unit_consistency(tensor, k, trials=4, seed=3)
            assert check_gauge_uniqueness(tensor, k, orderings=3, seed=3, fit=fit) == \
                check_gauge_uniqueness(tensor, k, orderings=3, seed=3)
            if k == tensor.d - 1:
                assert check_scale_fairness(tensor, 1, 1, 1.25, fit=fit) == \
                    check_scale_fairness(tensor, 1, 1, 1.25)

    @pytest.mark.parametrize("count", [0, -1])
    def test_counts_below_one_raise(self, golden_matrix, count):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_unit_consistency(golden_matrix, 1, trials=count)
        with pytest.raises(ValueError, match="orderings must be at least 1"):
            check_gauge_uniqueness(golden_matrix, 1, orderings=count)


def all_at_once_consensus(model, spec):
    """check_consensus_ordering with every pattern of the box predicted in one batch."""
    tensor = model.source
    dim, gamma = spec.dim, np.array(spec.gamma)
    other_extents = tuple(n for i, n in enumerate(tensor.extents) if i != dim - 1)
    patterns = np.indices(other_extents).reshape(len(other_extents), -1, order="F").T + 1
    first = np.insert(patterns, dim - 1, gamma[0], axis=1)
    patterns = patterns[tensor.locate(first) < 0]
    cells = np.insert(
        np.repeat(patterns, len(gamma), axis=0), dim - 1, np.tile(gamma, len(patterns)), axis=1
    )
    preds = predict_many(model, cells).reshape(len(patterns), len(gamma))
    worst, violations = 0.0, []
    for p, a in np.argwhere(~_distinct_less(preds[:, :-1], preds[:, 1:])).tolist():
        low, high = preds[p, a].item(), preds[p, a + 1].item()
        worst = max(worst, (low - high) / max(abs(high), 1e-300))
        violations.append(
            f"pattern {tuple(patterns[p].tolist())}: slice {spec.gamma[a]} predicted {low!r} "
            f"not below slice {spec.gamma[a + 1]} at {high!r}"
        )
    return len(patterns), worst, violations


class TestConsensusBlocks:
    def test_blocks_report_what_one_batch_does(self, monkeypatch):
        # planted specs, and random families in place of the fit, so that
        # some patterns break the order
        rng = np.random.default_rng(91)
        for trial in range(12):
            d = 2 + trial % 3
            extents = tuple(int(n) for n in rng.integers(3, 7, size=d))
            dim = int(rng.integers(1, d + 1))
            gamma = tuple(rng.choice(np.arange(1, extents[dim - 1] + 1), 3, replace=False).tolist())
            points = [p for p in all_indices(extents[:dim - 1] + extents[dim:]) if rng.random() < 0.3]
            points = points or [tuple([1] * (d - 1))]
            entries = {}
            for p in points:
                for rank, g in enumerate(gamma, 1):
                    entries[p[:dim - 1] + (g,) + p[dim - 1:]] = rank * float(rng.uniform(1, 1.5))
            for idx in all_indices(extents):
                if idx[dim - 1] not in gamma and rng.random() < 0.3:
                    entries[idx] = float(rng.uniform(0.5, 5))
            tensor = SparseTensor(extents, entries)
            spec = OrderingSpec(dim, gamma)
            k = int(rng.integers(1, d))
            fitted = tca(tensor, k)
            model = CompletionModel(tensor, random_scaling_family(rng, tensor, k), fitted.report, k)
            want = all_at_once_consensus(model, spec)
            for block in (1, 3, 7, 4096):
                monkeypatch.setattr(sparse_tensor, "MISSING_BLOCK", block)
                report = check_consensus_ordering(model, spec)
                assert (report.instances, report.max_deviation, report.violations) == want
