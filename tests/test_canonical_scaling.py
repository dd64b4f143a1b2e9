import math

import numpy as np
import pytest

from uctensor.canonical_scaling import (
    STALL_STEPS,
    ConvergenceReport,
    ScalingState,
    _entry_sums,
    _peel,
    _StopRule,
    _subtensor_sums,
    apply_scaling,
    csa,
    csa_many,
    residual,
    sweep,
)
from uctensor import canonical_scaling
from uctensor.errors import ConvergenceError
from uctensor.lcsp_oracle import SIZE_CAP, build_constraints, solve_lcsp
from uctensor.properties import random_scaling_family
from uctensor.sparse_tensor import SparseTensor, all_indices

from conftest import (
    GOLDEN_LOGS,
    GOLDEN_SWEEP1_RHOS,
    GOLDEN_SWEEP1_V,
    golden_subtensor_members,
    make_golden,
    random_full_support,
    reference_apply_scaling,
    reference_sweep,
    staircase,
)


def dense_ones(extents):
    return SparseTensor(extents, {idx: 1.0 for idx in all_indices(extents)})


class TestSweep:
    def test_all_ones_first_sweep_v_is_zero(self):
        state = ScalingState(dense_ones((3, 3)), 1)
        assert sweep(state) == 0.0

    def test_golden_first_sweep_matches_reference(self, golden_matrix):
        _, v_per_pass, rhos = reference_sweep(
            GOLDEN_LOGS, golden_subtensor_members(), passes=1
        )
        assert v_per_pass[0] == pytest.approx(GOLDEN_SWEEP1_V, abs=1e-15)
        assert rhos == pytest.approx(list(GOLDEN_SWEEP1_RHOS), abs=1e-15)

        state = ScalingState(golden_matrix, 1)
        v = sweep(state)
        assert v == pytest.approx(GOLDEN_SWEEP1_V, rel=1e-12)

    def test_golden_first_sweep_row_one_step(self):
        # the first centering step of the first sweep: -(ln 1 + ln 2)/2
        assert GOLDEN_SWEEP1_RHOS[0] == pytest.approx(-math.log(2) / 2, rel=1e-12)

    def test_second_sweep_strictly_smaller(self, golden_matrix):
        state = ScalingState(golden_matrix, 1)
        v1 = sweep(state)
        v2 = sweep(state)
        assert 0 < v2 < v1
        # and it tracks the sequential reference exactly
        _, v_per_pass, _ = reference_sweep(
            GOLDEN_LOGS, golden_subtensor_members(), passes=2
        )
        assert v2 == pytest.approx(v_per_pass[1], rel=1e-12)

    def test_multi_sweep_log_values_match_reference(self, golden_matrix):
        state = ScalingState(golden_matrix, 1)
        for _ in range(4):
            sweep(state)
        ref_logs, _, _ = reference_sweep(
            GOLDEN_LOGS, golden_subtensor_members(), passes=4
        )
        for idx, got in zip(golden_matrix.known_indices(), state.log_values):
            assert got == pytest.approx(ref_logs[idx], abs=1e-14)

    def test_order_validation(self, golden_matrix):
        with pytest.raises(ValueError):
            ScalingState(golden_matrix, 1, order=[0, 0])
        with pytest.raises(ValueError):
            ScalingState(golden_matrix, 1, order=[1, 2])


class TestCsa:
    def test_all_ones_converges_immediately(self):
        x, family, report = csa(dense_ones((3, 3)), 1)
        assert report.converged and report.sweeps == 1
        assert all(v == 0.0 for v in x)
        assert all(not c.any() for c in family.coeffs)

    def test_golden_canonical_is_all_ones(self, golden_matrix):
        x, _, report = csa(golden_matrix, 1)
        assert report.converged
        assert len(x) == len(golden_matrix)
        for got in x:
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_input_not_modified(self, golden_matrix):
        before = dict(golden_matrix.entries)
        csa(golden_matrix, 1)
        assert golden_matrix.entries == before

    def test_sign_contract_at_convergence(self, golden_matrix):
        x, family, _ = csa(golden_matrix, 1)
        for t, idx in enumerate(golden_matrix.known_indices()):
            reconstructed = math.log(golden_matrix.entries[idx]) + family.log_sum_at(idx)
            assert x[t] == pytest.approx(reconstructed, abs=1e-12)

    def test_sign_contract_holds_after_every_sweep(self):
        rng = np.random.default_rng(3)
        for d, k in ((2, 1), (3, 2), (3, 1)):
            tensor = random_full_support(rng, d, extent_hi=6, box_cap=200)
            state = ScalingState(tensor, k)
            logs0 = np.log(tensor.values_array())
            for _ in range(5):
                sweep(state)
                family = state.family()
                for t, idx in enumerate(tensor.known_indices()):
                    expected = logs0[t] + family.log_sum_at(idx)
                    assert state.log_values[t] == pytest.approx(expected, abs=1e-12)

    def test_empty_subtensor_coefficients_are_zero(self):
        t = SparseTensor((3, 2), make_golden().entries)  # row 3 empty
        _, family, _ = csa(t, 1)
        assert family.coeffs[0][2] == 0.0  # group of dimension 1, slice 3

    def test_single_entry_tensor_allowed(self):
        x, _, report = csa(SparseTensor((2, 2), {(1, 1): 7.0}), 1)
        assert x[0] == pytest.approx(0.0, abs=1e-12)
        assert report.converged and report.sweeps <= 2

    def test_non_convergence_error_carries_report(self, golden_matrix):
        with pytest.raises(ConvergenceError) as excinfo:
            csa(golden_matrix, 1, max_sweeps=1)
        report = excinfo.value.report
        assert isinstance(report, ConvergenceReport)
        assert report.sweeps == 1 and not report.converged
        assert report.v_trace[0] == pytest.approx(GOLDEN_SWEEP1_V, rel=1e-12)

    def test_argument_validation(self, golden_matrix):
        with pytest.raises(ValueError):
            csa(golden_matrix, 0)
        with pytest.raises(ValueError):
            csa(golden_matrix, 2)
        with pytest.raises(ValueError):
            csa(golden_matrix, 1, epsilon=0.0)
        with pytest.raises(ValueError):
            csa(SparseTensor((2, 2), {}), 1)

    def test_report_invariants(self, golden_matrix):
        _, _, report = csa(golden_matrix, 1)
        assert report.converged == (report.v_trace[-1] < report.epsilon)
        assert all(v >= 0.0 for v in report.v_trace)
        assert report.sweeps == len(report.v_trace)


class TestStopRule:
    def test_polish_stops_on_wide_log_range(self):
        # 4500 slices of logs in (-20, 20): v's rounding plateau sits above
        # a fixed absolute floor, so a polish aimed at one ran the budget out
        rng = np.random.default_rng(7)
        flat = rng.choice(3000 * 1500, size=30_000, replace=False)
        values = np.exp(rng.uniform(-20.0, 20.0, size=30_000))
        tensor = SparseTensor(
            (3000, 1500),
            {
                (int(f % 3000) + 1, int(f // 3000) + 1): float(v)
                for f, v in zip(flat, values)
            },
        )
        for order in (None, [1, 0]):
            _, _, report = csa(tensor, 1, order=order)
            met = next(n for n, v in enumerate(report.v_trace, 1) if v < report.epsilon)
            assert report.stop_reason != "budget" and report.sweeps <= 2 * met

    def test_stop_rule_on_given_v_sequences(self):
        def _run_until_stop(steps, epsilon, floor):
            rule = _StopRule(epsilon, floor)
            return next((reason for v in steps if (reason := rule(v))), "budget")

        plateau = [1.0, 1e-13, 2e-30] + [3e-30] * STALL_STEPS + [1e-31]
        steps = iter(plateau)
        assert _run_until_stop(steps, 1e-12, 1e-31) == "stagnation"
        assert next(steps) == 1e-31  # stopped right after STALL_STEPS without a new minimum
        # a plateau above epsilon never stagnates, and the floor stops a run
        # only once v is below epsilon
        assert _run_until_stop([1.0] + [1e-6] * 50, 1e-12, 1e-31) == "budget"
        assert _run_until_stop([1.0, 1e-31], 1e-12, 1e-31) == "floor"
        assert _run_until_stop([1.0, 1e-31, 1.0], 1e-40, 1e-31) == "budget"

    def test_epsilon_below_the_floor_still_converges(self):
        tensor = random_full_support(
            np.random.default_rng(5), 2, extent_hi=20, box_cap=400, density=0.6
        )
        x, _, _ = csa(tensor, 1)
        occupied = sum(int(np.count_nonzero(g.counts)) for g in tensor.groups(1))
        floor = occupied * (np.finfo(float).eps * max(1.0, np.abs(x).max())) ** 2
        epsilon = 1e-31
        assert epsilon < floor
        _, _, report = csa(tensor, 1, epsilon=epsilon)
        assert report.converged and report.v_trace[-1] < epsilon
        assert report.stop_reason in ("floor", "stagnation")

    def test_stop_reason_and_residual_reported(self, golden_matrix):
        def worst_line_sum(x):
            sums = {}
            for (i, j), value in zip(golden_matrix.known_indices(), x):
                sums[(1, i)] = sums.get((1, i), 0.0) + value
                sums[(2, j)] = sums.get((2, j), 0.0) + value
            return max(abs(total) for total in sums.values())

        for order in (None, [1, 0]):
            x, _, report = csa(golden_matrix, 1, order=order)
            assert report.stop_reason in ("floor", "stagnation")
            assert report.residual == pytest.approx(worst_line_sum(x), abs=1e-15)
        with pytest.raises(ConvergenceError) as excinfo:
            csa(golden_matrix, 1, max_sweeps=1)
        assert excinfo.value.report.stop_reason == "budget"
        assert excinfo.value.report.residual > 0.0


class TestHardShapes:
    @pytest.mark.parametrize("length", [50, 400, 2000])
    def test_staircase_converges(self, length):
        tensor = staircase(np.random.default_rng(length), length)
        x, family, report = csa(tensor, 1)
        assert report.converged and report.residual <= 1e-8
        assert residual(apply_scaling(tensor, family), 1) <= 1e-8
        if len(tensor) <= SIZE_CAP and 2 * length + 1 <= SIZE_CAP:
            x_oracle, _ = solve_lcsp(tensor, 1)
            assert np.abs(x - x_oracle).max() <= 1e-8

    def test_long_staircase_peels_to_the_floor(self):
        # CG alone needs about 2L steps on a chain; peeled, it takes the warm
        # sweep and one empty step
        tensor = staircase(np.random.default_rng(20_000), 20_000)
        x, family, report = csa(tensor, 1)
        assert report.stop_reason == "floor" and report.sweeps <= 2
        assert report.residual <= 1e-8 and not x.any()
        assert residual(apply_scaling(tensor, family), 1) <= 1e-8

    def test_sparse_cube_converges_at_both_k(self):
        rng = np.random.default_rng(30)
        flat = rng.choice(27_000, size=2_700, replace=False)
        coords = np.stack(np.unravel_index(flat, (30, 30, 30)), axis=1) + 1
        values = np.exp(rng.uniform(-1.0, 1.0, size=len(flat)))
        tensor = SparseTensor((30, 30, 30), zip(map(tuple, coords.tolist()), values))
        for k in (2, 1):
            _, family, report = csa(tensor, k)
            assert report.converged and report.sweeps < 1000
            assert residual(apply_scaling(tensor, family), k) <= 1e-8


def grow_trees(rng, tensor, steps):
    """``tensor`` with ``steps`` entries hung off it one at a time.

    Each new entry copies a random known one and moves it to a fresh
    coordinate in one dimension, so it is the only entry of every
    subtensor fixing that dimension: a tree grows off the known set.
    """
    coords = tensor.coords_array().tolist()
    extents = list(tensor.extents)
    for _ in range(steps):
        cell = list(coords[int(rng.integers(len(coords)))])
        dim = int(rng.integers(len(extents)))
        extents[dim] += 1
        cell[dim] = extents[dim]
        coords.append(cell)
    values = np.exp(rng.uniform(-1.0, 1.0, size=len(coords)))
    return SparseTensor.from_arrays(extents, np.array(coords), values)


class TestPeeling:
    """Tree-shaped parts are peeled exactly; the rest is the projection."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_trees_off_a_cyclic_core_match_the_oracle(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(4):
            core = random_full_support(rng, d, extent_hi=5, box_cap=60, density=0.8)
            tensor = grow_trees(rng, core, int(rng.integers(3, 12)))
            for k in range(1, d):
                assert _peel(tensor.groups(k), np.concatenate(
                    [g.counts for g in tensor.groups(k)])) is not None
                x, family, report = csa(tensor, k)
                x_oracle, _ = solve_lcsp(tensor, k)
                assert report.converged
                assert np.abs(x - x_oracle).max() <= 1e-8
                logs = np.log(tensor.values_array())
                assert np.abs(logs + _entry_sums(tensor.groups(k), family.coeffs) - x).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_pure_forest_in_three_dimensions(self, k):
        rng = np.random.default_rng(50 + k)
        seeds = SparseTensor((1, 1, 1), {(1, 1, 1): 3.0})
        tensor = grow_trees(rng, seeds, 40)
        x, family, report = csa(tensor, k)
        assert report.stop_reason == "floor" and report.sweeps == 2
        assert report.v_trace[-1] == 0.0 and not x.any()
        assert residual(apply_scaling(tensor, family), k) <= 1e-12
        assert np.abs(solve_lcsp(tensor, k)[0]).max() <= 1e-8

    def test_entry_alone_in_two_subtensors_is_peeled_once(self):
        # a full 3x3 core and (5, 5), the only entry of row 5 and column 5
        rng = np.random.default_rng(60)
        entries = {(i, j): float(np.exp(rng.uniform(-1, 1)))
                   for i in range(1, 4) for j in range(1, 4)}
        entries[(5, 5)] = 7.0
        tensor = SparseTensor((5, 5), entries)
        groups = tensor.groups(1)
        counts = np.concatenate([g.counts for g in groups])
        peeled, peelers, _, left = _peel(groups, counts)
        assert peeled == [len(tensor) - 1] and peelers in ([4], [9])  # row 5 or column 5
        assert left[[4, 9]].tolist() == [0, 0]
        x, family, _ = csa(tensor, 1)
        assert x[-1] == 0.0
        # the peeling coefficient takes the entry to 1 together with the
        # other one, which keeps what the warm sweep gave it
        assert family.log_sum_at((5, 5)) == pytest.approx(-math.log(7.0), abs=1e-15)
        assert residual(apply_scaling(tensor, family), 1) <= 1e-12

    def test_no_count_of_one_peels_nothing(self):
        tensor = dense_ones((3, 3))
        groups = tensor.groups(1)
        assert _peel(groups, np.concatenate([g.counts for g in groups])) is None


class TestKernels:
    """``C x`` and ``Cᵀ s`` against the oracle's dense membership matrix."""

    @pytest.mark.parametrize("extents", [(6, 5), (4, 3, 5), (3, 4, 2, 3)])
    def test_match_the_dense_matrix(self, extents):
        rng = np.random.default_rng(len(extents))
        cells = np.array(list(all_indices(extents)))
        keep = (rng.random(len(cells)) < 0.4) & (cells[:, 0] < extents[0])
        keep[0] = True  # the last slice of dimension 1 stays empty
        tensor = SparseTensor.from_arrays(extents, cells[keep], np.ones(keep.sum()))
        for k in range(1, len(extents)):
            groups = tensor.groups(k)
            matrix = build_constraints(tensor, k).matrix
            occupied = np.concatenate([g.counts for g in groups]) > 0
            if k == len(extents) - 1:  # only slices are listed when empty
                assert not occupied.all()
            x = rng.normal(size=len(tensor))
            sums = _subtensor_sums(groups, x)
            np.testing.assert_allclose(sums[occupied], matrix @ x, rtol=0, atol=1e-12)
            assert not sums[~occupied].any()
            out = np.empty(len(occupied))
            assert _subtensor_sums(groups, x, out=out) is out
            assert np.array_equal(out, sums)
            s = rng.normal(size=len(occupied))
            per_group = np.split(s, np.cumsum([len(g.counts) for g in groups])[:-1])
            np.testing.assert_allclose(
                _entry_sums(groups, per_group), matrix.T @ s[occupied], rtol=0, atol=1e-12
            )


class TestResidual:
    def test_all_ones_is_zero(self):
        assert residual(dense_ones((3, 3)), 1) == 0.0

    def test_golden_before_scaling(self, golden_matrix):
        # line sums of logs: |ln2|, |ln3|, |ln3|, |ln2| -> max is ln 3
        assert residual(golden_matrix, 1) == pytest.approx(math.log(3), rel=1e-12)

    def test_csa_output_is_canonical(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            tensor = random_full_support(rng, d, extent_hi=10, box_cap=600)
            _, family, _ = csa(tensor, d - 1)
            assert residual(apply_scaling(tensor, family), d - 1) < 1e-8

    def test_canonical_property_near_ten_thousand_entries(self):
        rng = np.random.default_rng(99)
        values = np.exp(rng.uniform(-1.5, 1.5, size=(120, 90)))
        mask = rng.random((120, 90)) < 0.92
        entries = {
            (i + 1, j + 1): float(values[i, j])
            for i in range(120)
            for j in range(90)
            if mask[i, j]
        }
        tensor = SparseTensor((120, 90), entries)
        assert len(tensor) <= 10_000
        _, family, report = csa(tensor, 1)
        assert report.converged
        assert residual(apply_scaling(tensor, family), 1) < 1e-8


class TestUniquenessAndInvariance:
    def test_canonical_same_under_any_dimension_order(self):
        rng = np.random.default_rng(23)
        tensor = random_full_support(rng, 3, extent_hi=6, box_cap=200)
        base, _, _ = csa(tensor, 2, order=[0, 1, 2])
        other, _, _ = csa(tensor, 2, order=[2, 0, 1])
        assert np.allclose(base, other, rtol=0.0, atol=1e-8)

    def test_canonical_form_is_scale_invariant(self):
        rng = np.random.default_rng(29)
        for d, k in ((2, 1), (3, 2)):
            tensor = random_full_support(rng, d, extent_hi=6, box_cap=200)
            family = random_scaling_family(rng, tensor, k)
            base, _, _ = csa(tensor, k)
            scaled, _, _ = csa(apply_scaling(tensor, family), k)
            # same known set, so the log values align entry for entry
            assert np.allclose(scaled, base, rtol=0.0, atol=1e-8)

    def test_v_trace_monotone_note_only(self):
        # observed behavior, not a guarantee: log any violation, never fail
        rng = np.random.default_rng(31)
        tensor = random_full_support(rng, 2, extent_hi=12, box_cap=300)
        _, _, report = csa(tensor, 1)
        rises = [
            (i, a, b)
            for i, (a, b) in enumerate(zip(report.v_trace, report.v_trace[1:]))
            if b > a
        ]
        if rises:
            print(f"note: v_trace rose at sweeps {rises[:3]}")


class TestApplyScaling:
    def test_identity_family(self, golden_matrix):
        family = random_scaling_family(
            np.random.default_rng(0), golden_matrix, 1, spread=0.0
        )
        scaled = apply_scaling(golden_matrix, family)
        assert scaled.entries == golden_matrix.entries

    def test_row_scaling(self, golden_matrix):
        from uctensor.canonical_scaling import ScalingFamily

        rows = np.array([0.0, math.log(10.0)])  # slice 2 of dimension 1
        family = ScalingFamily(1, golden_matrix.groups(1), [rows, np.zeros(2)])
        scaled = apply_scaling(golden_matrix, family)
        assert scaled.entries[(2, 1)] == pytest.approx(30.0, rel=1e-12)
        assert scaled.entries[(1, 1)] == 1.0

    def test_matches_per_entry_reference_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for d, k in ((2, 1), (3, 2), (3, 1)):
            for _ in range(10):
                tensor = random_full_support(rng, d, extent_hi=7, box_cap=300)
                family = random_scaling_family(rng, tensor, k)
                expected = reference_apply_scaling(
                    tensor.entries, family.log_coeffs, k, d
                )
                assert apply_scaling(tensor, family).entries == expected


def assert_same_fit(got, want):
    """Two csa results equal bit for bit: x, coefficients and report."""
    (x, family, report), (x_ref, family_ref, report_ref) = got, want
    assert x.tobytes() == x_ref.tobytes()
    assert [c.tobytes() for c in family.coeffs] == [c.tobytes() for c in family_ref.coeffs]
    assert report == report_ref


def batch_cases(rng):
    """(tensor, k) for d = 2, 3, 4 and every k: trees off a cyclic core, and an empty slice."""
    for d, extent_hi in ((2, 6), (3, 4), (4, 3)):
        core = random_full_support(rng, d, extent_hi=extent_hi, box_cap=100, density=0.8)
        tensor = grow_trees(rng, core, int(rng.integers(3, 10)))
        extents = (tensor.extents[0] + 1, *tensor.extents[1:])  # the last slice stays empty
        tensor = SparseTensor.from_arrays(extents, tensor.coords_array(), tensor.values_array())
        for k in range(1, d):
            yield tensor, k


def batch_rows(rng, tensor, k, rescaled=4):
    """Values of rows on ``tensor``'s pattern: its own, rescaled copies, others, all ones."""
    rows = [tensor.values_array()]
    for _ in range(rescaled):
        family = random_scaling_family(rng, tensor, k)
        rows.append(tensor.values_array() * np.exp(_entry_sums(tensor.groups(k), family.coeffs)))
    rows.append(np.exp(rng.uniform(-3.0, 3.0, len(tensor))))
    rows.append(np.ones(len(tensor)))  # centered by the warm sweep: stops at step 1
    return rows


def sequential(tensor, k, rows, orders=None, **kwargs):
    """``csa`` of each row of values on its own tensor."""
    orders = orders or [None] * len(rows)
    return [
        csa(SparseTensor.from_arrays(tensor.extents, tensor.coords_array(), values), k,
            order=order, **kwargs)
        for values, order in zip(rows, orders)
    ]


class TestCsaMany:
    """One batched run equals a csa run per row, bit for bit."""

    def test_rows_equal_their_own_csa(self):
        rng = np.random.default_rng(70)
        for tensor, k in batch_cases(rng):
            assert _peel(tensor.groups(k), np.concatenate(
                [g.counts for g in tensor.groups(k)])) is not None
            rows = batch_rows(rng, tensor, k)
            n_groups = len(tensor.groups(k))
            orders = [None] + [rng.permutation(n_groups).tolist() for _ in rows[1:]]
            want = sequential(tensor, k, rows, orders)
            got = list(csa_many(tensor, k, np.log(rows), orders))
            assert len(got) == len(rows)
            for g, w in zip(got, want):
                assert_same_fit(g, w)
            assert want[-1][2].sweeps == 1 < want[0][2].sweeps  # rows stop at different steps

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1)])
    def test_rows_longer_than_einsum_buffers(self, d, k, monkeypatch):
        # one einsum over a 2-d array rounds rows past 8,192 differently
        # from one einsum per row; every chunk row here is that long
        monkeypatch.setattr(canonical_scaling, "FIT_BLOCK", 10**6)
        rng = np.random.default_rng(71 + d)
        extents = (150, 100) if d == 2 else (40, 30, 20)
        cells = np.array(list(all_indices(extents)))
        cells = cells[rng.random(len(cells)) < 9_000 / len(cells)]
        tensor = SparseTensor.from_arrays(extents, cells, np.exp(rng.uniform(-2, 2, len(cells))))
        assert len(tensor) > 8_192
        rows = batch_rows(rng, tensor, k, rescaled=2)
        for g, w in zip(csa_many(tensor, k, np.log(rows)), sequential(tensor, k, rows)):
            assert_same_fit(g, w)

    def test_chunk_boundaries_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(72)
        for tensor, k in batch_cases(rng):
            rows = np.log(batch_rows(rng, tensor, k))
            whole = list(csa_many(tensor, k, rows))
            for block in (1, len(tensor), 2 * len(tensor) + 1, 3 * len(tensor)):
                monkeypatch.setattr(canonical_scaling, "FIT_BLOCK", block)
                for g, w in zip(csa_many(tensor, k, rows), whole, strict=True):
                    assert_same_fit(g, w)

    @pytest.mark.parametrize("block", [10**6, 1])
    def test_budget_stop_raises_for_the_first_failing_row(self, block, monkeypatch):
        monkeypatch.setattr(canonical_scaling, "FIT_BLOCK", block)
        rng = np.random.default_rng(73)
        tensor = random_full_support(rng, 2, extent_hi=8, box_cap=60, density=0.6)
        rows = batch_rows(rng, tensor, 1, rescaled=2)[::-1]  # all ones first
        fits = csa_many(tensor, 1, np.log(rows), max_sweeps=2)
        assert_same_fit(next(fits), sequential(tensor, 1, rows[:1], max_sweeps=2)[0])
        with pytest.raises(ConvergenceError) as caught:
            next(fits)
        with pytest.raises(ConvergenceError) as alone:
            sequential(tensor, 1, rows[1:2], max_sweeps=2)
        assert caught.value.report == alone.value.report
        assert caught.value.report.stop_reason == "budget"

    def test_bad_rows_and_orders(self, golden_matrix):
        logs = np.log(golden_matrix.values_array())
        with pytest.raises(ValueError, match="shape"):
            list(csa_many(golden_matrix, 1, [logs[:2]]))
        with pytest.raises(ValueError, match="finite"):
            list(csa_many(golden_matrix, 1, [np.array([0.0, np.inf, 1.0])]))
        with pytest.raises(ValueError, match="fewer orders"):
            list(csa_many(golden_matrix, 1, [logs, logs], [None]))
        with pytest.raises(ValueError, match="permute"):
            list(csa_many(golden_matrix, 1, [logs], [[0, 0]]))
        with pytest.raises(ValueError, match="k must be"):
            csa_many(golden_matrix, 2, [logs])  # checked before any row is read
        assert list(csa_many(golden_matrix, 1, [])) == []
