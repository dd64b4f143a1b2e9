import math

import numpy as np
import pytest

from uctensor.canonical_scaling import ScalingFamily, apply_scaling, csa
from uctensor.errors import CapacityError
from uctensor.lcsp_oracle import (
    build_constraints,
    gauge_check,
    oracle_complete,
    solve_lcsp,
)
from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import witness

from conftest import random_full_support, rank1_tensor, reference_members


def dense(extents, value=1.0):
    return SparseTensor(extents, {idx: value for idx in all_indices(extents)})


def occupied_rows(tensor, k):
    """The non-empty subtensors as (fixed_dims, fixed_coords), group by group."""
    return [
        (g.fixed_dims, tuple(row))
        for g in tensor.groups(k)
        for row, n in zip(g.fixed.tolist(), g.counts.tolist())
        if n
    ]


def row_coefficients(family):
    """The family's coefficients of non-empty subtensors, in constraint-row order."""
    return np.concatenate(
        [vec[g.counts > 0] for g, vec in zip(family.groups, family.coeffs)]
    )


class TestBuildConstraints:
    def test_golden_matrix_system(self, golden_matrix):
        system = build_constraints(golden_matrix, 1)
        # columns ascend by flat index: (1,1), (2,1), (1,2)
        assert system.columns.tolist() == [[1, 1], [2, 1], [1, 2]]
        assert occupied_rows(golden_matrix, 1) == [
            ((1,), (1,)),
            ((1,), (2,)),
            ((2,), (1,)),
            ((2,), (2,)),
        ]
        expected = np.array(
            [
                [1.0, 0.0, 1.0],  # row 1 holds (1,1) and (1,2)
                [0.0, 1.0, 0.0],  # row 2 holds (2,1)
                [1.0, 1.0, 0.0],  # column 1 holds (1,1) and (2,1)
                [0.0, 0.0, 1.0],  # column 2 holds (1,2)
            ]
        )
        assert np.array_equal(system.matrix, expected)
        assert np.allclose(system.a, [0.0, math.log(3), math.log(2)])

    def test_dense_matrix_column_sums(self):
        system = build_constraints(dense((2, 2)), 1)
        assert np.array_equal(system.matrix.sum(axis=0), [2, 2, 2, 2])

    def test_dense_cube_k2(self):
        system = build_constraints(dense((2, 2, 2)), 2)
        assert system.matrix.shape == (6, 8)
        assert np.array_equal(system.matrix.sum(axis=0), [3] * 8)

    def test_rows_cover_only_nonempty_subtensors(self, golden_matrix):
        padded = SparseTensor((3, 2), golden_matrix.entries)  # row 3 empty
        system = build_constraints(padded, 1)
        assert ((1,), (3,)) not in occupied_rows(padded, 1)
        assert system.matrix.shape == (4, 3)

    def test_row_support_matches_members(self, golden_matrix):
        system = build_constraints(golden_matrix, 1)
        rows = occupied_rows(golden_matrix, 1)
        assert len(system.matrix) == len(rows)
        columns = [tuple(c) for c in system.columns.tolist()]
        for row, (dims, coords) in zip(system.matrix, rows):
            cols = [columns[t] for t in np.flatnonzero(row)]
            assert cols == reference_members(columns, dims, coords)


class TestSolveLcsp:
    def test_all_ones_is_fixed_point(self):
        x, family = solve_lcsp(dense((3, 3)), 1)
        assert np.allclose(x, 0.0, atol=1e-14)
        assert all(np.allclose(c, 0.0, atol=1e-14) for c in family.coeffs)

    def test_golden_matrix_projects_to_zero(self, golden_matrix):
        system = build_constraints(golden_matrix, 1)
        x, family = solve_lcsp(golden_matrix, 1, system)
        s = row_coefficients(family)
        assert len(s) == len(system.matrix)
        assert np.allclose(x, 0.0, atol=1e-12)
        assert np.allclose(system.a + system.matrix.T @ s, x, atol=1e-12)
        assert float(np.abs(system.matrix @ x).max()) < 1e-12

    def test_matches_iterative_scaler(self):
        rng = np.random.default_rng(101)
        tensor = random_full_support(
            rng, 2, extent_lo=5, extent_hi=5, box_cap=25, density=0.5
        )
        x_csa, _, _ = csa(tensor, 1)
        x, _ = solve_lcsp(tensor, 1)
        assert np.allclose(x_csa, x, atol=1e-8)

    def test_projection_idempotent_on_canonical_input(self):
        rng = np.random.default_rng(7)
        tensor = random_full_support(rng, 2, extent_hi=6, box_cap=36)
        _, family, _ = csa(tensor, 1)
        canonical = apply_scaling(tensor, family)
        system = build_constraints(canonical, 1)
        x, family = solve_lcsp(canonical, 1, system)
        assert np.allclose(x, system.a, atol=1e-10)
        # null gauge: every membership sum of the coefficients vanishes
        for idx in canonical.known_indices():
            assert abs(family.log_sum_at(idx)) < 1e-10

    def test_empty_subtensors_read_zero(self, golden_matrix):
        padded = SparseTensor((3, 2), golden_matrix.entries)  # row 3 empty
        x, family = solve_lcsp(padded, 1)
        assert [len(c) for c in family.coeffs] == [3, 2]
        assert family.coeffs[0][2] == 0.0
        assert oracle_complete(padded, 1, (2, 2), presolved=family) == pytest.approx(
            6.0, rel=1e-9
        )

    def test_size_cap(self):
        big = dense((50, 50))  # 2500 known entries
        with pytest.raises(CapacityError):
            solve_lcsp(big, 1)

    def test_size_cap_checked_before_the_matrix_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr(np, "vstack", refuse)
        with pytest.raises(CapacityError, match="2501x2500"):
            build_constraints(dense((1, 2500)), 1)  # 2500 entries, in 1 row and 2500 columns
        # 1500 entries on the diagonal, in 3000 subtensors
        diagonal = SparseTensor((1500, 1500), {(i, i): 1.0 for i in range(1, 1501)})
        with pytest.raises(CapacityError, match="3000x1500"):
            build_constraints(diagonal, 1)


class TestOracleComplete:
    def test_golden_corner(self, golden_matrix):
        assert oracle_complete(golden_matrix, 1, (2, 2)) == pytest.approx(6.0, rel=1e-9)

    def test_rank1_cube(self):
        tensor = rank1_tensor([(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)], drop=[(2, 2, 2)])
        assert oracle_complete(tensor, 2, (2, 2, 2)) == pytest.approx(30.0, rel=1e-9)

    def test_known_index_rejected(self, golden_matrix):
        with pytest.raises(ValueError):
            oracle_complete(golden_matrix, 1, (1, 1))

    @pytest.mark.parametrize("idx", [(3, 1), (0, 5)])
    def test_out_of_bounds_index_rejected(self, golden_matrix, idx):
        with pytest.raises(IndexError):
            oracle_complete(golden_matrix, 1, idx)

    def test_unsupported_index_still_returns_value(self):
        tensor = SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0})
        value = oracle_complete(tensor, 1, (2, 1))
        assert value > 0
        assert witness(tensor, (2, 1)) is None  # flag: gauge-dependent

    def test_presolved_reuse(self, golden_matrix):
        system = build_constraints(golden_matrix, 1)
        _, family = solve_lcsp(golden_matrix, 1, system)
        direct = oracle_complete(golden_matrix, 1, (2, 2))
        reused = oracle_complete(golden_matrix, 1, (2, 2), presolved=family)
        assert direct == reused

    def test_one_pass_over_the_cells_equals_the_per_cell_loop(self):
        # verify's oracle check reads its references from one log_sums pass
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            tensor = random_full_support(rng, d, extent_hi=5 if d < 4 else 3, box_cap=120)
            cells = np.array(list(tensor.missing_indices()), dtype=np.int64).reshape(-1, d)
            for k in range(1, d):
                _, family = solve_lcsp(tensor, k)
                loop = [
                    oracle_complete(tensor, k, idx, presolved=family)
                    for idx in map(tuple, cells.tolist())
                ]
                one_pass = list(map(math.exp, (-family.log_sums(cells)).tolist()))
                assert one_pass == loop


class TestGaugeCheck:
    def test_identical_families(self, golden_matrix):
        _, family, _ = csa(golden_matrix, 1)
        ok, worst = gauge_check(family, family, golden_matrix)
        assert ok and worst == 0.0

    def test_balanced_shift_is_a_gauge(self):
        tensor = dense((2, 2))
        _, family, _ = csa(tensor, 1)
        shift = math.log(2)
        rows, cols = family.coeffs
        shifted = ScalingFamily(1, family.groups, [rows + shift, cols - shift])
        ok, worst = gauge_check(family, shifted, tensor)
        assert ok and worst < 1e-12

    def test_unbalanced_shift_is_not(self):
        tensor = dense((2, 2))
        _, family, _ = csa(tensor, 1)
        bumped = [c.copy() for c in family.coeffs]
        bumped[0][0] += math.log(2)  # slice 1 of dimension 1
        ok, worst = gauge_check(family, ScalingFamily(1, family.groups, bumped), tensor)
        assert not ok
        assert worst == pytest.approx(math.log(2), rel=1e-12)

    def test_mismatched_k_rejected(self, golden_matrix):
        with pytest.raises(ValueError):
            gauge_check(ScalingFamily(1, [], []), ScalingFamily(2, [], []), golden_matrix)

    def test_order_permutations_are_gauges(self):
        rng = np.random.default_rng(3)
        tensor = random_full_support(rng, 3, extent_hi=5, box_cap=125)
        _, fam1, _ = csa(tensor, 2, order=[0, 1, 2])
        _, fam2, _ = csa(tensor, 2, order=[1, 2, 0])
        ok, worst = gauge_check(fam1, fam2, tensor)
        assert ok, f"gauge violation {worst:.3e}"
