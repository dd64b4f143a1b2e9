import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import completion
from uctensor.cli import load_model, save_model
from uctensor.completion import (
    complete_all,
    mca,
    predict,
    predict_many,
    tca,
)
from uctensor.errors import CapacityError
from uctensor.lcsp_oracle import build_constraints, oracle_complete, solve_lcsp
from uctensor.ingest import IdMap
from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import SupportIndex, scan

from conftest import count_reads, random_full_support, rank1_tensor

# closed form for the golden matrix: unit consistency forces
# r(2,2) = r(1,2) * r(2,1) / r(1,1) = 2 * 3 / 1
GOLDEN_COMPLETION = 6.0


class TestTcaGolden:
    def test_missing_corner(self, golden_matrix):
        model = tca(golden_matrix, 1)
        assert model.predict((2, 2)) == pytest.approx(GOLDEN_COMPLETION, rel=1e-9)

    def test_cross_checked_against_oracle(self, golden_matrix):
        assert oracle_complete(golden_matrix, 1, (2, 2)) == pytest.approx(
            GOLDEN_COMPLETION, rel=1e-9
        )

    def test_known_entry_passthrough_is_exact(self, golden_matrix):
        model = tca(golden_matrix, 1)
        assert model.predict((1, 2)) == 2.0
        assert model.predict((1, 1)) == 1.0
        assert model.predict((2, 1)) == 3.0

    def test_scaled_row_scales_prediction(self, golden_matrix):
        scaled = SparseTensor(
            (2, 2),
            {
                idx: (v * 10.0 if idx[0] == 2 else v)
                for idx, v in golden_matrix.entries.items()
            },
        )
        model = tca(scaled, 1)
        assert model.predict((2, 2)) == pytest.approx(60.0, rel=1e-9)

    def test_predictions_positive_and_bounds_checked(self, golden_matrix):
        model = tca(golden_matrix, 1)
        assert model.predict((2, 2)) > 0
        with pytest.raises(IndexError):
            model.predict((3, 3))


class TestTcaGeneral:
    def test_rank1_cube_recovery(self):
        tensor = rank1_tensor(
            [(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)], drop=[(2, 2, 2)]
        )
        model = tca(tensor, 2)
        assert model.predict((2, 2, 2)) == pytest.approx(30.0, rel=1e-9)
        assert oracle_complete(tensor, 2, (2, 2, 2)) == pytest.approx(30.0, rel=1e-9)

    def test_rank1_cube_recovery_k1(self):
        tensor = rank1_tensor(
            [(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)], drop=[(2, 2, 2)]
        )
        model = tca(tensor, 1)
        assert model.predict((2, 2, 2)) == pytest.approx(30.0, rel=1e-9)

    def test_default_k_is_dminus1(self):
        tensor = rank1_tensor([(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)])
        model = tca(tensor)
        assert model.k == 2

    def test_fit_settings_reach_the_report(self, golden_matrix):
        model = tca(golden_matrix, 1, epsilon=1e-20, max_sweeps=77)
        assert (model.report.epsilon, model.report.max_sweeps) == (1e-20, 77)
        report = mca(golden_matrix, epsilon=1e-20, max_sweeps=77).report
        assert (report.epsilon, report.max_sweeps) == (1e-20, 77)

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError):
            tca(SparseTensor((2, 2), {}), 1)

    def test_known_preservation_on_random_instances(self):
        rng = np.random.default_rng(17)
        for d in (2, 3):
            tensor = random_full_support(rng, d, extent_hi=8, box_cap=400)
            model = tca(tensor, d - 1)
            for idx, value in tensor.entries.items():
                assert abs(model.predict(idx) / value - 1.0) < 1e-12


def _sparse_tensor(rng, extents, density):
    entries = {
        idx: float(np.exp(rng.uniform(-1.0, 1.0)))
        for idx in all_indices(extents)
        if rng.random() < density
    }
    return SparseTensor(extents, entries)


class TestPredictMany:
    @pytest.mark.parametrize("extents,k", [((7, 5), 1), ((4, 5, 3), 2), ((4, 5, 3), 1)])
    def test_bit_identical_to_predict_over_the_box(self, extents, k):
        rng = np.random.default_rng(11)
        tensor = _sparse_tensor(rng, extents, 0.35)
        model = tca(tensor, k)
        cells = list(all_indices(extents))
        expected = [model.predict(idx) for idx in cells]
        assert predict_many(model, np.array(cells)).tolist() == expected
        assert predict_many(model, cells[::-1]).tolist() == expected[::-1]
        assert any(idx in tensor.entries for idx in cells)
        assert any(idx not in tensor.entries for idx in cells)
        if k < len(extents) - 1:  # some cells sit in subtensors without an id
            assert any(
                group.slot(idx) is None for group in model.scaling.groups for idx in cells
            )

    def test_known_cells_return_stored_values(self, golden_matrix):
        model = tca(golden_matrix, 1)
        got = predict_many(model, [(1, 2), (2, 1), (1, 1), (1, 2)])
        assert got.tolist() == [2.0, 3.0, 1.0, 2.0]

    def test_empty_query(self, golden_matrix):
        model = tca(golden_matrix, 1)
        assert predict_many(model, np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert predict_many(model, []).shape == (0,)

    def test_bad_rows_raise_index_error(self, golden_matrix):
        model = tca(golden_matrix, 1)
        with pytest.raises(IndexError, match="row 2"):
            predict_many(model, [(1, 1), (2, 2), (3, 1)])
        with pytest.raises(IndexError, match="row 1"):
            predict_many(model, [(1, 1), (0, 2)])
        with pytest.raises(IndexError):
            predict_many(model, [(1, 1, 1)])
        with pytest.raises(IndexError):
            predict_many(model, [(1, 1), (1, 1, 1)])
        with pytest.raises(IndexError):
            predict_many(model, (1, 1))
        with pytest.raises(TypeError):
            predict_many(model, [(1.0, 2.0)])

    @pytest.mark.parametrize("rows, kind, named", [
        ([(1, 1), (1, 2), (1,)], IndexError, "row 2: index (1,)"),
        ([(1, 1), (1, 2, 1)], IndexError, "row 1: index (1, 2, 1)"),
        ([(1, 1, 1)], IndexError, "row 0: index (1, 1, 1)"),
        ([(1, 1), (1.5, 1)], TypeError, "row 0:"),
        (np.array([(1, 1), (2**70, 1)], dtype=object), TypeError, "row 1:"),
        ([(1, 1), (2, 0)], IndexError, "row 1: index (2, 0)"),
        ([(1, 1), (2, 1), (1, 3)], IndexError, "row 2: index (1, 3)"),
    ])
    def test_bad_rows_refused_as_the_tensor_refuses_them(self, golden_matrix, rows, kind, named):
        model = tca(golden_matrix, 1)
        with pytest.raises(kind) as built:
            SparseTensor.from_arrays((2, 2), rows, np.ones(len(rows)))
        with pytest.raises(kind) as predicted:
            predict_many(model, rows)
        assert str(predicted.value) == str(built.value)
        assert str(built.value).startswith(named)


@st.composite
def fitted_tensors(draw):
    """A random positive tensor with d in {2, 3}, a k for it, and a seed."""
    d = draw(st.sampled_from([2, 3]))
    extents = tuple(draw(st.integers(1, 4)) for _ in range(d))
    k = draw(st.integers(1, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = list(all_indices(extents))
    known = [idx for idx in cells if rng.random() < 0.5] or [cells[0]]
    values = np.exp(rng.uniform(-1.0, 1.0, len(known))).tolist()
    return SparseTensor(extents, dict(zip(known, values))), k


def _reloaded(model):
    """``model`` through a save_model/load_model round trip."""
    idmap = IdMap.from_tables(
        {f"{dim}:{coord}": coord for coord in range(1, n + 1)}
        for dim, n in enumerate(model.source.extents)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model, idmap, "0" * 64)
        return load_model(path)[0]


def _bad_indices(extents):
    """Out-of-bounds, zero, negative, wrong-length and fractional queries."""
    d = len(extents)
    ones = (1,) * d
    for dim, n in enumerate(extents):
        for c in (n + 1, 0, -1, 1.5, 1.0, 0.5):
            yield ones[:dim] + (c,) + ones[dim + 1:]
    yield ones[:-1]
    yield ones + (1,)


class TestScalarAgreesWithBatched:
    @given(fitted_tensors(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_bits_and_same_refusals(self, case, reload):
        tensor, k = case
        model = tca(tensor, k)
        if reload:
            model = _reloaded(model)
        cells = np.array(list(all_indices(tensor.extents)))
        batched = predict_many(model, cells).tolist()
        assert [model.predict(idx) for idx in map(tuple, cells.tolist())] == batched
        assert [model.predict(tuple(row)) for row in cells] == batched  # np.int64 coordinates
        oracle = solve_lcsp(tensor, k)[1]
        for bad in _bad_indices(tensor.extents):
            raised = []
            for query in (
                model.predict,
                lambda idx: predict_many(model, [idx]),
                lambda idx: oracle_complete(tensor, k, idx, presolved=oracle),
            ):
                with pytest.raises((IndexError, TypeError)) as excinfo:
                    query(bad)
                raised.append(excinfo.type)
            assert raised == [raised[0]] * 3, bad
            assert raised[0] is (TypeError if any(isinstance(c, float) for c in bad)
                                 and len(bad) == tensor.d else IndexError)

    def test_fractional_coordinates_are_refused(self):
        # the known cell (2, 1, 1) used to answer (2, 1.5, 1), truncated
        tensor = rank1_tensor([(1.0, 3.0), (1.0, 2.0), (1.0, 5.0)], drop=[(1, 2, 2)])
        for k in (1, 2):
            model = tca(tensor, k)
            for idx in ((2, 1.5, 1), (2, 1.0, 1), (1, 2.5, 2), (2.0, 2, 2)):
                with pytest.raises(TypeError, match="must be ints"):
                    model.predict(idx)
                with pytest.raises(TypeError, match="must be ints"):
                    model.supported(idx)
                with pytest.raises(TypeError, match="must be ints"):
                    oracle_complete(tensor, k, idx)
            assert model.predict((True, 2, np.int64(2))) == model.predict((1, 2, 2))


class TestCompleteAll:
    def test_same_as_predict_per_cell(self):
        rng = np.random.default_rng(3)
        for extents, k in (((6, 4), 1), ((3, 4, 3), 2), ((3, 4, 3), 1)):
            model = tca(_sparse_tensor(rng, extents, 0.5), k)
            filled = complete_all(model)
            expected = {idx: predict(model, idx) for idx in all_indices(extents)}
            assert list(filled.entries.items()) == list(expected.items())


    def test_golden_box(self, golden_matrix):
        model = tca(golden_matrix, 1)
        filled = complete_all(model)
        assert set(filled.entries) == set(all_indices((2, 2)))
        assert filled.entries[(1, 1)] == 1.0
        assert filled.entries[(1, 2)] == 2.0
        assert filled.entries[(2, 1)] == 3.0
        assert filled.entries[(2, 2)] == pytest.approx(6.0, rel=1e-9)

    def test_fully_known_is_identity(self):
        dense = SparseTensor((2, 3), {idx: 2.0 for idx in all_indices((2, 3))})
        model = tca(dense, 1)
        assert complete_all(model).entries == dense.entries

    def test_proportional_rows(self):
        tensor = SparseTensor(
            (2, 3),
            {(1, 1): 2.0, (1, 2): 4.0, (1, 3): 8.0, (2, 1): 1.0, (2, 2): 2.0},
        )
        model = tca(tensor, 1)
        filled = complete_all(model)
        assert filled.entries[(2, 3)] == pytest.approx(4.0, rel=1e-9)
        assert oracle_complete(tensor, 1, (2, 3)) == pytest.approx(4.0, rel=1e-9)

    def test_box_cap(self, golden_matrix, monkeypatch):
        monkeypatch.setattr(completion, "COMPLETE_ALL_CAP", 3)
        model = tca(golden_matrix, 1)
        with pytest.raises(CapacityError):
            complete_all(model)


class TestMca:
    def test_rejects_non_matrix(self):
        cube = rank1_tensor([(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)])
        with pytest.raises(ValueError):
            mca(cube)

    def test_same_as_tca_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rows, cols = rng.integers(2, 7, size=2)
            entries = {
                (i, j): float(np.exp(rng.uniform(-1, 1)))
                for i in range(1, rows + 1)
                for j in range(1, cols + 1)
                if rng.random() < 0.8
            }
            if not entries:
                continue
            tensor = SparseTensor((int(rows), int(cols)), entries)
            a = mca(tensor)
            b = tca(tensor, 1)
            assert a.scaling.log_coeffs == b.scaling.log_coeffs
            assert a.report.v_trace == b.report.v_trace
            for idx in tensor.missing_indices():
                assert predict(a, idx) == predict(b, idx)

    def test_diagonal_unit_consistency(self):
        # R . MCA(A) . C == MCA(R . A . C) for positive diagonal R, C
        rng = np.random.default_rng(13)
        tensor = random_full_support(rng, 2, extent_hi=8, box_cap=64)
        rows, cols = tensor.extents
        r = np.exp(rng.uniform(-1.5, 1.5, size=rows))
        c = np.exp(rng.uniform(-1.5, 1.5, size=cols))
        scaled = SparseTensor(
            tensor.extents,
            {
                (i, j): v * r[i - 1] * c[j - 1]
                for (i, j), v in tensor.entries.items()
            },
        )
        base = mca(tensor)
        other = mca(scaled)
        for i, j in tensor.missing_indices():
            expected = base.predict((i, j)) * r[i - 1] * c[j - 1]
            assert other.predict((i, j)) == pytest.approx(expected, rel=1e-6)


class TestInstrumentation:
    def test_missing_query_costs_exactly_d_lookups(self, golden_matrix):
        model = tca(golden_matrix, 1)
        counter = count_reads(model)
        model.predict((2, 2))
        assert counter.reads == 2

    def test_general_k_costs_choose_dk_lookups(self):
        tensor = rank1_tensor(
            [(1.0, 2.0), (1.0, 3.0), (1.0, 5.0)], drop=[(2, 2, 2)]
        )
        model = tca(tensor, 1)
        counter = count_reads(model)
        model.predict((2, 2, 2))
        assert counter.reads == 3  # C(3, 1)

    def test_known_query_costs_no_lookups(self, golden_matrix):
        model = tca(golden_matrix, 1)
        counter = count_reads(model)
        model.predict((1, 1))
        assert counter.reads == 0


class TestSupportedFlag:
    def test_golden_missing_corner_supported(self, golden_matrix):
        model = tca(golden_matrix, 1)
        assert model.supported((2, 2))
        assert model.supported((1, 1))  # known entries count as supported

    def test_unsupported_index_flagged(self):
        t = SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0})
        model = tca(t, 1)
        assert model.predict((2, 1)) > 0  # still answers
        assert not model.supported((2, 1))

    def test_agrees_with_the_scan_verify_reads(self):
        rng = np.random.default_rng(23)
        every = []
        for extents in ((6, 5), (4, 3, 3)):
            entries = {idx: float(rng.uniform(1, 5)) for idx in all_indices(extents)
                       if rng.random() < 0.5}
            tensor = SparseTensor(extents, entries)
            model = tca(tensor, len(extents) - 1)
            cells, witnessed = scan(tensor, tensor.box_size)
            flags = [model.supported(idx) for idx in map(tuple, cells.tolist())]
            assert flags == witnessed.tolist()
            assert all(model.supported(idx) for idx in entries)
            with pytest.raises(IndexError):
                model.supported(tuple(n + 1 for n in extents))
            every += flags
        assert any(every) and not all(every)

    def test_one_support_index_per_model(self, monkeypatch):
        # the known cells are keyed and sorted once; each call joins one cell
        built = []
        init = SupportIndex.__init__

        def counted(index, tensor):
            built.append(tensor)
            init(index, tensor)

        monkeypatch.setattr(SupportIndex, "__init__", counted)
        t = SparseTensor((3, 3), {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0, (3, 3): 4.0})
        model = tca(t, 1)
        assert [model.supported(idx) for idx in ((2, 2), (3, 1), (2, 2), (1, 1))] == [
            True, False, True, True]
        assert built == [t]


class TestOracleAgreement:
    def test_random_instances_match_direct_solve(self):
        rng = np.random.default_rng(19)
        for d in (2, 3):
            tensor = random_full_support(rng, d, extent_hi=7, box_cap=300)
            model = tca(tensor, d - 1)
            system = build_constraints(tensor, d - 1)
            _, oracle = solve_lcsp(tensor, d - 1, system)
            for idx in tensor.missing_indices():
                reference = oracle_complete(tensor, d - 1, idx, presolved=oracle)
                assert model.predict(idx) == pytest.approx(reference, rel=1e-6)
