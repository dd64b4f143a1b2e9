import itertools

import numpy as np
import pytest

from uctensor.errors import CapacityError
from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import is_fully_supported, supported, witness

from conftest import make_golden


def brute_force_offsets(tensor, idx):
    """Every valid offset, by trying the full cross product of candidates."""
    occupied = [sorted({i[dim] for i in tensor.entries}) for dim in range(tensor.d)]
    candidates = [
        [j - idx[dim] for j in occupied[dim] if j != idx[dim]]
        for dim in range(tensor.d)
    ]
    if any(not c for c in candidates):
        return []
    valid = []
    for offset in itertools.product(*candidates):
        corners = [
            tuple(idx[i] + delta[i] * offset[i] for i in range(tensor.d))
            for delta in itertools.product((0, 1), repeat=tensor.d)
            if any(delta)
        ]
        if all(c in tensor.entries for c in corners):
            valid.append(offset)
    return valid


class TestWitness:
    def test_golden_corner(self, golden_matrix):
        w = witness(golden_matrix, (2, 2))
        assert w is not None
        assert w.offset == (-1, -1)
        assert set(w.corners) == {(1, 2), (2, 1), (1, 1)}

    def test_dense_hole_lexicographic_choice(self):
        entries = {idx: 1.0 for idx in all_indices((3, 3)) if idx != (2, 2)}
        tensor = SparseTensor((3, 3), entries)
        w = witness(tensor, (2, 2))
        assert w.offset == (-1, -1)
        # all four sign combinations are valid; (-1, -1) is the smallest
        assert sorted(brute_force_offsets(tensor, (2, 2)))[0] == (-1, -1)

    def test_empty_row_has_no_witness(self):
        tensor = SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0})
        assert witness(tensor, (2, 1)) is None

    def test_known_index_rejected(self, golden_matrix):
        with pytest.raises(ValueError):
            witness(golden_matrix, (1, 1))

    def test_returned_witness_validates(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            extents = (5, 4, 3)
            entries = {
                idx: 1.0 for idx in all_indices(extents) if rng.random() < 0.65
            }
            if not entries:
                continue
            tensor = SparseTensor(extents, entries)
            for idx in tensor.missing_indices():
                w = witness(tensor, idx)
                if w is None:
                    assert brute_force_offsets(tensor, idx) == []
                    continue
                assert all(s != 0 for s in w.offset)
                assert len(w.corners) == 2 ** tensor.d - 1
                assert all(c in tensor.entries for c in w.corners)
                expected_corners = {
                    tuple(idx[i] + d[i] * w.offset[i] for i in range(tensor.d))
                    for d in itertools.product((0, 1), repeat=tensor.d)
                    if any(d)
                }
                assert set(w.corners) == expected_corners
                # lexicographically smallest among all valid offsets
                assert w.offset == sorted(brute_force_offsets(tensor, idx))[0]

    def test_deterministic(self, golden_matrix):
        assert witness(golden_matrix, (2, 2)) == witness(golden_matrix, (2, 2))


class TestSupported:
    def test_same_cells_as_filtering_by_witness(self):
        rng = np.random.default_rng(4)
        for extents in ((6, 5), (4, 3, 3)):
            entries = {idx: 1.0 for idx in all_indices(extents) if rng.random() < 0.5}
            tensor = SparseTensor(extents, entries)
            missing = list(tensor.missing_indices())
            expected = [idx for idx in missing if witness(tensor, idx) is not None]
            assert 0 < len(expected) < len(missing)
            assert list(supported(tensor, missing)) == expected

    def test_rejects_known_and_out_of_bounds_cells(self, golden_matrix):
        with pytest.raises(ValueError):
            list(supported(golden_matrix, [(2, 2), (1, 1)]))
        with pytest.raises(IndexError):
            list(supported(golden_matrix, [(3, 1)]))


class TestIsFullySupported:
    def test_fully_dense(self):
        dense = SparseTensor((3, 3), {idx: 1.0 for idx in all_indices((3, 3))})
        assert is_fully_supported(dense) == (True, [])

    def test_golden_case(self, golden_matrix):
        assert is_fully_supported(golden_matrix) == (True, [])

    def test_empty_row_counterexample(self):
        tensor = SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0})
        ok, failures = is_fully_supported(tensor)
        assert not ok
        assert failures == [(2, 1), (2, 2)]

    def test_removing_sole_witness_corner_flips_classification(self):
        golden = make_golden()
        assert witness(golden, (2, 2)).offset == (-1, -1)
        assert brute_force_offsets(golden, (2, 2)) == [(-1, -1)]  # sole witness
        without_corner = SparseTensor(
            (2, 2), {k: v for k, v in golden.entries.items() if k != (1, 1)}
        )
        assert witness(without_corner, (2, 2)) is None
        ok, failures = is_fully_supported(without_corner)
        assert not ok and (2, 2) in failures

    def test_scan_cap(self):
        tensor = SparseTensor((4, 4), {(1, 1): 1.0})
        with pytest.raises(CapacityError) as excinfo:
            is_fully_supported(tensor, scan_cap=3)
        assert isinstance(excinfo.value.partial, list)
