import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import sparse_tensor
from uctensor.sparse_tensor import (
    SparseTensor,
    SubtensorId,
    all_indices,
    flat_index,
    members,
    membership,
    subtensor_ids,
    unflatten_index,
)

from conftest import (
    reference_flat_index,
    reference_members,
    reference_subtensors,
)


class TestFlatIndex:
    def test_first_cell(self):
        assert flat_index((1, 1), (4, 5)) == 1

    def test_hand_evaluated_cell(self):
        # rank in the first-dim-fastest enumeration, frozen via the
        # brute-force enumeration oracle
        assert reference_flat_index((2, 3), (4, 5)) == 10
        assert flat_index((2, 3), (4, 5)) == 10

    def test_last_cell_of_cube(self):
        assert flat_index((2, 2, 2), (2, 2, 2)) == 8
        # cross-check every cell of the box against the enumeration oracle
        for idx in all_indices((2, 2, 2)):
            assert flat_index(idx, (2, 2, 2)) == reference_flat_index(idx, (2, 2, 2))

    @pytest.mark.parametrize("idx", [(0, 1), (5, 1), (1, 6), (1,), (1, 1, 1)])
    def test_out_of_bounds(self, idx):
        with pytest.raises(IndexError):
            flat_index(idx, (4, 5))

    @given(
        st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=4).filter(
            lambda ns: math.prod(ns) <= 10_000
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bijection_over_box(self, extents):
        extents = tuple(extents)
        box = math.prod(extents)
        seen = [flat_index(idx, extents) for idx in all_indices(extents)]
        assert sorted(seen) == list(range(1, box + 1))
        assert seen == list(range(1, box + 1))  # enumeration is in flat order
        for j in (1, box):
            assert flat_index(unflatten_index(j, extents), extents) == j

    def test_unflatten_round_trip(self):
        extents = (3, 4, 2)
        for j in range(1, 25):
            assert flat_index(unflatten_index(j, extents), extents) == j
        with pytest.raises(IndexError):
            unflatten_index(25, extents)


class TestConstruction:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            SparseTensor((2, 2), {(1, 1): 0.0})
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            SparseTensor((2, 2), {(1, 1): 1.0, (2, 1): -1.5})
        with pytest.raises(ValueError):
            SparseTensor((2, 2), {(1, 1): float("nan")})
        with pytest.raises(ValueError):
            SparseTensor((2, 2), {(1, 1): float("inf")})

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            SparseTensor((2, 2), [((1, 1), 1.0), ((1, 1), 2.0)])

    def test_rejects_out_of_bounds_entries(self):
        with pytest.raises(IndexError, match=r"\(3, 1\)"):
            SparseTensor((2, 2), {(1, 1): 1.0, (3, 1): 1.0})
        with pytest.raises(IndexError, match=r"\(1, 0\)"):
            SparseTensor((2, 2), {(1, 0): 1.0})
        for wrong_length in ((1,), (1, 1, 1)):
            with pytest.raises(IndexError, match=re.escape(str(wrong_length))):
                SparseTensor((2, 2), {(1, 1): 1.0, wrong_length: 1.0})

    def test_rejects_non_integer_coordinates(self):
        with pytest.raises(TypeError):
            SparseTensor((2, 2), {(1, 1): 1.0, (1.5, 1): 2.0})

    def test_known_order_is_flat_and_keeps_caller_tuples(self):
        rng = np.random.default_rng(5)
        extents = (4, 3, 2)
        cells = [idx for idx in all_indices(extents) if rng.random() < 0.6]
        keys = [cells[t] for t in rng.permutation(len(cells))]
        t = SparseTensor(extents, {idx: float(n + 1) for n, idx in enumerate(keys)})
        known = t.known_indices()
        assert list(t.entries) == keys  # insertion order kept
        assert list(known) == sorted(keys, key=lambda i: flat_index(i, extents))
        assert {id(i) for i in known} == {id(i) for i in keys}
        assert t.coords_array().tolist() == [list(i) for i in known]
        assert t.values_array().tolist() == [t.entries[i] for i in known]

    def test_empty_tensor(self):
        t = SparseTensor((2, 3), {})
        assert len(t) == 0 and t.known_indices() == ()
        assert t.coords_array().shape == (0, 2)
        assert t.values_array().shape == (0,)
        assert list(t.missing_indices()) == list(all_indices((2, 3)))

    def test_missing_blocks_cross_block_edges(self, monkeypatch):
        monkeypatch.setattr(sparse_tensor, "MISSING_BLOCK", 7)
        rng = np.random.default_rng(9)
        for extents in ((5, 6), (3, 4, 5), (2, 2)):
            cells = list(all_indices(extents))
            t = SparseTensor(extents, {idx: 1.0 for idx in cells if rng.random() < 0.4})
            blocks = list(t.missing_blocks())
            assert all(b.dtype == np.int64 and len(b) <= 7 for b in blocks)
            flat = [tuple(row) for b in blocks for row in b.tolist()]
            assert flat == list(t.missing_indices())
            assert flat == [idx for idx in cells if idx not in t.entries]
        full = SparseTensor((3, 3), {idx: 1.0 for idx in all_indices((3, 3))})
        assert list(full.missing_blocks()) == []

    def test_missing_cells_of_a_box_beyond_int64(self):
        n = 2**40
        t = SparseTensor((n, n), {(1, 1): 1.0, (3, 1): 2.0, (n, n): 3.0})
        first = list(itertools.islice(t.missing_indices(), 3))
        assert first == [(2, 1), (4, 1), (5, 1)]
        rows = np.array([(3, 1), (2, 1), (n, n), (1, n)])
        assert t.locate(rows).tolist() == [1, -1, 2, -1]

    def test_locate(self):
        t = SparseTensor((3, 2), {(2, 1): 1.0, (1, 2): 2.0, (3, 2): 3.0})
        rows = np.array(list(all_indices((3, 2))))
        expected = [t.known_indices().index(tuple(r)) if tuple(r) in t.entries else -1
                    for r in rows.tolist()]
        assert t.locate(rows).tolist() == expected

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            SparseTensor((0, 2), {})
        with pytest.raises(ValueError):
            SparseTensor((), {})


class TestGet:
    def test_direct_lookup(self, golden_matrix):
        assert golden_matrix.get((1, 2)) == 2.0

    def test_absent(self, golden_matrix):
        assert golden_matrix.get((2, 2)) is None

    def test_out_of_bounds(self, golden_matrix):
        with pytest.raises(IndexError):
            golden_matrix.get((3, 1))


class TestSubtensorIds:
    def test_matrix_lines(self):
        dense = SparseTensor((2, 2), {idx: 1.0 for idx in all_indices((2, 2))})
        ids = subtensor_ids(dense, 1)
        assert ids == [
            SubtensorId((1,), (1,)),
            SubtensorId((1,), (2,)),
            SubtensorId((2,), (1,)),
            SubtensorId((2,), (2,)),
        ]

    def test_cube_slices(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        assert len(subtensor_ids(dense, 2)) == 6

    def test_cube_lines_match_brute_force(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        got = {(sid.fixed_dims, sid.fixed_coords) for sid in subtensor_ids(dense, 1)}
        assert got == set(reference_subtensors((2, 2, 2), 1))
        assert len(got) == 12

    def test_sparse_general_k_only_occupied(self):
        # single entry: one occupied line per fixed-dim pair
        t = SparseTensor((2, 2, 2), {(1, 2, 2): 1.0})
        ids = subtensor_ids(t, 1)
        assert ids == [
            SubtensorId((1, 2), (1, 2)),
            SubtensorId((1, 3), (1, 2)),
            SubtensorId((2, 3), (2, 2)),
        ]

    def test_line_ids_include_empty_slices(self, golden_matrix):
        # row 2 has entries, but a 3-row tensor's empty row 3 still gets an id
        t = SparseTensor((3, 2), golden_matrix.entries)
        ids = subtensor_ids(t, 1)
        assert SubtensorId((1,), (3,)) in ids
        group = t.groups(1)[0]
        assert group.counts[2] == 0

    def test_k_out_of_range(self, golden_matrix):
        with pytest.raises(ValueError):
            subtensor_ids(golden_matrix, 0)
        with pytest.raises(ValueError):
            subtensor_ids(golden_matrix, 2)


class TestMembers:
    def test_row_one(self, golden_matrix):
        assert members(golden_matrix, SubtensorId.line(1, 1)) == [(1, 1), (1, 2)]

    def test_column_two(self, golden_matrix):
        assert members(golden_matrix, SubtensorId.line(2, 2)) == [(1, 2)]

    def test_row_two(self, golden_matrix):
        assert members(golden_matrix, SubtensorId.line(1, 2)) == [(2, 1)]

    def test_invalid_id(self, golden_matrix):
        with pytest.raises(ValueError):
            members(golden_matrix, SubtensorId((3,), (1,)))
        with pytest.raises(ValueError):
            members(golden_matrix, SubtensorId((1,), (5,)))

    def test_order_independent_of_insertion(self):
        pairs = [((2, 1), 3.0), ((1, 2), 2.0), ((1, 1), 1.0)]
        t1 = SparseTensor((2, 2), pairs)
        t2 = SparseTensor((2, 2), list(reversed(pairs)))
        for sid in subtensor_ids(t1, 1):
            assert members(t1, sid) == members(t2, sid)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            extents = (4, 3, 3)
            entries = {
                idx: 1.0 for idx in all_indices(extents) if rng.random() < 0.5
            }
            if not entries:
                continue
            t = SparseTensor(extents, entries)
            for k in (1, 2):
                for sid in subtensor_ids(t, k):
                    expected = sorted(
                        reference_members(entries, sid.fixed_dims, sid.fixed_coords),
                        key=lambda i: flat_index(i, extents),
                    )
                    assert members(t, sid) == expected


class TestMembership:
    def test_matrix_entry(self):
        assert membership((2, 3), 1, 2) == [
            SubtensorId((1,), (2,)),
            SubtensorId((2,), (3,)),
        ]

    def test_cube_slices(self):
        ids = membership((1, 2, 2), 2, 3)
        assert ids == [
            SubtensorId((1,), (1,)),
            SubtensorId((2,), (2,)),
            SubtensorId((3,), (2,)),
        ]

    def test_cube_lines_against_brute_force(self):
        ids = membership((1, 2, 2), 1, 3)
        assert len(ids) == 3
        expected = {
            (fixed, coords)
            for fixed, coords in reference_subtensors((2, 2, 2), 1)
            if all((1, 2, 2)[dim - 1] == c for dim, c in zip(fixed, coords))
        }
        assert {(sid.fixed_dims, sid.fixed_coords) for sid in ids} == expected

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            membership((1, 2), 1, 3)
        with pytest.raises(ValueError):
            membership((1, 2), 2, 2)


class TestCoverage:
    """Each known entry appears in exactly C(d, k) member lists."""

    @pytest.mark.parametrize("extents,k", [((3, 4), 1), ((3, 3, 2), 2), ((3, 3, 2), 1)])
    def test_member_lists_cover_each_entry_choose_dk_times(self, extents, k):
        rng = np.random.default_rng(7)
        entries = {idx: 1.0 for idx in all_indices(extents) if rng.random() < 0.6}
        entries[(1,) * len(extents)] = 1.0
        t = SparseTensor(extents, entries)
        counts = {idx: 0 for idx in entries}
        for sid in subtensor_ids(t, k):
            for idx in members(t, sid):
                counts[idx] += 1
        expected = math.comb(len(extents), k)
        assert all(c == expected for c in counts.values())
        for idx in entries:
            assert len(membership(idx, k, len(extents))) == expected
