import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uctensor import sparse_tensor
from uctensor.sparse_tensor import SparseTensor, all_indices, flat_index

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


def _from_arrays(extents, pairs):
    """``SparseTensor.from_arrays`` on the coordinates and values of ``pairs``."""
    return SparseTensor.from_arrays(
        extents, [idx for idx, _ in pairs], np.array([v for _, v in pairs])
    )


# each constructor, fed the same (index, value) pairs
BUILDERS = (
    lambda extents, pairs: SparseTensor(extents, dict(pairs)),
    lambda extents, pairs: SparseTensor(extents, pairs),
    _from_arrays,
)


class TestConstruction:
    def test_rejects_nonpositive_values(self):
        for build in BUILDERS:
            with pytest.raises(ValueError, match=r"\(1, 1\)"):
                build((2, 2), [((1, 1), 0.0)])
            with pytest.raises(ValueError, match=r"\(2, 1\)"):
                build((2, 2), [((1, 1), 1.0), ((2, 1), -1.5)])
            with pytest.raises(ValueError, match=r"\(1, 1\)"):
                build((2, 2), [((1, 1), float("nan"))])
            with pytest.raises(ValueError, match=r"\(1, 2\)"):
                build((2, 2), [((1, 1), 1.0), ((1, 2), float("inf"))])

    def test_rejects_duplicate_pairs(self):
        for build in BUILDERS[1:]:  # a mapping cannot repeat a key
            with pytest.raises(ValueError, match=r"\(1, 1\)"):
                build((2, 2), [((1, 1), 1.0), ((1, 1), 2.0)])
            with pytest.raises(ValueError, match=r"\(2, 3\)"):
                build((3, 3), [((2, 3), 1.0), ((1, 1), 1.0), ((3, 1), 1.0), ((2, 3), 1.0)])
            # of two repeated indices, the first in flat order
            with pytest.raises(ValueError, match=r"\(2, 1\)"):
                build((3, 3), [((1, 2), 1.0), ((2, 1), 1.0), ((1, 2), 1.0), ((2, 1), 1.0)])

    def test_rejects_out_of_bounds_entries(self):
        for build in BUILDERS:
            with pytest.raises(IndexError, match=r"\(3, 1\)"):
                build((2, 2), [((1, 1), 1.0), ((3, 1), 1.0)])
            with pytest.raises(IndexError, match=r"\(1, 0\)"):
                build((2, 2), [((1, 0), 1.0)])
            for wrong_length in ((1,), (1, 1, 1)):
                with pytest.raises(IndexError, match=re.escape(str(wrong_length))):
                    build((2, 2), [((1, 1), 1.0), (wrong_length, 1.0)])
                with pytest.raises(IndexError, match=re.escape(str(wrong_length))):
                    build((2, 2), [(wrong_length, 1.0)])

    def test_rejects_non_integer_coordinates(self):
        for build in BUILDERS:
            with pytest.raises(TypeError):
                build((2, 2), [((1, 1), 1.0), ((1.5, 1), 2.0)])
            with pytest.raises(TypeError):
                build((2, 2), [((True, False), 1.0)])

    def test_from_arrays_rejects_a_value_count_off_the_index_count(self):
        with pytest.raises(ValueError):
            SparseTensor.from_arrays((2, 2), np.array([[1, 1], [2, 1]]), np.array([1.0]))

    def test_constructors_agree_on_shuffled_input(self):
        rng = np.random.default_rng(11)
        extents = (4, 3, 2)
        cells = np.array([idx for idx in all_indices(extents) if rng.random() < 0.6])
        values = rng.uniform(0.5, 2.0, len(cells))
        order = rng.permutation(len(cells))
        mapped = SparseTensor(extents, dict(zip(map(tuple, cells[order].tolist()), values[order])))
        arrays = SparseTensor.from_arrays(extents, cells[order], values[order])
        assert np.array_equal(mapped.coords_array(), arrays.coords_array())
        assert np.array_equal(mapped.values_array(), arrays.values_array())
        assert list(mapped.entries.items()) == list(arrays.entries.items())

    def test_known_order_is_flat(self):
        # caller insertion order and the caller's tuples are not kept
        rng = np.random.default_rng(5)
        extents = (4, 3, 2)
        cells = [idx for idx in all_indices(extents) if rng.random() < 0.6]
        keys = [cells[t] for t in rng.permutation(len(cells))]
        t = SparseTensor(extents, {idx: float(n + 1) for n, idx in enumerate(keys)})
        flat = sorted(keys, key=lambda i: flat_index(i, extents))
        assert list(t.entries) == flat
        assert t.known_indices() == tuple(flat)
        assert all(type(c) is int for idx in t.entries for c in idx)
        assert t.coords_array().tolist() == [list(i) for i in flat]
        assert t.values_array().tolist() == [t.entries[i] for i in flat]

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


def subtensors(tensor, k):
    """Every (fixed_dims, fixed_coords) row of ``tensor.groups(k)``, in group order."""
    return [
        (g.fixed_dims, tuple(row)) for g in tensor.groups(k) for row in g.fixed.tolist()
    ]


def members_of(tensor, k, fixed_dims, fixed_coords):
    """Known entries that the group labels place in one subtensor, in flat order."""
    group = next(g for g in tensor.groups(k) if g.fixed_dims == fixed_dims)
    (row,) = np.flatnonzero((group.fixed == fixed_coords).all(axis=1))
    known = tensor.known_indices()
    return [known[t] for t in np.flatnonzero(group.labels == row)]


def containing(tensor, k, idx):
    """The C(d, k) subtensors the group labels put the known entry ``idx`` in."""
    (t,) = tensor.locate(np.array([idx]))
    return [(g.fixed_dims, tuple(g.fixed[g.labels[t]].tolist())) for g in tensor.groups(k)]


class TestSubtensorIds:
    def test_matrix_lines(self):
        dense = SparseTensor((2, 2), {idx: 1.0 for idx in all_indices((2, 2))})
        assert subtensors(dense, 1) == [((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))]

    def test_cube_slices(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        assert len(subtensors(dense, 2)) == 6

    def test_cube_lines_match_brute_force(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        got = set(subtensors(dense, 1))
        assert got == set(reference_subtensors((2, 2, 2), 1))
        assert len(got) == 12

    def test_sparse_general_k_only_occupied(self):
        # single entry: one occupied line per fixed-dim pair
        t = SparseTensor((2, 2, 2), {(1, 2, 2): 1.0})
        assert subtensors(t, 1) == [((1, 2), (1, 2)), ((1, 3), (1, 2)), ((2, 3), (2, 2))]
        assert all(g.fixed.shape == (1, 2) and g.fixed.dtype == np.int64 for g in t.groups(1))

    def test_line_ids_include_empty_slices(self, golden_matrix):
        # row 2 has entries, but a 3-row tensor's empty row 3 still gets a row
        t = SparseTensor((3, 2), golden_matrix.entries)
        assert ((1,), (3,)) in subtensors(t, 1)
        group = t.groups(1)[0]
        assert group.fixed.tolist() == [[1], [2], [3]]
        assert group.counts[2] == 0

    def test_k_out_of_range(self, golden_matrix):
        with pytest.raises(ValueError):
            golden_matrix.groups(0)
        with pytest.raises(ValueError):
            golden_matrix.groups(2)


class TestMembers:
    def test_row_one(self, golden_matrix):
        assert members_of(golden_matrix, 1, (1,), (1,)) == [(1, 1), (1, 2)]

    def test_column_two(self, golden_matrix):
        assert members_of(golden_matrix, 1, (2,), (2,)) == [(1, 2)]

    def test_row_two(self, golden_matrix):
        assert members_of(golden_matrix, 1, (1,), (2,)) == [(2, 1)]

    def test_order_independent_of_insertion(self):
        pairs = [((2, 1), 3.0), ((1, 2), 2.0), ((1, 1), 1.0)]
        t1 = SparseTensor((2, 2), pairs)
        t2 = SparseTensor((2, 2), list(reversed(pairs)))
        for g1, g2 in zip(t1.groups(1), t2.groups(1), strict=True):
            assert np.array_equal(g1.fixed, g2.fixed)
            assert np.array_equal(g1.labels, g2.labels)

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
                for dims, coords in subtensors(t, k):
                    expected = sorted(
                        reference_members(entries, dims, coords),
                        key=lambda i: flat_index(i, extents),
                    )
                    assert members_of(t, k, dims, coords) == expected


class TestMembership:
    def test_matrix_entry(self):
        t = SparseTensor((2, 3), {(2, 3): 1.0, (1, 1): 1.0})
        assert containing(t, 1, (2, 3)) == [((1,), (2,)), ((2,), (3,))]

    def test_cube_slices(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        assert containing(dense, 2, (1, 2, 2)) == [((1,), (1,)), ((2,), (2,)), ((3,), (2,))]

    def test_cube_lines_against_brute_force(self):
        dense = SparseTensor((2, 2, 2), {idx: 1.0 for idx in all_indices((2, 2, 2))})
        got = containing(dense, 1, (1, 2, 2))
        assert len(got) == 3
        expected = {
            (fixed, coords)
            for fixed, coords in reference_subtensors((2, 2, 2), 1)
            if all((1, 2, 2)[dim - 1] == c for dim, c in zip(fixed, coords))
        }
        assert set(got) == expected


class TestCoverage:
    """Each known entry appears in exactly C(d, k) subtensors' member lists."""

    @pytest.mark.parametrize("extents,k", [((3, 4), 1), ((3, 3, 2), 2), ((3, 3, 2), 1)])
    def test_member_lists_cover_each_entry_choose_dk_times(self, extents, k):
        rng = np.random.default_rng(7)
        entries = {idx: 1.0 for idx in all_indices(extents) if rng.random() < 0.6}
        entries[(1,) * len(extents)] = 1.0
        t = SparseTensor(extents, entries)
        known = t.known_indices()
        counts = {idx: 0 for idx in entries}
        occupied = []
        for g in t.groups(k):
            for row, fixed in enumerate(g.fixed.tolist()):
                members = reference_members(known, g.fixed_dims, fixed)
                assert [known[i] for i in np.flatnonzero(g.labels == row)] == members
                assert g.counts[row] == len(members)
                if members:
                    occupied.append((g.fixed_dims, tuple(fixed)))
                for idx in members:
                    counts[idx] += 1
        expected = math.comb(len(extents), k)
        assert all(c == expected for c in counts.values())
        # the occupied subtensors, in group order, are those of a full scan
        scan = [
            (dims, coords)
            for dims, coords in reference_subtensors(extents, k)
            if reference_members(entries, dims, coords)
        ]
        assert occupied == scan


def unique_rows_groups(tensor, k):
    """(fixed, labels, counts) per group, built by a unique over coordinate rows.

    The construction radix keys replaced, kept as the reference they must
    reproduce: ``np.unique(axis=0)`` over each subset's columns.
    """
    coords = tensor.coords_array()
    out = []
    for fixed in itertools.combinations(range(tensor.d), tensor.d - k):
        if len(fixed) == 1:
            rows = np.arange(1, tensor.extents[fixed[0]] + 1)[:, None]
            labels = coords[:, fixed[0]] - 1
        elif len(coords):
            rows, labels = np.unique(coords[:, list(fixed)], axis=0, return_inverse=True)
            labels = labels.ravel()
        else:
            rows = np.empty((0, len(fixed)), dtype=np.int64)
            labels = np.empty(0, dtype=np.int64)
        out.append((rows, labels, np.bincount(labels, minlength=len(rows))))
    return out


def sparse_box(rng, extents, density=0.3):
    """Random cells of a box, handed over in shuffled order."""
    cells = np.array(list(all_indices(extents)))
    cells = cells[rng.random(len(cells)) < density]
    rng.shuffle(cells)
    return cells, np.exp(rng.uniform(-1.0, 1.0, size=len(cells)))


class TestRadixKeys:
    """Cells and subtensors found by their keys, against the constructions they replaced."""

    BOXES = [(5, 4), (4, 3, 5), (3, 4, 2, 3)]

    @pytest.mark.parametrize("extents", BOXES)
    def test_row_order_is_a_lexsort(self, extents):
        cells, values = sparse_box(np.random.default_rng(len(extents)), extents)
        t = SparseTensor.from_arrays(extents, cells, values)
        order = np.lexsort(cells.T)  # last column primary: flat order
        assert np.array_equal(t.coords_array(), cells[order])
        assert np.array_equal(t.values_array(), values[order])

    @staticmethod
    def assert_groups_match(t, k):
        for group, (rows, labels, counts) in zip(t.groups(k), unique_rows_groups(t, k), strict=True):
            assert np.array_equal(group.fixed, rows) and group.fixed.shape == rows.shape
            assert np.array_equal(group.labels, labels)
            assert np.array_equal(group.counts, counts)
            if len(group.fixed_dims) == 1:
                assert group.keys is None
            else:  # keys come with the group, ascending
                assert len(group.keys) == len(rows)
                assert (group.keys[1:] > group.keys[:-1]).all()

    @pytest.mark.parametrize("extents", BOXES)
    def test_groups_match_a_unique_over_rows(self, extents):
        t = SparseTensor.from_arrays(extents, *sparse_box(np.random.default_rng(7), extents))
        for k in range(1, len(extents)):
            self.assert_groups_match(t, k)

    def test_groups_of_a_tensor_without_entries(self):
        t = SparseTensor((3, 4, 2, 3), {})
        for k in (1, 2, 3):
            self.assert_groups_match(t, k)

    @pytest.mark.parametrize("extents", [(4, 3, 5), (3, 4, 2, 3)])
    def test_slot_agrees_with_slots_on_every_cell(self, extents):
        t = SparseTensor.from_arrays(extents, *sparse_box(np.random.default_rng(3), extents, 0.15))
        cells = np.array(list(all_indices(extents)))
        for k in range(1, len(extents)):
            for group in t.groups(k):
                scalar = [group.slot(idx) for idx in map(tuple, cells.tolist())]
                assert [-1 if pos is None else pos for pos in scalar] == group.slots(cells).tolist()
                if len(group.fixed_dims) > 1:
                    assert None in scalar  # some combinations are unoccupied
                for pos, idx in zip(scalar, cells.tolist()):
                    if pos is not None:
                        fixed = [idx[dim - 1] for dim in group.fixed_dims]
                        assert group.fixed[pos].tolist() == fixed

    def test_keys_beyond_int64(self):
        n = 2**40
        extents = (n, n, n)
        known = [(1, 1, 1), (3, 1, n), (n, n, 2), (3, 2, n), (n, 1, 1)]
        t = SparseTensor(extents, {idx: float(v) for v, idx in enumerate(known, 1)})
        assert t.known_indices() == tuple(sorted(known, key=lambda i: flat_index(i, extents)))
        cells = np.array(list(itertools.product((1, 2, 3, n), repeat=3)))
        # k = 1 only: for k = 2 a group has a row for each of the n slices
        self.assert_groups_match(t, 1)
        for group in t.groups(1):
            assert group.keys.dtype == object
            scalar = [group.slot(idx) for idx in map(tuple, cells.tolist())]
            assert [-1 if pos is None else pos for pos in scalar] == group.slots(cells).tolist()
            assert scalar.count(None) < len(scalar)
