import itertools
import re

import numpy as np
import pytest

from uctensor import support
from uctensor.errors import CapacityError
from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import SupportIndex, is_fully_supported, scan, witness

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


def random_tensor(rng, extents, density):
    entries = {idx: 1.0 for idx in all_indices(extents) if rng.random() < density}
    return SparseTensor(extents, entries)


def empty_fibre(tensor, idx):
    """Whether some dimension has no known cell differing from ``idx`` in it alone."""
    return any(
        not any(
            c[dim] != idx[dim] and c[:dim] + c[dim + 1:] == idx[:dim] + idx[dim + 1:]
            for c in tensor.entries
        )
        for dim in range(tensor.d)
    )


class TestSupported:
    def test_same_cells_as_filtering_by_witness(self):
        rng = np.random.default_rng(4)
        for extents in ((6, 5), (4, 3, 3)):
            tensor = random_tensor(rng, extents, 0.5)
            missing = list(tensor.missing_indices())
            expected = [idx for idx in missing if witness(tensor, idx) is not None]
            assert 0 < len(expected) < len(missing)
            cells, witnessed = scan(tensor, len(missing))
            assert list(map(tuple, cells.tolist())) == missing
            assert list(map(tuple, cells[witnessed].tolist())) == expected

    def test_rejects_known_and_out_of_bounds_cells(self, golden_matrix):
        with pytest.raises(ValueError):
            witness(golden_matrix, (1, 1))
        with pytest.raises(IndexError):
            witness(golden_matrix, (3, 1))
        # the radix key of (1, 4) over (3, 3) is that of (2, 1): refused before any key forms
        tensor = SparseTensor((3, 3, 3), {(2, 1, 1): 1.0, (2, 1, 3): 2.0, (1, 1, 1): 3.0})
        for idx in ((1, 4, 1), (0, 1, 1), (1, 1)):
            with pytest.raises(IndexError, match=re.escape(f"index {idx} ")):
                witness(tensor, idx)
        with pytest.raises(TypeError, match=re.escape("must be ints, got (1, 1.5, 1)")):
            witness(tensor, (1, 1.5, 1))
        assert witness(tensor, (2, 1, 2)) is None
        # the scan reads only missing cells, in bounds
        cells, witnessed = scan(golden_matrix, 10)
        assert cells.tolist() == [[2, 2]] and witnessed.tolist() == [True]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_mask_matches_witness_with_empty_fibres(self, d):
        rng = np.random.default_rng(10 + d)
        empty = 0
        for _ in range(8):
            extents = tuple(int(n) for n in rng.integers(2, 5 if d < 4 else 4, size=d))
            tensor = random_tensor(rng, extents, float(rng.uniform(0.2, 0.7)))
            if not len(tensor):
                continue
            cells, witnessed = scan(tensor, tensor.box_size)
            assert list(map(tuple, cells.tolist())) == list(tensor.missing_indices())
            for idx, flag in zip(map(tuple, cells.tolist()), witnessed.tolist()):
                assert flag == (witness(tensor, idx) is not None)
                if empty_fibre(tensor, idx):
                    empty += 1
                    assert not flag
        assert empty > 0 or d == 1  # for d = 1 the one fibre is the whole known set

    def test_cap_keeps_the_first_cells_in_flat_order(self):
        tensor = random_tensor(np.random.default_rng(5), (7, 6), 0.4)
        cells, witnessed = scan(tensor, tensor.box_size)
        for cap in (0, 1, 5, len(cells), len(cells) + 3):
            head, mask = scan(tensor, cap)
            assert head.shape == (min(cap, len(cells)), 2)
            assert head.tolist() == cells[:cap].tolist()
            assert mask.tolist() == witnessed[:cap].tolist()


def mask_of(tensor):
    """The missing cells of ``tensor`` and the join's mask over them."""
    cells, mask = scan(tensor, tensor.box_size)
    return list(map(tuple, cells.tolist())), mask.tolist()


def ring(length):
    """User i rates items i and i mod L + 1."""
    return SparseTensor((length, length), {
        **{(i, i): 1.0 for i in range(1, length + 1)},
        **{(i, i % length + 1): 2.0 for i in range(1, length + 1)},
    })


def staircase(length):
    """User i rates items i and i + 1."""
    return SparseTensor((length, length + 1), {
        (i, i + s): 1.0 for i in range(1, length + 1) for s in (0, 1)
    })


def block_diagonal(blocks, size, d=2):
    """``blocks`` disjoint fully known cubes of side ``size`` on the diagonal."""
    return SparseTensor((blocks * size,) * d, {
        tuple(b * size + c for c in idx): 1.0
        for b in range(blocks) for idx in all_indices((size,) * d)
    })


class TestJoin:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_mask_is_the_witness_search_and_the_brute_force(self, d):
        rng = np.random.default_rng(20 + d)
        witnessed_cells = unwitnessed = 0
        for density in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            for _ in range(3):
                extents = tuple(int(n) for n in rng.integers(2, (8, 7, 5, 4)[d - 1], size=d))
                tensor = random_tensor(rng, extents, density)
                cells, mask = mask_of(tensor)
                for idx, flag in zip(cells, mask):
                    w = witness(tensor, idx)
                    offsets = sorted(brute_force_offsets(tensor, idx))
                    assert flag == bool(offsets)
                    assert (None if w is None else w.offset) == (offsets[0] if offsets else None)
                    witnessed_cells += flag
                    unwitnessed += not flag
        assert witnessed_cells and unwitnessed

    def test_rings_staircases_and_blocks(self):
        for length in (3, 4, 9):
            tensor = ring(length)
            cells, mask = mask_of(tensor)
            # row i shares a column with rows i - 1 and i + 1 only
            assert mask == [(j - i) % length in (2, length - 1) for i, j in cells]
            assert mask == [witness(tensor, c) is not None for c in cells]
        for length in (1, 2, 6):
            tensor = staircase(length)
            cells, mask = mask_of(tensor)
            assert mask == [j - i in (2, -1) for i, j in cells]
            assert mask == [witness(tensor, c) is not None for c in cells]
        for d, size in ((2, 5), (3, 3)):
            tensor = block_diagonal(2, size, d)
            cells, mask = mask_of(tensor)
            assert len(cells) == (2 * size) ** d - 2 * size ** d and not any(mask)
            assert is_fully_supported(tensor) == (False, cells)

    def test_extents_past_int64_take_object_keys(self, monkeypatch):
        big = 2 ** 40
        dtypes = []
        radix_keys = support._radix_keys

        def recorded(coords, radices):
            keys = radix_keys(coords, radices)
            dtypes.append(keys.dtype)
            return keys

        monkeypatch.setattr(support, "_radix_keys", recorded)
        joined = set()
        for extents, entries, cells in (
            ((big, big), [(1, big), (big, 1), (big, big), (7, 1), (7, 2), (big, 2)],
             [(1, 1), (1, 2), (7, big), (2, 2)]),
            ((big, 3, big), [(i, j, k) for i in (1, big) for j in (1, 3) for k in (2, big)
                             if (i, j, k) != (1, 1, 2)],
             [(1, 1, 2), (1, 2, 2), (big, 2, big), (1, 1, big - 1)]),
            # witness() keys the last two dimensions past int64 too
            ((2, big, big), [(i, j, k) for i in (1, 2) for j in (1, big) for k in (5, big)
                             if (i, j, k) != (2, big, 5)],
             [(2, big, 5), (1, 2, 5), (2, big, big - 1)]),
        ):
            tensor = SparseTensor(extents, {idx: 1.0 for idx in entries})
            mask = SupportIndex(tensor).witnessed(np.array(cells, dtype=np.int64))
            offsets = [sorted(brute_force_offsets(tensor, c)) for c in cells]
            assert mask.tolist() == [bool(o) for o in offsets]
            assert mask.any() and not mask.all()
            joined.update(dtypes)
            del dtypes[:]
            # no array witness() builds is sized by the extents
            found = [witness(tensor, c) for c in cells]
            assert [None if w is None else w.offset for w in found] == [
                o[0] if o else None for o in offsets]
            # its keys leave int64 where the extents past the first do
            assert (np.dtype(object) in dtypes) == (extents[1:] == (big, big))
            del dtypes[:]
        assert np.dtype(object) in joined

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_round_and_chunk_boundaries_change_no_mask(self, block, monkeypatch):
        rng = np.random.default_rng(40)
        tensors = [random_tensor(rng, extents, density)
                   for extents in ((7, 6), (5, 4, 3), (3, 3, 3, 2))
                   for density in (0.3, 0.6, 0.9)]
        tensors += [ring(5), staircase(4), block_diagonal(2, 3)]
        expected = [mask_of(tensor) for tensor in tensors]
        monkeypatch.setattr(support, "JOIN_BLOCK", block)
        assert [mask_of(tensor) for tensor in tensors] == expected


class TestFibreSearch:
    def test_offsets_are_the_smallest_on_sparse_four_way_shapes(self):
        rng = np.random.default_rng(8)
        found = 0
        for extents in ((3, 3, 2, 3), (2, 4, 3, 2), (3, 2, 2, 4)):
            for density in (0.45, 0.65):
                tensor = random_tensor(rng, extents, density)
                for idx in tensor.missing_indices():
                    w = witness(tensor, idx)
                    offsets = sorted(brute_force_offsets(tensor, idx))
                    assert (w is None) == (not offsets)
                    if w is not None:
                        found += 1
                        assert w.offset == offsets[0]
        assert found > 0


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
        assert excinfo.value.partial == [(2, 1), (3, 1), (4, 1)]
        assert str(excinfo.value) == "more than 3 missing cells to scan"
