"""Shared fixtures, generators and independent reference implementations.

The reference implementations here are deliberately plain-Python (dicts
and loops, no shared code with the package) so they can serve as
independent oracles for the vectorized implementations under test.
"""

import itertools
import math

import numpy as np
import pytest

from uctensor.sparse_tensor import SparseTensor, all_indices
from uctensor.support import is_fully_supported


@pytest.fixture
def golden_matrix():
    """Three known entries; the missing corner completes to 6."""
    return SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0})


def make_golden():
    return SparseTensor((2, 2), {(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0})


def rank1_tensor(factors, drop=()):
    """Tensor with entries prod(factors[dim][coord]), minus dropped indices."""
    extents = tuple(len(f) for f in factors)
    entries = {}
    for idx in all_indices(extents):
        if idx in drop:
            continue
        value = 1.0
        for dim, coord in enumerate(idx):
            value *= factors[dim][coord - 1]
        entries[idx] = value
    return SparseTensor(extents, entries)


def random_full_support(
    rng,
    d,
    extent_lo=2,
    extent_hi=20,
    box_cap=2500,
    density=(0.35, 0.9),
    value_spread=1.5,
):
    """Random positive tensor, resampled until every missing index has a
    hypercube witness, decided for all of them by the support join."""
    while True:
        extents = tuple(int(rng.integers(extent_lo, extent_hi + 1)) for _ in range(d))
        if np.prod(extents) > box_cap:
            continue
        dens = float(rng.uniform(*density)) if isinstance(density, tuple) else density
        mask = rng.random(int(np.prod(extents))) < dens
        entries = {}
        for flag, idx in zip(mask, all_indices(extents)):
            if flag:
                entries[idx] = float(np.exp(rng.uniform(-value_spread, value_spread)))
        if not entries:
            continue
        tensor = SparseTensor(extents, entries)
        if is_fully_supported(tensor)[0]:
            return tensor


def staircase(rng, length):
    """User i rates items i and i+1: a chain, the slowest shape to scale."""
    values = np.exp(rng.uniform(-1.0, 1.0, size=2 * length)).tolist()
    entries = {}
    for i in range(1, length + 1):
        entries[(i, i)] = values[2 * i - 2]
        entries[(i, i + 1)] = values[2 * i - 1]
    return SparseTensor((length, length + 1), entries)


# -- independent reference implementations ----------------------------------


def reference_flat_index(idx, extents):
    """Rank of idx in the first-dimension-fastest enumeration of the box."""
    order = []
    for rev in itertools.product(*(range(1, n + 1) for n in reversed(extents))):
        order.append(tuple(reversed(rev)))
    return order.index(tuple(idx)) + 1


def reference_subtensors(extents, k):
    """Brute-force list of (fixed_dims, fixed_coords) pairs over the full box."""
    d = len(extents)
    out = []
    for fixed in itertools.combinations(range(1, d + 1), d - k):
        for coords in itertools.product(*(range(1, extents[f - 1] + 1) for f in fixed)):
            out.append((fixed, coords))
    return out


def reference_members(entries, fixed_dims, fixed_coords):
    """Known entries of one subtensor, by scanning every known index."""
    out = []
    for idx in entries:
        if all(idx[dim - 1] == c for dim, c in zip(fixed_dims, fixed_coords)):
            out.append(idx)
    return out


def reference_sweep(log_values, subtensor_members, passes=1):
    """Sequential one-subtensor-at-a-time centering, pure dict arithmetic.

    ``subtensor_members`` is an ordered list of member-index lists; each
    step subtracts the current mean of its members and adds the squared
    mean to v.  Returns (log_values, per-pass v list, per-step rho list).
    """
    log_values = dict(log_values)
    v_per_pass = []
    rhos = []
    for _ in range(passes):
        v = 0.0
        for members_list in subtensor_members:
            if not members_list:
                continue
            rho = -sum(log_values[m] for m in members_list) / len(members_list)
            for m in members_list:
                log_values[m] += rho
            v += rho * rho
            rhos.append(rho)
        v_per_pass.append(v)
    return log_values, v_per_pass, rhos


def reference_apply_scaling(entries, log_coeffs, k, d):
    """Each entry times exp(sum of its C(d, k) coefficients), one entry at a time.

    Coefficient keys are read as plain ``(fixed_dims, fixed_coords)``
    tuples, which the package's subtensor ids compare equal to; absent
    keys read as 0.
    """
    out = {}
    for idx, value in entries.items():
        total = 0
        for fixed in itertools.combinations(range(1, d + 1), d - k):
            key = (fixed, tuple(idx[f - 1] for f in fixed))
            total += log_coeffs.get(key, 0.0)
        out[idx] = value * float(np.exp(total))
    return out


def reference_consensus_sets(entries, dim, min_size, slack=1e-12):
    """Consensus sets by a per-slice dict of point -> value, as (dim, gamma) pairs.

    Groups the occupied slices of ``dim`` by their known set of points,
    sorts each group by its values at the sorted points (ties by slice),
    and splits it into maximal runs strictly ordered at every point,
    keeping runs of at least ``min_size``; groups in order of their
    smallest slice.
    """
    supports = {}
    for idx, value in entries.items():
        supports.setdefault(idx[dim - 1], {})[idx[:dim - 1] + idx[dim:]] = value
    by_support = {}
    for g in sorted(supports):
        by_support.setdefault(frozenset(supports[g]), []).append(g)

    def less(x, y):
        return x < y and y - x > slack * max(abs(x), abs(y))

    out = []
    for signature, slices in by_support.items():
        points = sorted(signature)
        ordered = sorted(slices, key=lambda g: tuple(supports[g][p] for p in points) + (g,))
        runs = [[ordered[0]]]
        for g in ordered[1:]:
            if all(less(supports[runs[-1][-1]][p], supports[g][p]) for p in points):
                runs[-1].append(g)
            else:
                runs.append([g])
        out.extend((dim, tuple(run)) for run in runs if len(run) >= min_size)
    return out


class ReadCounter:
    """Total item reads through the :class:`CountingVector` views sharing it."""

    def __init__(self):
        self.reads = 0


class CountingVector:
    """Read-only view of one coefficient vector that counts item reads."""

    def __init__(self, data, counter):
        self.data = data
        self.counter = counter

    def __getitem__(self, pos):
        self.counter.reads += 1
        return self.data[pos]

    def item(self, pos):
        self.counter.reads += 1
        return self.data.item(pos)

    def __len__(self):
        return len(self.data)


def count_reads(model):
    """Swap counting views into a model's per-group coefficient vectors."""
    counter = ReadCounter()
    model.scaling.coeffs = [CountingVector(c, counter) for c in model.scaling.coeffs]
    return counter


def golden_subtensor_members():
    """Deterministic subtensor order for the golden matrix, k = 1."""
    return [
        [(1, 1), (1, 2)],  # dimension 1, slice 1
        [(2, 1)],          # dimension 1, slice 2
        [(1, 1), (2, 1)],  # dimension 2, slice 1
        [(1, 2)],          # dimension 2, slice 2
    ]


GOLDEN_LOGS = {(1, 1): 0.0, (1, 2): math.log(2.0), (2, 1): math.log(3.0)}

# frozen from reference_sweep on the golden matrix: ln2^2 * 9/16 + ln3^2
GOLDEN_SWEEP1_V = 1.4772037811415704
GOLDEN_SWEEP1_RHOS = (
    -0.34657359027997264,
    -1.0986122886681098,
    0.17328679513998632,
    -0.34657359027997264,
)
