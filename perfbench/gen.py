"""Seeded input generators.

Every generator takes a ``numpy.random.Generator`` and returns plain
arrays (0-based coordinates, positive values) or a ``SparseTensor``, so
the library only ever sees generated files and tensors.  Sizes are exact
for every seed; only the pattern and the values depend on it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from uctensor import SparseTensor

# MovieLens-like rating mix, 1 to 5 stars
STAR_WEIGHTS = np.array([0.06, 0.11, 0.27, 0.35, 0.21])


def stars(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(np.arange(1, 6), size=n, p=STAR_WEIGHTS)


def _first_unique(codes: np.ndarray) -> np.ndarray:
    """Distinct values of ``codes`` in order of first appearance."""
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)]


def powerlaw_pairs(
    rng: np.random.Generator, users: int, items: int, n: int,
    user_exponent: float = 0.9, item_exponent: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` distinct (user, item) cells with Zipf-like degrees.

    Every user and every item gets at least one cell, so the extents are
    exactly ``users`` x ``items``; the rest are drawn with probabilities
    proportional to a shuffled rank^-exponent weight per user and item.
    """
    wu = np.arange(1, users + 1) ** -user_exponent
    wi = np.arange(1, items + 1) ** -item_exponent
    wu = rng.permutation(wu / wu.sum())
    wi = rng.permutation(wi / wi.sum())
    cover = np.concatenate([
        rng.permutation(users) * items + rng.integers(0, items, size=users),
        rng.integers(0, users, size=items) * items + rng.permutation(items),
    ])
    codes = _first_unique(cover.astype(np.int64))
    while len(codes) < n:
        m = 2 * (n - len(codes))
        draws = rng.choice(users, size=m, p=wu) * items + rng.choice(items, size=m, p=wi)
        codes = _first_unique(np.concatenate([codes, draws.astype(np.int64)]))
    codes = codes[:n]
    return codes // items, codes % items


def fixed_degree_pairs(
    rng: np.random.Generator, users: int, items: int, per_user: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each user rates exactly ``per_user`` distinct items; every item is rated."""
    rows, cols = [], []
    for u in range(users):
        own = u % items
        others = rng.choice(items - 1, size=per_user - 1, replace=False)
        others = others + (others >= own)
        rows.append(np.full(per_user, u))
        cols.append(np.concatenate([[own], others]))
    return np.concatenate(rows), np.concatenate(cols)


def covering_cells(
    rng: np.random.Generator, extents: tuple[int, ...], n: int
) -> np.ndarray:
    """``n`` distinct cells of the box, drawn until every slice is occupied.

    Returns an (n, d) array of 0-based coordinates.
    """
    box = int(np.prod(extents))
    while True:
        flat = rng.choice(box, size=n, replace=False)
        coords = np.array(np.unravel_index(flat, extents)).T
        if all(len(np.unique(coords[:, dim])) == size for dim, size in enumerate(extents)):
            return coords


def write_ratings(path: Path, coords: np.ndarray, values: np.ndarray,
                  prefixes: str) -> None:
    """One ``id,id,...,value`` line per cell; dimension ``d`` ids get ``prefixes[d]``."""
    columns = [
        [f"{prefixes[dim]}{c}" for c in coords[:, dim].tolist()]
        for dim in range(coords.shape[1])
    ]
    # a fresh file, not a truncated one: ext4 flushes a file rewritten in
    # place when it is closed, and that flush would time the disk
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            ",".join(ids) + f",{v}\n" for *ids, v in zip(*columns, values.tolist())
        ))


def staircase(rng: np.random.Generator, length: int) -> SparseTensor:
    """Chain-shaped matrix: user i rates items i and i+1 (1-based)."""
    values = stars(rng, 2 * length).tolist()
    entries = {}
    for i in range(1, length + 1):
        entries[(i, i)] = float(values[2 * i - 2])
        entries[(i, i + 1)] = float(values[2 * i - 1])
    return SparseTensor((length, length + 1), entries)


def random_tensor(
    rng: np.random.Generator, extents: tuple[int, ...], density: float
) -> SparseTensor:
    """``round(density * box)`` uniform cells with log-uniform values in [1/e, e]."""
    box = int(np.prod(extents))
    flat = np.sort(rng.choice(box, size=round(density * box), replace=False))
    coords = np.array(np.unravel_index(flat, extents)).T + 1
    values = np.exp(rng.uniform(-1.0, 1.0, size=len(coords)))
    return SparseTensor(
        extents, zip(map(tuple, coords.tolist()), values.tolist())
    )
