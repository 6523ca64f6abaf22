"""Seeded instance generator with its own MatrixMarket writer.

The writer is deliberately independent of ``fairpc.matrix.write_matrix_market``
so the benchmark's inputs stay byte-stable when the program's writer changes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
VALUE_LOW, VALUE_HIGH = 1.0, 100.0


@dataclass(frozen=True)
class Instance:
    """A generated m x n matrix, entries 0-based and sorted row-major."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def width(self) -> float:
        """rho: the ratio of the largest to the smallest entry."""
        return float(self.vals.max() / self.vals.min())


def rng_for(seed: int, name: str) -> np.random.Generator:
    """A generator stream of its own for every (seed, workload) pair."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def generate(n: int, per_row: int, rng: np.random.Generator) -> Instance:
    """Random square matrix with exactly ``per_row`` entries in every row and column.

    Row i holds columns (i + o) mod n for ``per_row`` distinct random offsets o,
    and rows and columns are then relabelled by random permutations. A fixed
    count per row and column keeps seeds alike: a matrix with a few crowded
    rows and some single-entry ones stops early after a very different number
    of iterations. Values are uniform in [1, 100], with both ends pinned so
    the width is exactly 100.
    """
    if not 1 <= per_row <= n:
        raise ValueError(f"per_row={per_row} must lie in [1, {n}]")
    offsets = rng.choice(n, size=per_row, replace=False)
    i = np.repeat(np.arange(n, dtype=np.int64), per_row)
    j = (i + np.tile(offsets, n)) % n
    keys = np.sort(rng.permutation(n)[i] * n + rng.permutation(n)[j])
    vals = rng.uniform(VALUE_LOW, VALUE_HIGH, size=keys.size)
    vals[rng.choice(keys.size, size=2, replace=False)] = (VALUE_LOW, VALUE_HIGH)
    return Instance(m=n, n=n, rows=keys // n, cols=keys % n, vals=vals)


def matrix_market_text(inst: Instance) -> str:
    """Coordinate real general, 1-based; values as ``repr`` of a Python float."""
    lines = [MM_HEADER, f"{inst.m} {inst.n} {inst.nnz}"]
    lines.extend(
        f"{i + 1} {j + 1} {v!r}"
        for i, j, v in zip(inst.rows.tolist(), inst.cols.tolist(), inst.vals.tolist())
    )
    return "\n".join(lines) + "\n"


def write_instance(path, inst: Instance) -> int:
    """Write the instance as MatrixMarket; returns the file size in bytes."""
    data = matrix_market_text(inst).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
