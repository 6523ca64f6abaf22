import numpy as np
import pytest

from fairpc import COVER, PACK, instance_from_dense, standardize


def identity_instance(n, mode=PACK, fairness=0.0):
    inst, _ = instance_from_dense(np.eye(n), mode=mode, fairness=fairness)
    return inst


def single_row_instance(a, mode=PACK, fairness=0.0):
    inst, _ = instance_from_dense(np.asarray(a, dtype=float).reshape(1, -1),
                                  mode=mode, fairness=fairness)
    return inst


def single_column_instance(a, fairness=0.0):
    inst, _ = instance_from_dense(np.asarray(a, dtype=float).reshape(-1, 1),
                                  mode=COVER, fairness=fairness)
    return inst


def diagonal_instance(d, mode=PACK, fairness=0.0):
    inst, _ = instance_from_dense(np.diag(np.asarray(d, dtype=float)),
                                  mode=mode, fairness=fairness)
    return inst


def random_sparse_entries(rng, max_dim=50, max_rho=100.0):
    """Random sparse nonnegative matrix with every row and column covered."""
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))

    def value():
        return 1.0 + (max_rho - 1.0) * float(rng.random()) ** 2

    cells = {}
    for i in range(m):
        cells[(i, int(rng.integers(n)))] = value()
    covered = {j for (_, j) in cells}
    for j in range(n):
        if j not in covered:
            cells[(int(rng.integers(m)), j)] = value()
    extras = int(rng.integers(0, max(1, m * n // 8) + 1))
    for _ in range(extras):
        cells.setdefault((int(rng.integers(m)), int(rng.integers(n))), value())
    entries = [(i, j, v) for (i, j), v in sorted(cells.items())]
    return entries, m, n


def random_entry_suite(count=50, seed=20240817, max_dim=50, max_rho=100.0):
    """The raw (entries, m, n) that ``random_suite`` standardizes, in order."""
    rng = np.random.default_rng(seed)
    return [random_sparse_entries(rng, max_dim=max_dim, max_rho=max_rho) for _ in range(count)]


def random_suite(count=50, seed=20240817, max_dim=50, max_rho=100.0, mode=PACK):
    return [
        standardize(entries, m, n, mode=mode)[0]
        for entries, m, n in random_entry_suite(count, seed, max_dim, max_rho)
    ]


@pytest.fixture(scope="session")
def packing_suite():
    return random_suite(count=50)
