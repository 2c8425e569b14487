"""Structural sums of disk configurations.

e_{m1...mq} chains the periodic kernels E_{m_j} over all (q+1)-tuples of
disk centers, conjugating every second factor, and normalizes by
N^(1 + (m1+...+mq)/2).  Coincident-center arguments use the regularized
value E_n(0) := S_n throughout.  The fast path factorizes the nested sum
into chained matrix-vector products over cached kernel matrices, O(q N^2)
per index after an O(N^2) per-order matrix build.

Structural sums depend on the centers and the cell only; the disk radius
never enters (it returns downstream through the concentration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import DiskConfiguration
from .lattice import eisenstein_stack, lattice_sum
from .serialize import dump_csv


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index (m1, ..., mq), entries >= 2."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(m) for m in self.entries)
        if not entries:
            raise DomainError("multi-index needs at least one entry")
        if any(m < 2 for m in entries):
            raise DomainError(f"multi-index entries must be >= 2, got {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> float:
        """Normalization exponent of N: 1 + (m1 + ... + mq)/2."""
        return 1.0 + 0.5 * sum(self.entries)

    def label(self) -> str:
        return "-".join(str(m) for m in self.entries)


def as_multi_index(index) -> MultiIndex:
    if isinstance(index, MultiIndex):
        return index
    if isinstance(index, int):
        return MultiIndex((index,))
    return MultiIndex(tuple(index))


def kernel_matrix(config: DiskConfiguration, n: int) -> np.ndarray:
    """(N, N) matrix E_n(a_j - a_k) with the regularized diagonal S_n.

    Every order from 2 to n not yet cached on the configuration is built in
    one pass over the upper-triangle separations; the lower triangle follows
    from E_n(-z) = (-1)^n E_n(z).  Each order is cached as a read-only array
    and kept once built; rows may be consumed concurrently.
    """
    if n < 2:
        raise DomainError(f"kernel order must be >= 2, got {n}")
    if n not in config._kernels:
        n_lo = len(config._kernels) + 2  # cached orders form the prefix 2..n_lo-1
        n_disks = config.n_disks
        upper = np.triu_indices(n_disks, 1)
        stack = eisenstein_stack(config.cell, n_lo, n, config.pair_separations()[upper])
        for order, vals in zip(range(n_lo, n + 1), stack):
            mat = np.empty((n_disks, n_disks), dtype=complex)
            mat[upper] = vals
            mat[upper[::-1]] = vals if order % 2 == 0 else -vals
            mat[np.diag_indices(n_disks)] = lattice_sum(config.cell, order)
            mat.setflags(write=False)
            config._kernels[order] = mat
    return config._kernels[n]


def esum(config: DiskConfiguration, index) -> complex:
    """Structural sum e_{m1...mq} via chained matrix-vector products."""
    idx = as_multi_index(index)
    n_disks = config.n_disks
    vec = np.ones(n_disks, dtype=complex)
    # factor j (1-based) of the chain is conjugated iff j is even; apply
    # right to left so factor q acts first.
    for j in range(idx.order, 0, -1):
        mat = kernel_matrix(config, idx.entries[j - 1])
        vec = (np.conj(mat) if j % 2 == 0 else mat) @ vec
    total = np.sum(vec)
    return complex(total / n_disks ** idx.weight)


def esum_nn(config: DiskConfiguration, n: int) -> complex:
    """e_nn via the absolute-square identity (-1)^n/N^(n+1) sum_m |sum_k E_n|^2."""
    if n < 2:
        raise DomainError(f"order must be >= 2, got {n}")
    mat = kernel_matrix(config, n)
    row_sums = mat.sum(axis=1)
    val = ((-1) ** n) * np.sum(np.abs(row_sums) ** 2)
    return complex(val / config.n_disks ** (n + 1))


#: Multi-indices entering the concentration-series coefficients, per order.
_ORDER_INDICES = {
    1: [(2,)],
    2: [(2, 2)],
    3: [(3, 3), (2, 2, 2)],
    4: [(4, 4), (3, 3, 2), (2, 3, 3), (2, 2, 2, 2)],
    5: [
        (5, 5),
        (4, 4, 2),
        (3, 4, 3),
        (2, 4, 4),
        (3, 3, 2, 2),
        (2, 3, 3, 2),
        (2, 2, 3, 3),
        (2, 2, 2, 2, 2),
    ],
    6: [
        (6, 6),
        (2, 5, 5),
        (3, 5, 4),
        (4, 5, 3),
        (5, 5, 2),
        (2, 2, 4, 4),
        (2, 3, 4, 3),
        (3, 3, 3, 3),
        (2, 4, 4, 2),
        (3, 4, 3, 2),
        (4, 4, 2, 2),
        (2, 2, 2, 3, 3),
        (2, 2, 3, 3, 2),
        (2, 3, 3, 2, 2),
        (3, 3, 2, 2, 2),
        (2, 2, 2, 2, 2, 2),
    ],
}

MAX_SERIES_ORDER = max(_ORDER_INDICES)


def required_indices(max_order: int) -> list:
    """De-duplicated multi-indices needed by the series coefficients A_1..A_J."""
    if not 1 <= max_order <= MAX_SERIES_ORDER:
        raise DomainError(
            f"series order must be in 1..{MAX_SERIES_ORDER}, got {max_order}"
        )
    seen = []
    for order in range(1, max_order + 1):
        for entries in _ORDER_INDICES[order]:
            idx = MultiIndex(entries)
            if idx not in seen:
                seen.append(idx)
    return seen


def esums_csv(config_id: str, values: dict) -> str:
    """CSV rows (config_id, index, Re e, Im e); index hyphen-joined."""
    rows = [
        (config_id, as_multi_index(idx).label(), v.real, v.imag)
        for idx, v in values.items()
    ]
    return dump_csv(["config_id", "index", "re", "im"], rows)
