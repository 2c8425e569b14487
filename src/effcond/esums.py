"""Structural sums of disk configurations.

e_{m1...mq} chains the periodic kernels E_{m_j} over all (q+1)-tuples of
disk centers, conjugating every second factor, and normalizes by
N^(1 + (m1+...+mq)/2).  Coincident-center arguments use the regularized
value E_n(0) := S_n throughout.  The nested sum is computed one way only:
factorized into chained matrix-vector products over cached kernel matrices,
O(q N^2) per index after an O(N^2) per-order matrix build.  The direct
O(N^(q+1)) nested sum is the test oracle tests/_oracles.esum_reference.

Structural sums depend on the centers and the cell only; the disk radius
never enters (it returns downstream through the concentration).

The concentration series (series.cluster_coeffs) reads the same kernel
stack: one product per step of the interaction operator W between Taylor
degrees, weighted by step_weight, which the solver's W also uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import DiskConfiguration
from .lattice import MAX_KERNEL_ORDER, eisenstein_stack, is_integer, lattice_sum
from .serialize import dump_csv


def check_index(index) -> tuple:
    """The multi-index (m1, ..., mq) as a tuple of ints, from an int or an iterable.

    Raises DomainError if it is empty, an entry is neither an integer
    (numpy's too, never a bool) nor a float of integral value, or an entry
    is outside 2..MAX_KERNEL_ORDER.
    """
    entries = tuple(index) if np.iterable(index) else (index,)
    if not entries:
        raise DomainError("multi-index needs at least one entry")
    if not all(is_integer(m) or isinstance(m, float) and m.is_integer() for m in entries):
        raise DomainError(f"multi-index entries must be integers, got {entries!r}")
    entries = tuple(map(int, entries))
    if not all(2 <= m <= MAX_KERNEL_ORDER for m in entries):
        raise DomainError(f"multi-index entries must be in 2..{MAX_KERNEL_ORDER}, got {entries}")
    return entries


def kernel_matrix(config: DiskConfiguration, n: int) -> np.ndarray:
    """(N, N) matrix E_n(a_j - a_k) with the regularized diagonal S_n.

    The configuration keeps E_2..E_n as one read-only (n-1, N, N) array.
    Asking for a higher order rebuilds the whole stack E_2..E_n in one pass
    over the differences a_j - a_k of the pairs j < k, which fill the upper
    triangle (the lower triangle follows from E_n(-z) = (-1)^n E_n(z)), and
    replaces the array.  Returns a view; rows may be consumed concurrently.
    """
    if not (is_integer(n) and n >= 2):
        raise DomainError(f"kernel order must be an integer >= 2, got {n!r}")
    if config._kernels is None or len(config._kernels) < n - 1:
        n_disks = config.n_disks
        upper = j, k = np.triu_indices(n_disks, 1)
        vals = eisenstein_stack(config.cell, 2, n, config.centers[j] - config.centers[k])
        stack = np.empty((n - 1, n_disks, n_disks), dtype=complex)
        for order, mat, v in zip(range(2, n + 1), stack, vals):
            mat[upper] = v
            mat[upper[::-1]] = v if order % 2 == 0 else -v
            mat[np.diag_indices(n_disks)] = lattice_sum(config.cell, order)
        stack.setflags(write=False)
        object.__setattr__(config, "_kernels", stack)
    return config._kernels[n - 2]


def kernel_stack(config: DiskConfiguration, n: int) -> np.ndarray:
    """E_2..E_n as a read-only (n-1, N, N) view of the configuration's kernels."""
    kernel_matrix(config, n)
    return config._kernels[: n - 1]


# OpenBLAS runs a complex matrix-vector product of 4096 or more entries on two
# threads; at these sizes that gains nothing, and between the products of a
# trial the second thread spins on the other CPU, so run times follow its load
def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for an (N, N) mat on one thread, in row blocks of < 4096 entries.

    Rows round as in mat @ vec unless a block is one row, which numpy takes
    as a dot product, so a product whose blocks would be that thin stays whole.
    """
    n = len(mat)
    blocks = -(-n // max(1, 4095 // n))
    if blocks == 1 or n < 2 * blocks:
        return mat @ vec
    return np.concatenate([mat[n * b // blocks : n * (b + 1) // blocks] @ vec
                           for b in range(blocks)])


def esum(config: DiskConfiguration, index) -> complex:
    """Structural sum e_{m1...mq} via chained matrix-vector products."""
    entries = check_index(index)
    n_disks = config.n_disks
    vec = np.ones(n_disks, dtype=complex)
    # factor j (1-based) of the chain is conjugated iff j is even; apply
    # right to left so factor q acts first.
    for j in range(len(entries), 0, -1):
        mat = kernel_matrix(config, entries[j - 1])
        vec = _matvec(np.conj(mat) if j % 2 == 0 else mat, vec)
    total = np.sum(vec)
    return complex(total / n_disks ** (1.0 + 0.5 * sum(entries)))


def esum_nn(config: DiskConfiguration, n: int) -> complex:
    """e_nn via the absolute-square identity (-1)^n/N^(n+1) sum_m |sum_k E_n|^2."""
    mat = kernel_matrix(config, n)
    row_sums = mat.sum(axis=1)
    val = ((-1) ** n) * np.sum(np.abs(row_sums) ** 2)
    return complex(val / config.n_disks ** (n + 1))


def step_weight(j: int, l: int) -> int:
    """(-1)^j C(l+j+1, j): W's weight from Taylor degree l to degree j.

    The step re-expands r^(2l+2) E_{l+2}(z - a_m) around a_k; its degree-j
    coefficient carries E_{l+j+2}(a_k - a_m).
    """
    return (-1) ** j * math.comb(l + j + 1, j)


#: Highest concentration-series order J.  Order J >= 2 reads the kernels up
#: to E_J; every cell takes those from the Weierstrass recurrence (lattice),
#: so the kernels no longer block raising the cap.
MAX_SERIES_ORDER = 12


def check_series_order(order: int):
    """Raise DomainError unless order is an integer in 1..MAX_SERIES_ORDER."""
    if not is_integer(order):
        raise DomainError(f"series order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise DomainError(
            f"series order must be in 1..{MAX_SERIES_ORDER}, got {order}"
        )


def esums_csv(config_id: str, values: dict) -> str:
    """CSV rows (config_id, index, Re e, Im e); values maps index tuples to
    sums, and each index is written hyphen-joined."""
    rows = [(config_id, "-".join(map(str, idx)), v.real, v.imag) for idx, v in values.items()]
    return dump_csv(["config_id", "index", "re", "im"], rows)
