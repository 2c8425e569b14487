"""Unit cell geometry, lattice sums and the periodic kernels E_n.

The cell is spanned by periods (omega1, omega2) with omega1 > 0,
Im(omega2) > 0 and unit area, omega1 * Im(omega2) = 1.  The kernels

    E_n(z) = sum over lattice translates P of (z + P)^(-n)

are summed in the Eisenstein order: the sum along the omega1 direction
first, the transverse sum second and symmetrically.  Each row sum over
w + m, w = (z + m2*omega2)/omega1, is taken in closed form: as
pi^n * Q_n(cot(pi*w)), Q_n a fixed polynomial, for |Im w| < 0.35, else as
(-2*pi*i)^n/(n-1)! * sum_k k^(n-1) u^k, u = exp(2*pi*i*w), Im w > 0.  Rows
decay exponentially (the ratio is the square of the lattice nome).  This
prescription fixes the values of the conditionally convergent cases
n = 1, 2 and gives E_1 the constant jump -2*pi*i/omega1 across omega2, zero
across omega1.

A range of orders is one stack: cot(pi*w), or u and its powers, are computed
once per row point for all orders.  Each row's term count is fixed by the
order and the |u| bound a reduced point implies for the row, never by the
batch.  Kernel matrices mirror the upper triangle: E_n(-z) = (-1)^n E_n(z).

Lattice sums S_n = E_n-minus-pole at 0: S_2, S_4, S_6 come from the same
row summation; higher even orders use the classical quadratic recurrence
seeded by S_4 and S_6; odd orders vanish by central symmetry and are
returned as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np
from scipy.special import zeta as _riemann_zeta

from .errors import DomainError, InvalidCellError, NearSingularityError

#: Aspect-ratio guard for Im(omega2)/omega1; strongly sheared or elongated
#: cells degrade the row summation and are rejected up front.
ASPECT_RANGE = (0.2, 5.0)

#: Distance (in cell units) below which direct E_n evaluation is refused.
NEAR_SINGULARITY_RADIUS = 1e-9

# Rows switch from the cot form to the exponential series at this |Im w|.
_IM_SWITCH = 0.35

_TWO_PI_I = 2j * math.pi


@lru_cache(maxsize=None)
def _cot_poly(n: int) -> np.ndarray:
    """Coefficients of Q_n with sum_m (w+m)^(-n) = pi^n Q_n(cot(pi w)).

    Q_1 = c, Q_{n+1} = (1 + c^2) Q_n' / n; computed exactly in Fractions.
    """
    coeffs = [Fraction(0), Fraction(1)]  # Q_1
    for k in range(1, n):
        deriv = [coeffs[j + 1] * (j + 1) for j in range(len(coeffs) - 1)]
        nxt = [Fraction(0)] * (len(deriv) + 2)
        for j, c in enumerate(deriv):
            nxt[j] += Fraction(c, k)
            nxt[j + 2] += Fraction(c, k)
        coeffs = nxt
    return np.array([float(c) for c in coeffs])


@lru_cache(maxsize=None)
def _exp_terms(n: int, u_max: float) -> int:
    """Series length; its last term k^(n-1) u^k is below 1e-18 of the first."""
    log_u = math.log(max(u_max, 1e-300))
    k = 8
    while k < 400 and (n - 1) * math.log(k) + (k - 1) * log_u > math.log(1e-18):
        k += 4
    return k


@dataclass(frozen=True)
class Cell:
    """Unit-area periodic cell; immutable and shareable after construction.

    Lattice sums and the cot-polynomial tables are cached lazily; the caches
    are append-only, so concurrent readers are safe once warmed.
    """

    omega1: float
    omega2: complex
    _sums: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1

    @property
    def area(self) -> float:
        return self.omega1 * self.omega2.imag

    @property
    def min_period(self) -> float:
        """Length of the shortest nonzero lattice vector."""
        m = np.arange(-2, 3)
        pts = m[:, None] * self.omega1 + m[None, :] * self.omega2
        d = np.abs(pts)
        d[2, 2] = np.inf
        return float(d.min())

    def row_count(self) -> int:
        """Transverse rows needed for ~1e-17 absolute row tails."""
        return int(math.ceil(0.5 + 7.0 / self.tau.imag)) + 1

    def reduce(self, z):
        """Representative of z in the fundamental parallelogram.

        Returns (z_reduced, k1, k2) with z = z_reduced + k1*omega1 + k2*omega2
        and lattice coordinates of z_reduced in [-1/2, 1/2).
        """
        z = np.asarray(z, dtype=complex)
        beta = z.imag / self.omega2.imag
        alpha = (z.real - beta * self.omega2.real) / self.omega1
        k1 = np.floor(alpha + 0.5)
        k2 = np.floor(beta + 0.5)
        zr = z - k1 * self.omega1 - k2 * self.omega2
        return zr, k1.astype(int), k2.astype(int)

    def lattice_distance(self, z) -> np.ndarray:
        """Distance from z to the nearest lattice point."""
        zr, _, _ = self.reduce(z)
        m = np.arange(-1, 2)
        shifts = (m[:, None] * self.omega1 + m[None, :] * self.omega2).ravel()
        d = np.abs(zr[..., None] - shifts)
        return d.min(axis=-1)


def make_cell(omega1: float, omega2: complex) -> Cell:
    """Build a unit-area cell with the shape of the supplied period pair.

    Both periods are rescaled by the same positive factor so that
    omega1 * Im(omega2) = 1; the shape omega2/omega1 is preserved.  Cells
    are immutable, so equal-period requests share one cached instance (and
    its lattice-sum cache).
    """
    return _make_cell_cached(float(omega1), complex(omega2))


@lru_cache(maxsize=128)
def _make_cell_cached(omega1: float, omega2: complex) -> Cell:
    if not (omega1 > 0.0 and math.isfinite(omega1)):
        raise InvalidCellError(f"omega1 must be positive and finite, got {omega1}")
    if not (omega2.imag > 0.0 and math.isfinite(abs(omega2))):
        raise InvalidCellError(f"Im(omega2) must be positive, got {omega2}")
    aspect = omega2.imag / omega1
    if not (ASPECT_RANGE[0] <= aspect <= ASPECT_RANGE[1]):
        raise InvalidCellError(
            f"cell aspect Im(omega2)/omega1 = {aspect:g} outside supported "
            f"range {ASPECT_RANGE}"
        )
    scale = 1.0 / math.sqrt(omega1 * omega2.imag)
    cell = Cell(omega1 * scale, omega2 * scale)
    assert abs(cell.area - 1.0) <= 1e-14
    return cell


def _eisenstein_stack(cell: Cell, n_lo: int, n_hi: int, zr, first_row: int = 0):
    """E_n(zr), n = n_lo..n_hi stacked on axis 0; lattice coords in [-1/2, 1/2].

    Rows are summed centre-out in +-m pairs (the constant row limits of n = 1
    cancel); first_row=1 leaves out the row through zr (lattice sums).  Each
    step is elementwise in the points and each order's terms depend on the
    order alone, so no value depends on the batch or on the order range.
    """
    orders = range(n_lo, n_hi + 1)
    ms = np.array([s * m for m in range(first_row, cell.row_count() + 1)
                   for s in ((1, -1) if m else (1,))])
    # far points of row m have |Im w| >= max(_IM_SWITCH, (|m| - 1/2) Im tau)
    bounds = np.exp(-2.0 * math.pi
                    * np.maximum(_IM_SWITCH, (np.abs(ms) - 0.5) * cell.tau.imag))
    counts = np.array([[_exp_terms(n, float(b)) for b in bounds] for n in orders])
    ks = np.arange(1, counts.max() + 1)
    weights = np.array([[float(k ** (n - 1)) for k in range(1, len(ks) + 1)]
                        for n in orders])
    table = weights[:, None, :] * (ks <= counts[..., None])
    # counts grow with the order and shrink outward, so the power k is
    # needed by a suffix of the orders and a prefix of the rows
    first_order = (counts[:, 0, None] < ks).sum(axis=0)
    n_rows = (counts[-1][:, None] >= ks).sum(axis=0)

    flat = np.ravel(zr)
    out = np.empty((len(orders), flat.size), dtype=complex)
    step = max(1, (1 << 18) // counts.size)  # 4 MB accumulator blocks
    for lo in range(0, flat.size, step):
        w = flat[lo : lo + step] / cell.omega1 + (ms * cell.tau)[:, None]
        central = np.abs(w.imag) < _IM_SWITCH
        upper = w.imag > 0
        u = np.where(central, 0.0, np.exp(_TWO_PI_I * np.where(upper, w, -w)))
        acc = np.zeros((len(orders),) + w.shape, dtype=complex)
        upow = u.copy()
        for k, (o, r) in enumerate(zip(first_order, n_rows)):
            acc[o:, :r] += table[o:, :r, k, None] * upow[:r]
            upow[:r] *= u[:r]
        cot = 1.0 / np.tan(np.pi * w[central])
        for o, n in enumerate(orders):
            rows = acc[o] * ((-_TWO_PI_I) ** n / math.factorial(n - 1))
            if n == 1:
                rows -= 1j * np.pi
            if n % 2 == 1:
                rows = np.where(upper, rows, -rows)
            rows[central] = (np.pi ** n) * np.polyval(_cot_poly(n)[::-1], cot)
            total = rows[0] if first_row == 0 else 0.0
            for i in range(1 - first_row, len(ms), 2):
                total = total + (rows[i] + rows[i + 1])
            out[o, lo : lo + step] = total / cell.omega1 ** n
    return out.reshape((len(orders),) + np.shape(zr))


def eisenstein_stack(cell: Cell, n_lo: int, n_hi: int, z) -> np.ndarray:
    """E_n(z) for n = n_lo..n_hi stacked on axis 0, for an array z.

    Points within NEAR_SINGULARITY_RADIUS of a lattice point are refused.
    """
    if n_lo < 1:
        raise DomainError(f"kernel order must be >= 1, got {n_lo}")
    zr, _, k2 = cell.reduce(z)
    dist = cell.lattice_distance(zr)
    if np.any(dist < NEAR_SINGULARITY_RADIUS):
        bad = np.asarray(z, dtype=complex)[dist < NEAR_SINGULARITY_RADIUS][0]
        raise NearSingularityError(
            f"z = {bad} within {NEAR_SINGULARITY_RADIUS:g} of a lattice point"
        )
    out = _eisenstein_stack(cell, n_lo, n_hi, zr)
    if n_lo == 1:
        out[0] -= k2 * (_TWO_PI_I / cell.omega1)
    return out


def eisenstein(cell: Cell, n: int, z):
    """E_n(z); scalar in, scalar out, ndarray in, ndarray out.

    n = 1 is quasi-periodic (jump -2*pi*i/omega1 across omega2), n >= 2 is
    doubly periodic.  Points within NEAR_SINGULARITY_RADIUS of a lattice
    point are refused; use eisenstein_regularized near z = 0.
    """
    val = eisenstein_stack(cell, n, n, z)[0]
    return complex(val) if val.ndim == 0 else val


def lattice_sum(cell: Cell, n: int) -> complex:
    """Lattice sum S_n; exact 0 for odd n, cached per cell."""
    if n < 2:
        raise DomainError(f"lattice sum order must be >= 2, got {n}")
    if n % 2 == 1:
        return 0.0 + 0.0j
    cached = cell._sums.get(n)
    if cached is not None:
        return cached
    if n in (2, 4, 6):
        val = _lattice_sum_rows(cell, n)
    else:
        val = _lattice_sum_recurrence(cell, n)
    cell._sums[n] = val
    return val


def _lattice_sum_rows(cell: Cell, n: int) -> complex:
    """S_n from the row summation; the m2 = 0 row minus its pole is 2*zeta(n)."""
    rows = _eisenstein_stack(cell, n, n, np.zeros(1), first_row=1)[0, 0]
    return complex(2.0 * float(_riemann_zeta(n)) / cell.omega1 ** n + rows)


def _lattice_sum_recurrence(cell: Cell, n: int) -> complex:
    """Even S_n for n >= 8 via the quadratic recurrence seeded by S_4, S_6."""
    for low in (4, 6):
        if low not in cell._sums:
            cell._sums[low] = _lattice_sum_rows(cell, low)
    for even in range(8, n + 1, 2):
        if even in cell._sums:
            continue
        k = even // 2
        acc = 0.0 + 0.0j
        for m in range(2, k - 1):
            acc += (
                (2 * m - 1)
                * (2 * (k - m) - 1)
                * cell._sums[2 * m]
                * cell._sums[2 * (k - m)]
            )
        cell._sums[even] = 3.0 * acc / ((2 * k + 1) * (2 * k - 1) * (k - 3))
    return cell._sums[n]


def regularized_taylor_coeff(cell: Cell, n: int, j: int) -> complex:
    """j-th Taylor coefficient of E_n-minus-pole at 0: (-1)^j C(n+j-1, j) S_{n+j}."""
    return ((-1) ** j) * math.comb(n + j - 1, j) * lattice_sum(cell, n + j)


def eisenstein_regularized(cell: Cell, n: int, z):
    """E_n(z) - z^(-n), analytic at z = 0 with value S_n.

    z is taken modulo the lattice (the pole subtracted is the one nearest
    to z).  Near the origin the Taylor series in lattice sums is used;
    elsewhere the direct difference is accurate.
    """
    if n < 2:
        raise DomainError(f"regularized kernel order must be >= 2, got {n}")
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zr, _, _ = cell.reduce(z)
    # reduce() maps to the centered parallelogram whose nearest lattice point
    # may still be a corner; fold onto the genuinely nearest one.
    m = np.arange(-1, 2)
    shifts = (m[:, None] * cell.omega1 + m[None, :] * cell.omega2).ravel()
    idx = np.abs(zr[..., None] - shifts).argmin(axis=-1)
    zn = zr - shifts[idx]

    out = np.empty(zn.shape, dtype=complex)
    # inside the series region the Taylor expansion in lattice sums is both
    # fast and free of the pole-subtraction cancellation of the direct path
    switch = 0.35 * cell.min_period
    near = np.abs(zn) <= switch
    if np.any(near):
        zs = zn[near]
        acc = np.zeros(zs.shape, dtype=complex)
        power = np.ones(zs.shape, dtype=complex)
        for j in range(0, 141):
            coef = regularized_taylor_coeff(cell, n, j)
            term = coef * power
            acc += term
            power *= zs
            if j > 4 and np.all(np.abs(term) <= 1e-18 * (1.0 + np.abs(acc))):
                break
        out[near] = acc
    far = ~near
    if np.any(far):
        # E_n is doubly periodic for n >= 2; the stack takes reduced points
        out[far] = _eisenstein_stack(cell, n, n, zr[far])[0] - zn[far] ** (-n)
    return complex(out[0]) if scalar else out
