"""Unit cell geometry, lattice sums and the periodic kernels E_n.

The cell is spanned by periods (omega1, omega2) with omega1 > 0,
Im(omega2) > 0 and unit area, omega1 * Im(omega2) = 1.  The kernels

    E_n(z) = sum over lattice translates P of (z + P)^(-n)

are summed in the Eisenstein order: the sum along the omega1 direction
first, the transverse sum second and symmetrically.  Each row sum over
w + m, w = (z + m2*omega2)/omega1, is taken in closed form: as
pi^n * Q_n(cot(pi*w)), Q_n a fixed polynomial, for |Im w| < 0.35, else as
(-2*pi*i)^n/(n-1)! * sum_k k^(n-1) u^k, u = exp(2*pi*i*w), Im w > 0.  This
prescription fixes the values of the conditionally convergent cases
n = 1, 2 and gives E_1 the constant jump -2*pi*i/omega1 across omega2, zero
across omega1.

Only the near rows |m2| <= M0 are summed one by one, M0 being the smallest
m >= 0 with (m + 1/2) Im(tau) >= 1/2 (0 for Im tau >= 1, as on the square
cell).  The rows beyond fold into one Lambert series per side (the
q-expansion of the Eisenstein functions, Weil 1976): with x = z/omega1,
q = exp(2*pi*i*tau) and V+- = exp(+-2*pi*i*x) q^(M0+1),

    (-2*pi*i)^n/(n-1)! * sum_k k^(n-1)/(1 - q^k) * (V+^k + (-1)^n V-^k),

whose ratio |V+-| is at most exp(-pi) by the choice of M0; the constant row
limits of n = 1 cancel between the sides.

A range of orders is one stack: cot(pi*w), or u and its powers, are computed
once per point for all orders.  Each series' term count is fixed by the
order and the |u| bound of its rows, never by the batch, and every step is
elementwise in the points.  Orders whose series would need more than 400
terms, or weights k^(n-1) beyond a double, are refused (n >= 123).
Kernel matrices mirror the upper triangle: E_n(-z) = (-1)^n E_n(z).

Lattice sums S_n = E_n-minus-pole at 0 have one cached path: lattice_sum
fills the even orders of a cell in ascending order, S_2, S_4, S_6 from the
same row summation and higher orders by the classical quadratic recurrence
on the sums below.  The m2 = 0 row minus its pole is 2*zeta(n), taken from
Euler's zeta(n) = |B_n| (2*pi)^n / (2 n!) with the Bernoulli number B_n in
exact fractions, so numpy is the only dependency.  Odd orders vanish by
central symmetry and are returned as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import DomainError, InvalidCellError, NearSingularityError

#: Aspect-ratio guard for Im(omega2)/omega1; strongly sheared or elongated
#: cells degrade the row summation and are rejected up front.
ASPECT_RANGE = (0.2, 5.0)

#: Distance (in cell units) below which direct E_n evaluation is refused.
NEAR_SINGULARITY_RADIUS = 1e-9

# Rows switch from the cot form to the exponential series at this |Im w|.
_IM_SWITCH = 0.35

_TWO_PI_I = 2j * math.pi

# Longest u-series; orders whose series would need more are refused.
_MAX_TERMS = 400

# pi to 50 digits; (2*pi)^n then errs by about n*1e-50, far below a double
_PI = Fraction("3.14159265358979323846264338327950288419716939937510")


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
    for k in range(8, _MAX_TERMS + 1, 4):
        if (n - 1) * math.log(k) + (k - 1) * log_u <= math.log(1e-18):
            return k
    raise DomainError(f"kernel order {n} needs more than {_MAX_TERMS} series terms")


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
    def near_rows(self) -> int:
        """M0, the smallest m >= 0 with (m + 1/2) Im(tau) >= 1/2.

        Rows |m| <= M0 are summed one by one, the rows beyond as one Lambert
        series per side, whose ratio is then at most exp(-pi).
        """
        return max(0, math.ceil(0.5 / self.tau.imag - 0.5))

    def reduce(self, z):
        """Representative of z in the fundamental parallelogram.

        Returns (z_reduced, k1, k2) with z = z_reduced + k1*omega1 + k2*omega2
        and lattice coordinates of z_reduced in [-1/2, 1/2); k1 and k2 are
        integer-valued floats, NaN where z is.
        """
        z = np.asarray(z, dtype=complex)
        beta = z.imag / self.omega2.imag
        alpha = (z.real - beta * self.omega2.real) / self.omega1
        k1 = np.floor(alpha + 0.5)
        k2 = np.floor(beta + 0.5)
        zr = z - k1 * self.omega1 - k2 * self.omega2
        return zr, k1, k2

    @cached_property
    def stencil(self) -> np.ndarray:
        """The 9 translates m1*omega1 + m2*omega2 with |m1|, |m2| <= 1."""
        m = np.arange(-1, 2)
        shifts = (m[:, None] * self.omega1 + m[None, :] * self.omega2).ravel()
        shifts.setflags(write=False)
        return shifts

    @cached_property
    def shortest_shift(self) -> float:
        """Length of the shortest nonzero translate in the stencil."""
        return float(np.abs(np.delete(self.stencil, 4)).min())

    def min_image(self, z) -> np.ndarray:
        """The lattice translate of z nearest to the origin.

        reduce() maps into the centered parallelogram, whose nearest lattice
        point may still be a corner; one stencil step folds onto it.  A
        reduced point shorter than half of every nonzero stencil shift, less
        a rounding margin, is already nearest and skips the stencil.
        """
        zr, _, _ = self.reduce(z)
        flat = zr.ravel()
        out = flat + self.stencil[4]  # the shift-0 image, signed zeros as in the stencil
        far = np.flatnonzero(np.abs(flat) >= 0.5 * self.shortest_shift * (1.0 - 1e-9))
        cand = flat[far, None] + self.stencil
        out[far] = cand[np.arange(len(far)), np.abs(cand).argmin(axis=1)]
        return out.reshape(zr.shape)


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


@lru_cache(maxsize=None)
def _series_table(n_lo: int, n_hi: int, u_max: float) -> np.ndarray:
    """k^(n-1), n = n_lo..n_hi, up to each order's term count at u_max, else 0."""
    counts = [_exp_terms(n, u_max) for n in range(n_lo, n_hi + 1)]
    table = np.zeros((len(counts), max(counts)))
    for i, count in enumerate(counts):
        n = int(n_lo) + i  # a numpy integer power would overflow silently
        try:
            table[i, :count] = [float(k ** (n - 1)) for k in range(1, count + 1)]
        except OverflowError:
            raise DomainError(
                f"kernel order {n}: series weight {count}^{n - 1} overflows a double"
            ) from None
    table.setflags(write=False)
    return table


def _powers(u, count: int):
    """u, u^2, ..., u^count; each product out of place, since an in-place one
    rounds differently on a single element and would tie values to the batch."""
    p = u
    for _ in range(count):
        yield p
        p = p * u


def _power_sums(table: np.ndarray, terms, size: int) -> np.ndarray:
    """sum_k table[:, k] * terms[k] over complex term arrays of `size` points.

    Counts grow with the order, so the orders needing term k are a suffix;
    each order adds its own terms in the same sequence whatever the range.
    """
    first = (table == 0).sum(axis=0)
    acc = np.zeros((len(table), 2 * size))
    for k, term in enumerate(terms):
        # real weights: one exact product per real and imaginary part
        acc[first[k]:] += table[first[k]:, k, None] * term.view(float)
    return acc.view(complex)


def _eisenstein_stack(cell: Cell, n_lo: int, n_hi: int, zr, first_row: int = 0):
    """E_n(zr), n = n_lo..n_hi stacked on axis 0; lattice coords in [-1/2, 1/2].

    Rows m = 0, +-1, ..., +-M0 are summed one by one, centre-out in +-m pairs,
    then the Lambert tail of each side; first_row=1 leaves out the row
    through zr (lattice sums).  Each step is elementwise in the points and
    each order's terms depend on the order alone, so no value depends on the
    batch or on the order range.
    """
    orders = range(n_lo, n_hi + 1)
    odd = np.array([n % 2 == 1 for n in orders])
    tau = cell.tau
    tail = cell.near_rows + 1
    near = np.array([s * m for m in range(first_row, tail)
                     for s in ((1, -1) if m else (1,))], dtype=float)
    # far points of a near row have |Im w| >= _IM_SWITCH; the tail rows
    # |m| >= tail have |u| <= exp(-2 pi (tail - 1/2) Im tau) <= exp(-pi)
    near_table = _series_table(n_lo, n_hi, math.exp(-2.0 * math.pi * _IM_SWITCH))
    tail_table = _series_table(n_lo, n_hi, math.exp(-2.0 * math.pi * (tail - 0.5) * tau.imag))
    # sum over m >= tail of q^(k(m - tail)), q = exp(2 pi i tau)
    lambert = 1.0 / (1.0 - np.exp(_TWO_PI_I * tau * np.arange(1, tail_table.shape[1] + 1)))

    def tail_terms(vp, vm, odd_n):
        for c, a, b in zip(lambert, _powers(vp, len(lambert)), _powers(vm, len(lambert))):
            yield (a - b if odd_n else a + b) * c

    flat = np.ravel(zr)
    out = np.empty((len(orders), flat.size), dtype=complex)
    step = max(1, (1 << 16) // (len(orders) * max(1, len(near))))  # 1 MB accumulators
    for lo in range(0, flat.size, step):
        x = flat[lo : lo + step] / cell.omega1
        w = x + (near * tau)[:, None]
        central = np.abs(w.imag) < _IM_SWITCH
        upper = w.imag > 0
        far = ~central
        u = np.exp(_TWO_PI_I * np.where(upper, w, -w)[far])
        series = _power_sums(near_table, _powers(u, near_table.shape[1]), u.size)
        # the +tail and -tail rows and all rows beyond, for n even and n odd
        vp = np.exp(_TWO_PI_I * (x + tail * tau))
        vm = np.exp(-_TWO_PI_I * (x - tail * tau))
        tails = np.empty((len(orders), x.size), dtype=complex)
        for parity in (False, True):
            sel = odd == parity
            if sel.any():
                tails[sel] = _power_sums(tail_table[sel], tail_terms(vp, vm, parity), x.size)
        cot = 1.0 / np.tan(np.pi * w[central])
        for o, n in enumerate(orders):
            factor = (-_TWO_PI_I) ** n / math.factorial(n - 1)
            vals = series[o] * factor
            if n == 1:
                vals = vals - 1j * np.pi
            if n % 2 == 1:
                vals = np.where(upper[far], vals, -vals)
            rows = np.empty(w.shape, dtype=complex)
            rows[far] = vals
            rows[central] = (np.pi ** n) * np.polyval(_cot_poly(n)[::-1], cot)
            total = rows[0] if first_row == 0 else 0.0
            for i in range(1 - first_row, len(near), 2):
                total = total + (rows[i] + rows[i + 1])
            total = total + tails[o] * factor
            out[o, lo : lo + step] = total / cell.omega1 ** n
    return out.reshape((len(orders),) + np.shape(zr))


def eisenstein_stack(cell: Cell, n_lo: int, n_hi: int, z) -> np.ndarray:
    """E_n(z) for n = n_lo..n_hi stacked on axis 0, for an array z.

    Points within NEAR_SINGULARITY_RADIUS of a lattice point are refused.
    """
    if n_lo < 1:
        raise DomainError(f"kernel order must be >= 1, got {n_lo}")
    zr, _, k2 = cell.reduce(z)
    # every nonzero lattice point lies at least half a cell height outside
    # the centred parallelogram, so zr is within R of a lattice point
    # exactly when |zr| < R
    dist = np.abs(zr)
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
    point are refused; the kernel matrices take the regularized value S_n
    (lattice_sum) at z = 0.

    Orders up to 122 are accepted, but above 31 the row through z loses
    accuracy at mid-edge points of the cell, by cancellation in the cot
    polynomial: against a 60-digit reference on the square cell at
    z = 0.475+0.262i, |E_n - ref|*|z|^n is 1.4e-9 at n = 31, 7e-4 at n = 55
    and 7e7 at n = 100.
    """
    val = eisenstein_stack(cell, n, n, z)[0]
    return complex(val) if val.ndim == 0 else val


def lattice_sum(cell: Cell, n: int) -> complex:
    """Lattice sum S_n; exact 0 for odd n, cached per cell.

    The only writer of the cache: even orders are filled in ascending order,
    so every order the recurrence reads is already there.
    """
    if n < 2:
        raise DomainError(f"lattice sum order must be >= 2, got {n}")
    if n % 2 == 1:
        return 0.0 + 0.0j
    sums = cell._sums
    for even in range(2 * len(sums) + 2, n + 1, 2):
        sums[even] = (_lattice_sum_rows(cell, even) if even <= 6
                      else _lattice_sum_recurrence(sums, even))
    return sums[n]


@lru_cache(maxsize=None)
def _zeta_even(n: int) -> float:
    """zeta(n), n even, correctly rounded from |B_n| (2*pi)^n / (2 n!)."""
    b = [Fraction(1)]  # Bernoulli numbers B_0, B_1, ...
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return float(abs(b[n]) * (2 * _PI) ** n / (2 * math.factorial(n)))


def _lattice_sum_rows(cell: Cell, n: int) -> complex:
    """Even S_n by row summation; the m2 = 0 row minus its pole is 2*zeta(n)."""
    rows = _eisenstein_stack(cell, n, n, np.zeros(1), first_row=1)[0, 0]
    return complex(2.0 * _zeta_even(n) / cell.omega1 ** n + rows)


def _lattice_sum_recurrence(sums: dict, n: int) -> complex:
    """Even S_n, n >= 8, by the quadratic recurrence on S_4 .. S_(n-4) in sums."""
    k = n // 2
    acc = 0.0 + 0.0j
    for m in range(2, k - 1):
        acc += (2 * m - 1) * (2 * (k - m) - 1) * sums[2 * m] * sums[2 * (k - m)]
    return 3.0 * acc / ((2 * k + 1) * (2 * k - 1) * (k - 3))
