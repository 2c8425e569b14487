"""Unit cell geometry, lattice sums and the periodic kernels E_n.

A cell is the lattice of periods omega1 > 0 and omega2, Im(omega2) > 0;
make_cell's have unit area, omega1 * Im(omega2) = 1.  The kernels

    E_n(z) = sum over lattice translates P of (z + P)^(-n)

are summed in the Eisenstein order: the sum along the omega1 direction
first, the transverse sum second and symmetrically.  This prescription
fixes the values of the conditionally convergent cases n = 1, 2 and gives
E_1 the constant jump -2*pi*i/omega1 across omega2, zero across omega1.

Summed so, the rows give the classical q-expansions (Weil 1976; Apostol,
Modular Functions and Dirichlet Series, ch. 1).  With x = z/omega1 in the
centred parallelogram, u = exp(2*pi*i*x), q = exp(2*pi*i*tau),
p = pi/omega1 and l_k = q^k/(1 - q^k):

    E_1 = p (cot(pi x) - 2i sum_k l_k (u^k - u^-k)),  plus the jump
    E_2 = p^2 (csc^2(pi x) - 4 sum_k k l_k (u^k + u^-k))
    E_3 = p^3 (csc^2(pi x) cot(pi x) + 4i sum_k k^2 l_k (u^k - u^-k))

whose k-th terms are at most exp(-pi k Im tau), so one term count per
cell (Cell.q_powers) serves every point.  Kernel matrices mirror the upper
triangle: E_n(-z) = (-1)^n E_n(z).

Every order n >= 2 has one path, the Weierstrass recurrence summed over
the cosets of a compact sublattice (Cell.cosets).  wp = E_2 - S_2
satisfies wp'' = 6 wp^2 - g2/2 with g2 = 60 S_4 (Weil 1976; Abramowitz &
Stegun 18), which gives E_4 = wp^2 - 5 S_4 and every higher order as a
weighted sum of products of lower ones.  It loses about (R/h)^n, R the
covering radius and h the shortest period, so it runs only on compact
cells (R <= h: the square, hexagonal and 0.5+1i cells, rectangles of
aspect 1/sqrt(3) to sqrt(3)).  An elongated lattice is k cosets of a
compact sublattice of index k at its own scale, and E_n is the sum of
their kernels.  E_1, quasi-periodic, is the cell's own q-series plus its
jump.  The pole-scaled error |E_n - ref|*|z|^n against
mpmath is at most 2.6e-14 for n <= 55 at the weak points of the tests.
Orders above MAX_KERNEL_ORDER are refused.

Lattice sums S_n = E_n-minus-pole at 0 are cached per cell and filled in
ascending order: S_2, S_4, S_6 from the q-expansions of G_n,
(2 zeta(n) + (-2 pi i)^n/(n-1)! sum_k k^(n-1) 2 l_k) / omega1^n, higher
orders by the classical quadratic recurrence.  Odd orders are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
import itertools
import math
import numbers

import numpy as np

from .errors import DomainError, InvalidCellError, NearSingularityError

#: Aspect-ratio guard for Im(omega2)/omega1.  The q-series converge on every
#: cell, more slowly on thin ones (80 terms at aspect 0.2); cells outside
#: the range are rejected up front.
ASPECT_RANGE = (0.2, 5.0)

#: Distance below which direct E_n evaluation is refused.
NEAR_SINGULARITY_RADIUS = 1e-9

_TWO_PI_I = 2j * math.pi

#: Highest kernel order E_n that eisenstein_stack accepts.
MAX_KERNEL_ORDER = 122

# 2*zeta(n), correctly rounded: the m2 = 0 row of S_n less its pole
_TWO_ZETA = {2: 3.289868133696453, 4: 2.1646464674222763, 6: 2.0346861239688985}


@dataclass(frozen=True)
class Cell:
    """The lattice of a period pair, any area; immutable and shareable.

    Lattice sums and the powers of q are cached lazily; the caches are
    append-only, so concurrent readers are safe once warmed.
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

    @cached_property
    def q_powers(self) -> tuple:
        """q^k, q = exp(2*pi*i*tau), by repeated products for k = 1..K, K the
        least with K^2 exp(-pi*K*Im tau) < 1e-18: that bounds the last term
        of every q-series in the centred parallelogram.  Fixed by the cell
        alone, never by a batch."""
        q = complex(np.exp(_TWO_PI_I * self.tau))
        powers = [q]
        while len(powers) ** 2 * math.exp(-math.pi * len(powers) * self.tau.imag) >= 1e-18:
            powers.append(powers[-1] * q)
        return tuple(powers)

    def coordinates(self, z):
        """Lattice coordinates (alpha, beta) of z = alpha*omega1 + beta*omega2."""
        beta = np.imag(z) / self.omega2.imag
        return (np.real(z) - beta * self.omega2.real) / self.omega1, beta

    def reduce(self, z):
        """Representative of z in the fundamental parallelogram.

        Returns (z_reduced, k1, k2) with z = z_reduced + k1*omega1 + k2*omega2
        and lattice coordinates of z_reduced in [-1/2, 1/2); k1 and k2 are
        integer-valued floats, NaN where z is.
        """
        z = np.asarray(z, dtype=complex)
        k1, k2 = (np.floor(c + 0.5) for c in self.coordinates(z))
        return z - k1 * self.omega1 - k2 * self.omega2, k1, k2

    @cached_property
    def _gauss_basis(self) -> tuple:
        """A Gauss-reduced basis (a, b), |a| <= |b|, with Re(b conj(a)) >= 0.

        a, b and b - a are then the shortest lattice vectors up to sign and
        span the acute lattice triangle.
        """
        a, b = complex(self.omega1), self.omega2
        if abs(b) < abs(a):
            a, b = b, a
        while True:
            b -= round((b * a.conjugate()).real / abs(a) ** 2) * a
            if abs(b) >= abs(a):
                break
            a, b = b, a
        if (b * a.conjugate()).real < 0:
            b = -b
        return a, b

    @cached_property
    def compact(self) -> bool:
        """Whether the covering radius R is at most the shortest period h.

        R is the circumradius of the acute lattice triangle, spanned by the
        Gauss-reduced basis.  On these cells the Weierstrass recurrence is
        accurate for every order, so they are their own single coset.
        """
        a, b = self._gauss_basis
        covering = abs(a) * abs(b) * abs(b - a) / (2.0 * abs((a.conjugate() * b).imag))
        return covering <= abs(a)

    @cached_property
    def cosets(self):
        """(k, a, sub): the lattice as the k cosets j*a + sub, j < k, of a
        compact sublattice sub of index k, at its own scale.

        (1, 0, cell) on a compact cell.  Else a is the shorter of omega1 and
        omega2 reduced by omega1, and sub, of k times the cell's area, is
        spanned by k*a and the other period for the least k that makes it
        compact; its rows run along omega1 too.  E_n(z) = sum_(j<k)
        E_n^sub(z + j*a) for n >= 2.
        """
        if self.compact:
            return 1, 0, self
        w1 = self.omega1
        w2 = self.omega2 - round(self.omega2.real / w1) * w1
        for k in itertools.count(2):
            if abs(w2) < w1:
                a, sub = w2, Cell(w1, k * w2 - round(k * w2.real / w1) * w1)
            else:
                a, sub = w1, Cell(k * w1, w2)
            if sub.compact:
                return k, a, sub


def is_integer(n) -> bool:
    """Whether n is an integer, numpy's included, and not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def make_cell(omega1: float, omega2: complex) -> Cell:
    """Build a unit-area cell of the lattice of the supplied period pair.

    omega2 loses its whole multiples of omega1 toward zero by an exact fmod,
    so |Re tau| < 1: the same lattice with the same rows, so the same E_n,
    without rounding against a huge omega2.  Both periods are then rescaled
    by the same positive factor so that omega1 * Im(omega2) = 1.  Cells are
    immutable, so equal-period requests share one cached instance (and its
    lattice-sum cache).
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
    omega2 = complex(math.fmod(omega2.real, omega1), omega2.imag)
    scale = 1.0 / math.sqrt(omega1 * omega2.imag)
    cell = Cell(omega1 * scale, omega2 * scale)
    assert abs(cell.area - 1.0) <= 1e-14
    return cell


def _rows(cell: Cell, n_lo: int, n_hi: int, zr) -> np.ndarray:
    """E_n(zr), n = n_lo..n_hi <= 3, on flat points zr in the centred
    parallelogram, by the q-series of the module docstring; E_1 without its
    jump.  u^k and u^-k come by repeated products.  Each step is elementwise
    and out of place, and each order is summed on its own, so no value
    depends on the batch or on the other orders asked for.
    """
    orders = range(n_lo, n_hi + 1)
    x = zr / cell.omega1
    sin, u = np.sin(np.pi * x), np.exp(_TWO_PI_I * x)
    v = 1.0 / u
    uk, vk, sums = u, v, dict.fromkeys(orders, 0.0)
    for k, qk in enumerate(cell.q_powers, 1):
        lam = qk / (1.0 - qk)
        for n in orders:
            sums[n] = sums[n] + (k ** (n - 1) * lam) * (uk + vk if n == 2 else uk - vk)
        uk, vk = uk * u, vk * v
    p, csc2 = math.pi / cell.omega1, 1.0 / (sin * sin)
    out = []
    if n_lo == 1:
        out.append(p * (np.cos(np.pi * x) / sin - 2j * sums[1]))
    if n_lo <= 2 <= n_hi:
        out.append(p ** 2 * (csc2 - 4.0 * sums[2]))
    if n_hi == 3:
        out.append(p ** 3 * (csc2 * (np.cos(np.pi * x) / sin) + 4j * sums[3]))
    return np.array(out)


def _weierstrass_stack(cell: Cell, n_hi: int, zr):
    """E_n(zr), n = 2..n_hi, on flat points: q-series for E_2, E_3, wp above.

    With wp = E_2 - S_2, wp'' = 6 wp^2 - 30 S_4 gives E_4 = wp^2 - 5 S_4 and,
    in f_j = (j+1) e_(j+2) (e_2 = wp, e_n = E_n above),
    E_(k+4) = 6/((k+1)(k+2)(k+3)) * sum_(j=0..k) f_j f_(k-j).  Each product
    is elementwise, out of place, so no value depends on the batch or on n_hi.
    """
    rows = _rows(cell, 2, min(n_hi, 3), zr)
    if n_hi < 4:
        return rows
    out = np.empty((n_hi - 1, zr.size), dtype=complex)
    out[:2] = rows
    f = [rows[0] - lattice_sum(cell, 2), 2 * rows[1]]
    e = f[0] * f[0] - 5.0 * lattice_sum(cell, 4)
    for n in range(4, n_hi + 1):
        if n > 4:
            k = n - 4
            acc = f[0] * f[k]
            for j in range(1, (k + 1) // 2):
                acc = acc + f[j] * f[k - j]
            acc = 2.0 * acc
            if k % 2 == 0:
                acc = acc + f[k // 2] * f[k // 2]
            e = acc * (6.0 / ((k + 1) * (k + 2) * (k + 3)))
        out[n - 2] = e
        f.append((n - 1) * e)
    return out


def eisenstein_stack(cell: Cell, n_lo: int, n_hi: int, z) -> np.ndarray:
    """E_n(z) for n = n_lo..n_hi stacked on axis 0, for an array z.

    E_1 is the cell's q-series plus its jump.  E_2..E_n_hi are the sums of
    the recurrent stacks of the cosets of Cell.cosets, in ascending j, out
    of place.  Each coset takes z - j*a, the same coset as z + (k-j)*a,
    reduced into its own centred parallelogram; z - 0 keeps z bit for bit,
    so a compact cell's one coset is cell.reduce(z) and its stack is the
    result.  Orders below n_lo are computed but not kept.  Points within
    NEAR_SINGULARITY_RADIUS of a lattice point and orders above
    MAX_KERNEL_ORDER are refused.
    """
    if not (is_integer(n_lo) and is_integer(n_hi) and 1 <= n_lo <= n_hi <= MAX_KERNEL_ORDER):
        raise DomainError(f"kernel order must be an integer in 1..{MAX_KERNEL_ORDER}, "
                          f"got {n_lo!r}..{n_hi!r}")
    flat = np.ravel(np.asarray(z, dtype=complex))
    k, a, sub = cell.cosets
    points = [sub.reduce(flat - j * a)[0] for j in range(k)]
    # every nonzero point of sub lies at least half a cell height outside
    # its centred parallelogram, so z is within R of a lattice point exactly
    # when one of its coset points is within R of zero
    near = np.min(np.abs(points), axis=0) < NEAR_SINGULARITY_RADIUS
    if np.any(near):
        raise NearSingularityError(
            f"z = {flat[near][0]} within {NEAR_SINGULARITY_RADIUS:g} of a lattice point"
        )
    out = np.empty((0, flat.size), dtype=complex)
    if n_hi >= 2:
        stacks = (_weierstrass_stack(sub, n_hi, p) for p in points)
        out = sum(stacks, next(stacks))[max(n_lo, 2) - 2 :]  # no sum from 0
    if n_lo == 1:
        zr, _, k2 = cell.reduce(flat)
        out = np.concatenate([_rows(cell, 1, 1, zr) - k2 * (_TWO_PI_I / cell.omega1), out])
    return out.reshape((n_hi - n_lo + 1,) + np.shape(z))


def eisenstein(cell: Cell, n: int, z):
    """E_n(z); scalar in, scalar out, ndarray in, ndarray out.

    n = 1 is quasi-periodic (jump -2*pi*i/omega1 across omega2), n >= 2 is
    doubly periodic.  Points within NEAR_SINGULARITY_RADIUS of a lattice
    point and orders above MAX_KERNEL_ORDER are refused; the kernel matrices
    take the regularized value S_n (lattice_sum) at z = 0.
    """
    val = eisenstein_stack(cell, n, n, z)[0]
    return complex(val) if val.ndim == 0 else val


def lattice_sum(cell: Cell, n: int) -> complex:
    """Lattice sum S_n; exact 0 for odd n, cached per cell.

    The only writer of the cache: even orders are filled in ascending order,
    so every order the recurrence reads is already there.
    """
    if not (is_integer(n) and n >= 2):
        raise DomainError(f"lattice sum order must be an integer >= 2, got {n!r}")
    if n % 2 == 1:
        return 0.0 + 0.0j
    sums = cell._sums
    for even in range(2 * len(sums) + 2, n + 1, 2):
        sums[even] = (_lattice_sum_q(cell, even) if even <= 6
                      else _lattice_sum_recurrence(sums, even))
    return sums[n]


def _lattice_sum_q(cell: Cell, n: int) -> complex:
    """Even S_n, n <= 6, from the q-expansion of G_n, summed in ascending k."""
    acc = 0.0 + 0.0j
    for k, qk in enumerate(cell.q_powers, 1):
        acc += k ** (n - 1) * ((qk + qk) * (1.0 / (1.0 - qk)))
    factor = (-_TWO_PI_I) ** n / math.factorial(n - 1)
    return _TWO_ZETA[n] / cell.omega1 ** n + acc * factor / cell.omega1 ** n


def _lattice_sum_recurrence(sums: dict, n: int) -> complex:
    """Even S_n, n >= 8, by the quadratic recurrence on S_4 .. S_(n-4) in sums."""
    k = n // 2
    acc = 0.0 + 0.0j
    for m in range(2, k - 1):
        acc += (2 * m - 1) * (2 * (k - m) - 1) * sums[2 * m] * sums[2 * (k - m)]
    return 3.0 * acc / ((2 * k + 1) * (2 * k - 1) * (k - 3))
