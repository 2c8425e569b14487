"""Slow independent references for the lattice kernels and sums.

Everything here is a plain truncated double sum over lattice translates in
the prescribed iterated order (inner index along omega1, outer transverse,
both symmetric), optionally Richardson-extrapolated in the truncation
limits, or a high-precision row sum in closed form through mpmath.
Nothing is shared with the production evaluation path.
"""

import math

import mpmath
import numpy as np


def eisenstein_truncated(cell, n, z, m1_range, m2_range):
    """sum over |m1| <= m1_range (inner), |m2| <= m2_range (outer)."""
    m1 = np.arange(-m1_range, m1_range + 1)
    total = 0.0 + 0.0j
    for m2 in range(-m2_range, m2_range + 1):
        pts = z + m1 * cell.omega1 + m2 * cell.omega2
        total += np.sum(pts ** (-float(n)))
    return total


def eisenstein_brute(cell, n, z, m1_range=50000, m2_range=25):
    """Two-point Richardson in 1/m1_range on the iterated truncated sum."""
    a = eisenstein_truncated(cell, n, z, m1_range, m2_range)
    b = eisenstein_truncated(cell, n, z, 2 * m1_range, m2_range)
    return 2.0 * b - a


def eisenstein_mpmath(cell, n, z, dps=40):
    """E_n(z), n >= 2, to about dps digits with mpmath.

    Rows are summed in the Eisenstein order (transverse index m2 = 0, then
    +-m2 pairs); each row sum_m1 (w + m1)^(-n), w = (z + m2*omega2)/omega1,
    is zeta(n, w) + (-1)^n zeta(n, 1 - w) with the Hurwitz zeta function.
    Rows are kept until exp(-2*pi*m2*Im tau) is below 10^-dps.
    """
    with mpmath.workdps(dps):
        omega1, omega2 = mpmath.mpf(cell.omega1), mpmath.mpc(cell.omega2)
        z = mpmath.mpc(z)
        im_tau = float((omega2 / omega1).imag)
        rows = math.ceil(dps * math.log(10) / (2 * math.pi * im_tau)) + 3

        def row(m2):
            w = (z + m2 * omega2) / omega1
            return mpmath.zeta(n, w) + (-1) ** n * mpmath.zeta(n, 1 - w)

        total = row(0)
        for m2 in range(1, rows + 1):
            total += row(m2) + row(-m2)
        return complex(total / omega1 ** n)


def lattice_sum_brute_s2(cell, m1_range=200000, m2_range=30):
    """S_2 by the iterated ordering with the origin removed."""

    def trunc(m1_range):
        m1 = np.arange(-m1_range, m1_range + 1)
        total = 0.0 + 0.0j
        for m2 in range(-m2_range, m2_range + 1):
            pts = m1 * cell.omega1 + m2 * cell.omega2
            if m2 == 0:
                pts = pts[m1 != 0]
            total += np.sum(pts ** -2.0)
        return total

    a, b = trunc(m1_range), trunc(2 * m1_range)
    return 2.0 * b - a


def lattice_sum_disk(cell, n, radius):
    """Absolutely convergent sum over 0 < |P| <= radius (even n >= 4)."""
    m_range = int(radius / min(cell.omega1, abs(cell.omega2))) + 2
    m = np.arange(-m_range, m_range + 1)
    pts = m[:, None] * cell.omega1 + m[None, :] * cell.omega2
    mask = (np.abs(pts) <= radius) & (np.abs(pts) > 0)
    return np.sum(pts[mask] ** (-float(n)))


def lattice_sum_disk_sweep(cell, n, radii=(200.0, 400.0, 800.0)):
    """Truncation-radius sweep with two Richardson stages."""
    vals = [lattice_sum_disk(cell, n, r) for r in radii]
    # leading tail ~ radius^-(n-2); ratios of consecutive radii are 2
    w1 = 2.0 ** (n - 2)
    first = [(w1 * vals[i + 1] - vals[i]) / (w1 - 1.0) for i in range(len(vals) - 1)]
    w2 = 2.0 ** n
    return (w2 * first[1] - first[0]) / (w2 - 1.0)
