"""Closed-form effective-conductivity series.

Implements the concentration (cluster) series with coefficients A_1..A_J
(J <= 12), summed over the degree paths of the interaction operator W by one
recursion over (r^2 grade, Taylor degree) states; the contrast series through
third order in the contrast parameter, the Torquato-Milton parameter
zeta_1, the third-order contrast-expansion coefficient, and the closed-form
dilute estimate 1 + 2 rho nu and its Pade(1,1) resummation
(1 + rho nu)/(1 - rho nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .esums import _matvec, check_series_order, kernel_stack, step_weight
from .geometry import DiskConfiguration
from .lattice import MAX_KERNEL_ORDER


@dataclass(frozen=True)
class ClusterCoefficients:
    """Series coefficients A_1..A_J for a given contrast value."""

    order: int
    values: tuple  # complex A_1..A_order
    rho: float


@dataclass(frozen=True)
class EffectiveResult:
    """Effective-conductivity estimate with its method tag and diagnostics."""

    lambda11: float
    lambda12: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def lambda_e(self) -> float:
        """Isotropic scalar reading (the 11 component)."""
        return self.lambda11

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "lambda11": self.lambda11,
            "lambda12": self.lambda12,
            "lambda_e": self.lambda_e,
        }
        out.update(self.diagnostics)
        return out


def _from_complex(value: complex, method: str, **diagnostics) -> EffectiveResult:
    # the series produce lambda11 - i*lambda12
    return EffectiveResult(
        lambda11=float(value.real),
        lambda12=float(-value.imag),
        method=method,
        diagnostics=diagnostics,
    )


def check_contrast(rho: float, nu: float | None = None):
    """Raise DomainError unless -1 <= rho <= 1 and, if given, 0 < nu < 1."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"contrast rho = {rho:g} outside [-1, 1]")
    if nu is not None and not 0.0 < nu < 1.0:
        raise DomainError(f"nu = {nu:g} outside (0, 1)")


def cluster_coeffs(config: DiskConfiguration, rho: float, order: int) -> ClusterCoefficients:
    """A_1..A_order of one configuration, by a recursion over degree states.

    A_n sums rho^q times a product of step weights times a structural sum
    over the degree paths 0 = l_0, l_1, ..., l_q = 0 of W with
    q + sum l_i = n.  Summing the paths before the chain is applied leaves
    one N-vector v[b, l] per state (r^2 grade b, Taylor degree l), from
    v[0, 0] = 1: a step to degree j adds
    rho * step_weight(j, l) * E_{l+j+2} conj(v[b, l]) to v[b+l+1, j], and
    A_n = sum(v[n, 0]) / (N^(n+1) pi^n).  Only steps that can still return
    to degree 0 by grade `order` are taken, so E_2..E_order are read.
    """
    check_series_order(order)
    check_contrast(rho)
    kernels = kernel_stack(config, max(order, 2))
    n_disks = config.n_disks
    states = {(0, 0): np.ones(n_disks, dtype=complex)}
    values = []
    for b in range(order + 1):
        if b:
            values.append(complex(np.sum(states[b, 0]) / n_disks ** (b + 1)) / math.pi ** b)
        for l in range(order - b):
            vec = states.pop((b, l), None)  # grade 0 holds (0, 0) alone
            if vec is None:
                continue
            conj = np.conj(vec)
            grade = b + l + 1
            # a step to degree j > 0 needs another of grade j + 1 to return
            for j in range(max(order - grade, 1)):
                step = rho * step_weight(j, l) * _matvec(kernels[l + j], conj)
                states[grade, j] = states.get((grade, j), 0.0) + step
    return ClusterCoefficients(order=order, values=tuple(values), rho=float(rho))


def lambda_cluster(nu: float, coeffs: ClusterCoefficients) -> EffectiveResult:
    """Concentration series: 1 + 2*rho*nu*(1 + A_1 nu + ... + A_J nu^J).

    rho is coeffs.rho, the contrast the coefficients were computed at.
    """
    rho = coeffs.rho
    check_contrast(rho, nu)
    series = 1.0 + 0.0j
    power = 1.0
    for a_n in coeffs.values:
        power *= nu
        series += a_n * power
    value = 1.0 + 2.0 * rho * nu * series
    return _from_complex(value, "cluster", order=coeffs.order)


def check_cutoff(n_max: int):
    """Raise DomainError unless 2 <= n_max <= MAX_KERNEL_ORDER: the e_nn tail
    starts at e_22, and e_nn reads the kernels up to E_n."""
    if not 2 <= n_max <= MAX_KERNEL_ORDER:
        raise DomainError(f"e_nn cutoff n_max must be >= 2 and <= {MAX_KERNEL_ORDER} "
                          f"(the highest kernel order), got {n_max}")


def contrast_tail(nu: float, e_nn_table: dict, n_max: int):
    """Diagonal-sum tail sum_n (-1)^n (n-1) e_nn nu^(n-2)/pi^n and its
    last retained term."""
    check_cutoff(n_max)
    tail = 0.0 + 0.0j
    last_term = 0.0 + 0.0j
    for n in range(2, n_max + 1):
        if n not in e_nn_table:
            raise DomainError(f"e_{n}{n} required for the contrast tail is missing")
        last_term = (
            ((-1) ** n) * (n - 1) * complex(e_nn_table[n]) * nu ** (n - 2) / math.pi ** n
        )
        tail += last_term
    return tail, last_term


def lambda_contrast(
    nu: float,
    e_nn_table: dict,
    rho: float,
    n_max: int = 12,
    *,
    e2: complex,
) -> EffectiveResult:
    """Contrast series through third order in rho.

    1 + 2 rho nu + 2 rho^2 nu^2 (e_2/pi) + 2 rho^3 nu^3 * tail(nu), the tail
    built from the diagonal sums e_nn in e_nn_table and truncated at n_max
    with the last retained term reported.  The first-order sum e_2 of the
    configuration is required (its ensemble mean is pi on cells with a
    rotation of order 3, 4 or 6).
    """
    check_contrast(rho, nu)
    tail, last_term = contrast_tail(nu, e_nn_table, n_max)
    value = (
        1.0
        + 2.0 * rho * nu
        + 2.0 * rho ** 2 * nu ** 2 * (complex(e2) / math.pi)
        + 2.0 * rho ** 3 * nu ** 3 * tail
    )
    return _from_complex(
        value,
        "contrast",
        n_max=n_max,
        last_tail_term=abs(2.0 * rho ** 3 * nu ** 3 * last_term),
    )


def zeta1(nu: float, ehat_nn_table: dict, n_max: int = 12) -> float:
    """Torquato-Milton parameter from isotropic ensemble averages.

    It describes the inclusion phase, the disks of area fraction nu
    (Torquato's zeta_2 with the disks as phase 2).  Taken so, the
    Milton-Torquato three-point bounds held all 12 solver means of 60-trial
    N = 64 ensembles at nu = 0.1, 0.3, 0.45 and rho = +-0.5, +-0.9; with the
    phases swapped they held none.

    zeta_1 = nu^2/(1-nu) * [sum_n (-1)^n (n-1) ehat_nn nu^(n-2)/pi^n - 1];
    the imaginary part of the bracket is statistical noise and is dropped
    after an internal sanity bound.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu = {nu:g} outside (0, 1)")
    tail, _ = contrast_tail(nu, ehat_nn_table, n_max)
    bracket = tail - 1.0
    if abs(bracket.imag) > 1e-6 + 0.05 * abs(bracket):
        raise DomainError(
            f"ehat_nn table is not isotropic: Im(bracket) = {bracket.imag:g}"
        )
    return nu ** 2 / (1.0 - nu) * bracket.real


def a13(nu: float, ehat_nn_table: dict, n_max: int = 12) -> float:
    """Third-order contrast-expansion coefficient, nu^3 * (tail - 1).

    Algebraically equal to zeta1 * nu * (1 - nu); implemented through that
    identity.
    """
    return zeta1(nu, ehat_nn_table, n_max) * nu * (1.0 - nu)


def lambda_dilute(nu: float, rho: float) -> EffectiveResult:
    """Leading-order estimate 1 + 2*rho*nu (a disk's dilute coefficient is 2*rho).

    This is the first-order truncation of the concentration series, so it
    differs from the exact value by 2*rho^2*nu^2*Re e2/pi + O(nu^3).
    """
    check_contrast(rho, nu)
    return _from_complex(complex(1.0 + 2.0 * rho * nu), "dilute")


def lambda_pade(nu: float, rho: float) -> EffectiveResult:
    """Pade (1,1) resummation (1 + rho nu)/(1 - rho nu) of the dilute estimate.

    check_contrast keeps |rho nu| < 1, so the pole is out of reach.
    """
    check_contrast(rho, nu)
    x = rho * nu
    return _from_complex(complex((1.0 + x) / (1.0 - x)), "pade")
