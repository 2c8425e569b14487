"""Direct solution of the disk-composite functional equations.

The complex flux inside each disk is carried as a truncated Taylor
polynomial around the disk center.  The interaction operator W maps the
monomial c*(z - a_m)^l to conj(c) * r^(2l+2) * E_{l+2}(z - a_m), re-expanded
around each center a_k with coefficient of (z - a_k)^j equal to

    (-1)^j * C(l+j+1, j) * E_{l+j+2}(a_k - a_m),

coincident arguments regularized to lattice sums.  Truncated at Taylor
degree L, W maps degree <= L to degree <= L.  It is applied matrix-free:
one GEMM of the configuration's kernel stack E_2..E_{2L+2} (esums.kernel_stack,
the array the structural sums also read) against conj(psi), then a weighted
gather of the entries with s = j + l.  W(psi) = A*conj(psi) is
antilinear, so for real rho the fixed point psi = 1 + rho*W(psi) solves the
complex-linear system (I - rho^2 A conj(A)) psi = 1 + rho*W(1), which
solve_contrast solves by GMRES (Saad & Schultz 1986).  Given an order p it
instead sums the generalized method of Schwarz, the successive
approximations psi <- 1 + rho*W(psi) from psi = 1, which are exactly the
partial sums of the contrast power series to rho^p.  The effective
conductivity is lambda11 - i*lambda12 = 1 + 2*rho*nu*mean_k psi_k(a_k).
Solves share only the configuration's read-only kernels and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .esums import kernel_stack, step_weight
from .geometry import DiskConfiguration
from .series import EffectiveResult, check_contrast

DEFAULT_DEGREE = 14


@dataclass(frozen=True)
class TaylorField:
    """Per-disk Taylor coefficients c[k, l] of the flux around each center."""

    config: DiskConfiguration
    coeffs: np.ndarray  # complex, shape (N, L+1)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1


@dataclass(frozen=True)
class SolveResult:
    field: TaylorField
    lambda11: float
    lambda12: float
    iterations: int
    residual: float
    residual_history: list
    converged: bool

    def effective(self) -> EffectiveResult:
        return EffectiveResult(
            lambda11=self.lambda11,
            lambda12=self.lambda12,
            method="solver",
            diagnostics={
                "iterations": self.iterations,
                "residual": self.residual,
            },
        )


@lru_cache(maxsize=8)
def _gather(degree: int, radius: float):
    """Weights step_weight(j, l) r^(2l+2) for j, l <= L and the index s = j + l.

    A solve applies W some 50 times on one radius, so the table is built
    once per (L, r).
    """
    lp1 = degree + 1
    steps = np.array(
        [[step_weight(j, l) for l in range(lp1)] for j in range(lp1)], dtype=float
    )
    weights = steps * np.array([radius ** (2 * l + 2) for l in range(lp1)])
    index = np.add.outer(np.arange(lp1), np.arange(lp1))
    weights.setflags(write=False)
    index.setflags(write=False)
    return weights, index


def kernel_top(degree: int) -> int:
    """Highest kernel order W reads at Taylor degree L: E_{2L+2}."""
    return 2 * degree + 2


def w_image(config: DiskConfiguration, coeffs: np.ndarray) -> np.ndarray:
    """W(coeffs), truncated at the degree L of coeffs: an (N, L+1) array.

    One GEMM of the kernel stack E_2..E_{2L+2}, viewed as ((2L+1)N, N), gives
    g[s, k, l] = sum_m E_{s+2}(a_k - a_m) conj(c[m, l]); the degree-j
    coefficient at disk k is sum_l step_weight(j, l) r^(2l+2) g[j+l, k, l].
    """
    n_disks, lp1 = coeffs.shape
    weights, index = _gather(lp1 - 1, config.radius)
    kernels = kernel_stack(config, kernel_top(lp1 - 1)).reshape(-1, n_disks)
    g = (kernels @ np.conj(coeffs)).reshape(-1, n_disks, lp1)
    rows = g[index, :, np.arange(lp1)]  # (L+1, L+1, N)
    return np.einsum("jl,jlk->kj", weights, rows)


def _lambda_pair(config: DiskConfiguration, rho: float, coeffs: np.ndarray):
    value = 1.0 + 2.0 * rho * config.nu * complex(np.mean(coeffs[:, 0]))
    return float(value.real), float(-value.imag)


def _scaled_max(delta: np.ndarray, radius: float) -> float:
    """max_l |delta_l| r^l over all disks: the monomial size on the boundary.

    Near-contact configurations have raw high-degree coefficients far above
    the fp floor of an absolute norm.
    """
    return float((np.abs(delta) * radius ** np.arange(delta.shape[1])).max())


def _krylov(config: DiskConfiguration, rho: float, ones, tolerance, max_iterations):
    """GMRES on (I - rho^2 W W) psi = 1 + rho W(1) in x_l = psi_l r^l.

    Unrestarted Arnoldi with modified Gram-Schmidt; the basis and the
    Givens-reduced Hessenberg grow one step at a time.  Once the Krylov
    residual estimate reaches the tolerance (at a breakdown h[k+1, k] = 0 it
    is zero: the candidate is exact), the candidate is accepted only if its
    true fixed-point residual does.  Returns psi, that residual and the
    estimates, one per iteration.
    """
    scale = config.radius ** np.arange(ones.shape[1])

    def psi_of(x):
        return x.reshape(ones.shape) / scale

    b = ((ones + rho * w_image(config, ones)) * scale).ravel()
    basis = [b / np.linalg.norm(b)]
    hess = np.zeros((0, 0), dtype=complex)  # upper triangular after rotations
    rotations: list[np.ndarray] = []
    g = np.array([np.linalg.norm(b)], dtype=complex)  # rotated beta*e1
    history: list[float] = []
    while len(history) < max_iterations:
        psi = psi_of(basis[-1])
        w = ((psi - rho * rho * w_image(config, w_image(config, psi))) * scale).ravel()
        col = np.empty(len(basis) + 1, dtype=complex)
        for i, v in enumerate(basis):
            col[i] = np.vdot(v, w)
            w -= col[i] * v
        col[-1] = h_next = np.linalg.norm(w)
        for i, rot in enumerate(rotations):
            col[i : i + 2] = rot @ col[i : i + 2]
        a = col[-2]
        phase = a / abs(a) if a else 1.0
        c, s = abs(a), phase * h_next  # zeroes h_next below the diagonal
        rotations.append(np.array([[c, s], [-np.conj(s), c]]) / math.hypot(c, h_next))
        col[-2:] = rotations[-1] @ col[-2:]
        hess = np.pad(hess, ((0, 1), (0, 1)))
        hess[:, -1] = col[:-1]
        g = np.append(g, 0.0)
        g[-2:] = rotations[-1] @ g[-2:]
        history.append(float(abs(g[-1])))
        if history[-1] <= tolerance:
            psi = psi_of(np.linalg.solve(hess, g[:-1]) @ np.array(basis))
            residual = _scaled_max(psi - ones - rho * w_image(config, psi), config.radius)
            if residual <= tolerance:
                return psi, residual, history
        if h_next == 0.0:
            break
        basis.append(w / h_next)
    raise ConvergenceError(
        f"no convergence to {tolerance:g} within {len(history)} Krylov "
        f"iterations (last residual estimate {history[-1] if history else math.inf:g})",
        residual_history=history,
    )


def solve_contrast(
    config: DiskConfiguration,
    rho: float,
    *,
    degree: int | None = None,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
    order: int | None = None,
) -> SolveResult:
    """Solve psi = 1 + rho*W(psi) for the flux truncated at Taylor degree L.

    order=None runs GMRES until the fixed-point residual
    max_l |psi - 1 - rho*W(psi)| r^l is at most the tolerance, and raises
    ConvergenceError (with the residual estimates) after max_iterations
    Krylov iterations; RSA at nu = 0.5, rho = +-1 needs <= 29.  order=p sums
    the successive approximations exactly to rho^p.  L defaults to 2p + 2
    with an order and to DEFAULT_DEGREE without one.
    """
    check_contrast(rho)
    if order is not None and order < 0:
        raise DomainError(f"contrast order must be >= 0, got {order}")
    if order is None and not tolerance > 0.0:
        raise DomainError("tolerance must be positive")
    if degree is None:
        degree = DEFAULT_DEGREE if order is None else 2 * order + 2
    elif degree < 0:
        raise DomainError("Taylor degree must be >= 0")
    # unit external flux: the additive normalization constant of the field
    # problem is exactly one
    ones = np.zeros((config.n_disks, degree + 1), dtype=complex)
    ones[:, 0] = 1.0
    if order is None:
        psi, residual, history = _krylov(config, rho, ones, tolerance, max_iterations)
    else:
        psi, step, history = ones, ones, []
        for _ in range(order):
            # rho^p W^p(1): W is antilinear, rho real
            step = rho * w_image(config, step)
            psi = psi + step
            history.append(_scaled_max(step, config.radius))
        residual = history[-1] if history else 0.0

    lam11, lam12 = _lambda_pair(config, rho, psi)
    return SolveResult(
        field=TaylorField(config=config, coeffs=psi),
        lambda11=lam11,
        lambda12=lam12,
        iterations=len(history),
        residual=residual,
        residual_history=history,
        converged=True,
    )
