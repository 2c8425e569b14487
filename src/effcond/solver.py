"""Direct solution of the disk-composite functional equations.

The complex flux inside each disk is carried as a truncated Taylor
polynomial around the disk center.  The interaction operator W maps the
monomial c*(z - a_m)^l to conj(c) * r^(2l+2) * E_{l+2}(z - a_m), re-expanded
around each center a_k with coefficient of (z - a_k)^j equal to

    (-1)^j * C(l+j+1, j) * E_{l+j+2}(a_k - a_m),

coincident arguments regularized to lattice sums.  Truncated at Taylor
degree L, W maps degree <= L to degree <= L.  It is applied matrix-free:
one GEMM of conj(psi) against the configuration's kernel stack E_2..E_{2L+2}
(esums.kernel_stack, the array the structural sums also read), then one
weighted sum over strided windows of the entries with s = j + l.
W(psi) = A*conj(psi) is antilinear, so for real rho the fixed point
psi = 1 + rho*W(psi) solves the complex-linear system
(I - rho^2 A conj(A)) psi = 1 + rho*W(1).  In y_l = psi_l r^l / sqrt(l+1)
the matrix A becomes B, complex symmetric: step_weight(j, l)/(j+1) is
(-1)^j (l+j+1)!/((j+1)!(l+1)!) and E_n(-z) = (-1)^n E_n(z).  So W is
symmetric in the inner product sum conj(u_l) v_l r^(2l)/(l+1), the system
is I - rho^2 B B^H, Hermitian and positive definite while |rho| ||B||_2 < 1
(the paper's convergence of the method of Schwarz), and solve_contrast
solves it by conjugate gradients.  The effective conductivity is
lambda11 - i*lambda12 = 1 + 2*rho*nu*mean_k psi_k(a_k).  Solves share only
the configuration's read-only kernels and may run concurrently.
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
def _weights(degree: int, radius: float) -> np.ndarray:
    """step_weight(j, l) r^(2l+2) at [j, 0, l] for j, l <= L, complex.

    A solve applies W some 50 times on one radius, so the table is built
    once per (L, r).
    """
    lp1 = degree + 1
    weights = np.array([[[step_weight(j, l) * radius ** (2 * l + 2) for l in range(lp1)]]
                        for j in range(lp1)], dtype=complex)
    weights.setflags(write=False)
    return weights


def kernel_top(degree: int) -> int:
    """Highest kernel order W reads at Taylor degree L: E_{2L+2}."""
    return 2 * degree + 2


def w_image(config: DiskConfiguration, coeffs: np.ndarray) -> np.ndarray:
    """W(coeffs), truncated at the degree L of coeffs: an (N, L+1) array.

    One GEMM of conj(c)^T against the kernel stack E_2..E_{2L+2}, viewed as
    ((2L+1)N, N) and transposed, gives g[l, sN + k] = sum_m E_{s+2}(a_k - a_m)
    conj(c[m, l]); the degree-j coefficient at disk k is
    sum_l step_weight(j, l) r^(2l+2) g[l, (j+l)N + k].  Row l is read as one
    window of the orders s = l..l+L, and one batched product sums over l.
    """
    n_disks, lp1 = coeffs.shape
    kernels = kernel_stack(config, kernel_top(lp1 - 1)).reshape(-1, n_disks)
    g = np.conj(coeffs).T @ kernels.T
    # windows[j, l] = g[l, (j+l)N : (j+l+1)N]: window l starts at entry lN of
    # row l, and the last (l = L) ends at L(2L+1)N + LN + (L+1)N, the end of g
    step = n_disks * g.itemsize
    strides = (step, g.strides[0] + step, g.itemsize)
    windows = np.ndarray((lp1, lp1, n_disks), complex, g, 0, strides)
    return (_weights(lp1 - 1, config.radius) @ windows)[:, 0].T


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
    """Conjugate gradients on (I - rho^2 W W) psi = 1 + rho W(1) in
    y_l = psi_l r^l / sqrt(l+1).

    In y, W is y -> B conj(y) with B complex symmetric, so the system matrix
    I - rho^2 B B^H is Hermitian, and positive definite while |rho| ||B||_2 < 1
    (Hestenes & Stiefel 1952).  Once the recurrence residual reaches the
    tolerance (at rr = 0 the iterate is exact), the iterate is accepted only
    if its true fixed-point residual does.  Returns psi, that residual and
    the recurrence residual norms, one per iteration.
    """
    lp1 = ones.shape[1]
    scale = config.radius ** np.arange(lp1) / np.sqrt(np.arange(1, lp1 + 1))

    def apply(y):
        psi = y / scale
        return (psi - rho * rho * w_image(config, w_image(config, psi))) * scale

    r = (ones + rho * w_image(config, ones)) * scale
    y, p = np.zeros_like(r), r.copy()
    rr = np.vdot(r, r).real
    history: list[float] = []
    for _ in range(max_iterations):
        q = apply(p)
        alpha = rr / np.vdot(p, q).real
        y += alpha * p
        r -= alpha * q
        rr, rr_old = np.vdot(r, r).real, rr
        history.append(math.sqrt(rr))
        if history[-1] <= tolerance:
            psi = y / scale
            residual = _scaled_max(psi - ones - rho * w_image(config, psi), config.radius)
            if residual <= tolerance:
                return psi, residual, history
        if rr == 0.0:
            break
        p = r + (rr / rr_old) * p
    raise ConvergenceError(
        f"no convergence to {tolerance:g} within {len(history)} conjugate-gradient "
        f"iterations (last residual {history[-1]:g})",
        residual_history=history,
    )


def solve_contrast(
    config: DiskConfiguration,
    rho: float,
    *,
    degree: int = DEFAULT_DEGREE,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> SolveResult:
    """Solve psi = 1 + rho*W(psi) for the flux truncated at Taylor degree L.

    Conjugate gradients run until the fixed-point residual
    max_l |psi - 1 - rho*W(psi)| r^l is at most the tolerance, and raise
    ConvergenceError (with the recurrence residuals) after max_iterations
    iterations; RSA at N = 64, nu = 0.5 needs <= 28 at rho = 1 and at
    rho = -1 (20 trials, master seed 2024).
    """
    check_contrast(rho)
    if not tolerance > 0.0:
        raise DomainError("tolerance must be positive")
    if degree < 0:
        raise DomainError("Taylor degree must be >= 0")
    if max_iterations < 1:
        raise DomainError(f"max_iterations must be >= 1, got {max_iterations}")
    # unit external flux: the additive normalization constant of the field
    # problem is exactly one
    ones = np.zeros((config.n_disks, degree + 1), dtype=complex)
    ones[:, 0] = 1.0
    psi, residual, history = _krylov(config, rho, ones, tolerance, max_iterations)
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
