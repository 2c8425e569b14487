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
W(psi) = A*conj(psi) is antilinear.  In y_l = psi_l r^l / sqrt(l+1) the
matrix A becomes B, complex symmetric: step_weight(j, l)/(j+1) is
(-1)^j (l+j+1)!/((j+1)!(l+1)!) and E_n(-z) = (-1)^n E_n(z).  So W is
symmetric in the inner product sum conj(u_l) v_l r^(2l)/(l+1), and
psi - rho*W(psi) is positive definite in its real part while
|rho| ||B||_2 < 1 (the paper's convergence of the method of Schwarz).  The
effective conductivity lambda11 - i*lambda12 = 1 + 2*rho*nu*mean_k psi_k(a_k)
is a quadrature of that operator's inverse, evaluated on a Lanczos
recurrence.  Solves share only the configuration's read-only kernels and
may run concurrently.
"""

from __future__ import annotations

import math
import numbers
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

    A solve applies W some 25 times on one radius, so the table is built
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


def _norm2(t: np.ndarray) -> float:
    """||T||_2 from the Hermitian T conj(T): ten trace-normalized squarings
    leave its top eigenprojector to within (sigma_2/sigma_1)^2048, and one
    Rayleigh quotient reads sigma_1^2 (an SVD would map 1 MB of LAPACK)."""
    g = h = t @ np.conj(t)
    if not g.trace().real:
        return 0.0
    for _ in range(10):
        h = h @ h
        h /= h.trace().real
    v = h[:, h.diagonal().real.argmax()]
    return math.sqrt(np.vdot(v, g @ v).real / np.vdot(v, v).real)


def _krylov(config: DiskConfiguration, rho: float, ones, tolerance, max_iterations):
    """Takagi-Lanczos on y -> B conj(y), y_l = psi_l r^l / sqrt(l+1), from the
    unit field; lambda by Gauss quadrature (Golub & Meurant 2010).

    B is complex symmetric, so three terms orthonormalize B conj(q_j), one W
    apply per step: B conj(Q) = Q T + beta_k q_{k+1} e_k^T, T tridiagonal
    with complex alpha and real beta.  The Galerkin field Q c solves
    c - rho T conj(c) = sqrt(N) e_1, in (Re, Im) pairs K, 2x2-block
    tridiagonal with eigenvalues 1 -+ rho sigma_i(T): positive definite
    while |rho| theta_k < 1, theta_k = ||T||_2 <= ||B||_2, and a block LDL^T
    pivot that is not is refused.  The field i shares Q, as
    W(i psi) = -i W(psi).  With residuals r+- = |rho| beta_k |c_k| and
    A = I - rho B conj(.) symmetric in Re <u, v>, the error of sum_k y_k0 is
    <A^-1 r+, r+> + i <A^-1 r-, r+>, so lambda's is at most
    2|rho| nu / N * r+ hypot(r+, r-) / (1 - |rho| ||B||_2).  The solve stops
    once that, with theta_k for ||B||_2, meets the tolerance.  Returns psi,
    lambda11 - i lambda12, that bound and r+ per step.
    """
    lp1, n = ones.shape[1], config.n_disks
    scale = config.radius ** np.arange(lp1) / np.sqrt(np.arange(1, lp1 + 1))
    gain, flip = 2.0 * abs(rho) * config.nu / n, np.array([[1.0], [-1.0]])
    basis, alphas, betas = [ones / math.sqrt(n)], [], [0.0]  # ones * scale is ones
    pivots, zs = [], [np.eye(2)]  # D_j^-1 and the blocks of L^-1 E_1, K = L D L^T
    total, history = np.zeros((2, 2)), []  # total = E_1^T K^-1 E_1
    for k in range(max_iterations):
        q = basis[-1]
        v = w_image(config, q / scale) * scale
        alphas.append(np.vdot(q, v))
        v -= alphas[-1] * q
        a, b, off = rho * alphas[-1].real, rho * alphas[-1].imag, rho * betas[-1]
        d = np.array([[1.0 - a, -b], [-b, 1.0 + a]])
        if k:
            v -= betas[-1] * basis[-2]
            zs.append(off * flip * last)
            d -= off * off * flip * pivots[-1] * flip.T
        det = d[0, 0] * d[1, 1] - d[0, 1] ** 2
        if not (d[0, 0] > 0.0 and det > 0.0):
            raise ConvergenceError(f"|rho| ||W|| >= 1: the Galerkin system of {k + 1} Lanczos "
                                   "steps is not positive definite", residual_history=history)
        pivots.append(np.array([[d[1, 1], -d[0, 1]], [-d[0, 1], d[0, 0]]]) / det)
        last = pivots[-1] @ zs[-1]  # the last block of K^-1 E_1
        total += zs[-1].T @ last
        betas.append(math.sqrt(np.vdot(v, v).real))
        r = (abs(rho) * betas[-1] * math.sqrt(n) * np.hypot(*last)).tolist()
        history.append(r[0])
        est = gain * r[0] * math.hypot(*r)
        if 0.0 < est <= tolerance:  # at 0 the space is invariant: exact
            t = np.diag(alphas) + np.diag(betas[1:-1], 1) + np.diag(betas[1:-1], -1)
            gap = 1.0 - abs(rho) * _norm2(t)
            est = est / gap if gap > 0.0 else math.inf
        if est <= tolerance:
            u = last[:, 0]
            psi = (u[0] + 1j * u[1]) * q
            for j in range(k - 1, -1, -1):  # block back-substitution for c
                u = pivots[j] @ (zs[j][:, 0] + rho * betas[j + 1] * flip[:, 0] * u)
                psi += (u[0] + 1j * u[1]) * basis[j]
            value = 1.0 + 2.0 * rho * config.nu * complex(total[0, 0], total[1, 0])
            return psi * math.sqrt(n) / scale, value, est, history
        basis.append(v / betas[-1])
    raise ConvergenceError(f"no convergence to {tolerance:g} within {len(history)} Lanczos "
                           f"steps (last residual {history[-1]:g})", residual_history=history)


def solve_contrast(
    config: DiskConfiguration,
    rho: float,
    *,
    degree: int = DEFAULT_DEGREE,
    tolerance: float = 1e-13,
    max_iterations: int = 200,
) -> SolveResult:
    """Solve psi = 1 + rho*W(psi) for the flux truncated at Taylor degree L.

    Lanczos steps, one W apply each, run until the estimated bound on
    |delta(lambda11 - i lambda12)| is at most the tolerance; that bound is
    the result's residual, and its field's fixed-point residual is about the
    bound's square root.  ConvergenceError (with the Galerkin residuals)
    follows max_iterations steps, or a Ritz estimate with |rho| ||W|| >= 1.
    RSA at N = 64, nu = 0.5 needs <= 31 steps at rho = 1 and <= 30 at rho = -1
    (20 trials, master seed 2024).
    """
    check_contrast(rho)
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise DomainError(f"tolerance must be positive and finite, got {tolerance!r}")
    if not (isinstance(degree, numbers.Integral) and degree >= 0):
        raise DomainError(f"Taylor degree must be an integer >= 0, got {degree!r}")
    if not (isinstance(max_iterations, numbers.Integral) and max_iterations >= 1):
        raise DomainError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")
    # unit external flux: the additive normalization constant of the field
    # problem is exactly one
    ones = np.zeros((config.n_disks, degree + 1), dtype=complex)
    ones[:, 0] = 1.0
    psi, value, residual, history = _krylov(config, rho, ones, tolerance, max_iterations)
    return SolveResult(
        field=TaylorField(config=config, coeffs=psi),
        lambda11=value.real,
        lambda12=-value.imag,
        iterations=len(history),
        residual=residual,
        residual_history=history,
        converged=True,
    )
