"""Slow independent references for the lattice kernels, sums, operator and
concentration series.

The kernel references are plain truncated double sums over lattice
translates in the prescribed iterated order (inner index along omega1, outer
transverse, both symmetric), optionally Richardson-extrapolated in the
truncation limits, or high-precision row sums in closed form through mpmath;
nothing there is shared with the production evaluation path.  The
pole-subtracted kernel E_n(z) - z^(-n) is the Taylor series in the
production lattice sums near z = 0 and the production kernel minus the pole
elsewhere.  The structural-sum and operator references take the production
kernel matrices and check what is built on them: the nested sum term by
term, and the dense interaction matrix block by block.  The series
references are the printed coefficient table through A_6, the closed form
of A_n as one structural sum per degree path of W (2^(n-2) terms for
n >= 2), and the operator iterates W^p(1) split by r^2 grade, with the
exact low-order fields they must reproduce.  The RSA reference is the
placement rule tested one candidate at a time, which the chunked production
loop must reproduce draw for draw, and the minimal-image reference takes
the 9-image stencil argmin of every point, which the production shortcut
must reproduce bit for bit.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np

from effcond.errors import DomainError, GenerationError
from effcond.esums import check_index, check_series_order, kernel_matrix, step_weight
from effcond.geometry import DiskConfiguration, EnsembleDescriptor
from effcond.lattice import eisenstein, lattice_sum
from effcond.series import ClusterCoefficients
from effcond.solver import DEFAULT_DEGREE, TaylorField, w_image


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


def regularized_taylor_coeff(cell, n: int, j: int) -> complex:
    """j-th Taylor coefficient of E_n-minus-pole at 0: (-1)^j C(n+j-1, j) S_{n+j}."""
    return ((-1) ** j) * math.comb(n + j - 1, j) * lattice_sum(cell, n + j)


def eisenstein_regularized(cell, n: int, z):
    """E_n(z) - z^(-n), analytic at z = 0 with value S_n.

    z is taken modulo the lattice (the pole subtracted is the one nearest
    to z).  Near the origin the Taylor series in lattice sums is used;
    elsewhere the direct difference is accurate.
    """
    if n < 2:
        raise DomainError(f"regularized kernel order must be >= 2, got {n}")
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zn = cell.min_image(z)  # z relative to its nearest lattice point

    out = np.empty(zn.shape, dtype=complex)
    # inside the series region the Taylor expansion in lattice sums is both
    # fast and free of the pole-subtraction cancellation of the direct path
    near = np.abs(zn) <= 0.35 * cell.shortest_shift
    if np.any(near):
        zs = zn[near]
        acc = np.zeros(zs.shape, dtype=complex)
        power = np.ones(zs.shape, dtype=complex)
        for j in range(0, 141):
            term = regularized_taylor_coeff(cell, n, j) * power
            acc += term
            power *= zs
            if j > 4 and np.all(np.abs(term) <= 1e-18 * (1.0 + np.abs(acc))):
                break
        out[near] = acc
    far = ~near
    if np.any(far):
        out[far] = eisenstein(cell, n, z[far]) - zn[far] ** (-n)
    return complex(out[0]) if scalar else out


def lattice_sum_mpmath(cell, n, dps=20):
    """S_n, n even >= 2, to about dps digits with mpmath.

    The m2 = 0 row minus its pole is 2*zeta(n); each row m2 != 0 is the
    Hurwitz-zeta row sum of eisenstein_mpmath at z = 0, and for even n the
    rows m2 and -m2 are equal, since (-w + m)^(-n) = (w - m)^(-n).
    """
    with mpmath.workdps(dps):
        omega1, omega2 = mpmath.mpf(cell.omega1), mpmath.mpc(cell.omega2)
        im_tau = float((omega2 / omega1).imag)
        rows = math.ceil(dps * math.log(10) / (2 * math.pi * im_tau)) + 3
        total = 2 * mpmath.zeta(n)
        for m2 in range(1, rows + 1):
            w = m2 * omega2 / omega1
            total += 2 * (mpmath.zeta(n, w) + mpmath.zeta(n, 1 - w))
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


def esum_reference(config, index):
    """Direct (q+1)-fold nested evaluation of e_{m1...mq}; O(N^(q+1))."""
    entries = check_index(index)
    n_disks = config.n_disks
    mats = [kernel_matrix(config, m) for m in entries]
    total = 0.0 + 0.0j
    for ks in np.ndindex(*([n_disks] * (len(entries) + 1))):
        term = 1.0 + 0.0j
        for j, mat in enumerate(mats, start=1):
            val = mat[ks[j - 1], ks[j]]
            term *= np.conj(val) if j % 2 == 0 else val
        total += term
    return complex(total / n_disks ** (1.0 + 0.5 * sum(entries)))


def dense_operator(config, degree):
    """Dense matrix of W, tail row included, built block by block.

    Row k*(L+2) + j, column m*(L+1) + l holds
    (-1)^j C(l+j+1, j) r^(2l+2) E_{l+j+2}(a_k - a_m) for j <= L+1, so that
    (op @ conj(c).ravel()).reshape(N, L+2) is W(c) with the dropped
    degree-(L+1) coefficients as the last column.
    """
    n_disks, lp1 = config.n_disks, degree + 1
    op = np.empty((n_disks, lp1 + 1, n_disks, lp1), dtype=complex)
    for j in range(lp1 + 1):
        for l in range(lp1):
            op[:, j, :, l] = (
                (-1) ** j * math.comb(l + j + 1, j) * config.radius ** (2 * l + 2)
                * kernel_matrix(config, l + j + 2)
            )
    return op.reshape(n_disks * (lp1 + 1), n_disks * lp1)


#: The printed closed-form coefficients through n = 6:
#: A_n = pi^(-n) * sum of (prefactor * rho^power * e_index) per order n.
COEFFICIENT_TABLE = {
    1: [(1, 1, (2,))],
    2: [(1, 2, (2, 2))],
    3: [(-2, 2, (3, 3)), (1, 3, (2, 2, 2))],
    4: [
        (3, 2, (4, 4)),
        (-2, 3, (3, 3, 2)),
        (-2, 3, (2, 3, 3)),
        (1, 4, (2, 2, 2, 2)),
    ],
    5: [
        (-4, 2, (5, 5)),
        (3, 3, (4, 4, 2)),
        (6, 3, (3, 4, 3)),
        (3, 3, (2, 4, 4)),
        (-2, 4, (3, 3, 2, 2)),
        (-2, 4, (2, 3, 3, 2)),
        (-2, 4, (2, 2, 3, 3)),
        (1, 5, (2, 2, 2, 2, 2)),
    ],
    6: [
        (5, 2, (6, 6)),
        (-4, 3, (2, 5, 5)),
        (-12, 3, (3, 5, 4)),
        (-12, 3, (4, 5, 3)),
        (-4, 3, (5, 5, 2)),
        (3, 4, (2, 2, 4, 4)),
        (6, 4, (2, 3, 4, 3)),
        (4, 4, (3, 3, 3, 3)),
        (3, 4, (2, 4, 4, 2)),
        (6, 4, (3, 4, 3, 2)),
        (3, 4, (4, 4, 2, 2)),
        (-2, 5, (2, 2, 2, 3, 3)),
        (-2, 5, (2, 2, 3, 3, 2)),
        (-2, 5, (2, 3, 3, 2, 2)),
        (-2, 5, (3, 3, 2, 2, 2)),
        (1, 6, (2, 2, 2, 2, 2, 2)),
    ],
}


def _degree_paths(budget: int, path: tuple):
    """Completions of a degree path of W; each step to degree l costs 1 + l."""
    if budget == 1:
        yield path + (0,)
    for l in range(budget - 1):
        yield from _degree_paths(budget - 1 - l, path + (l,))


@lru_cache(maxsize=None)
def series_terms(n: int) -> tuple:
    """Terms (prefactor, rho_power, entries) of pi^n A_n, by ascending rho power.

    One term per degree path 0 = l_0, l_1, ..., l_q = 0 of W with
    q + sum l_i = n: entries m_i = l_{i-1} + l_i + 2, rho power q and
    prefactor prod_i step_weight(l_i, l_{i-1}).  Since sum m_i = 2n and
    the path follows from m, no multi-index appears twice in any order.
    """
    check_series_order(n)
    terms = []
    for path in sorted(_degree_paths(n, (0,)), key=len):
        steps = list(zip(path, path[1:]))
        prefactor = math.prod(step_weight(j, l) for l, j in steps)
        terms.append((prefactor, len(steps), tuple(l + j + 2 for l, j in steps)))
    return tuple(terms)


@lru_cache(maxsize=None)
def required_indices(max_order: int) -> tuple:
    """Multi-indices needed by the series coefficients A_1..A_J, each once."""
    check_series_order(max_order)
    return tuple(entries for n in range(1, max_order + 1)
                 for _, _, entries in series_terms(n))


def cluster_coeffs_table(esum_values: dict, rho: float, order: int) -> ClusterCoefficients:
    """A_1..A_order from a map of structural sums, one per term of series_terms.

    A_n = pi^(-n) * sum of prefactor * rho^power * e_entries.  Raises
    DomainError naming the first missing index.
    """
    check_series_order(order)
    lookup = {check_index(idx): complex(v) for idx, v in esum_values.items()}
    values = []
    for n in range(1, order + 1):
        acc = 0.0 + 0.0j
        for prefactor, rho_power, entries in series_terms(n):
            if entries not in lookup:
                label = "-".join(str(m) for m in entries)
                raise DomainError(f"structural sum e_{label} required for A_{n} is missing")
            acc += prefactor * (rho ** rho_power) * lookup[entries]
        values.append(acc / math.pi ** n)
    return ClusterCoefficients(order=order, values=tuple(values), rho=float(rho))


def _field_from_sources(
    config: DiskConfiguration, weights: np.ndarray, base_order: int, degree: int
) -> np.ndarray:
    """Expand sum_k X_k E_n(z - a_k) around every center to the given degree."""
    coeffs = np.empty((config.n_disks, degree + 1), dtype=complex)
    for j in range(degree + 1):
        kern = kernel_matrix(config, base_order + j)
        coeffs[:, j] = ((-1) ** j) * math.comb(base_order + j - 1, j) * (kern @ weights)
    return coeffs


def cluster_parts(config: DiskConfiguration, degree: int) -> dict:
    """Low-order interaction blocks keyed by (contrast power, r^2 grade).

    Grade-n blocks carry their r^(2n) weight.  The exact low-order fields
    are psi0 = 1, psi1 = rho*B[1,1]/r^2, psi2 = rho^2*B[2,2]/r^4 and
    psi3 = (rho^3*B[3,3] + rho^2*B[2,3])/r^6.
    """
    n_disks = config.n_disks
    r2 = config.radius ** 2
    m2 = kernel_matrix(config, 2)
    m3 = kernel_matrix(config, 3)
    ones = np.ones(n_disks, dtype=complex)
    parts = {(0, 0): np.tile(np.eye(1, degree + 1, dtype=complex), (n_disks, 1))}  # psi = 1
    parts[(1, 1)] = r2 * _field_from_sources(config, ones, 2, degree)
    x2 = np.conj(m2) @ ones  # X_k = sum_k1 conj(E2(a_k - a_k1))
    parts[(2, 2)] = r2 ** 2 * _field_from_sources(config, x2, 2, degree)
    # chain: X_k2 = sum_{k,k1} E2(a_k - a_k1) conj(E2(a_k1 - a_k2))
    col = m2.sum(axis=0)
    x3 = col @ np.conj(m2)
    parts[(3, 3)] = r2 ** 3 * _field_from_sources(config, x3, 2, degree)
    x3b = np.conj(m3) @ ones
    parts[(2, 3)] = -2.0 * r2 ** 3 * _field_from_sources(config, x3b, 3, degree)
    return parts


def cluster_terms_exact(
    config: DiskConfiguration, rho: float, upto: int = 3, degree: int | None = None
) -> list:
    """Exact low-order fields psi^(0)..psi^(upto) of the r^2 grading.

    Only the printed low orders are available; upto > 3 is a domain error.
    The fields are the r-free factors (psi = sum_n psi^(n) r^(2n)).
    """
    if not 0 <= upto <= 3:
        raise DomainError(f"exact fields available for orders 0..3, got {upto}")
    degree = DEFAULT_DEGREE if degree is None else degree
    parts = cluster_parts(config, degree)
    r2 = config.radius ** 2
    fields = [parts[(0, 0)]]
    if upto >= 1:
        fields.append(rho * parts[(1, 1)] / r2)
    if upto >= 2:
        fields.append(rho ** 2 * parts[(2, 2)] / r2 ** 2)
    if upto >= 3:
        fields.append((rho ** 3 * parts[(3, 3)] + rho ** 2 * parts[(2, 3)]) / r2 ** 3)
    return [TaylorField(config=config, coeffs=c) for c in fields[: upto + 1]]


def contrast_cluster_grades(
    config: DiskConfiguration, p_max: int, grade_max: int, degree: int
) -> dict:
    """Solver iterates W^p(1) split by r^2 grade.

    Returns {(p, grade): coeff array} for p <= p_max, grade <= grade_max;
    each W application to a degree-l slice raises the grade by l + 1.  The
    grade-resolved blocks match cluster_parts exactly.
    """
    state = {0: np.tile(np.eye(1, degree + 1, dtype=complex), (config.n_disks, 1))}  # psi = 1
    out = {(0, 0): state[0]}
    for p in range(1, p_max + 1):
        nxt: dict[int, np.ndarray] = {}
        for grade, coeffs in state.items():
            for l in range(degree + 1):
                g_new = grade + l + 1
                if g_new > grade_max or not np.any(coeffs[:, l]):
                    continue
                sliced = np.zeros_like(coeffs)
                sliced[:, l] = coeffs[:, l]
                img = w_image(config, sliced)
                nxt[g_new] = nxt[g_new] + img if g_new in nxt else img
        state = nxt
        for grade, coeffs in state.items():
            out[(p, grade)] = coeffs
    return out



def rsa_one_at_a_time(desc: EnsembleDescriptor, seed: int) -> DiskConfiguration:
    """RSA tested one candidate at a time against every accepted center.

    Candidates come from the same rng.random((1024, 2)) blocks as
    geometry.rsa_generate; meta holds candidates_drawn only.
    """
    cell = desc.cell()
    r = desc.radius
    min_dist = desc.exclusion_factor * 2.0 * r
    rng = np.random.default_rng(seed)
    accepted = np.empty(desc.n, dtype=complex)
    placed = 0
    drawn = 0
    block = np.empty((0, 2))
    cursor = 0
    shifts = cell.stencil
    inv_im = 1.0 / cell.omega2.imag
    re2, w1 = cell.omega2.real, cell.omega1
    while placed < desc.n:
        if cursor >= len(block):
            block = rng.random((1024, 2))
            cursor = 0
        u1, u2 = block[cursor]
        cursor += 1
        drawn += 1
        if drawn > desc.attempt_budget:
            raise GenerationError(
                f"placed {placed}/{desc.n} disks within "
                f"{desc.attempt_budget} candidate draws",
                placed=placed,
            )
        z = (u1 - 0.5) * cell.omega1 + (u2 - 0.5) * cell.omega2
        if placed:
            d = accepted[:placed] - z
            beta = d.imag * inv_im
            alpha = (d.real - beta * re2) / w1
            d = d - np.floor(alpha + 0.5) * w1 - np.floor(beta + 0.5) * cell.omega2
            if np.abs(d[:, None] + shifts).min() < min_dist:
                continue
        accepted[placed] = z
        placed += 1
    return DiskConfiguration(
        cell=cell, centers=accepted, radius=r, meta={"candidates_drawn": drawn}
    )


def min_image_stencil(cell, z) -> np.ndarray:
    """Cell.min_image with the 9-image argmin taken for every point."""
    zr, _, _ = cell.reduce(z)
    cand = zr[..., None] + cell.stencil
    idx = np.abs(cand).argmin(axis=-1)
    return np.take_along_axis(cand, idx[..., None], axis=-1)[..., 0]
