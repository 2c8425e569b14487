"""Disk configurations in the periodic cell.

Random sequential addition (RSA) realizes the uniform non-overlapping
ensemble: candidates are drawn uniformly in the cell and accepted iff their
periodic distance to every accepted center is at least one diameter.  They
are tested a chunk at a time through a cell list, with the same result as
testing them one by one in draw order against every center; the same cell
list is the overlap check of every configuration.  Generation is a pure
function of the seed; trial i of an ensemble uses master seed XOR
splitmix64(i), so trials may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, GenerationError
from .lattice import Cell, is_integer, make_cell

#: RSA concentrations above this guard are rejected up front (hard-disk RSA
#: jams near 0.547; acceptance probability collapses well before that).
NU_GUARD = 0.5

#: Candidate-draw budget for one configuration.
DEFAULT_ATTEMPT_BUDGET = 10 ** 6

#: RSA draws candidates in blocks of _BLOCK, tested in chunks of at least _CHUNK.
_BLOCK = 1024
_CHUNK = 64

_OVERLAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiskConfiguration:
    """N equal disks of radius r centered at `centers` inside `cell`.

    The cell has unit area.  Centers are stored read-only, reduced to the
    fundamental parallelogram; construction refuses a pair closer than one
    diameter in any periodic image (_CellList.close_pairs).  The Eisenstein
    kernels E_2..E_n attach lazily as one read-only (n-1, N, N) array, which
    esums.kernel_matrix owns and grows.
    """

    cell: Cell
    centers: np.ndarray
    radius: float
    meta: dict = field(default_factory=dict, repr=False)
    _kernels: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        centers = np.atleast_1d(self.centers)
        if not np.isfinite(centers).all():
            raise DomainError("disk centers must be finite")
        centers = self.cell.reduce(centers)[0]
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        self.validate()

    @property
    def n_disks(self) -> int:
        return len(self.centers)

    @property
    def nu(self) -> float:
        return self.n_disks * math.pi * self.radius ** 2

    def validate(self):
        if abs(self.cell.area - 1.0) > 1e-12:
            raise DomainError(f"cell area {self.cell.area:.17g} != 1")
        if self.radius <= 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if not 0.0 < self.nu < 1.0:
            raise DomainError(f"concentration nu = {self.nu:g} outside (0, 1)")
        _refuse_own_image(self.cell, self.radius)
        grid = _cell_list(self.cell, self.n_disks, 2.0 * self.radius)
        alpha, beta = self.cell.coordinates(self.centers)
        j, i, dist = grid.close_pairs(self.centers, grid.home(alpha + 0.5, beta + 0.5))
        dmin = float(dist[i != j].min(initial=math.inf))
        if dmin < 2.0 * self.radius - _OVERLAP_TOL:
            raise DomainError(f"overlapping disks: min periodic distance {dmin:.17g} "
                              f"< diameter {2 * self.radius:.17g}")


@dataclass(frozen=True)
class EnsembleDescriptor:
    """Everything needed to reproduce a Monte Carlo ensemble bit-for-bit."""

    n: int
    nu: float
    trials: int
    seed: int
    cell_omega1: float = 1.0
    cell_omega2: complex = 1j
    exclusion_factor: float = 1.0  # candidate spacing >= factor * 2r
    attempt_budget: int = DEFAULT_ATTEMPT_BUDGET

    def __post_init__(self):
        for name in ("n", "trials", "seed", "attempt_budget"):
            value = getattr(self, name)
            if not is_integer(value):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise DomainError(f"need at least one disk, got n = {self.n}")
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")
        if not 0.0 < self.nu <= NU_GUARD:
            raise DomainError(f"nu = {self.nu:g} outside (0, {NU_GUARD}] RSA guard")
        if not 1.0 <= self.exclusion_factor < math.inf:
            raise DomainError("exclusion_factor must be finite and >= 1")
        if self.attempt_budget < 1:
            raise DomainError(f"attempt_budget must be >= 1, got {self.attempt_budget}")
        _refuse_own_image(self.cell(), self.radius)

    def cell(self) -> Cell:
        return make_cell(self.cell_omega1, self.cell_omega2)

    @property
    def radius(self) -> float:
        return math.sqrt(self.nu / (self.n * math.pi))


def _refuse_own_image(cell: Cell, radius: float):
    if 2.0 * radius > abs(cell._gauss_basis[0]) - _OVERLAP_TOL:
        raise DomainError(f"diameter {2 * radius:.17g} exceeds the cell's shortest "
                          "period: a disk would overlap its own periodic image")


class _CellList:
    """RSA's cell list (Allen & Tildesley 1987): bins of a unit-area cell
    in which every periodic image within `reach` of a point is found, exact
    on every cell shape.

    Points sit in m1 x m2 bins of lattice coordinates (at most about 4n),
    each at least width >= reach wide at right angles to its sides, else one
    bin to that side.  Tiled over the plane, a bin's points moved to each
    tile by tile_shift, they put every image within reach of a point in the
    tiles up to q = ceil(width / bin width) from its own: around[b] lists
    their bins, tile_shift[b] their translations.  _cell_list builds one per
    (cell, n, reach), shared read-only by RSA and the overlap check.
    """

    def __init__(self, cell: Cell, n: int, reach: float):
        self.reach = reach
        width = max(reach * (1.0 + 1e-6), 0.5 / math.sqrt(n))
        w1, w2 = cell.omega1, cell.omega2
        sides = (1.0 / abs(w2), w2.imag)
        (m1, q1), (m2, q2) = ((max(int(s / width), 1), math.ceil(width / s)) for s in sides)
        self.shape = m1, m2
        b1, b2 = np.divmod(np.arange(m1 * m2), m2)
        t1 = b1[:, None, None] + np.arange(-q1, q1 + 1)[:, None]
        t2 = b2[:, None, None] + np.arange(-q2, q2 + 1)
        self.around = (t1 % m1 * m2 + t2 % m2).reshape(m1 * m2, -1)
        self.tile_shift = (t1 // m1 * w1 + t2 // m2 * w2).reshape(m1 * m2, -1)
        for table in (self.around, self.tile_shift):
            table.setflags(write=False)

    def home(self, u1, u2) -> np.ndarray:
        """The bins of the points at lattice coordinates (u1, u2) in [0, 1)^2."""
        m1, m2 = self.shape
        return (np.minimum((u1 * m1).astype(int), m1 - 1) * m2
                + np.minimum((u2 * m2).astype(int), m2 - 1))

    def images(self, table, z, bins) -> np.ndarray:
        """near[j, t, s]: the point in slot s of the t-th bin around bins[j],
        moved to its tile, less z[j].  Each bin's row of the table holds its
        points, NaN in the empty slots (a NaN distance is within no reach)."""
        near = table.take(self.around.take(bins, axis=0), axis=0)
        near += (self.tile_shift.take(bins, axis=0) - z[:, None])[:, :, None]
        return near

    def close_pairs(self, z, bins) -> tuple:
        """(j, i, distance) of every image of z[i] within reach of z[j] in bin
        bins[j], its own at 0 included, from runs of the points sorted by bin."""
        order = bins.argsort(kind="stable")
        counts = np.bincount(bins, minlength=len(self.around))
        around = self.around.take(bins, axis=0).ravel()
        first, count = (counts.cumsum() - counts)[around], counts[around]
        k = np.arange(len(around)).repeat(count)  # (j, t) flat, per pair
        i = order[np.arange(len(k)) + (first - (count.cumsum() - count)).repeat(count)]
        j = k // self.around.shape[1]
        dist = np.abs(z[i] + (self.tile_shift.take(bins, axis=0).ravel()[k] - z[j]))
        close = dist < self.reach
        return j[close], i[close], dist[close]


_cell_list = lru_cache(maxsize=8)(_CellList)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: master XOR splitmix64(trial index)."""
    return (master_seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(trial_index)


def rsa_generate(desc: EnsembleDescriptor, seed: int | None = None) -> DiskConfiguration:
    """One RSA configuration; deterministic function of the seed.

    Draws uniform candidates and accepts each iff its periodic distance to
    all accepted centers is >= exclusion_factor * 2r.  Candidates are tested
    in chunks, sized from the last chunk's survivors for about _CHUNK more:
    one array pass against the centers placed before the chunk in the bins
    around each candidate (_CellList.images), then the survivors in draw
    order against those accepted within the chunk.  Centers and
    candidates_drawn equal those of testing every candidate on its own
    against every center.  Raises GenerationError (carrying the count
    placed) when the budget runs out, DomainError on a seed that is not a
    non-negative integer.
    """
    desc = desc if seed is None else replace(desc, seed=seed)
    if desc.seed < 0:
        raise DomainError(f"seed must be non-negative, got {desc.seed}")
    cell = desc.cell()
    centers, drawn = _rsa_centers(desc, cell, np.random.default_rng(desc.seed))
    meta = {
        "generator": "rsa",
        "seed": int(desc.seed),
        "nu": desc.nu,
        "exclusion_factor": desc.exclusion_factor,
        "candidates_drawn": drawn,
    }
    return DiskConfiguration(cell=cell, centers=centers, radius=desc.radius, meta=meta)


def _rsa_centers(desc: EnsembleDescriptor, cell: Cell, rng) -> tuple:
    """rsa_generate's placement; its arrays die before the configuration is built."""
    min_dist = desc.exclusion_factor * 2.0 * desc.radius
    accepted = np.empty(desc.n, dtype=complex)
    placed = 0
    drawn = 0
    block = np.empty(0, dtype=complex)
    cursor = 0
    length = _CHUNK
    grid = _cell_list(cell, desc.n, min_dist)
    table = np.full((len(grid.around), 1), np.nan, dtype=complex)  # placed centers by bin
    counts = [0] * len(grid.around)

    while placed < desc.n:
        if cursor >= len(block):
            if drawn >= desc.attempt_budget:
                raise GenerationError(
                    f"placed {placed}/{desc.n} disks within "
                    f"{desc.attempt_budget} candidate draws",
                    placed=placed,
                )
            u = rng.random((_BLOCK, 2))[: desc.attempt_budget - drawn]
            block = (u[:, 0] - 0.5) * cell.omega1 + (u[:, 1] - 0.5) * cell.omega2
            home = grid.home(u[:, 0], u[:, 1])  # each candidate's bin, from its draw
            cursor = 0
        chunk = block[cursor : cursor + length]
        bins = home[cursor : cursor + length]
        cursor += len(chunk)
        drawn += len(chunk)
        near = grid.images(table, chunk, bins)
        survivors = np.flatnonzero(~(np.abs(near) < min_dist).any(axis=(1, 2)))
        # next, about _CHUNK survivors (or the disks left) at this yield, in
        # whole _CHUNKs: numpy keeps freed buffers under 1 KB for reuse by size
        wanted = min(_CHUNK, desc.n - placed) * len(chunk) // max(len(survivors), 1)
        length = min(_BLOCK, max(_CHUNK, wanted // _CHUNK * _CHUNK))
        # survivors in draw order, each tested against those accepted before
        # it: reached[i] lists the survivors j with z[i] within reach of z[j]
        z = chunk[survivors]
        reached = [[] for _ in range(len(z))]
        if len(z) > 1:  # near jamming, most chunks leave at most one
            j, i = grid.close_pairs(z, bins[survivors])[:2]
            for a, b in zip(i.tolist(), j.tolist()):
                reached[a].append(b)
        blocked = set()
        keep, slots = [], []
        for i, (k, b) in enumerate(zip(survivors.tolist(), bins[survivors].tolist())):
            if i in blocked:
                continue
            keep.append(i)
            slots.append(counts[b])
            counts[b] += 1
            if placed + len(keep) == desc.n:
                drawn -= len(chunk) - k - 1  # the draws after the last disk
                break
            blocked.update(reached[i])
        grow = max(slots, default=-1) + 1 - table.shape[1]
        if grow > 0:
            table = np.hstack((table, np.full((len(table), grow), np.nan, dtype=complex)))
        table[bins[survivors[keep]], slots] = accepted[placed : placed + len(keep)] = z[keep]
        placed += len(keep)
    return accepted, drawn


def regular_array(cell: Cell, kind: str, n: int, nu: float) -> DiskConfiguration:
    """Benchmark array on a regular sublattice: `square` or `hexagonal`.

    Requires n = m**2 disks on the matching cell shape; for n = 1 the single
    disk sits at the origin.
    """
    if kind not in ("square", "hexagonal"):
        raise DomainError(f"unknown regular array kind {kind!r}")
    m = round(math.sqrt(n))
    if m * m != n or n < 1:
        raise DomainError(f"regular arrays need a perfect-square count, got {n}")
    expected_tau = 1j if kind == "square" else np.exp(1j * math.pi / 3)
    if abs(cell.tau - expected_tau) > 1e-9:
        raise DomainError(
            f"{kind} array needs cell shape omega2/omega1 = {expected_tau:.6g}, "
            f"got {cell.tau:.6g}"
        )
    nu_max = math.pi / 4 if kind == "square" else math.pi / math.sqrt(12)
    if not 0.0 < nu < nu_max:
        raise DomainError(f"nu = {nu:g} outside (0, {nu_max:g}) for {kind} packing")
    # offset sublattice: for m = 1 the disk sits at the origin, for m = 2 at
    # lattice coordinates (+-1/4, +-1/4)
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    frac_i = (i.ravel() + 0.5) / m - 0.5
    frac_j = (j.ravel() + 0.5) / m - 0.5
    centers = frac_i * cell.omega1 + frac_j * cell.omega2
    r = math.sqrt(nu / (n * math.pi))
    meta = {"generator": f"regular-{kind}", "nu": nu}
    return DiskConfiguration(cell=cell, centers=centers, radius=r, meta=meta)


def configuration_to_dict(config: DiskConfiguration) -> dict:
    """JSON-ready dict per the documented configuration schema."""
    return {
        "cell": {
            "omega1": config.cell.omega1,
            "omega2": [config.cell.omega2.real, config.cell.omega2.imag],
        },
        "radius": config.radius,
        "centers": np.stack((config.centers.real, config.centers.imag), 1).tolist(),
        "meta": dict(config.meta),
    }


def configuration_from_dict(data: dict) -> DiskConfiguration:
    try:
        omega1 = float(data["cell"]["omega1"])
        omega2 = complex(*data["cell"]["omega2"])
        centers = np.array([complex(re, im) for re, im in data["centers"]])
        radius = float(data["radius"])
        meta = dict(data.get("meta", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed configuration: {exc!r}") from exc
    if abs(omega1 * omega2.imag - 1.0) > 1e-12:
        raise DomainError(
            f"configuration cell area {omega1 * omega2.imag:.17g} != 1"
        )
    return DiskConfiguration(
        cell=make_cell(omega1, omega2), centers=centers, radius=radius, meta=meta
    )


def save_configuration(config: DiskConfiguration, path):
    from .serialize import dump_json

    with open(path, "w") as fh:
        fh.write(dump_json(configuration_to_dict(config)))


def load_configuration(path) -> DiskConfiguration:
    with open(path) as fh:
        return configuration_from_dict(json.load(fh))
