"""Disk configurations in the periodic cell.

Random sequential addition (RSA) realizes the uniform non-overlapping
ensemble: candidates are drawn uniformly in the cell and accepted iff their
periodic distance to every accepted center is at least one diameter.  The
candidates are tested a chunk at a time, each against the centers in the
bins around its own, with the same result as testing them one by one in
draw order against every center.  Generation is a pure function of the seed;
per-trial seeds for ensembles derive from a master seed through splitmix64
(trial i uses master XOR splitmix64(i)), so trials may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GenerationError
from .lattice import Cell, make_cell

#: RSA concentrations above this guard are rejected up front (hard-disk RSA
#: jams near 0.547; acceptance probability collapses well before that).
NU_GUARD = 0.5

#: Candidate-draw budget for one configuration.
DEFAULT_ATTEMPT_BUDGET = 10 ** 6

#: RSA draws candidates in blocks of _BLOCK and tests them _CHUNK at a time.
_BLOCK = 1024
_CHUNK = 64

_OVERLAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiskConfiguration:
    """N equal disks of radius r centered at `centers` inside `cell`.

    Centers are stored read-only, reduced to the fundamental parallelogram.
    The minimal-image separations a_j - a_k of the pairs j < k, in
    np.triu_indices(N, 1) order, are computed once on construction and kept
    read-only; the overlap check and the kernel build both read them.  The
    Eisenstein kernels E_2..E_n attach lazily as one read-only (n-1, N, N)
    array, which esums.kernel_matrix owns and grows.
    """

    cell: Cell
    centers: np.ndarray
    radius: float
    meta: dict = field(default_factory=dict, repr=False)
    separations: np.ndarray = field(init=False, repr=False)
    _kernels: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        centers = np.atleast_1d(self.centers)
        if not np.isfinite(centers).all():
            raise DomainError("disk centers must be finite")
        centers = self.cell.reduce(centers)[0]
        j, k = np.triu_indices(len(centers), 1)
        separations = self.cell.min_image(centers[j] - centers[k])
        centers.setflags(write=False)
        separations.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "separations", separations)
        self.validate()

    @property
    def n_disks(self) -> int:
        return len(self.centers)

    @property
    def nu(self) -> float:
        return self.n_disks * math.pi * self.radius ** 2

    def validate(self):
        if self.radius <= 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if not 0.0 < self.nu < 1.0:
            raise DomainError(f"concentration nu = {self.nu:g} outside (0, 1)")
        if self.n_disks > 1:
            dmin = float(np.abs(self.separations).min())
            if dmin < 2.0 * self.radius - _OVERLAP_TOL:
                raise DomainError(
                    f"overlapping disks: min periodic distance {dmin:.17g} "
                    f"< diameter {2 * self.radius:.17g}"
                )


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
        if self.n < 1:
            raise DomainError(f"need at least one disk, got n = {self.n}")
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials}")
        if not 0.0 < self.nu <= NU_GUARD:
            raise DomainError(
                f"nu = {self.nu:g} outside (0, {NU_GUARD}] RSA guard"
            )
        if not self.exclusion_factor >= 1.0:
            raise DomainError("exclusion_factor must be >= 1")
        if self.attempt_budget < 1:
            raise DomainError(
                f"attempt_budget must be >= 1, got {self.attempt_budget}"
            )

    def cell(self) -> Cell:
        return make_cell(self.cell_omega1, self.cell_omega2)

    @property
    def radius(self) -> float:
        return math.sqrt(self.nu / (self.n * math.pi))


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
    in chunks of _CHUNK: one array pass against the centers placed before
    the chunk in the 3 x 3 bins around each candidate (a cell list, Allen &
    Tildesley 1987), then the survivors in draw order against those
    accepted within it, read from one array of their mutual distances.  A
    pair takes the 9-shift stencil only when its shift-0 image is long
    enough for another image to come closer.  Centers and candidates_drawn
    equal those of testing every candidate on its own against every center.
    Raises GenerationError (carrying the count placed) when the budget runs
    out, DomainError on a negative seed.
    """
    cell = desc.cell()
    r = desc.radius
    min_dist = desc.exclusion_factor * 2.0 * r
    seed = desc.seed if seed is None else seed
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    accepted = np.empty(desc.n, dtype=complex)
    placed = 0
    drawn = 0
    block = np.empty(0, dtype=complex)
    cursor = 0
    shifts = cell.stencil
    w1, w2 = cell.omega1, cell.omega2

    # a shifted image of the folded d is at least |s| - |d| long, so only a
    # pair with |d| beyond reach can overlap in an image other than d itself
    reach = cell.shortest_shift - min_dist - 1e-9

    def overlaps(d):
        """Whether some lattice image of the difference d is shorter than min_dist."""
        d = cell.fold(d)
        dist = np.abs(d)
        hit = dist < min_dist
        far = np.nonzero(dist > reach)
        hit[far] = (np.abs(d[far][:, None] + shifts) < min_dist).any(axis=1)
        return hit

    # cell list: the placed centers sit in m1 x m2 bins of lattice
    # coordinates, each at least min_dist wide at right angles to its sides
    # (and at most about 4n bins), so a candidate is farther than min_dist,
    # in every image, from any center outside the 3 x 3 bins around its own.
    # A side of fewer than 3 bins is one bin.  Each bin's row of the table
    # holds its centers, NaN in the empty slots (a NaN distance overlaps
    # nothing), and grows by a column when a bin fills.
    width = max(min_dist * (1.0 + 1e-6), 0.5 / math.sqrt(desc.n))
    m1, m2 = (m if m >= 3 else 1 for m in (int(1.0 / (abs(w2) * width)), int(w2.imag / width)))
    b1, b2 = np.divmod(np.arange(m1 * m2), m2)
    o1, o2 = (np.arange(-1, 2) if m > 1 else np.zeros(1, dtype=int) for m in (m1, m2))
    around = ((b1[:, None, None] + o1[:, None]) % m1 * m2
              + (b2[:, None, None] + o2) % m2).reshape(m1 * m2, -1)
    empty = complex(math.nan, math.nan)
    table = np.full((m1 * m2, 1), empty)
    counts = np.zeros(m1 * m2, dtype=int)

    while placed < desc.n:
        if cursor >= len(block):
            if drawn >= desc.attempt_budget:
                raise GenerationError(
                    f"placed {placed}/{desc.n} disks within "
                    f"{desc.attempt_budget} candidate draws",
                    placed=placed,
                )
            u = rng.random((_BLOCK, 2))[: desc.attempt_budget - drawn]
            block = (u[:, 0] - 0.5) * w1 + (u[:, 1] - 0.5) * w2
            # each candidate's bin, from its draw
            home = (np.minimum((u[:, 0] * m1).astype(int), m1 - 1) * m2
                    + np.minimum((u[:, 1] * m2).astype(int), m2 - 1))
            cursor = 0
        chunk = block[cursor : cursor + _CHUNK]
        bins = home[cursor : cursor + _CHUNK]
        near = table[around[bins]].reshape(len(chunk), -1)
        cursor += len(chunk)
        survivors = np.flatnonzero(~overlaps(near - chunk[:, None]).any(axis=1))
        # survivors in draw order, each tested against those accepted before
        # it: clear[j, i] is the test of survivor j against survivor i
        z = chunk[survivors]
        clear = ~overlaps(z[None, :] - z[:, None])
        free = np.ones(len(z), dtype=bool)
        taken = len(chunk)
        for i, k in enumerate(survivors.tolist()):
            if not free[i]:
                continue
            accepted[placed] = z[i]
            placed += 1
            b = bins[k]
            if counts[b] == table.shape[1]:
                table = np.hstack((table, np.full((len(table), 1), empty)))
            table[b, counts[b]] = z[i]
            counts[b] += 1
            if placed == desc.n:
                taken = k + 1
                break
            free &= clear[:, i]
        drawn += taken
    meta = {
        "generator": "rsa",
        "seed": int(seed),
        "nu": desc.nu,
        "exclusion_factor": desc.exclusion_factor,
        "candidates_drawn": drawn,
    }
    return DiskConfiguration(cell=cell, centers=accepted, radius=r, meta=meta)


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
        "centers": [[z.real, z.imag] for z in config.centers],
        "meta": dict(config.meta),
    }


def configuration_from_dict(data: dict) -> DiskConfiguration:
    try:
        omega1 = float(data["cell"]["omega1"])
        omega2 = complex(*data["cell"]["omega2"])
        centers = np.array([complex(re, im) for re, im in data["centers"]])
        radius = float(data["radius"])
        meta = dict(data.get("meta", {}))
    except (KeyError, TypeError) as exc:
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
