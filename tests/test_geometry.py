import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from effcond import (
    DiskConfiguration,
    DomainError,
    EnsembleDescriptor,
    GenerationError,
    load_configuration,
    make_cell,
    regular_array,
    rsa_generate,
    save_configuration,
    trial_seed,
)
from effcond.geometry import _cell_list, configuration_from_dict
from effcond.lattice import Cell

from _oracles import (
    images_within_brute,
    min_image_stencil,
    nearest_distance_brute,
    own_stencil,
    rsa_one_at_a_time,
)


class TestPeriodicReduce:
    def test_inside_unchanged(self, square_cell):
        assert square_cell.reduce(0.3)[0] == 0.3

    def test_real_wrap(self, square_cell):
        assert square_cell.reduce(1.3)[0] == pytest.approx(0.3, abs=1e-15)

    def test_both_directions(self, square_cell):
        got = square_cell.reduce(0.6 + 0.7j)[0]
        assert got == pytest.approx(-0.4 - 0.3j, abs=1e-15)

    def test_idempotent(self, sheared_cell):
        rng = np.random.default_rng(0)
        z = rng.normal(size=20) + 1j * rng.normal(size=20)
        once = sheared_cell.reduce(z)[0]
        twice = sheared_cell.reduce(once)[0]
        assert np.array_equal(once, twice)


def grid_distance(cell, z, reach):
    """The distance from each z, any shape, to its nearest lattice point where
    that is below reach, inf elsewhere, as RSA's cell list finds it: the
    images of one point at 0 around the reduced z, binned for z.size + 1
    centers."""
    grid = _cell_list(cell, np.size(z) + 1, reach)
    zr = np.ravel(cell.reduce(z)[0])
    table = np.full((len(grid.around), 1), np.nan, dtype=complex)
    table[grid.home(np.array(0.5), np.array(0.5))] = 0.0
    alpha, beta = cell.coordinates(zr)
    dist = np.abs(grid.images(table, zr, grid.home(alpha + 0.5, beta + 0.5)))
    dist[~(dist < reach)] = np.inf
    return dist.min(axis=(1, 2), initial=np.inf).reshape(np.shape(z))


def close_pairs(cell, z, reach):
    """close_pairs over points z in the cell, binned as validate bins them."""
    grid = _cell_list(cell, len(z), reach)
    alpha, beta = cell.coordinates(z)
    return grid.close_pairs(z, grid.home(alpha + 0.5, beta + 0.5))


def pair_distances(cell, z, reach):
    """found[j, i]: the least distance close_pairs reports from z[j] to an
    image of z[i], inf where it reports none."""
    j, i, dist = close_pairs(cell, z, reach)
    assert np.all(dist < reach)
    found = np.full((len(z), len(z)), np.inf)
    np.minimum.at(found, (j, i), dist)
    return found


class TestPeriodicDistance:
    """The distance of a pair of points as close_pairs reports it."""

    @staticmethod
    def distance(cell, a, b, reach=1.5):
        return pair_distances(cell, cell.reduce(np.array([a, b]))[0], reach)[1, 0]

    def test_wrap_across_omega2(self, square_cell):
        assert self.distance(square_cell, 0.45j, -0.45j) == pytest.approx(0.1)

    def test_identical_points(self, square_cell):
        assert self.distance(square_cell, 0.1 + 0.1j, 0.1 + 0.1j) == 0.0

    def test_wrap_across_omega1(self, square_cell):
        assert self.distance(square_cell, -0.45, 0.45) == pytest.approx(0.1)

    def test_symmetry(self, sheared_cell):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z1, z2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            d12 = self.distance(sheared_cell, z1, z2)
            d21 = self.distance(sheared_cell, z2, z1)
            assert d12 == pytest.approx(d21, abs=1e-15)

    def test_triangle_inequality(self, square_cell, sheared_cell, hex_cell):
        rng = np.random.default_rng(2)
        for cell in (square_cell, sheared_cell, hex_cell):
            for _ in range(50):
                a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
                dab = self.distance(cell, a, b)
                dbc = self.distance(cell, b, c)
                dac = self.distance(cell, a, c)
                assert dac <= dab + dbc + 1e-12


class TestMinImageAgainstStencil:
    """RSA's cell list finds the nearest image of a point, the length of the
    full 9-image argmin bit for bit, wherever that is below its reach, and
    no image elsewhere.  Over a configuration close_pairs lists every image
    within reach as |z[i] + (P - z[j])|, bit for bit; that length may differ
    from the stencil's, taken from the reduced z[i] - z[j], in the last bits."""

    # 1.5 is beyond the covering radius of every cell here: every nearest image
    REACH = (1.5, 0.3, 0.05)

    @pytest.fixture(params=["square_cell", "sheared_cell", "hex_cell", "thin_cell"])
    def cell(self, request):
        return request.getfixturevalue(request.param)

    def assert_same(self, cell, z, reach=REACH):
        want = np.abs(min_image_stencil(cell, z))
        for w in reach:
            got = grid_distance(cell, z, w)
            assert type(got) is np.ndarray and got.shape == np.shape(z)
            below = want < w
            assert np.array_equal(got[below], want[below])
            assert np.all(np.isinf(got[~below]))

    def test_on_and_inside_shortcut_radius(self, cell):
        angles = np.exp(2j * np.pi * np.arange(720) / 720)
        shortest = abs(cell._gauss_basis[0])  # the shortest period
        # radii about shortest - reach, where a former fold-and-stencil
        # distance switched to the stencil: kept as edge cases
        for within in (0.3, 0.5 * shortest, 0.05):
            edge = shortest - within - 1e-9
            radii = [np.nextafter(edge, 0), edge, np.nextafter(edge, 1),
                     edge - 1e-9, edge + 1e-9]
            self.assert_same(cell, np.concatenate([r * angles for r in radii]), (within,))
        half = 0.5 * shortest
        radii = [half * (1 - 1e-9), half * (1 - 2e-9), half * (1 - 1e-12),
                 np.nextafter(half, 0), half, np.nextafter(half, 1), half * (1 + 1e-9)]
        self.assert_same(cell, np.concatenate([r * angles for r in radii]))
        # half of each stencil shift: a tie between two images
        self.assert_same(cell, np.delete(own_stencil(cell), 4) / 2)

    def test_edges_and_corners(self, cell):
        w1, w2 = cell.omega1, cell.omega2
        mid = np.array([w1, w2, w1 + w2, w1 - w2]) / 2
        pts = np.concatenate([mid, -mid])
        nudged = [np.nextafter(pts.real, t) + 1j * np.nextafter(pts.imag, s)
                  for t in (-1, 1) for s in (-1, 1)]
        self.assert_same(cell, np.concatenate([pts] + nudged))
        t = np.linspace(-0.5, 0.5, 101)
        edges = np.concatenate([t * w1 + s * w2 / 2 for s in (-1, 1)]
                               + [s * w1 / 2 + t * w2 for s in (-1, 1)])
        self.assert_same(cell, edges)

    def test_signed_zeros(self, cell):
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        parts = [complex(a, 0.3) for a in (0.0, -0.0)] + [complex(0.3, b) for b in (0.0, -0.0)]
        self.assert_same(cell, np.array(zeros + parts))
        for z in zeros + parts:
            self.assert_same(cell, z)
        assert not grid_distance(cell, np.array(zeros), self.REACH[0]).any()

    @pytest.mark.parametrize("z", [0.9j, 0.3, -0.45 + 0.45j, 1.7 - 2.2j])
    def test_scalar(self, cell, z):
        self.assert_same(cell, z)

    def test_random_points_and_shapes(self, cell):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(40, 50)) * 2 + 1j * rng.normal(size=(40, 50)) * 2
        self.assert_same(cell, z)
        self.assert_same(cell, z[:0])

    @pytest.mark.parametrize("omega2", [1j, np.exp(1j * np.pi / 3), 0.5 + 1j, 0.2j])
    @pytest.mark.parametrize("nu", [0.3, 0.5])
    def test_rsa_separations(self, omega2, nu):
        desc = EnsembleDescriptor(n=64, nu=nu, trials=1, seed=4, cell_omega2=omega2)
        config = rsa_generate(desc)
        z = config.centers
        for reach in self.REACH + (2 * config.radius,):
            j, i, dist = close_pairs(config.cell, z, reach)
            order = np.lexsort((dist, i, j))
            want = images_within_brute(config.cell, z, reach)
            for got, expected in zip((j[order], i[order], dist[order]), want):
                assert np.array_equal(got, expected)


class TestMinImageBruteForce:
    """close_pairs finds every pair within its reach on every basis, sheared
    or not, at the distance to the nearest lattice point, and no other pair.

    The unit-area cells are built with Cell(...) directly: make_cell would fold
    the shears of 1 or more (2.4, 3.0, 4.9, -2.4) below 1."""

    SHAPES = [s + 1j * h for s in (-2.4, 0.0, 0.25, 2.4, 3.0, 4.9) for h in (0.2, 0.3, 1.0, 5.0)]

    @pytest.mark.parametrize("omega2", SHAPES)
    def test_nearest_of_every_lattice_point(self, omega2):
        scale = 1.0 / math.sqrt(omega2.imag)
        cell = Cell(scale, omega2 * scale)
        rng = np.random.default_rng(5)
        z = cell.reduce((rng.random(80) - 0.5) * 6 + 1j * (rng.random(80) - 0.5) * 6)[0]
        j, i = np.divmod(np.arange(len(z) ** 2), len(z))
        want = nearest_distance_brute(cell, cell.reduce(z[i] - z[j])[0]).reshape(len(z), -1)
        for reach in (0.05, 0.3):
            found = pair_distances(cell, z, reach)
            below = want < reach
            assert below.sum() > len(z)  # pairs besides each point's own image
            assert np.allclose(found[below], want[below], rtol=1e-12, atol=0)
            assert np.all(np.isinf(found[~below]))
            pj, pi, dist = close_pairs(cell, z, reach)
            assert np.all(dist >= want[pj, pi] * (1 - 1e-12))  # lengths of translates

    def test_rsa_places_no_overlapping_pair(self):
        """N = 4 disks at nu = 0.45 on the sheared basis 2.4+0.3i, which
        make_cell folds to 0.4+0.3i, still far from Gauss-reduced: 300 seeds."""
        desc = EnsembleDescriptor(n=4, nu=0.45, trials=1, seed=0, cell_omega2=2.4 + 0.3j)
        j, k = np.triu_indices(4, 1)
        for seed in range(300):
            config = rsa_generate(desc, seed=seed)
            gaps = nearest_distance_brute(config.cell, config.centers[j] - config.centers[k])
            assert gaps.min() >= 2 * config.radius - 1e-12


class TestRsaGenerate:
    def test_single_disk(self, square_cell):
        desc = EnsembleDescriptor(n=1, nu=0.3, trials=1, seed=3)
        config = rsa_generate(desc)
        assert config.n_disks == 1
        assert config.nu == pytest.approx(0.3)

    def test_nonoverlap_scan(self):
        desc = EnsembleDescriptor(n=64, nu=0.3, trials=1, seed=42)
        config = rsa_generate(desc)
        assert config.n_disks == 64
        j, k = np.triu_indices(64, 1)
        dist = nearest_distance_brute(config.cell, config.centers[j] - config.centers[k])
        assert dist.min() >= 2 * config.radius - 1e-12

    def test_reproducible_bit_for_bit(self):
        desc = EnsembleDescriptor(n=32, nu=0.25, trials=1, seed=7)
        a = rsa_generate(desc)
        b = rsa_generate(desc)
        assert np.array_equal(a.centers, b.centers)
        assert a.radius == b.radius
        assert a.meta == b.meta

    def test_different_seeds_differ(self):
        desc = EnsembleDescriptor(n=8, nu=0.2, trials=1, seed=1)
        a = rsa_generate(desc)
        b = rsa_generate(desc, seed=2)
        assert not np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**70])
    def test_seed_range(self, seed):
        """Every non-negative seed numpy takes keeps its configuration, the
        one-candidate-at-a-time reference's; 2**70 is not masked to 0."""
        desc = EnsembleDescriptor(n=32, nu=0.45, trials=1, seed=seed)
        config, ref = rsa_generate(desc), rsa_one_at_a_time(desc, seed)
        assert np.array_equal(config.centers, ref.centers)
        assert config.meta["candidates_drawn"] == ref.meta["candidates_drawn"]
        assert config.meta["seed"] == seed
        if seed:
            assert not np.array_equal(config.centers, rsa_generate(desc, seed=0).centers)

    def test_negative_seed_refused(self):
        desc = EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=-1)
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            rsa_generate(desc)
        with pytest.raises(DomainError, match="got -5"):
            rsa_generate(EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=3), seed=-5)

    def test_nu_guard(self):
        with pytest.raises(DomainError):
            EnsembleDescriptor(n=16, nu=0.55, trials=1, seed=0)

    @pytest.mark.parametrize("factor", [0.99, -1.0, math.nan, math.inf])
    def test_exclusion_factor_guard(self, factor):
        with pytest.raises(DomainError, match="exclusion_factor"):
            EnsembleDescriptor(n=16, nu=0.3, trials=1, seed=0, exclusion_factor=factor)

    @pytest.mark.parametrize("budget", [0, -5, 2.5])
    def test_budget_guard(self, budget):
        with pytest.raises(DomainError, match="attempt_budget"):
            EnsembleDescriptor(n=16, nu=0.3, trials=1, seed=0, attempt_budget=budget)

    @pytest.mark.parametrize("field, value", [("n", 16.0), ("n", True), ("trials", 1.5),
                                              ("trials", "1"), ("seed", 1.5), ("seed", False)])
    def test_integer_guard(self, field, value):
        kwargs = {"n": 16, "nu": 0.3, "trials": 1, "seed": 0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            EnsembleDescriptor(**kwargs)

    def test_numpy_integers_accepted(self):
        desc = EnsembleDescriptor(n=np.int64(8), nu=0.3, trials=np.uint8(2), seed=np.int32(4))
        assert rsa_generate(desc).n_disks == 8

    @pytest.mark.parametrize("seed", [1.5, True, np.float64(3.0), "3"])
    def test_seed_argument_guard(self, seed):
        desc = EnsembleDescriptor(n=8, nu=0.3, trials=1, seed=3)
        with pytest.raises(DomainError, match="seed must be an integer"):
            rsa_generate(desc, seed=seed)

    # a disk wider than the shortest period overlaps its own image; the
    # aspect-0.3 cell's shortest period is 0.548
    @pytest.mark.parametrize("n, nu, omega2", [(1, 0.3, 0.3j), (2, 0.5, 0.3j),
                                               (1, 0.5, 0.9 + 0.3j), (3, 0.5, 0.2j),
                                               (1, 0.3, 5j)])
    def test_own_image_guard(self, n, nu, omega2):
        with pytest.raises(DomainError, match="own periodic image"):
            EnsembleDescriptor(n=n, nu=nu, trials=1, seed=0, cell_omega2=omega2)

    def test_budget_exhaustion_reports_placed(self):
        desc = EnsembleDescriptor(
            n=64, nu=0.5, trials=1, seed=0, attempt_budget=70
        )
        with pytest.raises(GenerationError) as err:
            rsa_generate(desc)
        assert 0 < err.value.placed < 64

    def test_two_disks_at_guard(self):
        desc = EnsembleDescriptor(n=2, nu=0.5, trials=1, seed=11)
        try:
            config = rsa_generate(desc)
        except GenerationError as exc:
            assert 0 <= exc.placed < 2
        else:
            config.validate()

    def test_uniformity_chi_square(self, square_cell):
        desc = EnsembleDescriptor(n=1, nu=0.01, trials=1, seed=123)
        coords = []
        for i in range(1000):
            config = rsa_generate(desc, seed=trial_seed(123, i))
            z = config.centers[0]
            coords.append((z.real + 0.5, z.imag + 0.5))
        coords = np.array(coords)
        counts, _, _ = np.histogram2d(
            coords[:, 0], coords[:, 1], bins=10, range=[[0, 1], [0, 1]]
        )
        expected = 1000 / 100
        stat = ((counts - expected) ** 2 / expected).sum()
        # chi-square survival function, df = 99
        p = mpmath.gammainc(99 / 2, stat / 2, mpmath.inf, regularized=True)
        assert p > 0.001


def _outcome(generate, desc):
    """Centers and draws of a configuration, or the text and count of its failure."""
    try:
        config = generate(desc, desc.seed)
    except GenerationError as exc:
        return str(exc), exc.placed
    return config.centers.tobytes(), config.meta["candidates_drawn"]


class TestRsaChunksAgainstOneAtATime:
    """The chunked accept loop reproduces the one-at-a-time rule bitwise."""

    CELLS = {"square": 1j, "hexagonal": np.exp(1j * np.pi / 3),
             "oblique": 0.3 + 1.1j, "aspect-0.3": 0.3j}

    # one or two disks wider than the aspect-0.3 cell's shortest period,
    # 0.548: each overlaps its own image, and the descriptor refuses them
    OWN_IMAGE = {("aspect-0.3", 1, 0.3, 1.0), ("aspect-0.3", 1, 0.45, 1.0),
                 ("aspect-0.3", 1, 0.5, 1.0), ("aspect-0.3", 1, 0.3, 1.3),
                 ("aspect-0.3", 2, 0.5, 1.0)}

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    @pytest.mark.parametrize("nu, factor", [(0.3, 1.0), (0.45, 1.0), (0.5, 1.0), (0.3, 1.3)])
    def test_same_centers_and_draws(self, cell, n, nu, factor):
        kwargs = dict(n=n, nu=nu, trials=1, seed=n, cell_omega2=self.CELLS[cell],
                      exclusion_factor=factor, attempt_budget=50000)
        if (cell, n, nu, factor) in self.OWN_IMAGE:
            with pytest.raises(DomainError, match="own periodic image"):
                EnsembleDescriptor(**kwargs)
            return
        desc = EnsembleDescriptor(**kwargs)
        assert _outcome(rsa_generate, desc) == _outcome(rsa_one_at_a_time, desc)

    # few disks at the guard: bins as wide as the cell allows, and a side of
    # one or two bins repeated in several tiles; three disks on the aspect-0.2
    # cell are wider than its shortest period, 0.447, and refused
    @pytest.mark.parametrize("omega2", [np.exp(1j * np.pi / 3), 0.3 + 1.1j, 0.2j])
    @pytest.mark.parametrize("n", [3, 5, 9])
    @pytest.mark.parametrize("factor", [1.0, 1.3])
    def test_widest_and_fullest_bins(self, omega2, n, factor):
        kwargs = dict(n=n, nu=0.5, trials=1, seed=n, cell_omega2=omega2,
                      exclusion_factor=factor, attempt_budget=50000)
        if omega2 == 0.2j and n == 3:
            with pytest.raises(DomainError, match="own periodic image"):
                EnsembleDescriptor(**kwargs)
            return
        desc = EnsembleDescriptor(**kwargs)
        assert _outcome(rsa_generate, desc) == _outcome(rsa_one_at_a_time, desc)

    # chunks that grow to their cap of 1024 draws near jamming (seeds picked
    # for it: at n = 64 most chunks stay shorter)
    @pytest.mark.parametrize("n, omega2, seed", [
        (64, 1j, 7), (64, np.exp(1j * np.pi / 3), 3),
        (256, 1j, 1), (256, np.exp(1j * np.pi / 3), 1),
    ])
    def test_chunks_at_their_cap(self, n, omega2, seed):
        desc = EnsembleDescriptor(n=n, nu=0.5, trials=1, seed=seed, cell_omega2=omega2)
        assert _outcome(rsa_generate, desc) == _outcome(rsa_one_at_a_time, desc)

    # cells narrower than the spacing without a disk overlapping its own
    # image, so the tiles reach two bins or more to each side: on the aspect-0.2
    # cell and 0.9+0.3i an image two tiles away is never the only one within
    # reach, on 0.8+0.2i it is for seeds 19 and 28, where one tile to each
    # side places a third disk too close to an image of the first.  The
    # sheared cells' own stencils miss images, so the reference is brute force.
    @pytest.mark.parametrize("n, omega2, factor", [(4, 0.2j, 1.3), (2, 0.9 + 0.3j, 1.0),
                                                   (3, 0.8 + 0.2j, 1.3)])
    @pytest.mark.parametrize("seed", [0, 1, 19, 28])
    def test_cell_narrower_than_spacing(self, n, omega2, factor, seed):
        desc = EnsembleDescriptor(n=n, nu=0.5, trials=1, seed=seed, cell_omega2=omega2,
                                  exclusion_factor=factor, attempt_budget=1500)
        reference = _outcome(lambda d, s: rsa_one_at_a_time(d, s, brute=True), desc)
        assert _outcome(rsa_generate, desc) == reference

    # draws whose shift-0 image clears a center that a stencil neighbour of
    # it overlaps: large disks on the hexagonal and a sheared cell
    @pytest.mark.parametrize("omega2, n, seed", [
        (np.exp(1j * np.pi / 3), 2, 12), (np.exp(1j * np.pi / 3), 2, 16),
        (0.45 + 0.2j, 3, 0), (0.45 + 0.2j, 3, 2),
    ])
    def test_corner_images(self, omega2, n, seed):
        desc = EnsembleDescriptor(n=n, nu=0.5, trials=1, seed=seed,
                                  cell_omega2=omega2, attempt_budget=2000)
        assert _outcome(rsa_generate, desc) == _outcome(rsa_one_at_a_time, desc)

    # seeds whose last disk lands on draw 63, 64, 65 (n = 30, nu = 0.3) and
    # 1023, 1024, 1025 (n = 64, nu = 0.45); n = 64 at nu = 0.5 with spacing
    # 1.3 never completes
    EDGES = [(30, 0.3, 1.0, 2, 63), (30, 0.3, 1.0, 60, 64), (30, 0.3, 1.0, 35, 65),
             (64, 0.45, 1.0, 539, 1023), (64, 0.45, 1.0, 158, 1024),
             (64, 0.45, 1.0, 696, 1025), (64, 0.5, 1.3, 0, None)]

    # a budget that ends inside a grown chunk: n = 64, nu = 0.5, seed 0 takes
    # draws 384-703 as one chunk, and 1024-1151 as the one that places its
    # last disk, on draw 1094
    @pytest.mark.parametrize("budget", [500, 1000, 1093, 1094])
    def test_budget_inside_grown_chunk(self, budget):
        desc = EnsembleDescriptor(n=64, nu=0.5, trials=1, seed=0, attempt_budget=budget)
        outcome = _outcome(rsa_generate, desc)
        assert outcome == _outcome(rsa_one_at_a_time, desc)
        assert outcome[1] == 1094 if budget == 1094 else 0 < outcome[1] < 64

    @pytest.mark.parametrize("n, nu, factor, seed, draws", EDGES)
    @pytest.mark.parametrize("budget", [1, 63, 64, 65, 1023, 1024, 1025])
    def test_budget_edges(self, n, nu, factor, seed, draws, budget):
        desc = EnsembleDescriptor(n=n, nu=nu, trials=1, seed=seed,
                                  exclusion_factor=factor, attempt_budget=budget)
        outcome = _outcome(rsa_generate, desc)
        assert outcome == _outcome(rsa_one_at_a_time, desc)
        if draws is not None and budget >= draws:
            assert outcome[1] == draws
        else:
            assert outcome[0].endswith(f"within {budget} candidate draws")


class TestRegularArray:
    def test_single_disk_square(self, square_cell):
        config = regular_array(square_cell, "square", 1, 0.2)
        assert config.centers[0] == 0
        assert config.radius == pytest.approx(math.sqrt(0.2 / math.pi))

    def test_four_disk_square_offsets(self, square_cell):
        config = regular_array(square_cell, "square", 4, 0.2)
        got = sorted((z.real, z.imag) for z in config.centers)
        expected = sorted(
            (sx * 0.25, sy * 0.25) for sx in (-1, 1) for sy in (-1, 1)
        )
        assert np.allclose(got, expected)

    def test_hexagonal_single_disk_high_nu(self, hex_cell):
        config = regular_array(hex_cell, "hexagonal", 1, 0.5)
        assert config.n_disks == 1
        config.validate()

    def test_packing_bound(self, square_cell, hex_cell):
        with pytest.raises(DomainError):
            regular_array(square_cell, "square", 1, 0.8)
        with pytest.raises(DomainError):
            regular_array(hex_cell, "hexagonal", 1, 0.91)

    def test_wrong_cell_shape(self, square_cell, hex_cell):
        with pytest.raises(DomainError):
            regular_array(square_cell, "hexagonal", 1, 0.3)
        with pytest.raises(DomainError):
            regular_array(hex_cell, "square", 1, 0.3)

    def test_non_square_count(self, square_cell):
        with pytest.raises(DomainError):
            regular_array(square_cell, "square", 3, 0.2)

    def test_unknown_kind(self, square_cell):
        with pytest.raises(DomainError):
            regular_array(square_cell, "triangular", 1, 0.2)


class TestConfigurationValidation:
    def test_overlap_rejected(self, square_cell):
        with pytest.raises(DomainError):
            DiskConfiguration(
                cell=square_cell,
                centers=np.array([0.0 + 0j, 0.1 + 0j]),
                radius=0.08,
            )

    def test_own_image_overlap_rejected(self, tmp_path):
        cell = make_cell(1.0, 0.3j)  # shortest period 0.548
        config = DiskConfiguration(cell=cell, centers=np.array([0j]), radius=0.27)
        with pytest.raises(DomainError, match="own periodic image"):
            DiskConfiguration(cell=cell, centers=np.array([0j]), radius=0.28)
        path = tmp_path / "one.json"
        save_configuration(config, path)
        path.write_text(path.read_text().replace('"radius": 0.27', '"radius": 0.28'))
        with pytest.raises(DomainError, match="own periodic image"):
            load_configuration(path)

    def test_wraparound_overlap_rejected(self, square_cell):
        with pytest.raises(DomainError):
            DiskConfiguration(
                cell=square_cell,
                centers=np.array([-0.48 + 0j, 0.48 + 0j]),
                radius=0.04,
            )

    def test_crowded_bin_refused_in_pair_memory(self, square_cell):
        # a malformed file may stack many centers in one bin of the cell
        # list: the check's memory goes with the n^2 pairs found there
        n = 600
        centers = np.full(n, 0.1 + 0.1j)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="min periodic distance 0 <"):
                DiskConfiguration(cell=square_cell, centers=centers, radius=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * n * n

    # a pair a period apart, less 0.05, overlaps across an edge of the cell;
    # 0.998 (omega1 + omega2)/2 apart on the hexagonal and 0.3+1.1i cells, a
    # pair overlaps only in an image one stencil shift from its folded difference
    @pytest.mark.parametrize("omega2", [np.exp(1j * np.pi / 3), 0.3 + 1.1j, 0.2j])
    def test_wraparound_overlap_rejected_on_other_cells(self, omega2):
        cell = make_cell(1.0, omega2)
        w1, w2 = cell.omega1, cell.omega2
        pairs = [period - 0.05 for period in (w1, w2, w1 + w2, w1 - w2)]
        if omega2 != 0.2j:
            pairs.append(0.998 * (w1 + w2) / 2)
            gap = nearest_distance_brute(cell, np.array(pairs[-1:]))[0]
            assert gap < 0.99 * abs(cell.reduce(pairs[-1])[0])
        for d in pairs:
            gap = nearest_distance_brute(cell, np.array([d]))[0]
            assert gap < 0.99 * abs(d)
            centers = np.array([d / 2, -d / 2])
            with pytest.raises(DomainError, match="overlapping disks") as err:
                DiskConfiguration(cell=cell, centers=centers, radius=0.51 * gap)
            assert float(str(err.value).split()[5]) == pytest.approx(gap, rel=1e-12)
            DiskConfiguration(cell=cell, centers=centers, radius=0.49 * gap)

    def test_cell_of_other_area_refused(self):
        # nu = N pi r^2 holds on a unit cell only: on this cell of area 4 one
        # disk of radius 0.1 fills 0.0079 of it, not 0.0314
        cell = Cell(2.0, 2j)
        with pytest.raises(DomainError, match="cell area 4 != 1"):
            DiskConfiguration(cell=cell, centers=np.array([0j]), radius=0.1)
        unit = Cell(1.0, 1j)
        assert DiskConfiguration(cell=unit, centers=np.array([0j]), radius=0.1).nu == \
            pytest.approx(0.0314159, rel=1e-5)

    def test_nu_bounds(self, square_cell):
        with pytest.raises(DomainError):
            DiskConfiguration(
                cell=square_cell, centers=np.array([0j]), radius=0.6
            )

    def test_centers_reduced_on_construction(self, square_cell):
        config = DiskConfiguration(
            cell=square_cell, centers=np.array([1.3 + 0j]), radius=0.1
        )
        assert config.centers[0] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("center", [complex(math.nan, 0.1), complex(0.1, math.inf)])
    def test_non_finite_center_rejected(self, square_cell, center):
        with pytest.raises(DomainError, match="finite"):
            DiskConfiguration(
                cell=square_cell, centers=np.array([0j, center]), radius=0.05
            )

    def test_centers_and_separations_read_only(self, square_cell):
        # the kernels are derived from the centers, which stay as given;
        # no pair separations are stored
        config = DiskConfiguration(
            cell=square_cell, centers=np.array([0j, 0.3 + 0j]), radius=0.05
        )
        assert not hasattr(config, "separations")
        with pytest.raises(ValueError):
            config.centers[0] = 0.06


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        desc = EnsembleDescriptor(n=16, nu=0.27, trials=1, seed=5)
        config = rsa_generate(desc)
        path = tmp_path / "config.json"
        save_configuration(config, path)
        loaded = load_configuration(path)
        assert np.array_equal(loaded.centers, config.centers)
        assert loaded.radius == config.radius
        assert loaded.cell.omega1 == config.cell.omega1
        assert loaded.cell.omega2 == config.cell.omega2

    def test_full_precision_emitted(self, tmp_path):
        config = DiskConfiguration(
            cell=make_cell(1, 1j), centers=np.array([complex(1 / 3, 0)]), radius=0.1
        )
        path = tmp_path / "config.json"
        save_configuration(config, path)
        text = path.read_text()
        assert "0.33333333333333331" in text
        data = json.loads(text)
        assert data["centers"][0][0] == 1 / 3

    def test_schema_fields(self, tmp_path):
        desc = EnsembleDescriptor(n=2, nu=0.1, trials=1, seed=9)
        config = rsa_generate(desc)
        path = tmp_path / "c.json"
        save_configuration(config, path)
        data = json.loads(path.read_text())
        assert set(data) == {"cell", "radius", "centers", "meta"}
        assert set(data["cell"]) == {"omega1", "omega2"}
        assert data["meta"]["generator"] == "rsa"
        assert data["meta"]["seed"] == 9
        assert data["meta"]["nu"] == pytest.approx(0.1)


    @pytest.mark.parametrize("change", [
        {"radius": None},
        {"cell": {"omega1": 1.0}},
        {"centers": [0.1, 0.2]},
        {"cell": {"omega1": 1.0, "omega2": 1.0}},
        {"centers": [[0.1, 0.2, 0.3]]},
        {"centers": [[0.1]]},
        {"radius": "abc"},
        {"cell": {"omega1": "x", "omega2": [0.0, 1.0]}},
    ])
    def test_malformed_dict_is_domain_error(self, change):
        data = {
            "cell": {"omega1": 1.0, "omega2": [0.0, 1.0]},
            "radius": 0.05,
            "centers": [[0.1, 0.2]],
        }
        data.update(change)
        if data["radius"] is None:
            del data["radius"]
        with pytest.raises(DomainError, match="malformed configuration"):
            configuration_from_dict(data)

class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)

    def test_distinct_across_trials(self):
        seeds = {trial_seed(7, i) for i in range(200)}
        assert len(seeds) == 200

    def test_master_seed_matters(self):
        assert trial_seed(1, 5) != trial_seed(2, 5)
