"""Grid geometry, region partitions, Fourier duals, and field I/O."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scratchsim.grid import (
    Box,
    ComplexField,
    FieldFormatError,
    GridError,
    RegionPartition,
    ScalarField,
    SpatialGrid,
    fourier_forward,
    fourier_inverse,
    half_planes,
    integrate,
    integrate_region,
    momentum_half_spaces,
    read_field,
    write_field,
)


def grid2d(n=32, lo=-4.0, hi=4.0):
    return SpatialGrid(((lo, hi), (lo, hi)), (n, n))


class TestSpatialGrid:
    def test_cell_centers(self):
        g = SpatialGrid(((0.0, 1.0), (0.0, 2.0)), (10, 8))
        assert np.isclose(g.axis(0)[0], 0.05)
        assert np.isclose(g.axis(0)[-1], 0.95)
        assert np.allclose(g.spacing, [0.1, 0.25])
        assert np.isclose(g.cell_volume, 0.025)

    def test_points_row_major(self):
        g = SpatialGrid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
        pts = g.points()
        assert pts.shape == (64, 2)
        # first axis varies slowest
        assert np.allclose(pts[:8, 0], pts[0, 0])

    def test_validation(self):
        with pytest.raises(GridError):
            SpatialGrid(((0.0, 1.0),), (16,))
        with pytest.raises(GridError):
            SpatialGrid(((0.0, 1.0), (0.0, 1.0)), (4, 16))
        with pytest.raises(GridError):
            SpatialGrid(((1.0, 0.0), (0.0, 1.0)), (16, 16))

    def test_momentum_grid_spacing(self):
        g = grid2d(64)
        mg = g.momentum_grid()
        assert np.allclose(mg.spacing, 2.0 * np.pi / 8.0)
        # cell centers are the shifted FFT frequencies
        freqs = np.fft.fftshift(np.fft.fftfreq(64, d=g.spacing[0])) * 2.0 * np.pi
        assert np.allclose(mg.axis(0), freqs)

    def test_momentum_grid_hbar(self):
        g = grid2d(32)
        assert np.allclose(
            g.momentum_grid(hbar=0.5).axis(0), 0.5 * g.momentum_grid().axis(0)
        )


@st.composite
def box_partitions(draw):
    """A box cut into cells along integer cuts per axis, each cell given to
    one of n >= 2 regions, and up to three more boxes spanning several cells
    given to any region, so that regions overlap: the cuts and, per region,
    its boxes as (lo, hi) pairs."""
    ndim = draw(st.integers(1, 3))
    cuts = [
        [float(x) for x in sorted(draw(st.sets(st.integers(-4, 4), min_size=3 if d == 0 else 2, max_size=5)))]
        for d in range(ndim)
    ]
    cells = list(itertools.product(*(range(len(c) - 1) for c in cuts)))
    order = draw(st.permutations(cells))
    n = draw(st.integers(2, len(cells)))
    labels = list(range(1, n + 1)) + [draw(st.integers(1, n)) for _ in order[n:]]
    regions = [[] for _ in range(n)]
    for cell, k in zip(order, labels):
        lo = tuple(c[i] for c, i in zip(cuts, cell))
        hi = tuple(c[i + 1] for c, i in zip(cuts, cell))
        regions[k - 1].append((lo, hi))
    for _ in range(draw(st.integers(0, 3))):
        span = [sorted(draw(st.lists(st.sampled_from(c), min_size=2, max_size=2))) for c in cuts]
        regions[draw(st.integers(0, n - 1))].append(tuple(zip(*span)))
    return cuts, regions


class TestRegionPartition:
    def test_boundary_tiebreak_lowest_label(self):
        part = half_planes(grid2d(), axis=0, split=0.0)
        labels = part.labels_for(np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]))
        assert list(labels) == [1, 1, 2]

    def test_uncovered_point_raises(self):
        part = RegionPartition([Box((0.0, 0.0), (1.0, 1.0)), Box((1.0, 0.0), (2.0, 1.0))])
        with pytest.raises(GridError):
            part.labels_for(np.array([[5.0, 5.0]]))

    def test_needs_two_regions(self):
        with pytest.raises(GridError):
            RegionPartition([Box((0.0, 0.0), (1.0, 1.0))])

    def test_interior_membership_excludes_lower_regions(self):
        part = half_planes(grid2d(), axis=0, split=0.0)
        pts = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]])
        assert list(part.interior_membership(pts, 2)) == [True, False, False]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lowest_label_on_random_box_partitions(self, data):
        cuts, regions = data.draw(box_partitions())
        part = RegionPartition([[Box(lo, hi) for lo, hi in boxes] for boxes in regions])
        # coordinates on the cuts put points on shared faces and edges
        coordinate = [st.one_of(st.sampled_from(c), st.floats(c[0], c[-1])) for c in cuts]
        points = np.array(data.draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=20)))
        labels = part.labels_for(points)
        for p, label in zip(points, labels):
            assert label == min(
                k
                for k, boxes in enumerate(regions, start=1)
                for lo, hi in boxes
                if all(a <= x <= b for a, x, b in zip(lo, p, hi))
            )
        for k in range(1, part.n + 1):
            inside = part.interior_membership(points, k)
            assert np.all(labels[inside] == k)

    def test_counts_per_label(self):
        part = RegionPartition(
            [
                Box((-1.0, -1.0), (0.0, 1.0)),
                [Box((0.0, -1.0), (1.0, 0.0)), Box((0.0, 0.5), (1.0, 1.0))],
                Box((0.0, -1.0), (1.0, 1.0)),
            ]
        )
        points = np.random.default_rng(5).uniform(-1.0, 1.0, (200, 2))
        points[:3] = [[0.0, 0.0], [0.0, 0.7], [0.5, 0.25]]  # ties and region 3
        labels = part.labels_for(points)
        want = [int(np.sum(labels == k)) for k in (1, 2, 3)]
        counts = part.counts(points)
        assert counts.dtype == np.int64 and counts.tolist() == want
        # a region nobody lands in still gets its zero
        assert part.counts(np.array([[-0.5, 0.0]])).tolist() == [1, 0, 0]

    def test_momentum_half_spaces_cover_everything(self):
        part = momentum_half_spaces(3)
        pts = np.random.default_rng(0).normal(scale=100.0, size=(50, 3))
        labels = part.labels_for(pts)
        assert np.all((labels == 1) | (labels == 2))
        assert np.array_equal(labels, (pts[:, 0] > 0) + 1)

    def test_validate_on_catches_empty_region(self):
        g = grid2d(32)
        part = RegionPartition(
            [Box((-4.0, -4.0), (4.0, 4.0)), Box((10.0, 10.0), (11.0, 11.0))]
        )
        with pytest.raises(GridError):
            part.validate_on(g)


class TestIntegration:
    def test_constant_field(self):
        g = grid2d(16)
        f = ScalarField(g, np.ones(g.shape))
        assert np.isclose(integrate(f), 64.0)

    def test_region_integrals_sum_to_total(self):
        g = grid2d(32)
        rng = np.random.default_rng(1)
        f = ScalarField(g, rng.random(g.shape))
        part = half_planes(g, axis=1, split=0.7)
        total = integrate_region(f, part, 1) + integrate_region(f, part, 2)
        assert np.isclose(total, integrate(f), rtol=0, atol=1e-12)

    def test_unknown_label(self):
        g = grid2d(16)
        f = ScalarField(g, np.ones(g.shape))
        part = half_planes(g)
        with pytest.raises(GridError):
            integrate_region(f, part, 3)

    def test_midpoint_quadratic_convergence(self):
        # midpoint rule is second order; integrand with no odd symmetry
        exact = (np.cos(-4.0 + 0.7) - np.cos(4.0 + 0.7)) * 8.0
        errs = []
        for n in (16, 32, 64):
            g = grid2d(n)
            x = g.meshgrid()[0]
            errs.append(abs(integrate(ScalarField(g, np.sin(x + 0.7))) - exact))
        assert errs[1] < errs[0] / 3.5 and errs[2] < errs[1] / 3.5


class TestFourier:
    def test_parseval_exact(self):
        g = grid2d(32)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        f = ComplexField(g, psi)
        phi = fourier_forward(f)
        assert np.isclose(phi.norm_sq(), f.norm_sq(), rtol=1e-12)

    def test_round_trip(self):
        g = grid2d(32)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        f = ComplexField(g, psi)
        back = fourier_inverse(fourier_forward(f), g)
        assert np.allclose(back.values, psi, atol=1e-12)

    def test_gaussian_transform_is_gaussian(self):
        # |Phi(p)|^2 of a sigma-width packet is Gaussian with width hbar/(2 sigma)
        g = SpatialGrid(((-10.0, 10.0), (-10.0, 10.0)), (128, 128))
        sigma = 1.0
        pts = g.points()
        psi = np.exp(-np.sum(pts**2, axis=1) / (4.0 * sigma**2)).reshape(g.shape)
        psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * g.cell_volume)
        phi = fourier_forward(ComplexField(g, psi.astype(complex)))
        p = phi.grid.points()
        expect = np.exp(-np.sum(p**2, axis=1) * sigma**2)
        expect = expect / np.sqrt(np.sum(expect**2) * phi.grid.cell_volume)
        assert np.allclose(np.abs(phi.values).ravel(), expect, atol=1e-7)

    def test_plane_wave_momentum_localization(self):
        g = grid2d(64)
        k0 = g.momentum_grid().axis(0)[40]
        pts = g.points()
        psi = np.exp(1j * k0 * pts[:, 0]).reshape(g.shape)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * g.cell_volume)
        phi = fourier_forward(ComplexField(g, psi))
        dens = np.abs(phi.values) ** 2
        i, j = np.unravel_index(np.argmax(dens), dens.shape)
        assert np.isclose(phi.grid.axis(0)[i], k0)
        assert dens[i, j] / dens.sum() > 0.999


class TestFieldIO:
    def test_round_trip_real(self, tmp_path):
        g = grid2d(16)
        f = ScalarField(g, np.random.default_rng(4).random(g.shape))
        path = tmp_path / "f.scrf"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_round_trip_complex_3d(self, tmp_path):
        g = SpatialGrid(((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (8, 8, 8))
        rng = np.random.default_rng(5)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        path = tmp_path / "c.scrf"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, ComplexField)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.scrf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FieldFormatError) as e:
            read_field(path)
        assert e.value.offset == 0

    def test_truncated_samples(self, tmp_path):
        g = grid2d(16)
        f = ScalarField(g, np.ones(g.shape))
        path = tmp_path / "t.scrf"
        write_field(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FieldFormatError):
            read_field(path)
