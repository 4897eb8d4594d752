import tracemalloc

import numpy as np
import pytest

from fopen_sar import geometry
from fopen_sar.geometry import (C_LIGHT, PlatformParams, PointTarget, RangeGrid,
                                Scene, gm_vector, make_grid)


def _flat_platform(x, h, v=1.0, la=1.0, f_c=1e9, prf=2048.0, ta=1.0):
    """Platform whose single-cell grid puts the target at ground range x."""
    rc = np.hypot(x, h)
    return PlatformParams(h, v, ta, f_c, rc, la, prf)


def _coefficient(t, grid, p, eta):
    """g of target t alone: its cell of gm_vector on a one-target scene."""
    return gm_vector(Scene((t,), grid.n_cells), grid, p, eta)[..., t.range_cell]


def _slant_range(t, grid, p, eta):
    """R read back from the carrier phase of a unit target's g, which is
    -4 pi (R - R_c) / lambda off the reference phasor; unambiguous while
    |R - R_c| < lambda / 4, so the callers pick a low carrier."""
    dphase = np.angle(_coefficient(t, grid, p, eta) / p.reference_phasor)
    return grid.reference_range_m - dphase * p.wavelength_m / (4.0 * np.pi)


def _gain(t, grid, p, eta):
    """Two-way beam gain of a unit target: the magnitude of its g."""
    return np.abs(_coefficient(t, grid, p, eta))


class TestSlantRange:
    def test_pythagoras_at_closest_approach(self):
        p = _flat_platform(3.0, 4.0)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        t = PointTarget(0)
        assert _slant_range(t, grid, p, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_three_four_twelve_thirteen(self):
        p = _flat_platform(3.0, 4.0, v=1.0, f_c=1e6)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        t = PointTarget(0)
        assert _slant_range(t, grid, p, 12.0) == pytest.approx(13.0, abs=1e-12)

    def test_nadir_degenerate(self):
        p = _flat_platform(0.0, 5000.0)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        t = PointTarget(0, azimuth_m=7.0)
        eta = 7.0 / p.velocity_mps
        assert _slant_range(t, grid, p, eta) == pytest.approx(5000.0, abs=1e-9)

    @pytest.mark.parametrize("cell", [3, 4, 7])  # short of, at and beyond R_c
    def test_hyperbola_in_the_slant_plane(self, tiny_platform, tiny_grid, cell):
        t = PointTarget(cell, azimuth_m=2.5)
        eta = tiny_platform.slow_time_axis()
        r0 = tiny_grid.slant_range_of_cell(cell)
        du = tiny_platform.velocity_mps * eta - t.azimuth_m
        r = np.sqrt(r0**2 + du**2)
        gain = np.sinc(tiny_platform.antenna_length_m * np.arctan2(du, r0)
                       / tiny_platform.wavelength_m) ** 2
        k = 4.0 * np.pi / tiny_platform.wavelength_m
        g = _coefficient(t, tiny_grid, tiny_platform, eta)
        # bit for bit: R - R_c from that R in the cancellation-free form
        # ((r0 - R_c)(r0 + R_c) + du^2) / (R + R_c), off the reference phasor
        rc = tiny_grid.reference_range_m
        dr0 = (cell - tiny_grid.n_cells // 2) * tiny_grid.cell_extent_m
        dr = (dr0 * (r0 + rc) + du**2) / (r + rc)
        np.testing.assert_array_equal(
            g, gain * (tiny_platform.reference_phasor * np.exp(-1j * (k * dr))))
        # the plain exponent 4 pi R / lambda, near 3e6 rad, carries rounding
        # near 5e-10 rad; a range 10 pm off the hyperbola already fails
        np.testing.assert_allclose(g, gain * np.exp(-1j * (k * r)), rtol=2e-9, atol=0)

    @pytest.mark.parametrize("delta", [0.001, 0.1, 1.0, 10.0])
    def test_even_around_closest_approach(self, delta):
        p = _flat_platform(3000.0, 4000.0, v=150.0, f_c=1e5)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        t = PointTarget(0, azimuth_m=42.0)
        eta_c = t.azimuth_m / p.velocity_mps
        a = _slant_range(t, grid, p, eta_c + delta)
        b = _slant_range(t, grid, p, eta_c - delta)
        assert a == pytest.approx(b, rel=1e-15)


class TestAzimuthGain:
    def test_boresight_unity(self, tiny_platform, tiny_grid):
        t = PointTarget(4)
        assert _gain(t, tiny_grid, tiny_platform, 0.0) == pytest.approx(1.0)

    def test_first_null(self):
        # choose geometry so L_a * theta / lambda = 1 exactly
        p = _flat_platform(3000.0, 4000.0, v=100.0, f_c=1e9)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        r0 = p.reference_range_m
        theta = p.wavelength_m / p.antenna_length_m
        eta = r0 * np.tan(theta) / p.velocity_mps
        t = PointTarget(0)
        assert _gain(t, grid, p, eta) == pytest.approx(0.0, abs=1e-12)

    def test_half_argument_value(self):
        p = _flat_platform(3000.0, 4000.0, v=100.0, f_c=1e9)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        theta = 0.5 * p.wavelength_m / p.antenna_length_m
        eta = p.reference_range_m * np.tan(theta) / p.velocity_mps
        g = _gain(PointTarget(0), grid, p, eta)
        assert g == pytest.approx((2.0 / np.pi) ** 2, rel=1e-9)

    def test_bounded_and_unity_only_at_boresight(self, tiny_platform, tiny_grid):
        t = PointTarget(4, azimuth_m=3.0)
        etas = np.linspace(-0.5, 0.5, 101)
        g = _gain(t, tiny_grid, tiny_platform, etas)
        assert np.all(g >= 0.0) and np.all(g <= 1.0)
        boresight = np.isclose(etas, t.azimuth_m / tiny_platform.velocity_mps)
        assert np.all(g[~boresight] < 1.0)


class TestWeightingCoefficient:
    def test_zero_rcs(self, tiny_platform, tiny_grid):
        t = PointTarget(4, rcs=0.0)
        assert _coefficient(t, tiny_grid, tiny_platform, 0.123) == 0.0

    def test_quarter_cycle_phase(self):
        # R = c / (8 f_c) makes the two-way phase exactly pi/2
        f_c = 1e9
        r = C_LIGHT / (8.0 * f_c)
        p = PlatformParams(r / 2.0, 1.0, 1.0, f_c, r, 1.0, 64.0)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        g = _coefficient(PointTarget(0), grid, p, 0.0)
        assert g == pytest.approx(-1j, abs=1e-9)

    def test_whole_cycle_phase(self):
        # 2R = k * lambda wraps the phase to zero
        f_c = 1e9
        lam = C_LIGHT / f_c
        r = 1000.0 * lam / 2.0
        p = PlatformParams(r / 2.0, 1.0, 1.0, f_c, r, 1.0, 64.0)
        grid = RangeGrid(1, 4e9, p.reference_range_m)
        g = _coefficient(PointTarget(0), grid, p, 0.0)
        assert g == pytest.approx(1.0, abs=1e-9)

    def test_magnitude_bounded_by_rcs(self, tiny_platform, tiny_grid):
        t = PointTarget(4, azimuth_m=1.0, rcs=2.0 - 1.0j)
        etas = np.linspace(-0.5, 0.5, 37)
        for eta in etas:
            g = _coefficient(t, tiny_grid, tiny_platform, eta)
            assert abs(g) <= abs(t.rcs) + 1e-12


class TestGmVector:
    def test_empty_scene(self, tiny_spec, tiny_platform, tiny_grid):
        scene = Scene((), tiny_spec.n_range_cells)
        g = gm_vector(scene, tiny_grid, tiny_platform, 0.0)
        np.testing.assert_array_equal(g, np.zeros(8, complex))

    def test_single_target_support(self, tiny_platform, tiny_grid,
                                   single_target_scene):
        g = gm_vector(single_target_scene, tiny_grid, tiny_platform, 0.0)
        assert g[4] != 0
        assert np.all(g[np.arange(8) != 4] == 0)

    def test_two_targets_destructive_interference(self, tiny_spec):
        # second target's range at eta=0 longer by lambda/4: two-way phase
        # difference pi, so the coherent sum nearly cancels (wide beam keeps
        # the two gains almost equal)
        p = PlatformParams(5000.0, 150.0, 0.125, 9e9, 5000.0 * np.sqrt(2.0),
                           0.2, 2048.0)
        grid = make_grid(tiny_spec.n_range_cells, tiny_spec.bandwidth_hz, p)
        lam = p.wavelength_m
        r0 = float(grid.slant_range_of_cell(4))
        y2 = np.sqrt((r0 + lam / 4.0) ** 2 - r0**2)
        t1 = PointTarget(4, 0.0)
        t2 = PointTarget(4, y2)
        scene = Scene((t1, t2), tiny_spec.n_range_cells)
        g = gm_vector(scene, grid, p, 0.0)
        expected = _coefficient(t1, grid, p, 0.0) + _coefficient(t2, grid, p, 0.0)
        assert g[4] == pytest.approx(expected, rel=1e-12)
        assert abs(g[4]) < 0.01  # residual from the slightly unequal beam gains

    def test_cell_sum_bounded(self, tiny_spec, tiny_platform, tiny_grid):
        rng = np.random.default_rng(2)
        targets = tuple(PointTarget(int(rng.integers(0, 8)),
                                    float(rng.normal(0, 5)),
                                    complex(rng.normal(), rng.normal()))
                        for _ in range(12))
        scene = Scene(targets, tiny_spec.n_range_cells)
        for eta in (-0.3, 0.0, 0.2):
            g = gm_vector(scene, tiny_grid, tiny_platform, eta)
            for m in range(8):
                bound = sum(abs(t.rcs) for t in targets if t.range_cell == m)
                assert abs(g[m]) <= bound + 1e-12


    @staticmethod
    def _shared_cell_scene(n_cells):
        rng = np.random.default_rng(7)
        targets = tuple(PointTarget(int(c), float(y), complex(*rng.normal(size=2)))
                        for c, y in zip(rng.integers(2, 6, 16), np.arange(16) - 7.5))
        return Scene(targets, n_cells)

    def test_sum_of_one_target_gs(self, tiny_spec, tiny_platform, tiny_grid):
        scene = self._shared_cell_scene(tiny_spec.n_range_cells)
        eta = tiny_platform.slow_time_axis()
        total = np.zeros((len(eta), tiny_spec.n_range_cells), complex)
        for t in scene.targets:  # in scene order
            total = total + gm_vector(Scene((t,), scene.n_range_cells), tiny_grid,
                                      tiny_platform, eta)
        assert gm_vector(scene, tiny_grid, tiny_platform, eta).tobytes() == total.tobytes()

    def test_many_targets_form_in_blocks(self, monkeypatch, tiny_spec, tiny_platform,
                                         tiny_grid):
        # 64 pulses x 16384 targets: sixteen blocks of 1024 targets. G has the
        # bits of the one-block form, and no [pulse, target] array is held
        rng = np.random.default_rng(11)
        n = 1 << 14
        scene = Scene(tuple(PointTarget(int(c), float(y)) for c, y in
                            zip(rng.integers(0, 8, n), rng.normal(0.0, 5.0, n))),
                      tiny_spec.n_range_cells)
        eta = np.linspace(-0.0625, 0.0625, 64)
        tracemalloc.start()
        try:
            g = gm_vector(scene, tiny_grid, tiny_platform, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < eta.size * n * np.dtype(complex).itemsize
        monkeypatch.setattr(geometry, "TARGET_BLOCK_ELEMENTS", eta.size * n)
        assert g.tobytes() == gm_vector(scene, tiny_grid, tiny_platform, eta).tobytes()

    def test_scalar_eta_gives_the_row_of_the_array_form(self, tiny_spec, tiny_platform,
                                                          tiny_grid):
        scene = self._shared_cell_scene(tiny_spec.n_range_cells)
        eta = tiny_platform.slow_time_axis()
        g = gm_vector(scene, tiny_grid, tiny_platform, eta)
        for j, eta_j in enumerate(eta):
            assert gm_vector(scene, tiny_grid, tiny_platform, eta_j).tobytes() == g[j].tobytes()


class TestGridAndPlatform:
    def test_center_cell_at_reference_range(self, tiny_grid, tiny_platform):
        r = tiny_grid.slant_range_of_cell(tiny_grid.n_cells // 2)
        assert r == pytest.approx(tiny_platform.reference_range_m, rel=1e-12)

    def test_cell_extent(self, tiny_grid):
        assert tiny_grid.cell_extent_m == pytest.approx(C_LIGHT / 8e9, rel=1e-12)

    def test_derived_antenna_length_full_geometry(self):
        p = PlatformParams(5000.0, 150.0, 1.0, 9e9, 5000.0 * np.sqrt(2.0),
                           None, 256.0)
        expect = p.wavelength_m * p.reference_range_m / 150.0
        assert p.antenna_length_m == pytest.approx(expect, rel=1e-12)
        assert p.antenna_length_m == pytest.approx(1.5703, abs=2e-4)

    def test_prf_warning_below_doppler_bandwidth(self):
        with pytest.warns(UserWarning, match="azimuth aliasing") as caught:
            PlatformParams(5000.0, 150.0, 1.0, 9e9, 5000.0 * np.sqrt(2.0),
                           1.0, 64.0)
        # attributed to the line that constructs PlatformParams
        assert caught[0].filename == __file__

    def test_slow_time_axis_spans_aperture(self, tiny_platform):
        eta = tiny_platform.slow_time_axis()
        assert len(eta) == tiny_platform.n_pulses()
        assert eta[0] == pytest.approx(-tiny_platform.aperture_s / 2)
        assert eta[-1] == pytest.approx(
            tiny_platform.aperture_s / 2 - 1.0 / tiny_platform.prf_hz)
