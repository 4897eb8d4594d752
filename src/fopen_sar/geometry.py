"""Stripmap broadside geometry: platform, targets, range-cell grid.

Coordinates: the platform flies along-track (azimuth) at altitude H_p with
effective velocity v_p; slow time eta is centered on the scene so eta = 0 is
the closest approach of a broadside (y = 0) target. Range cells are slant
range bins of extent c/(2B), laid out so cell M//2 sits at the reference
slant range R_c at closest approach.
"""

from dataclasses import dataclass

import numpy as np

C_LIGHT = 299792458.0
TARGET_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PlatformParams:
    """Radar platform, taken as given: validation checks it and judges its advisories."""

    altitude_m: float
    velocity_mps: float
    aperture_s: float
    carrier_hz: float
    reference_range_m: float
    antenna_length_m: float | None
    prf_hz: float

    def __post_init__(self):
        if self.antenna_length_m is None:  # the 3-dB footprint dwell equals T_a
            object.__setattr__(self, "antenna_length_m", self.wavelength_m
                               * self.reference_range_m / (self.velocity_mps * self.aperture_s))

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.carrier_hz

    @property
    def reference_phasor(self) -> complex:
        """exp(-j 4 pi f_c R_c / c): the two-way carrier phase at the reference range."""
        return complex(np.exp(-1j * (4.0 * np.pi / self.wavelength_m * self.reference_range_m)))

    @property
    def doppler_bandwidth_hz(self) -> float:
        """Beam-limited Doppler bandwidth 2*v_p/L_a."""
        return 2.0 * self.velocity_mps / self.antenna_length_m

    @property
    def doppler_rate_hz_per_s(self) -> float:
        """Azimuth chirp rate K_a = 2*v_p^2/(lambda*R_c) at the reference range."""
        return 2.0 * self.velocity_mps**2 / (self.wavelength_m * self.reference_range_m)

    def n_pulses(self) -> int:
        return int(round(self.aperture_s * self.prf_hz))

    def slow_time_axis(self) -> np.ndarray:
        """Slow-time sample instants, uniform at 1/prf over [-T_a/2, T_a/2)."""
        n = self.n_pulses()
        return (np.arange(n) - n / 2.0) / self.prf_hz


@dataclass(frozen=True)
class PointTarget:
    """Point scatterer: fixed range cell, along-track position, complex RCS."""

    range_cell: int
    azimuth_m: float = 0.0
    rcs: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class Scene:
    """Point targets on an M-cell grid, taken as given (validate_scenario checks them)."""

    targets: tuple
    n_range_cells: int

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))  # the geometry memo hashes it


@dataclass(frozen=True)
class RangeGrid:
    """Slant-range cell grid: pitch c/(2B), cell M//2 at the reference range."""

    n_cells: int
    bandwidth_hz: float
    reference_range_m: float

    @property
    def cell_extent_m(self) -> float:
        return C_LIGHT / (2.0 * self.bandwidth_hz)

    def slant_range_of_cell(self, cell: int | np.ndarray) -> np.ndarray:
        """Slant range at closest approach for a target in the given cell."""
        return self.reference_range_m + (np.asarray(cell) - self.n_cells // 2) * self.cell_extent_m


def make_grid(n_cells: int, bandwidth_hz: float, platform: PlatformParams) -> RangeGrid:
    return RangeGrid(n_cells, bandwidth_hz, platform.reference_range_m)


def gm_vector(scene: Scene, grid: RangeGrid, platform: PlatformParams,
              eta: float | np.ndarray) -> np.ndarray:
    """Weighting coefficients g_m = sigma_m * eps_a(eta) * exp(-j 4 pi f_c R_m(eta) / c).

    R(eta) = sqrt(r0^2 + du^2), du = v_p eta - y, is a target's range history
    in the slant plane, r0 its cell's closest-approach slant range. The
    two-way beam is sinc(L_a * theta / lambda)^2, theta = arctan2(du, r0) the
    off-boresight angle (normalized sinc, so boresight gives 1). The carrier
    phase is the reference phasor times the phase of
    R - R_c = ((r0 - R_c)(r0 + R_c) + du^2) / (R + R_c): a small exponent,
    free of cancellation.

    A scalar eta gives the length-M vector, bit for bit the array form's row
    at that slow time; an array of slow times gives G[pulse, cell]. Targets
    are formed on [..., target] arrays, in blocks of about
    TARGET_BLOCK_ELEMENTS entries so memory does not grow with the target
    count, and added into their cells in scene order; empty cells are zero.
    """
    eta = np.asarray(eta, dtype=float)
    g = np.zeros(eta.shape + (scene.n_range_cells,), dtype=complex)
    cells = np.array([t.range_cell for t in scene.targets], dtype=int)
    y = np.array([t.azimuth_m for t in scene.targets], dtype=float)
    rcs = np.array([t.rcs for t in scene.targets], dtype=complex)
    rc = grid.reference_range_m
    step = max(1, TARGET_BLOCK_ELEMENTS // max(eta.size, 1))
    for b in (slice(i, i + step) for i in range(0, cells.size, step)):
        dr0 = (cells[b] - grid.n_cells // 2) * grid.cell_extent_m
        r0 = grid.slant_range_of_cell(cells[b])
        du = platform.velocity_mps * eta[..., None] - y[b]
        r = np.sqrt(r0**2 + du**2)
        gain = np.sinc(platform.antenna_length_m * np.arctan2(du, r0) / platform.wavelength_m) ** 2
        dr = (dr0 * (r0 + rc) + du**2) / (r + rc)
        phase = platform.reference_phasor * np.exp(-1j * (4.0 * np.pi / platform.wavelength_m * dr))
        np.add.at(g, (..., cells[b]), rcs[b] * gain * phase)
    return g
