"""Statistical two-way foliage transfer function F(omega, eta, gamma_g).

Per pulse, F is a complex multiplier over the range-line frequency grid:
F_k = A_k exp(j Phi_k). The amplitude combines a deterministic mean
attenuation (a power-law fit in frequency, scaled by grazing angle) with a
multiplicative fluctuation delta_A = delta_omega * delta_eta, where
delta_omega is a centered Gamma draw per frequency bin and delta_eta tracks
the flight path through the exponential of a fractional Brownian motion.
The phase is the incoherent-field fluctuation arctan(dA sin psi / (1 + dA
cos psi)) with psi uniform on [-pi, pi]: the angle of the incoherent field
w = 1 + dA exp(j psi). F carries it as the unit phasor w / |w|, which needs
no arctangent.

The per-bin draws (delta_omega and psi) model a fixed foliage environment
and are frozen per run by default; pulse-to-pulse variation enters through
delta_eta. Set redraw_per_pulse=True for fully independent pulses.
"""

from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .rng import substream

# Mean-attenuation power-law constants (dB, f in GHz) per polarization.
ATTENUATION_CONSTANTS = {
    "HH": (0.79, 0.05),  # (alpha, beta)
    "VV": (0.5, 0.45),
}

# Floor on the fluctuation factor 1 + delta_A, which a Gamma draw can take
# to zero or below.
AMPLITUDE_FLOOR = 1e-6

# Pulses per block of a [pulse, bin] pass. A block's temporaries stay under
# 1 MB, which the C allocator keeps and reuses run after run; whole-matrix
# temporaries (5.8 MB each at the full preset) it hands back to the system,
# so every run page-faults them in afresh, at more cost than the arithmetic.
BLOCK_PULSES = 32


@dataclass(frozen=True)
class FoliageParams:
    polarization: str = "HH"
    grazing_angle_rad: float = np.pi / 4
    gamma_shape: float = 4.0
    gamma_scale: float = 0.25
    hurst: float = 0.4
    seed: int = 0
    redraw_per_pulse: bool = False
    spectral_smoothing_bins: int = 0

    def __post_init__(self):
        if self.polarization not in ATTENUATION_CONSTANTS:
            raise ValueError(f"polarization must be one of {sorted(ATTENUATION_CONSTANTS)}")
        if not 0.0 < self.grazing_angle_rad <= np.pi / 2:
            raise ValueError("grazing_angle_rad must be in (0, pi/2]")
        if self.gamma_shape <= 0 or self.gamma_scale <= 0:
            raise ValueError("gamma_shape and gamma_scale must be > 0")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must be in (0, 1)")
        if self.spectral_smoothing_bins < 0:
            raise ValueError("spectral_smoothing_bins must be >= 0")

    @property
    def alpha(self) -> float:
        return ATTENUATION_CONSTANTS[self.polarization][0]

    @property
    def beta(self) -> float:
        return ATTENUATION_CONSTANTS[self.polarization][1]


@dataclass(frozen=True)
class FoliageRealization:
    """One pulse's transfer function with its polar decomposition."""

    freq_response: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    pulse_index: int

    def __post_init__(self):
        for name in ("freq_response", "amplitude", "phase"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def mean_attenuation_db(freq_hz: float | np.ndarray, params: FoliageParams) -> np.ndarray:
    """Mean foliage attenuation beta * f_GHz^alpha * sin(45 deg)/sin(gamma_g), in dB."""
    f = np.asarray(freq_hz, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequency must be > 0")
    return params.beta * (f / 1e9) ** params.alpha * (
        np.sin(np.pi / 4) / np.sin(params.grazing_angle_rad))


def sample_gamma_fluctuation(params: FoliageParams, n: int,
                             rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. Gamma(shape a, scale b) samples; mean a*b, variance a*b^2."""
    return rng.gamma(params.gamma_shape, params.gamma_scale, size=n)


def _fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact fractional Gaussian noise by circulant embedding, unit variance."""
    k = np.arange(n + 1, dtype=float)
    rho = 0.5 * ((k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst)
                 - 2 * k ** (2 * hurst))
    circ = np.concatenate([rho, rho[n - 1:0:-1]])
    eig = np.fft.fft(circ).real
    if np.any(eig < -1e-12 * eig.max()):
        raise ValueError("circulant embedding not nonnegative definite")
    eig = np.maximum(eig, 0.0)
    m = 2 * n
    z = np.empty(m, dtype=complex)
    z[0] = np.sqrt(2.0) * rng.standard_normal()
    z[n] = np.sqrt(2.0) * rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = v[:, 0] + 1j * v[:, 1]
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.fft.fft(np.sqrt(eig / (2.0 * m)) * z)[:n].real


def fbm_path(hurst: float, n: int, step_s: float,
             rng: np.random.Generator) -> np.ndarray:
    """Fractional Brownian motion sampled at n points, step_s apart.

    path[0] = 0; increments are exact fGn scaled so the structure function
    is E[(B(t+tau) - B(t))^2] = tau^(2H) with tau in seconds.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must be in (0, 1)")
    if n < 2:
        raise ValueError("need at least 2 path points")
    if step_s <= 0:
        raise ValueError("step_s must be > 0")
    fgn = _fgn_davies_harte(n - 1, hurst, rng)
    path = np.empty(n)
    path[0] = 0.0
    np.cumsum(fgn * step_s**hurst, out=path[1:])
    return path


def incoherent_field(delta_a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """w = 1 + dA exp(j psi): the field whose angle is the fluctuation phase."""
    w = np.empty(np.broadcast_shapes(np.shape(delta_a), np.shape(psi)), dtype=complex)
    np.multiply(delta_a, np.cos(psi), out=w.real)
    w.real += 1.0
    np.multiply(delta_a, np.sin(psi), out=w.imag)
    return w


def phase_fluctuation(delta_a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Incoherent-field phase arctan(dA sin psi / (1 + dA cos psi)).

    Uses the two-argument arctangent, so the result stays in (-pi, pi] even
    when 1 + dA cos(psi) goes negative; for |dA| < 1 it lies in (-pi/2, pi/2).
    """
    return np.angle(incoherent_field(delta_a, psi))


def unit_phasor(w: np.ndarray) -> np.ndarray:
    """w / |w| in place: exp(j angle(w)) without the arctangent.

    Where w = 0 (dA = -1, psi = 0) the phasor is 1, as arctan2(0, 0) = 0 gives.
    """
    mag = np.abs(w)
    zero = mag == 0
    w[zero], mag[zero] = 1.0, 1.0
    w.real /= mag
    w.imag /= mag
    return w


def draw_uniform_phase(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-np.pi, np.pi, size=n)


class FoliageChannel:
    """Per-run foliage realization factory for a fixed frequency grid.

    The fBm flight path (and, unless redraw_per_pulse, the per-bin Gamma
    and uniform-phase draws) is generated once up front. response() gives
    every pulse's transfer function in one array pass; realize(p) is its
    row p, kept as the per-pulse reference form.
    """

    def __init__(self, params: FoliageParams, freq_grid_hz: np.ndarray,
                 n_pulses: int, pulse_interval_s: float):
        if n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        self.params = params
        self.freq_grid_hz = np.asarray(freq_grid_hz, dtype=float)
        self.n_pulses = n_pulses
        a0_db = mean_attenuation_db(self.freq_grid_hz, params)
        self._a0_linear = 10.0 ** (-a0_db / 20.0)  # field amplitude, not power
        if n_pulses >= 2:
            path = fbm_path(params.hurst, n_pulses, pulse_interval_s,
                            substream(params.seed, "foliage_fbm"))
        else:
            path = np.zeros(1)
        self._delta_eta = np.exp(path)
        self._frozen_gamma = None
        self._frozen_psi = None
        if not params.redraw_per_pulse:
            self._frozen_gamma = self._draw_gamma(0)
            self._frozen_psi = draw_uniform_phase(
                substream(params.seed, "foliage_phase", 0), len(self.freq_grid_hz))

    def _draw_gamma(self, index: int) -> np.ndarray:
        rng = substream(self.params.seed, "foliage_gamma", index)
        raw = sample_gamma_fluctuation(self.params, len(self.freq_grid_hz), rng)
        mean = self.params.gamma_shape * self.params.gamma_scale
        d = (raw - mean) / mean  # zero-mean, relative scale; std = 1/sqrt(a)
        k = self.params.spectral_smoothing_bins
        if k > 1:
            d = np.convolve(d, np.ones(k) / k, mode="same")
        return d

    def _transfer(self, pulses: np.ndarray):
        """Amplitude A and incoherent field w [pulse, bin]: delta_A is the outer
        product of the per-bin draws (per-pulse substreams if redrawn) and
        delta_eta, and the phase Phi is the angle of w."""
        n_bins = len(self.freq_grid_hz)
        if self._frozen_gamma is not None:
            d_omega, psi = self._frozen_gamma[None, :], self._frozen_psi[None, :]
        else:
            d_omega = np.array([self._draw_gamma(1 + p) for p in pulses])
            psi = np.array([draw_uniform_phase(
                substream(self.params.seed, "foliage_phase", 1 + p), n_bins)
                for p in pulses])
        delta_a = d_omega * self._delta_eta[pulses, None]
        amp = delta_a + 1.0
        amp *= self._a0_linear
        np.maximum(amp, AMPLITUDE_FLOOR * self._a0_linear, out=amp)
        return amp, incoherent_field(delta_a, psi)

    @staticmethod
    def _response(amp: np.ndarray, w: np.ndarray) -> np.ndarray:
        """F = A w / |w|, built in w's buffer."""
        f = unit_phasor(w)
        f.real *= amp
        f.imag *= amp
        return f

    def response(self) -> np.ndarray:
        """F[pulse, bin] for every pulse; row p is realize(p).freq_response.

        Built BLOCK_PULSES rows at a time, so only the result is a full-size array.
        """
        f = np.empty((self.n_pulses, len(self.freq_grid_hz)), dtype=complex)
        for start in range(0, self.n_pulses, BLOCK_PULSES):
            rows = np.arange(start, min(start + BLOCK_PULSES, self.n_pulses))
            f[start:start + BLOCK_PULSES] = self._response(*self._transfer(rows))
        return f

    def realize(self, pulse_index: int) -> FoliageRealization:
        """Transfer function F_k = A_k exp(j Phi_k) for one pulse; its phase is
        the arctan2 reference form, angle(w)."""
        if not 0 <= pulse_index < self.n_pulses:
            raise IndexError(f"pulse_index {pulse_index} outside [0, {self.n_pulses})")
        amp, w = self._transfer(np.array([pulse_index]))
        phase = np.angle(w[0])
        return FoliageRealization(self._response(amp, w)[0], amp[0], phase, pulse_index)


def dump_realizations_csv(path, channel: FoliageChannel):
    """Write (pulse_index, bin, Re F, Im F) rows of every pulse for inspection."""
    f = channel.response()
    pulse, k = np.indices(f.shape)
    write_csv(path, ["pulse_index", "bin", "re", "im"],
              [pulse.ravel(), k.ravel(), f.real.ravel(), f.imag.ravel()])
