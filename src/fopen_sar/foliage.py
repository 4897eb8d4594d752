"""Statistical two-way foliage transfer function F(omega, eta, gamma_g).

Per pulse, F is a complex multiplier over the range-line frequency grid:
F_k = A_k exp(j Phi_k). The amplitude combines a deterministic mean
attenuation (a power-law fit in frequency, scaled by grazing angle) with a
multiplicative fluctuation delta_A = delta_omega * delta_eta, where
delta_omega is a Gamma draw per frequency bin taken relative to its mean,
(x - a) / a, so the Gamma scale drops out, and delta_eta tracks the flight
path through the exponential of a fractional Brownian motion.
The phase is the incoherent-field fluctuation arctan(dA sin psi / (1 + dA
cos psi)) with psi uniform on [-pi, pi]: the angle of the incoherent field
w = 1 + dA exp(j psi). F carries it through t = tan(psi / 2), with which
(1 + t^2) w = (1 + dA) + t^2 (1 - dA) + 2j dA t. As 1 + t^2 > 0, this w' has
the angle of w, so F = A w' / |w'| needs no arctangent, cosine or sine, and
no division by 1 + t^2.

The per-bin draws model a fixed foliage environment: by default key 0's
draws serve every pulse, and pulse-to-pulse variation enters through
delta_eta; redraw_per_pulse=True draws pulse p from key p + 1. One routine
turns a key's draws into the per-bin (delta_omega, 2t, t^2), t = tan(psi / 2):
once per run for the frozen channel, once per block for a redrawn one.

FoliageChannel.blocks() streams F block_rows(pulses, bins) pulses at a time;
synthesis, the CSV dump and realize() all read that one stream.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import substream, substreams

# Mean-attenuation power-law constants (dB, f in GHz) per polarization.
ATTENUATION_CONSTANTS = {
    "HH": (0.79, 0.05),  # (alpha, beta)
    "VV": (0.5, 0.45),
}

# Floor on the fluctuation factor 1 + delta_A, which a Gamma draw can take
# to zero or below.
AMPLITUDE_FLOOR = 1e-6

# Bytes of a [row, value] block, one row at least: the full preset's 32 pulses of
# 1406 bins, as at every preset. Block temporaries under 1 MB the C allocator keeps
# and reuses run after run; whole-matrix ones (5.8 MB each at the full preset) it
# hands back to the system, so every run page-faults them in afresh, at more cost.
BLOCK_BYTES = 704 * 1024


def block_rows(rows: int, row_length: int) -> int:
    """Rows per block of a [rows, row_length] complex pass: BLOCK_BYTES' worth, 1 to rows."""
    return max(1, min(rows, BLOCK_BYTES // (16 * row_length)))


@dataclass(frozen=True)
class FoliageParams:
    """The scenario's foliage section, resolved, taken as given (validate_scenario
    checks it); the run's seed, which keys the draws, goes to FoliageChannel."""

    polarization: str
    grazing_angle_rad: float
    gamma_shape: float = 4.0
    hurst: float = 0.4
    redraw_per_pulse: bool = False
    spectral_smoothing_bins: int = 0


def mean_attenuation_db(freq_hz: float | np.ndarray, params: FoliageParams) -> np.ndarray:
    """Mean foliage attenuation beta * f_GHz^alpha * sin(45 deg)/sin(gamma_g), in dB."""
    alpha, beta = ATTENUATION_CONSTANTS[params.polarization]
    f = np.asarray(freq_hz, dtype=float)
    return beta * (f / 1e9) ** alpha * (
        np.sin(np.pi / 4) / np.sin(params.grazing_angle_rad))


def _fgn_davies_harte(n: int, hurst: float, rng: "np.random.Generator") -> np.ndarray:
    """Exact fractional Gaussian noise by circulant embedding, unit variance.

    The embedding's exact eigenvalues are nonnegative for every 0 < H < 1 (Craigmile
    2003 for H <= 1/2; rho convex and decreasing for H > 1/2, Dietrich & Newsam 1997),
    so a computed negative within the rounding bound below is clamped to 0, and one
    past it raises. Bound, e = eps: each power (k + 1)^2H, |k - 1|^2H, k^2H taken as
    within 4e relative (4 ulp), and the sum and difference rounding by e each, rho_k,
    which cancels from about k^2H to H (2H - 1) k^(2H - 2), is within
    3e ((k + 1)^2H + |k - 1|^2H + 2 k^2H) <= 12e (k + 1)^2H. An eigenvalue sums the
    m = 2n circulant entries times unit phasors, so their errors move it by at most
    12e times the sum of (k + 1)^2H over the entries, under 24e times the sum over
    k = 0..n; the FFT of entries of size <= 1 (rho is a correlation) adds at most
    16 log2(2m) e m (3.8e per radix-2 pass, Higham, Accuracy and Stability of
    Numerical Algorithms, Theorem 24.2, with room for Bluestein's three transforms of
    length >= 2m). Measured for H from 1e-9 to 1 - 1e-9 and n up to 2^20 - 1, the most
    negative eigenvalue is at most 0.002 of the bound (-2.4e-7 against 1.2e-4 at
    H = 1 - 1e-9, n = 4095)."""
    k = np.arange(n + 1, dtype=float)
    powers = (k + 1) ** (2 * hurst)
    rho = 0.5 * (powers + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    circ = np.concatenate([rho, rho[n - 1:0:-1]])
    eig = np.fft.fft(circ).real
    m = 2 * n
    if eig.min() < -np.finfo(float).eps * (24 * powers.sum() + 16 * m * np.log2(2 * m)):
        raise ValueError("circulant embedding negative past its rounding bound")
    eig = np.maximum(eig, 0.0)
    z = np.empty(m, dtype=complex)
    z[0] = np.sqrt(2.0) * rng.standard_normal()
    z[n] = np.sqrt(2.0) * rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = v[:, 0] + 1j * v[:, 1]
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.fft.fft(np.sqrt(eig / (2.0 * m)) * z)[:n].real


def fbm_path(hurst: float, n: int, step_s: float,
             rng: "np.random.Generator") -> np.ndarray:
    """Fractional Brownian motion sampled at n points, step_s apart.

    path[0] = 0; increments are exact fGn scaled so the structure function
    is E[(B(t+tau) - B(t))^2] = tau^(2H) with tau in seconds.
    """
    fgn = _fgn_davies_harte(n - 1, hurst, rng)
    path = np.empty(n)
    path[0] = 0.0
    np.cumsum(fgn * step_s**hurst, out=path[1:])
    return path


class FoliageChannel:
    """Per-run foliage transfer function on a range line's FFT bin grid.

    The run's seed keys the fBm, Gamma and phase streams: the fBm flight path
    (and, unless redraw_per_pulse, key 0's _draw) is generated once up front,
    and pulse p's redrawn draws are key p + 1's. blocks() is the one producer of
    F[pulse, bin], a block at a time; realize(p) reads row p from it.
    """

    def __init__(self, params: FoliageParams, seed: int, freq_grid_hz: np.ndarray,
                 n_pulses: int, pulse_interval_s: float):
        self.params = params
        self.seed = seed
        self.freq_grid_hz = np.asarray(freq_grid_hz, dtype=float)
        self.n_pulses = n_pulses
        a0_db = mean_attenuation_db(self.freq_grid_hz, params)
        self._a0_linear = 10.0 ** (-a0_db / 20.0)  # field amplitude, not power
        self._delta_eta = np.exp(fbm_path(params.hurst, n_pulses, pulse_interval_s,
                                          substream(seed, "foliage_fbm")))
        self._frozen = None
        if not params.redraw_per_pulse:  # key 0's draws serve every pulse
            self._frozen = self._draw(*np.empty((3, 1, len(self.freq_grid_hz))),
                                      [(substream(seed, "foliage_gamma", 0),
                                        substream(seed, "foliage_phase", 0))])

    def _draw(self, d: np.ndarray, two_t: np.ndarray, t2: np.ndarray, streams):
        """Key draws to per-bin (delta_omega, 2t, t^2), formed in d, two_t and t2 and
        returned, from one (gamma, phase) stream pair per row. delta_omega is the
        relative Gamma fluctuation (x - a) / a (the scale drops out), smoothed by a
        moving average along frequency (the bins in fftshift order), zero padded past
        the band's two edges. t = tan(psi / 2) with psi uniform on [-pi, pi] is
        tan(pi u - pi / 2) of a uniform draw u: pi u - pi / 2 is (2 pi u - pi) / 2,
        uniform(-pi, pi) halved, bit for bit."""
        p = self.params
        # rows first: zip then stops without taking a pair past the last row
        for g_row, u_row, (g_rng, p_rng) in zip(d, two_t, streams):
            g_rng.standard_gamma(p.gamma_shape, out=g_row)
            p_rng.random(out=u_row)
        d -= p.gamma_shape
        d /= p.gamma_shape
        k = p.spectral_smoothing_bins
        if k > 1:
            for row in d:
                row[:] = np.fft.ifftshift(
                    np.convolve(np.fft.fftshift(row), np.ones(k) / k, mode="same"))
        two_t *= np.pi
        two_t -= np.pi / 2
        np.tan(two_t, out=two_t)
        np.multiply(two_t, two_t, out=t2)
        two_t += two_t
        return d, two_t, t2

    def blocks(self):
        """F = A w' / |w'| of block_rows(pulses, bins) pulses at a time, from pulse 0
        on, in one reused complex block, w' = (1 + dA) + t^2 (1 - dA) + 2j dA t. The
        per-bin (delta_omega, 2t, t^2) are the frozen channel's, or _draw's of the block's
        keys into the block's buffers, and the rest is one formula. One real buffer holds
        delta_A (delta_omega times delta_eta), then 1 + delta_A, then A; the other a
        drawn block's u, then 2t, then t^2 (1 - dA), then |w'|. A drawn block's
        delta_omega is the first buffer itself, and its t^2 waits in F's real part."""
        height = block_rows(self.n_pulses, len(self.freq_grid_hz))
        f = np.empty((height, len(self.freq_grid_hz)), dtype=complex)
        delta_a, mag = np.empty((2,) + f.shape)
        if self._frozen is None:
            keys = np.arange(1, self.n_pulses + 1)
            draws = zip(substreams(self.seed, "foliage_gamma", keys),
                        substreams(self.seed, "foliage_phase", keys))
        for start in range(0, self.n_pulses, height):
            w, d, m = (a[:self.n_pulses - start] for a in (f, delta_a, mag))
            delta_omega, two_t, t2 = self._frozen or self._draw(d, m, w.real, draws)
            np.multiply(delta_omega, self._delta_eta[start:start + len(w), None], out=d)
            np.multiply(d, two_t, out=w.imag)
            np.subtract(1.0, d, out=m)
            m *= t2
            d += 1.0
            np.add(d, m, out=w.real)
            np.abs(w, out=m)
            if not m.all():  # w' = 0 (dA = -1, psi = 0): angle 0, as arctan2(0, 0) gives
                zero = m == 0
                w[zero], m[zero] = 1.0, 1.0
            w.real /= m
            w.imag /= m
            d *= self._a0_linear
            np.maximum(d, AMPLITUDE_FLOOR * self._a0_linear, out=d)
            w.real *= d
            w.imag *= d
            yield w

    def realize(self, pulse_index: int) -> np.ndarray:
        """One pulse's transfer function F_k: a read-only copy of row pulse_index of
        the blocks() stream."""
        if not 0 <= pulse_index < self.n_pulses:
            raise IndexError(f"pulse_index {pulse_index} outside [0, {self.n_pulses})")
        height = block_rows(self.n_pulses, len(self.freq_grid_hz))
        rows = next(itertools.islice(self.blocks(), pulse_index // height, None))
        f = rows[pulse_index % height].copy()
        f.setflags(write=False)
        return f
