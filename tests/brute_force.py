"""Independent brute-force oracle for the CP-OFDM range reconstruction.

Everything here is written with explicit loop sums (no FFTs, no library
convolution) so it stays independent of the pipeline it checks: transmit
samples from the defining exponential sum, the echo from the convolution
sum, demodulation and equalization from naive DFT sums phase-referenced to
absolute fast time, and the inverse transform likewise; matched_filter is the
noise waveform's correlation as the same loop sums. point_rcs_estimate
divides one compressed line by the unit-target coefficients gm_vector gives,
back to the scatterer's RCS. synthesize_from_g is the one FFT form here:
the single-pulse echo of an explicit weighting vector, which tests feed
with hand-made vectors. receiver_noise is pulse j's receiver noise as two
whole-line draws of its own substream, the real part first.

The foliage draw references close the file: gamma(a, b) and uniform(-pi, pi)
draws in numpy's own forms, which the channel's standard_gamma and random
draws must equal bit for bit; the incoherent field w = 1 + dA exp(j psi) from
cos psi and sin psi, its phase taken with the arctangent and its unit phasor
w / |w|; the rounding bound within which the channel's tangent form of F must
equal that textbook form; and the whole F matrix stacked from the channel's
block stream.
"""

import cmath

import numpy as np

from fopen_sar.geometry import PointTarget, Scene, gm_vector
from fopen_sar.rng import substream


def ofdm_samples(symbols, n, m):
    """s_i = (1/sqrt(N)) sum_k X_k e^{j 2 pi k i / N}, i = 0 .. N+M-2."""
    out = []
    for i in range(n + m - 1):
        acc = 0j
        for k in range(n):
            acc += symbols[k] * cmath.exp(2j * cmath.pi * k * i / n)
        out.append(acc / cmath.sqrt(n))
    return np.array(out)


def echo_line(g, s, n, m):
    """z_i = sum_m g_m s_{i-m}, i = 0 .. N+2M-3."""
    out = []
    for i in range(n + 2 * m - 2):
        acc = 0j
        for mm in range(m):
            j = i - mm
            if 0 <= j < len(s):
                acc += g[mm] * s[j]
        out.append(acc)
    return np.array(out)


def range_reconstruct(z, symbols, n, m):
    """Naive DFT demodulation and equalization; returns g_hat (length m).

    The forward sum runs over the absolute fast-time indices M-1 .. N+M-2,
    which is the phase reference under which Z_k = X_k G_k holds for the
    cyclically extended pulse.
    """
    zk = []
    for k in range(n):
        acc = 0j
        for idx in range(m - 1, n + m - 1):
            acc += z[idx] * cmath.exp(-2j * cmath.pi * k * idx / n)
        zk.append(acc / cmath.sqrt(n))
    gk = [zk[k] / symbols[k] for k in range(n)]
    ghat = []
    for mm in range(m):
        acc = 0j
        for k in range(n):
            acc += gk[k] * cmath.exp(2j * cmath.pi * mm * k / n)
        ghat.append(acc / cmath.sqrt(n))
    return np.array(ghat)


def full_chain(symbols, g, n, m):
    """Transmit, echo, reconstruct; returns (z, g_hat)."""
    s = ofdm_samples(symbols, n, m)
    z = echo_line(g, s, n, m)
    return z, range_reconstruct(z, symbols, n, m)


def matched_filter(z, replica):
    """c_lag = sum_i z[lag + i] conj(replica[i]) / sum_i |replica[i]|^2 at every
    lag where the replica lies wholly inside z."""
    energy = sum(abs(r) ** 2 for r in replica)
    return np.array([sum(z[lag + i] * r.conjugate() for i, r in enumerate(replica)) / energy
                     for lag in range(len(z) - len(replica) + 1)])


def point_rcs_estimate(rc_line, grid, platform, eta, n_subcarriers):
    """Single-pulse RCS estimate: divide each cell by sqrt(N) times the
    weighting coefficient of a unit target in that cell (its beam gain and
    two-way carrier phase), with magnitudes below 1e-300 raised to 1e-300
    and the phase kept."""
    m = len(rc_line)
    unit = gm_vector(Scene(tuple(PointTarget(c) for c in range(m)), m), grid, platform, eta)
    unit = np.where(np.abs(unit) < 1e-300, 1e-300 * np.exp(1j * np.angle(unit)), unit)
    return rc_line / (np.sqrt(n_subcarriers) * unit)


def synthesize_from_g(g, pulse):
    """Raw line for an explicit weighting vector: the linear convolution
    g * s, as a circular one at its full length."""
    g = np.asarray(g, dtype=complex)
    n = len(g) + len(pulse) - 1
    return np.fft.ifft(np.fft.fft(g, n) * np.fft.fft(pulse, n))


def receiver_noise(pulse, snr_db: float, master_seed: int, j: int, n: int) -> np.ndarray:
    """Pulse j's n samples of receiver noise, sigma (a + 1j b): sigma^2 is half the
    pulse's peak power over 10^(snr_db / 10), and a then b are standard_normal(n)
    draws of the receiver_noise substream j."""
    sigma = np.sqrt(np.max(np.abs(pulse) ** 2) / 10.0 ** (snr_db / 10.0) / 2.0)
    rng = substream(master_seed, "receiver_noise", j)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def sample_gamma_fluctuation(shape: float, scale: float, n: int,
                             rng: "np.random.Generator") -> np.ndarray:
    """n i.i.d. Gamma(shape a, scale b) samples; mean a*b, variance a*b^2."""
    return rng.gamma(shape, scale, size=n)


def draw_uniform_phase(rng: "np.random.Generator", n: int) -> np.ndarray:
    return rng.uniform(-np.pi, np.pi, size=n)


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


def phasor_bound(amp: np.ndarray, delta_a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Elementwise bound c e A ((1 + |dA|) / |w_o| + 1) on |F - F_o|, where F is the
    channel's A w' / |w'| from t = tan(psi / 2), F_o = A unit_phasor(w_o) with
    w_o = incoherent_field(dA, psi), and e = np.finfo(float).eps.

    c = 24 follows from the roundings both forms make; it is not fitted. Let w be
    1 + dA exp(j psi) exact for the float dA and psi, S = 1 + |dA|, T = 1 + t^2,
    and count every arithmetic rounding as relative e/2. cos, sin, tan and complex
    abs are taken as within 2 ulps (numpy 2.4 against mpmath at 20,000 points:
    0.51, 0.51, 0.54 and 1.8 ulps), so cos and sin within e absolute, t and |.|
    within 2e relative.
    - w_o: dA cos psi is off by e|dA| + e|dA|/2, then 1 + . by eS/2, so its real
      part is within 2eS and its imaginary part within 1.5eS: |w_o - w| <= 2.5eS.
    - w': t^2 is within 4.5e relative, t^2 (1 - dA) within 5.5e of t^2 |1 - dA|
      <= t^2 S, and the sum with 1 + dA adds eS/2 + eST/2: the real part of w' is
      within 6eST. Its imaginary part 2 dA t is within 2.5e of 2|dA t| <= ST. So
      |w' - T w| <= 6.5eST, and T w has the direction of w, with |T w| = T|w|.
    - Two vectors within r of v point within 2r / |v| of the direction of v: the
      two unit phasors differ by at most 2 (2.5 + 6.5) eS / |w| = 18eS / |w| before
      normalising. Each normalisation (|.| within 2e, then two divisions) adds
      2.5e, and each product with A adds e/2: |F - F_o| <= A (18eS / |w| + 6e).
    - |w| >= |w_o| (1 - 2e) - 2.5eS. Where |w_o| >= 12eS this is >= 0.79 |w_o|,
      and 18 / 0.79 < 24. Where |w_o| < 12eS the bound is over 2A, and no two
      unit phasors times A, each within 3e of unit length, differ by more.
    So c = 24 holds for every dA and psi. A wrong key, stream, smoothing,
    delta_eta or floor is an O(A) error, which the bound hides only where |w_o|
    is below 24eS, about 5e-15 S. Where w_o = 0 the bound is infinite.
    """
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore"):
        ratio = (1.0 + np.abs(delta_a)) / np.abs(incoherent_field(delta_a, psi))
    return 24.0 * eps * amp * (ratio + 1.0)


def stacked_response(channel) -> np.ndarray:
    """F[pulse, bin] for every pulse: copies of the channel's blocks() stacked."""
    return np.concatenate([rows.copy() for rows in channel.blocks()])
