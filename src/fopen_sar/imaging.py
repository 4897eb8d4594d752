"""Image formation: range compression, azimuth FFT, azimuth compression.

CP-OFDM range lines are compressed by per-subcarrier equalization: drop the
M-1 guard samples at each end, transform, divide by the known symbols,
inverse transform, keep the first M outputs. For a noiseless, foliage-free
line this recovers sqrt(N) times the weighting coefficient vector exactly.
Noise-waveform lines are compressed by correlation with the transmitted
replica, as a product of spectra. Azimuth processing is a fixed-reference
range-Doppler chain kept in FFT bin order.
"""

from dataclasses import dataclass

import numpy as np

from .echo import RawDataMatrix
from .foliage import BLOCK_PULSES
from .geometry import PlatformParams
from .waveform import OfdmSpec


@dataclass(frozen=True)
class RangeCompressedMatrix:
    data: np.ndarray  # [pulse, range_cell]


@dataclass(frozen=True)
class FocusedImage:
    pixels: np.ndarray  # [azimuth, range_cell]


def range_compress_ofdm(raw: RawDataMatrix, spec: OfdmSpec,
                        symbols: np.ndarray) -> RangeCompressedMatrix:
    """Equalize each pulse: FFT, divide by symbols, IFFT, keep M cells.

    The de-prefixed window starts at fast-time sample M-1; the transform is
    phase-referenced to absolute fast time (a circular pre-roll by M-1),
    which is what makes the recovery g_hat = sqrt(N) * g exact for the
    cyclic pulse. The pre-roll is the phase ramp exp(-2 pi i (M-1) k / N)
    on bin k, folded with 1/X_k into one equalizer; its exponent is taken
    mod N so the ramp stays accurate for large (M-1) k.
    """
    n, m = spec.n_subcarriers, spec.n_range_cells
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (n,):
        raise ValueError(f"expected {n} symbols, got {symbols.shape}")
    if np.any(symbols == 0):
        raise ZeroDivisionError("symbols must be nonzero for equalization")
    if raw.data.shape[1] != spec.line_length:
        raise ValueError(
            f"raw line length {raw.data.shape[1]} != N+2M-2 = {spec.line_length}")
    k = np.arange(n)
    eq = np.exp(-2j * np.pi * ((m - 1) * k % n) / n) / symbols
    return RangeCompressedMatrix(_filter_rows(raw.data[:, m - 1:m - 1 + n], eq, m))


def _filter_rows(lines: np.ndarray, response: np.ndarray, n_out: int) -> np.ndarray:
    """IFFT(FFT(line, n) * response)[:n_out] of every row, n = len(response),
    BLOCK_PULSES rows at a time in one reused block buffer."""
    n = len(response)
    out = np.empty((len(lines), n_out), dtype=complex)
    buf = np.empty((min(BLOCK_PULSES, len(lines)), n), dtype=complex)
    for start in range(0, len(lines), BLOCK_PULSES):
        rows = lines[start:start + BLOCK_PULSES]
        block = np.fft.fft(rows, n, axis=1, out=buf[:len(rows)])
        block *= response
        np.fft.ifft(block, axis=1, out=block)
        out[start:start + BLOCK_PULSES] = block[:, :n_out]
    return out


def smooth_length(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n: a fast FFT length.

    Each 3^b 5^c below the answer is raised by the fewest doublings that
    reach n; the least of those is the answer.
    """
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << max(-(-n // p) - 1, 0).bit_length())
            p *= 3
        p5 *= 5
    return best


def range_compress_noise(raw: RawDataMatrix, replica: np.ndarray) -> RangeCompressedMatrix:
    """Matched-filter each pulse against the transmitted noise replica.

    The correlation is sampled at the M = L - len(replica) + 1 lags where the
    replica lies wholly inside the L-sample line (M cells for N+2M-2 against
    N+M-1), normalized by the replica energy so a unit single-tap channel gives
    a unit-magnitude peak. It is IFFT(FFT(line, L') * conj(FFT(replica, L')))
    at the fast length L' = smooth_length(L) >= L: those lags never wrap around
    L'. Pulses are filtered BLOCK_PULSES at a time.
    """
    length = raw.data.shape[1]
    if length < len(replica):
        raise ValueError(f"raw line length {length} is shorter than the replica ({len(replica)})")
    n = smooth_length(length)
    out = _filter_rows(raw.data, np.conj(np.fft.fft(replica, n)), length - len(replica) + 1)
    out /= np.sum(np.abs(replica) ** 2)
    return RangeCompressedMatrix(out)


def azimuth_fft(rc: RangeCompressedMatrix) -> np.ndarray:
    """Transform each range cell to the Doppler domain, rows in FFT bin order."""
    if rc.data.shape[0] < 2:
        raise ValueError("need at least 2 pulses for azimuth processing")
    return np.fft.fft(rc.data, axis=0)


def migration_shift_cells(platform: PlatformParams, cell_extent_m: float,
                          doppler_hz: np.ndarray) -> np.ndarray:
    """RCMC shift per Doppler bin in cells: lambda^2 R_c f^2 / (8 v^2), or lambda f^2 / (4 K_a)."""
    m_per_hz2 = platform.wavelength_m / (4.0 * platform.doppler_rate_hz_per_s)
    return m_per_hz2 * np.asarray(doppler_hz) ** 2 / cell_extent_m


def rcmc(rd: np.ndarray, doppler_hz: np.ndarray, platform: PlatformParams,
         cell_extent_m: float) -> np.ndarray:
    """Range cell migration correction at the fixed reference range: row i of
    rd (Doppler doppler_hz[i]) is advanced by the migration law, as an exact
    circular FFT phase-ramp shift. focus does not call it: no echo migrates."""
    shifts = migration_shift_cells(platform, cell_extent_m, doppler_hz)
    ramp = np.exp(2j * np.pi * np.outer(shifts, np.fft.fftfreq(rd.shape[1])))
    return np.fft.ifft(np.fft.fft(rd, axis=1) * ramp, axis=1)


def azimuth_compress(rd: np.ndarray, platform: PlatformParams,
                     window: str = "none") -> FocusedImage:
    """Apply the reference-range azimuth matched filter and invert the FFT.

    rd's rows are the Doppler bins f = fftfreq(len(rd), 1 / prf), in FFT order.
    H(f) = exp(-j pi f^2 / K_a) with K_a = 2 v^2 / (lambda R_c); the static
    phase exp(+j 4 pi f_c R_c / c) plus the quadratic-chirp stationary-phase
    constant exp(+j pi / 4) then make a boresight reference point's peak
    real-positive. The Hann window is the periodic one on the Doppler axis,
    0.5 + 0.5 cos(2 pi f / prf): 1 at zero Doppler and even in f for any
    pulse count.
    """
    doppler_hz = np.fft.fftfreq(len(rd), 1.0 / platform.prf_hz)
    ka = platform.doppler_rate_hz_per_s
    h = np.exp(-1j * np.pi * doppler_hz**2 / ka)
    if window == "hann":
        h *= 0.5 + 0.5 * np.cos(2 * np.pi * doppler_hz / platform.prf_hz)
    img = rd * h[:, None]
    np.fft.ifft(img, axis=0, out=img)
    img *= np.conj(platform.reference_phasor) * np.exp(1j * np.pi / 4)
    return FocusedImage(img)


def focus(raw: RawDataMatrix, spec: OfdmSpec, platform: PlatformParams,
          reference: np.ndarray, azimuth_window: str = "none") -> FocusedImage:
    """Full image formation for either waveform, given its reference: the
    transmitted symbols for OFDM data, the transmitted pulse for noise data.
    No migration stage: the echo model keeps every scatterer in its range cell.
    Pass raw as a temporary: focus drops it once it is range-compressed, so
    the azimuth stages never hold it.
    """
    if raw.waveform_kind == "noise" and len(reference) != spec.pulse_length:
        raise ValueError(f"replica of {len(reference)} samples, not N+M-1 = {spec.pulse_length}")
    rc = (range_compress_ofdm(raw, spec, reference) if raw.waveform_kind == "ofdm"
          else range_compress_noise(raw, reference))
    del raw
    return azimuth_compress(azimuth_fft(rc), platform, azimuth_window)
