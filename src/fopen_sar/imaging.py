"""Image formation: range compression, azimuth FFT, RCMC, azimuth compression.

CP-OFDM range lines are compressed by per-subcarrier equalization: drop the
M-1 guard samples at each end, transform, divide by the known symbols,
inverse transform, keep the first M outputs. For a noiseless, foliage-free
line this recovers sqrt(N) times the weighting coefficient vector exactly.
Noise-waveform lines are compressed by correlation with the transmitted
replica, as a product of spectra. Azimuth processing is a fixed-reference
range-Doppler chain.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .echo import RawDataMatrix
from .fileio import atomic_write, read_container, write_container
from .foliage import BLOCK_PULSES
from .geometry import PlatformParams, RangeGrid
from .waveform import OfdmSpec, PulseSamples

FIMG_MAGIC = b"FIMG"

RCMC_MODES = ("off", "spectral")


@dataclass(frozen=True)
class RangeCompressedMatrix:
    data: np.ndarray  # [pulse, range_cell]


@dataclass(frozen=True)
class RangeDopplerMatrix:
    """Azimuth-FFT'd data; rows ordered by the attached Doppler axis."""

    data: np.ndarray  # [doppler, range_cell]
    doppler_hz: np.ndarray  # monotonically increasing, 0 at the center bin


@dataclass(frozen=True)
class FocusedImage:
    pixels: np.ndarray  # [azimuth, range_cell]

    @property
    def shape(self):
        return self.pixels.shape


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
    if raw.line_length != n + 2 * m - 2:
        raise ValueError(
            f"raw line length {raw.line_length} != N+2M-2 = {n + 2 * m - 2}")
    k = np.arange(n)
    eq = np.exp(-2j * np.pi * ((m - 1) * k % n) / n) / symbols
    zk = np.fft.fft(raw.data[:, m - 1:m - 1 + n], axis=1)
    zk *= eq
    np.fft.ifft(zk, axis=1, out=zk)
    return RangeCompressedMatrix(np.ascontiguousarray(zk[:, :m]))


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


def range_compress_noise(raw: RawDataMatrix, replica: PulseSamples,
                         n_cells: int) -> RangeCompressedMatrix:
    """Matched-filter each pulse against the transmitted noise replica.

    The correlation is sampled at lags 0 .. M-1 (the valid overlap of the
    N+2M-2 line with the N+M-1 replica) and normalized by the replica
    energy, so a unit single-tap channel gives a unit-magnitude peak. It is
    computed as IFFT(FFT(line, L') * conj(FFT(replica, L'))) at the fast
    length L' = smooth_length(L) >= L: those lags never wrap around L'.
    Pulses are filtered BLOCK_PULSES at a time.
    """
    rep = replica.samples
    expect = len(rep) + n_cells - 1
    if raw.line_length != expect:
        raise ValueError(
            f"raw line length {raw.line_length} incompatible with replica "
            f"({len(rep)}) and {n_cells} cells; expected {expect}")
    n = smooth_length(raw.line_length)
    rep_spec = np.conj(np.fft.fft(rep, n))
    out = np.empty((raw.n_pulses, n_cells), dtype=complex)
    for start in range(0, raw.n_pulses, BLOCK_PULSES):
        spec = np.fft.fft(raw.data[start:start + BLOCK_PULSES], n, axis=1)
        spec *= rep_spec
        np.fft.ifft(spec, axis=1, out=spec)
        out[start:start + BLOCK_PULSES] = spec[:, :n_cells]
    out /= np.sum(np.abs(rep) ** 2)
    return RangeCompressedMatrix(out)


def azimuth_fft(rc: RangeCompressedMatrix, prf_hz: float) -> RangeDopplerMatrix:
    """Transform each range cell to the Doppler domain (axis centered at 0)."""
    n_pulses = rc.data.shape[0]
    if n_pulses < 2:
        raise ValueError("need at least 2 pulses for azimuth processing")
    spec = np.fft.fftshift(np.fft.fft(rc.data, axis=0), axes=0)
    fd = np.fft.fftshift(np.fft.fftfreq(n_pulses, d=1.0 / prf_hz))
    return RangeDopplerMatrix(spec, fd)


def migration_shift_cells(platform: PlatformParams, cell_extent_m: float,
                          doppler_hz: np.ndarray) -> np.ndarray:
    """RCMC shift per Doppler bin: lambda^2 R_c f^2 / (8 v^2), in cells."""
    lam = platform.wavelength_m
    dr = lam**2 * platform.reference_range_m * np.asarray(doppler_hz) ** 2 / (
        8.0 * platform.velocity_mps**2)
    return dr / cell_extent_m


def rcmc(rd: RangeDopplerMatrix, platform: PlatformParams, cell_extent_m: float,
         mode: str = "spectral") -> RangeDopplerMatrix:
    """Range cell migration correction at the fixed reference range.

    Every Doppler row is advanced in range by the reference-range migration
    law. Modes: "spectral" (exact circular FFT phase-ramp shift), "off"
    (identity).
    """
    if mode not in RCMC_MODES:
        raise ValueError(f"rcmc mode must be one of {RCMC_MODES}")
    if mode == "off":
        return rd
    shifts = migration_shift_cells(platform, cell_extent_m, rd.doppler_hz)
    nu = np.fft.fftfreq(rd.data.shape[1])
    ramp = np.exp(2j * np.pi * np.outer(shifts, nu))
    out = np.fft.ifft(np.fft.fft(rd.data, axis=1) * ramp, axis=1)
    return RangeDopplerMatrix(out, rd.doppler_hz)


def azimuth_compress(rd: RangeDopplerMatrix, platform: PlatformParams,
                     window: str = "none") -> FocusedImage:
    """Apply the reference-range azimuth matched filter and invert the FFT.

    H(f) = exp(-j pi f^2 / K_a) with K_a = 2 v^2 / (lambda R_c); the static
    phase exp(+j 4 pi f_c R_c / c) plus the quadratic-chirp stationary-phase
    constant exp(+j pi / 4) then make a boresight reference point's peak
    real-positive.
    """
    ka = platform.doppler_rate_hz_per_s
    h = np.exp(-1j * np.pi * rd.doppler_hz**2 / ka)
    if window == "hann":
        h = h * np.hanning(len(h))
    elif window != "none":
        raise ValueError("window must be 'none' or 'hann'")
    spec = np.fft.ifftshift(rd.data * h[:, None], axes=0)
    img = np.fft.ifft(spec, axis=0)
    img = img * (np.conj(platform.reference_phasor) * np.exp(1j * np.pi / 4))
    return FocusedImage(img)


def focus(raw: RawDataMatrix, spec: OfdmSpec, platform: PlatformParams,
          grid: RangeGrid, symbols: np.ndarray | None = None,
          replica: PulseSamples | None = None, rcmc_mode: str = "off",
          azimuth_window: str = "none") -> FocusedImage:
    """Full image formation for either waveform.

    The reference configuration runs with rcmc_mode="off": the raw-data
    model places every scatterer at a fixed range cell (no envelope walk),
    so the matched migration correction is zero. Enable RCMC only for data
    that actually migrates.
    """
    if raw.waveform_kind == "ofdm":
        if symbols is None:
            raise ValueError("OFDM focusing needs the transmitted symbols")
        rc = range_compress_ofdm(raw, spec, symbols)
    else:
        if replica is None:
            raise ValueError("noise focusing needs the transmitted replica")
        rc = range_compress_noise(raw, replica, spec.n_range_cells)
    rd = azimuth_fft(rc, platform.prf_hz)
    rd = rcmc(rd, platform, grid.cell_extent_m, rcmc_mode)
    return azimuth_compress(rd, platform, azimuth_window)


def write_fimg(path, img: FocusedImage) -> None:
    """Binary image export in the FIMG container (see fileio)."""
    write_container(path, FIMG_MAGIC, img.pixels)


def read_fimg(path) -> np.ndarray:
    return read_container(path, FIMG_MAGIC)


def _db_levels(pixels: np.ndarray, floor_db: float) -> np.ndarray:
    """Magnitude in dB re the image peak, clipped at floor_db, as big-endian
    16-bit levels (floor_db -> 0, peak -> 65535)."""
    mag = np.abs(pixels)
    peak = mag.max()
    if peak == 0:
        return np.zeros(mag.shape, ">u2")
    db = 20.0 * np.log10(np.maximum(mag / peak, 10.0 ** (floor_db / 20.0)))
    return np.round((db - floor_db) / (-floor_db) * 65535.0).astype(">u2")


def write_pgm(path, img: FocusedImage, floor_db: float = -50.0) -> None:
    """16-bit binary PGM of the dB-scaled magnitude."""
    levels = _db_levels(img.pixels, floor_db)
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{levels.shape[1]} {levels.shape[0]}\n65535\n".encode())
        fh.write(levels)


def write_png(path, img: FocusedImage, floor_db: float = -50.0) -> None:
    """16-bit grayscale PNG of the dB-scaled magnitude (stdlib encoder)."""
    levels = _db_levels(img.pixels, floor_db)
    h, w = levels.shape
    rows = np.zeros((h, 1 + 2 * w), np.uint8)  # filter byte 0, then the row
    rows[:, 1:] = levels.view(np.uint8)
    with atomic_write(path, "wb") as fh:
        def chunk(tag, payload):
            fh.write(struct.pack(">I", len(payload)) + tag)
            fh.write(payload)
            fh.write(struct.pack(">I", zlib.crc32(payload, zlib.crc32(tag))))

        fh.write(b"\x89PNG\r\n\x1a\n")
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0))  # 16-bit gray
        chunk(b"IDAT", zlib.compress(rows, 6))
        chunk(b"IEND", b"")
