"""Raw data synthesis: batched convolution, foliage injection, noise.

Each range line is the linear convolution of the transmitted pulse (length
N+M-1) with the length-M weighting RCS coefficient vector evaluated at that
pulse's slow time, giving L = N+2M-2 samples; pulses are formed a block at
a time, raw = IFFT(FFT(G, L) * FFT(s, L) * F). No seed enters G, so the
last geometry's FFT(G, L) is kept for every seed of that geometry: for a
scene whose targets all sit in one range cell c, as G[:, c] times the
spectrum of a unit impulse at c, so a clear scene's raw matrix is G[:, c]
times one inverse-transformed line; for a scene of several cells, whole.
Foliage, when configured, is the per-pulse spectral multiplier F, read
block by block from FoliageChannel.blocks(); receiver noise is added after
the foliage, matching the signal-flow order of the channel model.
"""

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from .foliage import BLOCK_PULSES, FoliageChannel, FoliageParams
from .geometry import PlatformParams, Scene, gm_vector, make_grid
from .rng import substreams
from .waveform import OfdmSpec, generate_noise_pulse, generate_ofdm_pulse


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to synthesize one raw data matrix, taken as given
    (validate_scenario checks it). master_seed keys every stream of the run but
    the BPSK symbols, which ofdm.symbol_seed keys; a scenario sets both alike."""

    waveform_kind: str  # "ofdm" | "noise"
    ofdm: OfdmSpec
    scene: Scene
    platform: PlatformParams
    foliage: FoliageParams | None = None
    snr_db: float | None = None  # None disables receiver noise
    master_seed: int = 0


@dataclass(frozen=True)
class RawDataMatrix:
    """Slow-time x fast-time complex echo samples plus axes."""

    data: np.ndarray
    slow_time_s: np.ndarray
    waveform_kind: str


def transmitted_pulse(config: SimulationConfig) -> np.ndarray:
    """The pulse actually transmitted for this config, read-only.

    The noise pulse, drawn from the master seed, is rescaled to the OFDM
    pulse's energy so the two waveforms are compared at equal transmit energy.
    """
    ofdm_pulse = generate_ofdm_pulse(config.ofdm)
    if config.waveform_kind == "ofdm":
        return ofdm_pulse
    noise = generate_noise_pulse(config.ofdm.pulse_length, config.master_seed)
    e_ofdm = float(np.sum(np.abs(ofdm_pulse) ** 2))
    e_noise = float(np.sum(np.abs(noise) ** 2))
    pulse = noise * np.sqrt(e_ofdm / e_noise)
    pulse.setflags(write=False)
    return pulse


def foliage_channel(config: SimulationConfig) -> FoliageChannel | None:
    """Build the per-run foliage channel on the raw-line frequency grid."""
    if config.foliage is None:
        return None
    freqs = config.ofdm.line_frequencies(config.platform.carrier_hz)
    return FoliageChannel(config.foliage, config.master_seed, freqs,
                          config.platform.n_pulses(), 1.0 / config.platform.prf_hz)


def apply_foliage(line: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Multiply the range line by one pulse's F_k in the frequency domain."""
    line = np.asarray(line)
    if np.shape(f) != line.shape:
        raise ValueError(f"foliage length {np.shape(f)} does not match line length {line.shape}")
    return np.fft.ifft(np.fft.fft(line) * f)


# The last geometry's memo: its key and the pair (g, ramp) with FFT(G, n) = g * ramp.
_geometry = {}
_geometry_lock = threading.Lock()


def geometry_spectrum(scene: Scene, platform: PlatformParams, bandwidth_hz: float,
                      n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """FFT(G, n) of the weighting matrix G[pulse, cell] as the read-only pair
    (g, ramp) with FFT(G, n) = g * ramp, the same two objects on every call.
    A scene whose targets all sit in one range cell c (an empty scene counts
    as cell 0) gives g = G[:, c:c+1] and ramp = exp(-2 pi i (c k mod n) / n),
    the spectrum of a unit impulse at c; a scene of several cells gives
    g = FFT(G, n), as large as a raw matrix, and ramp = None. No seed enters
    G, so the last geometry's memo, built under one lock from one gm_vector
    call, is shared by every run and seed thread until the geometry changes.
    """
    key = (scene, platform, bandwidth_hz, n)
    with _geometry_lock:
        if _geometry.get("key") != key:
            _geometry.clear()
            grid = make_grid(scene.n_range_cells, bandwidth_hz, platform)
            g = gm_vector(scene, grid, platform, platform.slow_time_axis())
            cells = {t.range_cell for t in scene.targets}
            if len(cells) <= 1:
                c = cells.pop() if cells else 0
                g = g[:, c:c + 1].copy()
                ramp = np.exp(-2j * np.pi / n * (c * np.arange(n) % n))
                ramp.setflags(write=False)
            else:
                g, ramp = np.fft.fft(g, n, axis=-1), None
            g.setflags(write=False)
            _geometry.update(key=key, g=g, ramp=ramp)
        return _geometry["g"], _geometry["ramp"]


def synthesize_raw(config: SimulationConfig, threads: int = 1) -> RawDataMatrix:
    """Synthesize the raw data matrix in place, BLOCK_PULSES rows at a time: the
    FFT(G, L) rows, times the F block of FoliageChannel.blocks() (if any), times
    FFT(s, L), inverse-transformed, plus receiver noise. It is the one full-size
    array a run allocates besides the geometry memo. For a one-cell scene
    FFT(G, L) = G[:, c] * ramp, and the ramp is multiplied into FFT(s, L) once
    per run: with foliage each block is G[:, c] times F times that row, and
    without it every raw row is G[j, c] times one inverse-transformed line,
    which agrees with the blocked form to rounding. threads is the caller's
    worker cap; a run uses one thread."""
    n = config.ofdm.line_length
    pulse = transmitted_pulse(config)
    channel = foliage_channel(config)
    g, ramp = geometry_spectrum(config.scene, config.platform, config.ofdm.bandwidth_hz, n)
    s_spec = np.fft.fft(pulse, n)
    line = None
    if ramp is not None:  # FFT(G, L) * FFT(s, L) = G[:, c] * (ramp * FFT(s, L))
        s_spec *= ramp
        if channel is None:  # the inverse transform is linear: one line serves every pulse
            line = np.fft.ifft(s_spec)
    data = np.empty((config.platform.n_pulses(), n), dtype=complex)
    foliage = itertools.repeat(None) if channel is None else channel.blocks()
    if config.snr_db is not None:
        # SNR is referenced to the transmitted pulse's peak power, which a
        # unit-RCS boresight target echoes unattenuated: scene-independent.
        peak = float(np.max(np.abs(pulse) ** 2))
        sigma = np.sqrt(peak / 10.0 ** (config.snr_db / 10.0) / 2.0)
        streams = substreams(config.master_seed, "receiver_noise", range(len(data)))
        noise = np.empty((BLOCK_PULSES, 2, n))
    for start, f in zip(range(0, len(data), BLOCK_PULSES), foliage):
        span = slice(start, start + BLOCK_PULSES)
        rows = data[span]
        if line is not None:
            np.multiply(g[span], line, out=rows)
        else:
            g_rows = g[span]  # FFT(G, L) rows, or G[:, c] rows broadcast over the bins
            if f is not None:
                g_rows = np.multiply(f, g_rows, out=rows)
            np.multiply(g_rows, s_spec, out=rows)
            np.fft.ifft(rows, axis=1, out=rows)
        if config.snr_db is not None:  # pulse j's substream draws its real, then imaginary part
            block = noise[:len(rows)]
            for re_im, rng in zip(block, streams):  # rows first: streams advance last
                rng.standard_normal(out=re_im)
            block *= sigma
            rows.real += block[:, 0]
            rows.imag += block[:, 1]
    return RawDataMatrix(data, config.platform.slow_time_axis(), config.waveform_kind)
