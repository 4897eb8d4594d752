"""Raw data synthesis: batched convolution, foliage injection, noise.

Each range line is the linear convolution of the transmitted pulse (length
N+M-1) with the length-M weighting RCS coefficient vector evaluated at that
pulse's slow time, giving L = N+2M-2 samples; all pulses are formed in one
pass, raw = IFFT(FFT(G, L) * FFT(s, L) * F). FFT(G, L) depends on the
geometry alone, so it is computed once and reused by every seed of that
geometry. Foliage, when configured, is the per-pulse spectral multiplier F;
receiver noise is added after the foliage, matching the signal-flow order
of the channel model.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .fileio import read_container, write_container, write_csv
from .foliage import FoliageChannel, FoliageParams, FoliageRealization
from .geometry import PlatformParams, Scene, gm_vector, make_grid
from .rng import substream
from .waveform import (NoiseSpec, OfdmSpec, PulseSamples, generate_noise_pulse,
                       generate_ofdm_pulse, match_energy)

FSAR_MAGIC = b"FSAR"


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to synthesize one raw data matrix."""

    waveform_kind: str  # "ofdm" | "noise"
    ofdm: OfdmSpec
    scene: Scene
    platform: PlatformParams
    foliage: FoliageParams | None = None
    snr_db: float | None = None  # None disables receiver noise
    master_seed: int = 0

    def __post_init__(self):
        if self.waveform_kind not in ("ofdm", "noise"):
            raise ValueError("waveform_kind must be 'ofdm' or 'noise'")
        if self.scene.n_range_cells != self.ofdm.n_range_cells:
            raise ValueError("scene and waveform disagree on the range cell count")

    @property
    def line_length(self) -> int:
        return self.ofdm.n_subcarriers + 2 * self.ofdm.n_range_cells - 2


@dataclass(frozen=True)
class RawDataMatrix:
    """Slow-time x fast-time complex echo samples plus axes."""

    data: np.ndarray
    slow_time_s: np.ndarray
    sample_interval_s: float
    waveform_kind: str

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError("raw data must be 2-D [pulse, fast-time]")

    @property
    def n_pulses(self) -> int:
        return self.data.shape[0]

    @property
    def line_length(self) -> int:
        return self.data.shape[1]


def transmitted_pulse(config: SimulationConfig) -> PulseSamples:
    """The pulse actually transmitted for this config.

    The noise pulse is rescaled to the energy of the config's OFDM pulse so
    the two waveforms are compared at equal transmit energy.
    """
    ofdm_pulse = generate_ofdm_pulse(config.ofdm)
    if config.waveform_kind == "ofdm":
        return ofdm_pulse
    spec = NoiseSpec(n_samples=config.ofdm.pulse_length, noise_seed=config.master_seed)
    raw = generate_noise_pulse(spec, config.ofdm.sample_interval)
    return match_energy(raw, ofdm_pulse)


def foliage_channel(config: SimulationConfig) -> FoliageChannel | None:
    """Build the per-run foliage channel on the raw-line frequency grid."""
    if config.foliage is None:
        return None
    freqs = config.platform.carrier_hz + np.fft.fftfreq(
        config.line_length, d=config.ofdm.sample_interval)
    return FoliageChannel(config.foliage, freqs, config.platform.n_pulses(),
                          1.0 / config.platform.prf_hz)


def apply_foliage(line: np.ndarray, realization: FoliageRealization) -> np.ndarray:
    """Multiply the range line by F_k in the frequency domain."""
    line = np.asarray(line)
    if realization.freq_response.shape != line.shape:
        raise ValueError(
            f"foliage realization length {realization.freq_response.shape} "
            f"does not match line length {line.shape}")
    return np.fft.ifft(np.fft.fft(line) * realization.freq_response)


@functools.lru_cache(maxsize=1)
def _geometry_spectrum(scene: Scene, platform: PlatformParams, bandwidth_hz: float,
                       n: int) -> np.ndarray:
    grid = make_grid(scene.n_range_cells, bandwidth_hz, platform)
    spec = np.fft.fft(gm_vector(scene, grid, platform, platform.slow_time_axis()), n,
                      axis=-1)
    spec.setflags(write=False)
    return spec


_geometry_lock = threading.Lock()


def geometry_spectrum(scene: Scene, platform: PlatformParams, bandwidth_hz: float,
                      n: int) -> np.ndarray:
    """FFT(G, n) of the weighting matrix G[pulse, cell], read-only.

    No seed enters G, so the last geometry's spectrum is kept and shared by
    every run (and every seed thread) until the geometry changes.
    """
    with _geometry_lock:
        return _geometry_spectrum(scene, platform, bandwidth_hz, n)


geometry_spectrum.cache_clear = _geometry_spectrum.cache_clear


def receiver_noise(config: SimulationConfig, pulse: PulseSamples) -> np.ndarray:
    """Complex white receiver noise, one "receiver_noise" substream per pulse.

    SNR is referenced to the peak instantaneous power of the transmitted
    pulse, which a unit-RCS boresight target echoes unattenuated; this keeps
    the knob scene-independent.
    """
    peak = float(np.max(np.abs(pulse.samples) ** 2))
    sigma = np.sqrt(peak / 10.0 ** (config.snr_db / 10.0) / 2.0)
    n = config.line_length
    out = np.empty((config.platform.n_pulses(), n), dtype=complex)
    for j in range(len(out)):
        rng = substream(config.master_seed, "receiver_noise", j)
        out[j] = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return out


def synthesize_raw(config: SimulationConfig, threads: int = 1) -> RawDataMatrix:
    """Synthesize all pulses into the raw data matrix in one batched pass.

    threads is the caller's worker cap; a single run uses one thread.
    """
    n = config.line_length
    pulse = transmitted_pulse(config)
    channel = foliage_channel(config)
    g_spec = geometry_spectrum(config.scene, config.platform, config.ofdm.bandwidth_hz, n)
    s_spec = np.fft.fft(pulse.samples, n)
    if channel is None:
        data = g_spec * s_spec
    else:  # F's own buffer becomes the raw matrix
        data = channel.response()
        data *= g_spec
        data *= s_spec
    np.fft.ifft(data, axis=1, out=data)
    if config.snr_db is not None:
        data += receiver_noise(config, pulse)
    return RawDataMatrix(data, config.platform.slow_time_axis(), config.ofdm.sample_interval,
                         config.waveform_kind)


def synthesize_from_g(g: np.ndarray, pulse: PulseSamples) -> np.ndarray:
    """Raw line for an explicit weighting vector (single-pulse test hook): the
    linear convolution g * s, as a circular one at its full length."""
    g = np.asarray(g, dtype=complex)
    n = len(g) + len(pulse.samples) - 1
    return np.fft.ifft(np.fft.fft(g, n) * np.fft.fft(pulse.samples, n))


def write_fsar(path, raw: RawDataMatrix) -> None:
    """Binary export in the FSAR container (see fileio)."""
    write_container(path, FSAR_MAGIC, raw.data)


def read_fsar(path) -> np.ndarray:
    """Read an FSAR file's complex matrix."""
    return read_container(path, FSAR_MAGIC)


def write_raw_csv(path, raw: RawDataMatrix) -> None:
    """CSV export for small matrices: pulse, sample, re, im."""
    pulse, sample = np.indices(raw.data.shape)
    write_csv(path, ["pulse", "sample", "re", "im"],
              [pulse.ravel(), sample.ravel(), raw.data.real.ravel(),
               raw.data.imag.ravel()])
