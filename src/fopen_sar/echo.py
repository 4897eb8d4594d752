"""Raw data synthesis: batched convolution, foliage injection, noise.

Each range line is the linear convolution of the transmitted pulse (length
N+M-1) with the length-M weighting RCS coefficient vector evaluated at that
pulse's slow time, giving L = N+2M-2 samples; all pulses are formed in one
pass, raw = IFFT(FFT(G, L) * FFT(s, L) * F). Foliage, when configured, is
the per-pulse spectral multiplier F; receiver noise is added after the
foliage, matching the signal-flow order of the channel model.
"""

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


def line_spectrum(g: np.ndarray, pulse: PulseSamples) -> np.ndarray:
    """Spectrum of g * s (g a vector or G[pulse, cell]) at the linear-convolution
    length, where the circular convolution equals the linear one."""
    n = g.shape[-1] + len(pulse.samples) - 1
    return np.fft.fft(g, n, axis=-1) * np.fft.fft(pulse.samples, n)


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
    platform = config.platform
    eta = platform.slow_time_axis()
    pulse = transmitted_pulse(config)
    channel = foliage_channel(config)
    grid = make_grid(config.scene.n_range_cells, config.ofdm.bandwidth_hz, platform)
    spec = line_spectrum(gm_vector(config.scene, grid, platform, eta), pulse)
    if channel is not None:
        spec *= channel.response()
    data = np.fft.ifft(spec, axis=1)
    if config.snr_db is not None:
        data += receiver_noise(config, pulse)
    return RawDataMatrix(data, eta, config.ofdm.sample_interval, config.waveform_kind)


def synthesize_from_g(g: np.ndarray, pulse: PulseSamples) -> np.ndarray:
    """Raw line for an explicit weighting vector (single-pulse test hook)."""
    return np.fft.ifft(line_spectrum(np.asarray(g, dtype=complex), pulse))


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
