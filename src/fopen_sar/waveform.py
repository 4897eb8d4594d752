"""Transmit waveforms: cyclic-prefix OFDM pulse and band-limited noise pulse.

The OFDM pulse is the unitary inverse DFT of N unit-modulus symbols,
cyclically extended by M-1 samples (a cyclic suffix: the sample index simply
keeps running past N, so s[i+N] = s[i]). The random-noise pulse is white
complex circular Gaussian at the same sample rate and, by construction, the
same length, so the two waveforms are directly comparable. A pulse is a
read-only complex array.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream


@dataclass(frozen=True)
class OfdmSpec:
    """Parameters of the CP-OFDM pulse.

    n_subcarriers is N, n_range_cells is M (the cyclic extension is M-1
    samples), bandwidth_hz is B (the complex sample rate), symbol_seed feeds
    the BPSK symbol draw. N >= M: range compression keeps M of the N
    equalized outputs. The values are taken as given (validate_scenario
    checks them).
    """

    n_subcarriers: int
    n_range_cells: int
    bandwidth_hz: float
    symbol_seed: int = 0

    @property
    def pulse_length(self) -> int:
        """Samples per pulse, N + M - 1."""
        return self.n_subcarriers + self.n_range_cells - 1

    @property
    def line_length(self) -> int:
        """Samples per raw range line, N + 2M - 2: the pulse convolved with M cells."""
        return self.n_subcarriers + 2 * self.n_range_cells - 2

    def line_frequencies(self, carrier_hz: float) -> np.ndarray:
        """Absolute frequency of each FFT bin of a raw range line."""
        return carrier_hz + np.fft.fftfreq(self.line_length, d=1.0 / self.bandwidth_hz)


def generate_bpsk_symbols(seed: int, n: int) -> np.ndarray:
    """Draw n BPSK symbols (exactly -1 or +1) deterministically from seed."""
    rng = substream(seed, "bpsk_symbols")
    bits = rng.integers(0, 2, size=n)
    return np.where(bits == 0, 1.0, -1.0).astype(complex)


def generate_ofdm_pulse(spec: OfdmSpec) -> np.ndarray:
    """Generate the CP-OFDM pulse s_i = (1/sqrt(N)) sum_k X_k e^{j2*pi*k*i/N}.

    X_k are the BPSK symbols drawn from spec.symbol_seed. The index i runs
    0 .. N+M-2, so the last M-1 samples repeat the first M-1 (cyclic
    suffix). Read-only.
    """
    n = spec.n_subcarriers
    core = np.sqrt(n) * np.fft.ifft(generate_bpsk_symbols(spec.symbol_seed, n))
    samples = np.concatenate([core, core[: spec.n_range_cells - 1]])
    samples.setflags(write=False)
    return samples


def generate_noise_pulse(n_samples: int, seed: int) -> np.ndarray:
    """n_samples of white complex circular Gaussian noise at unit power (I and
    Q of variance 1/2 each), read-only; white at the sample rate B is band-limited."""
    rng = substream(seed, "noise_waveform")
    s = np.sqrt(0.5) * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
    s.setflags(write=False)
    return s
