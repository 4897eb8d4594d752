import numpy as np
import pytest

from fopen_sar.rng import substream
from fopen_sar.waveform import (OfdmSpec, generate_bpsk_symbols, generate_noise_pulse,
                                generate_ofdm_pulse)

from brute_force import ofdm_samples


class TestBpskSymbols:
    def test_deterministic(self):
        a = generate_bpsk_symbols(42, 8)
        b = generate_bpsk_symbols(42, 8)
        np.testing.assert_array_equal(a, b)

    def test_values_are_exactly_pm_one(self):
        x = generate_bpsk_symbols(7, 1024)
        assert np.all((x == 1.0) | (x == -1.0))
        assert np.all(x.imag == 0.0)

    def test_different_seeds_differ(self):
        a = generate_bpsk_symbols(1, 1024)
        b = generate_bpsk_symbols(2, 1024)
        assert np.count_nonzero(a != b) > 0


class TestOfdmPulse:
    def test_matches_the_defining_sum(self):
        spec = OfdmSpec(16, 4, 1e9, symbol_seed=3)
        x = generate_bpsk_symbols(spec.symbol_seed, spec.n_subcarriers)
        np.testing.assert_allclose(generate_ofdm_pulse(spec), ofdm_samples(x, 16, 4),
                                   rtol=0, atol=1e-12)

    def test_no_guard_interval_when_m_is_one(self):
        spec = OfdmSpec(4, 1, 1e9)
        x = generate_bpsk_symbols(spec.symbol_seed, spec.n_subcarriers)
        p = generate_ofdm_pulse(spec)
        np.testing.assert_allclose(p, ofdm_samples(x, 4, 1), rtol=0, atol=1e-12)
        assert len(p) == 4

    def test_pulse_length(self, tiny_spec):
        p = generate_ofdm_pulse(tiny_spec)
        assert len(p) == tiny_spec.pulse_length

    def test_read_only(self, tiny_spec):
        assert not generate_ofdm_pulse(tiny_spec).flags.writeable

    @pytest.mark.parametrize("seed,n,m", [(0, 16, 4), (1, 64, 16), (2, 256, 48)])
    def test_cyclic_suffix_is_exact(self, seed, n, m):
        spec = OfdmSpec(n, m, 4e9, symbol_seed=seed)
        s = generate_ofdm_pulse(spec)
        np.testing.assert_array_equal(s[n:], s[: m - 1])

    def test_forward_transform_recovers_symbols(self, tiny_spec):
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, tiny_spec.n_subcarriers)
        s = generate_ofdm_pulse(tiny_spec)
        n = tiny_spec.n_subcarriers
        x_hat = np.fft.fft(s[:n]) / np.sqrt(n)
        assert np.max(np.abs(x_hat - x)) / np.max(np.abs(x)) < 1e-10

    def test_core_block_energy_is_n(self, tiny_spec):
        s = generate_ofdm_pulse(tiny_spec)
        n = tiny_spec.n_subcarriers
        assert np.sum(np.abs(s[:n]) ** 2) == pytest.approx(n, rel=1e-12)


class TestNoisePulse:
    def test_moments(self):
        s = generate_noise_pulse(100_000, 5)
        assert abs(np.mean(s)) < 0.02
        assert 0.97 < np.mean(np.abs(s) ** 2) < 1.03

    def test_deterministic(self):
        a = generate_noise_pulse(1000, 9)
        b = generate_noise_pulse(1000, 9)
        np.testing.assert_array_equal(a, b)

    def test_read_only(self):
        assert not generate_noise_pulse(16, 1).flags.writeable

    def test_whiteness(self):
        n = 100_000
        s = generate_noise_pulse(n, 3)
        s = s - s.mean()
        denom = np.sum(np.abs(s) ** 2)
        for lag in range(1, 11):
            rho = np.sum(s[lag:] * np.conj(s[:-lag])) / denom
            assert abs(rho) < 5.0 / np.sqrt(n)


class TestSubstreams:
    def test_tag_separation(self):
        a = substream(1, "bpsk_symbols").standard_normal(8)
        b = substream(1, "noise_waveform").standard_normal(8)
        assert np.any(a != b)

    def test_index_separation(self):
        a = substream(1, "receiver_noise", 0).standard_normal(8)
        b = substream(1, "receiver_noise", 1).standard_normal(8)
        assert np.any(a != b)

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError):
            substream(1, "nope")
