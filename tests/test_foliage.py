import numpy as np
import pytest

from fopen_sar.foliage import (AMPLITUDE_FLOOR, FoliageChannel, FoliageParams,
                               _fgn_davies_harte,
                               dump_realizations_csv, draw_uniform_phase,
                               fbm_path, incoherent_field, mean_attenuation_db,
                               phase_fluctuation, sample_gamma_fluctuation,
                               unit_phasor)
from fopen_sar.rng import substream


def _structure_slope(path, lags):
    s = [np.mean((path[lag:] - path[:-lag]) ** 2) for lag in lags]
    coef = np.polyfit(np.log(lags), np.log(s), 1)
    return coef[0]


class TestMeanAttenuation:
    def test_hh_9ghz_45deg(self):
        p = FoliageParams("HH", np.pi / 4)
        v = mean_attenuation_db(9e9, p)
        assert v == pytest.approx(0.05 * 9.0**0.79, rel=1e-12)
        assert v == pytest.approx(0.2837, abs=5e-5)

    def test_sine_ratio_is_unity_at_45deg(self):
        for pol in ("HH", "VV"):
            p = FoliageParams(pol, np.pi / 4)
            v = mean_attenuation_db(9e9, p)
            assert v == pytest.approx(p.beta * 9.0**p.alpha, rel=1e-12)

    def test_hh_9ghz_90deg(self):
        p = FoliageParams("HH", np.pi / 2)
        v = mean_attenuation_db(9e9, p)
        assert v == pytest.approx(0.05 * 9.0**0.79 * np.sqrt(0.5), rel=1e-12)
        assert v == pytest.approx(0.2006, abs=5e-5)

    def test_monotone_decreasing_in_grazing_angle(self):
        angles = np.linspace(0.02, np.pi / 2, 40)
        vals = [mean_attenuation_db(9e9, FoliageParams("VV", a)) for a in angles]
        assert np.all(np.diff(vals) < 0)

    def test_zero_grazing_rejected(self):
        with pytest.raises(ValueError):
            FoliageParams("HH", 0.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            mean_attenuation_db(0.0, FoliageParams())

    def test_polarization_presets(self):
        assert FoliageParams("HH").alpha == 0.79
        assert FoliageParams("HH").beta == 0.05
        assert FoliageParams("VV").alpha == 0.5
        assert FoliageParams("VV").beta == 0.45
        with pytest.raises(ValueError):
            FoliageParams("HV")


class TestGammaFluctuation:
    def test_exponential_special_case(self):
        p = FoliageParams(gamma_shape=1.0, gamma_scale=2.0)
        x = sample_gamma_fluctuation(p, 100_000, substream(0, "foliage_gamma"))
        assert 1.96 < np.mean(x) < 2.04

    def test_unit_mean_case(self):
        p = FoliageParams(gamma_shape=4.0, gamma_scale=0.25)
        x = sample_gamma_fluctuation(p, 100_000, substream(1, "foliage_gamma"))
        assert np.mean(x) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("a,b", [(0.5, 3.0), (2.0, 0.5), (4.0, 0.25), (9.0, 1.5)])
    def test_moments_within_three_standard_errors(self, a, b):
        n = 100_000
        p = FoliageParams(gamma_shape=a, gamma_scale=b)
        x = sample_gamma_fluctuation(p, n, substream(7, "foliage_gamma"))
        mean, var = a * b, a * b * b
        se_mean = np.sqrt(var / n)
        assert abs(np.mean(x) - mean) < 3 * se_mean
        # var of the sample variance for Gamma: (kurtosis term) / n
        kurt_excess = 6.0 / a
        se_var = var * np.sqrt((2.0 + kurt_excess) / n)
        assert abs(np.var(x) - var) < 3 * se_var

    def test_deterministic_per_stream(self):
        p = FoliageParams()
        a = sample_gamma_fluctuation(p, 16, substream(3, "foliage_gamma", 5))
        b = sample_gamma_fluctuation(p, 16, substream(3, "foliage_gamma", 5))
        np.testing.assert_array_equal(a, b)


class TestFbm:
    def test_anchored_at_zero(self):
        path = fbm_path(0.4, 64, 0.01, substream(0, "foliage_fbm"))
        assert path[0] == 0.0
        assert len(path) == 64

    def test_brownian_reduction_has_iid_increments(self):
        n = 1 << 14
        path = fbm_path(0.5, n, 1.0, substream(1, "foliage_fbm"))
        inc = np.diff(path)
        inc = inc - inc.mean()
        denom = np.sum(inc**2)
        for lag in range(1, 6):
            rho = np.sum(inc[lag:] * inc[:-lag]) / denom
            assert abs(rho) < 5.0 / np.sqrt(n)

    def test_structure_function_slope(self):
        n = 1 << 14
        path = fbm_path(0.4, n, 1.0, substream(2, "foliage_fbm"))
        slope = _structure_slope(path, np.unique(np.geomspace(1, 1000, 40).astype(int)))
        assert slope == pytest.approx(0.8, abs=0.1)

    def test_step_scaling(self):
        # structure function must be tau^(2H) with tau in seconds
        h, step = 0.4, 0.125
        path = fbm_path(h, 1 << 13, step, substream(3, "foliage_fbm"))
        s1 = np.mean(np.diff(path) ** 2)
        assert s1 == pytest.approx(step ** (2 * h), rel=0.1)

    def test_davies_harte_unit_variance(self):
        fgn = _fgn_davies_harte(1 << 14, 0.4, substream(5, "foliage_fbm"))
        assert np.std(fgn) == pytest.approx(1.0, abs=0.05)

    def test_bad_args_rejected(self):
        rng = substream(0, "foliage_fbm")
        with pytest.raises(ValueError):
            fbm_path(0.0, 64, 1.0, rng)
        with pytest.raises(ValueError):
            fbm_path(0.4, 1, 1.0, rng)
        with pytest.raises(ValueError):
            fbm_path(0.4, 64, 0.0, rng)


class TestPhaseFluctuation:
    def test_zero_fluctuation_gives_zero_phase(self):
        psi = draw_uniform_phase(substream(0, "foliage_phase"), 100)
        np.testing.assert_array_equal(phase_fluctuation(np.zeros(100), psi),
                                      np.zeros(100))

    def test_unit_fluctuation_quarter_pi(self):
        assert phase_fluctuation(np.array([1.0]), np.array([np.pi / 2]))[0] == \
            pytest.approx(np.pi / 4, rel=1e-12)

    def test_small_fluctuation_linearizes(self):
        psi = draw_uniform_phase(substream(1, "foliage_phase"), 10_000)
        d = np.full_like(psi, 0.01)
        phi = phase_fluctuation(d, psi)
        assert np.max(np.abs(phi - d * np.sin(psi))) < 1e-4

    def test_bounded_half_pi_for_small_delta(self):
        psi = draw_uniform_phase(substream(2, "foliage_phase"), 10_000)
        d = np.full_like(psi, 0.999)
        phi = phase_fluctuation(d, psi)
        assert np.all(np.abs(phi) < np.pi / 2)

    def test_bounded_pi_in_general(self):
        psi = draw_uniform_phase(substream(3, "foliage_phase"), 10_000)
        d = np.full_like(psi, 5.0)
        phi = phase_fluctuation(d, psi)
        assert np.all(phi > -np.pi) and np.all(phi <= np.pi)


class TestUnitPhasor:
    """F's phasor w/|w| against exp(1j * phase_fluctuation), the reference form."""

    def _both(self, delta_a, psi):
        got = unit_phasor(incoherent_field(delta_a, psi))
        return got, np.exp(1j * phase_fluctuation(delta_a, psi))

    def test_matches_exp_of_phase(self):
        # dA below -1 + AMPLITUDE_FLOOR is where the amplitude is clamped and
        # the phase can pass +-pi/2
        delta_a = np.concatenate([np.linspace(-4.0, 4.0, 161),
                                  [-1.0, -1.0 + AMPLITUDE_FLOOR / 2, -1.0 - 1e-9, 1e-12]])
        psi = np.concatenate([np.linspace(-np.pi, np.pi, 181), [0.0, 1e-9]])
        got, want = self._both(delta_a[:, None], psi[None, :])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_zero_field_is_one(self):
        # dA = -1, psi = 0 puts w at 0, where arctan2(0, 0) = 0
        got, want = self._both(np.array([-1.0]), np.array([0.0]))
        assert got[0] == 1.0 and want[0] == 1.0

    def test_clamped_channel_bins(self):
        ch = FoliageChannel(FoliageParams(gamma_shape=0.2, seed=3),
                            9e9 + np.fft.fftfreq(64, d=0.25e-9), 16, 1 / 256.0)
        a0 = 10 ** (-mean_attenuation_db(ch.freq_grid_hz, ch.params) / 20.0)
        clamped = 0
        for p in range(16):
            r = ch.realize(p)
            clamped += np.sum(r.amplitude == AMPLITUDE_FLOOR * a0)
            assert np.max(np.abs(r.freq_response - r.amplitude * np.exp(1j * r.phase))
                          / r.amplitude) <= 1e-15
        assert clamped > 0


class TestFoliageChannel:
    def _channel(self, n_pulses=16, **kw):
        params = FoliageParams(seed=kw.pop("seed", 0), **kw)
        freqs = 9e9 + np.fft.fftfreq(64, d=0.25e-9)
        return FoliageChannel(params, freqs, n_pulses=n_pulses,
                              pulse_interval_s=1 / 256.0)

    def test_no_fluctuation_reduces_to_mean_attenuation(self):
        ch = self._channel()
        ch._frozen_gamma = np.zeros(64)
        r = ch.realize(0)
        a0 = 10 ** (-mean_attenuation_db(ch.freq_grid_hz, ch.params) / 20.0)
        np.testing.assert_allclose(r.freq_response, a0, rtol=1e-12)
        assert np.all(r.phase == 0.0)
        # at exactly 9 GHz the HH/45deg field amplitude is 10^(-0.2837/20)
        k9 = int(np.argmin(np.abs(ch.freq_grid_hz - 9e9)))
        assert r.amplitude[k9] == pytest.approx(0.9679, abs=2e-4)

    def test_polar_decomposition_exact(self):
        ch = self._channel()
        r = ch.realize(3)
        np.testing.assert_allclose(r.freq_response,
                                   r.amplitude * np.exp(1j * r.phase), rtol=1e-15)

    def test_amplitude_always_positive(self):
        # heavy fluctuation: gamma std 1/sqrt(0.2) > 1 forces clamping
        ch = self._channel(gamma_shape=0.2, gamma_scale=5.0)
        for p in range(ch.n_pulses):
            assert np.all(ch.realize(p).amplitude > 0.0)

    def test_deterministic_per_pulse(self):
        a = self._channel(seed=9).realize(5)
        b = self._channel(seed=9).realize(5)
        np.testing.assert_array_equal(a.freq_response, b.freq_response)

    def test_pulses_differ(self):
        ch = self._channel()
        assert np.any(ch.realize(0).freq_response != ch.realize(8).freq_response)

    def test_frozen_vs_redraw(self):
        frozen = self._channel()
        frozen._delta_eta = np.ones(16)
        np.testing.assert_array_equal(frozen.realize(0).freq_response,
                                      frozen.realize(7).freq_response)
        redraw = self._channel(redraw_per_pulse=True)
        redraw._delta_eta = np.ones(16)
        assert np.any(redraw.realize(0).freq_response
                      != redraw.realize(7).freq_response)

    def test_flight_path_factor_starts_at_one(self):
        ch = self._channel()
        assert ch._delta_eta[0] == 1.0

    def test_out_of_range_pulse_rejected(self):
        with pytest.raises(IndexError):
            self._channel().realize(16)

    def test_spectral_smoothing_reduces_bin_variance(self):
        rough = self._channel(seed=4)
        smooth = self._channel(seed=4, spectral_smoothing_bins=8)
        assert (np.var(np.abs(smooth.realize(0).freq_response))
                < np.var(np.abs(rough.realize(0).freq_response)))

    @pytest.mark.parametrize("redraw", [False, True])
    def test_response_rows_are_realizations(self, redraw):
        ch = self._channel(45, seed=5, redraw_per_pulse=redraw)  # a full block and a partial
        f = ch.response()
        assert f.shape == (45, 64)
        for p in range(45):
            np.testing.assert_array_equal(f[p], ch.realize(p).freq_response)

    def test_csv_dump(self, tmp_path):
        ch = self._channel()
        out = tmp_path / "foliage.csv"
        dump_realizations_csv(out, ch)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pulse_index,bin,re,im"
        assert len(lines) == 1 + 16 * 64
        rows = [line.split(",") for line in lines[1:]]
        for i, (p, k, re, im) in enumerate(rows):
            assert (int(p), int(k)) == divmod(i, 64)
            f = ch.realize(int(p)).freq_response[int(k)]
            assert (float(re), float(im)) == (f.real, f.imag)
