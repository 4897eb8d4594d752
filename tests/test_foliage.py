import collections
import tracemalloc

import numpy as np
import pytest

from fopen_sar import fileio
from fopen_sar.fileio import dump_realizations_csv
from fopen_sar.foliage import (AMPLITUDE_FLOOR, ATTENUATION_CONSTANTS, BLOCK_PULSES,
                               FoliageChannel, FoliageParams, _fgn_davies_harte, fbm_path,
                               mean_attenuation_db)
from fopen_sar.rng import _philox_keys, substream

from brute_force import (draw_uniform_phase, incoherent_field, phase_fluctuation, phasor_bound,
                         sample_gamma_fluctuation, stacked_response, unit_phasor)

# The paper's Gamma scale b. The channel's fluctuation (x - a) / a has no scale;
# with b a power of two, (gamma(a, b) - a b) / (a b) is the same number bit for bit.
GAMMA_SCALE = 0.25


def _reference_row(ch, key, p):
    """Row p of F, its amplitude A and phasor_bound's bound on the channel's
    distance from it, rebuilt in the textbook cos/sin form from the gamma(a, b)
    and uniform(-pi, pi) draws of key, centred and smoothed along frequency,
    times delta_eta[p]."""
    params, seed = ch.params, ch.seed
    k, mean = params.spectral_smoothing_bins, params.gamma_shape * GAMMA_SCALE
    n = len(ch.freq_grid_hz)
    x = sample_gamma_fluctuation(params.gamma_shape, GAMMA_SCALE, n,
                                 substream(seed, "foliage_gamma", key))
    d = (x - mean) / mean
    if k:
        d = np.fft.ifftshift(np.convolve(np.fft.fftshift(d), np.ones(k) / k, mode="same"))
    psi = draw_uniform_phase(substream(seed, "foliage_phase", key), n)
    delta_a = d * ch._delta_eta[p]
    amp = np.maximum((delta_a + 1.0) * ch._a0_linear, AMPLITUDE_FLOOR * ch._a0_linear)
    want = unit_phasor(incoherent_field(delta_a, psi))
    want.real *= amp
    want.imag *= amp
    return want, amp, phasor_bound(amp, delta_a, psi)


def assert_within_bound(got, want, bound):
    """|got - want| <= bound in every element, with the worst ratio in the message."""
    err = np.abs(got - want)
    assert np.all(err <= bound), f"|dF| / bound reaches {np.max(err / bound):.3g}"


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
            alpha, beta = ATTENUATION_CONSTANTS[pol]
            assert v == pytest.approx(beta * 9.0**alpha, rel=1e-12)

    def test_hh_9ghz_90deg(self):
        p = FoliageParams("HH", np.pi / 2)
        v = mean_attenuation_db(9e9, p)
        assert v == pytest.approx(0.05 * 9.0**0.79 * np.sqrt(0.5), rel=1e-12)
        assert v == pytest.approx(0.2006, abs=5e-5)

    def test_monotone_decreasing_in_grazing_angle(self):
        angles = np.linspace(0.02, np.pi / 2, 40)
        vals = [mean_attenuation_db(9e9, FoliageParams("VV", a)) for a in angles]
        assert np.all(np.diff(vals) < 0)

    def test_polarization_presets(self):
        assert ATTENUATION_CONSTANTS == {"HH": (0.79, 0.05), "VV": (0.5, 0.45)}


class TestGammaFluctuation:
    def test_exponential_special_case(self):
        x = sample_gamma_fluctuation(1.0, 2.0, 100_000, substream(0, "foliage_gamma"))
        assert 1.96 < np.mean(x) < 2.04

    def test_unit_mean_case(self):
        x = sample_gamma_fluctuation(4.0, 0.25, 100_000, substream(1, "foliage_gamma"))
        assert np.mean(x) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("a,b", [(0.5, 3.0), (2.0, 0.5), (4.0, 0.25), (9.0, 1.5)])
    def test_moments_within_three_standard_errors(self, a, b):
        n = 100_000
        x = sample_gamma_fluctuation(a, b, n, substream(7, "foliage_gamma"))
        mean, var = a * b, a * b * b
        se_mean = np.sqrt(var / n)
        assert abs(np.mean(x) - mean) < 3 * se_mean
        # var of the sample variance for Gamma: (kurtosis term) / n
        kurt_excess = 6.0 / a
        se_var = var * np.sqrt((2.0 + kurt_excess) / n)
        assert abs(np.var(x) - var) < 3 * se_var

    def test_deterministic_per_stream(self):
        a = sample_gamma_fluctuation(4.0, 0.25, 16, substream(3, "foliage_gamma", 5))
        b = sample_gamma_fluctuation(4.0, 0.25, 16, substream(3, "foliage_gamma", 5))
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
    """The oracle's phasor w/|w| against exp(1j * phase_fluctuation), and the
    channel's tangent form of F against both, within phasor_bound."""

    # dA below -1 + AMPLITUDE_FLOOR is where the amplitude is clamped and the phase
    # can pass +-pi/2; psi = +-pi puts tan(psi / 2) near -+1.6e16
    DELTA_A = np.concatenate([np.linspace(-4.0, 4.0, 161),
                              [-1.0, -1.0 + AMPLITUDE_FLOOR / 2, -1.0 - 1e-9, 1e-12]])
    PSI = np.concatenate([np.linspace(-np.pi, np.pi, 181), [0.0, 1e-9]])

    def _both(self, delta_a, psi):
        got = unit_phasor(incoherent_field(delta_a, psi))
        return got, np.exp(1j * phase_fluctuation(delta_a, psi))

    def test_matches_exp_of_phase(self):
        got, want = self._both(self.DELTA_A[:, None], self.PSI[None, :])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_blocks_match_exp_of_phase(self):
        # the grid through blocks() itself: row p has delta_eta = dA[p] and every bin
        # delta_omega = 1, so row p, bin k is (dA[p], psi[k]); 165 rows span 6 blocks
        delta_a, psi = self.DELTA_A, self.PSI
        ch = FoliageChannel(FoliageParams("HH", np.pi / 4), 0,
                            9e9 + np.fft.fftfreq(len(psi), d=0.25e-9), len(delta_a), 1 / 256.0)
        t = np.tan(psi / 2.0)
        ch._frozen, ch._delta_eta = (np.ones(len(psi)), 2.0 * t, t * t), delta_a
        got = stacked_response(ch)
        amp = np.maximum((delta_a[:, None] + 1.0) * ch._a0_linear,
                         AMPLITUDE_FLOOR * ch._a0_linear)
        # exp(j angle w) is within 1e-15 of the oracle's w / |w| (above); the bound's
        # + 1 term has 18 eps of room for it
        want = amp * np.exp(1j * phase_fluctuation(delta_a[:, None], psi[None, :]))
        assert np.all(np.isfinite(got))
        assert_within_bound(got, want, phasor_bound(amp, delta_a[:, None], psi[None, :]))
        # dA = -1, psi = 0: w' = 0, where F is A itself
        zero = got[len(delta_a) - 4, len(psi) - 2]
        assert zero == amp[len(delta_a) - 4, len(psi) - 2]

    def test_zero_field_is_one(self):
        # dA = -1, psi = 0 puts w at 0, where arctan2(0, 0) = 0
        got, want = self._both(np.array([-1.0]), np.array([0.0]))
        assert got[0] == 1.0 and want[0] == 1.0

    def test_clamped_channel_bins(self):
        # every row is the reference within phasor_bound, and its amplitude sits on
        # the floor in some bins
        ch = FoliageChannel(FoliageParams("HH", np.pi / 4, gamma_shape=0.2), 3,
                            9e9 + np.fft.fftfreq(64, d=0.25e-9), 16, 1 / 256.0)
        clamped = 0
        for p in range(16):
            want, amp, bound = _reference_row(ch, 0, p)
            assert_within_bound(ch.realize(p), want, bound)
            clamped += np.sum(amp == AMPLITUDE_FLOOR * ch._a0_linear)
        assert clamped > 0


class TestFoliageChannel:
    def _channel(self, n_pulses=16, seed=0, **kw):
        freqs = 9e9 + np.fft.fftfreq(64, d=0.25e-9)
        return FoliageChannel(FoliageParams("HH", np.pi / 4, **kw), seed, freqs, n_pulses=n_pulses,
                              pulse_interval_s=1 / 256.0)

    def test_no_fluctuation_reduces_to_mean_attenuation(self):
        ch = self._channel()
        ch._frozen[0][:] = 0.0  # delta_omega
        f = ch.realize(0)
        a0 = 10 ** (-mean_attenuation_db(ch.freq_grid_hz, ch.params) / 20.0)
        np.testing.assert_array_equal(f, ch._a0_linear)
        np.testing.assert_allclose(f, a0, rtol=1e-12)
        assert np.all(np.angle(f) == 0.0)
        # at exactly 9 GHz the HH/45deg field amplitude is 10^(-0.2837/20)
        k9 = int(np.argmin(np.abs(ch.freq_grid_hz - 9e9)))
        assert abs(f[k9]) == pytest.approx(0.9679, abs=2e-4)

    def test_amplitude_always_positive(self):
        # heavy fluctuation: gamma std 1/sqrt(0.2) > 1 forces clamping
        ch = self._channel(gamma_shape=0.2)
        for p in range(ch.n_pulses):
            assert np.all(np.abs(ch.realize(p)) > 0.0)

    def test_deterministic_per_pulse(self):
        a = self._channel(seed=9).realize(5)
        b = self._channel(seed=9).realize(5)
        np.testing.assert_array_equal(a, b)

    def test_pulses_differ(self):
        ch = self._channel()
        assert np.any(ch.realize(0) != ch.realize(8))

    def test_frozen_vs_redraw(self):
        frozen = self._channel()
        frozen._delta_eta = np.ones(16)
        np.testing.assert_array_equal(frozen.realize(0), frozen.realize(7))
        redraw = self._channel(redraw_per_pulse=True)
        redraw._delta_eta = np.ones(16)
        assert np.any(redraw.realize(0) != redraw.realize(7))

    def test_flight_path_factor_starts_at_one(self):
        ch = self._channel()
        assert ch._delta_eta[0] == 1.0

    def test_out_of_range_pulse_rejected(self):
        with pytest.raises(IndexError):
            self._channel().realize(16)
        with pytest.raises(IndexError):
            self._channel().realize(-1)

    def test_realize_is_a_read_only_row_of_the_response(self):
        ch = self._channel(45, seed=5, redraw_per_pulse=True)
        f = ch.realize(40)
        assert not f.flags.writeable
        np.testing.assert_array_equal(f, stacked_response(ch)[40])

    @pytest.mark.parametrize("p", [0, 31, 32, 44])  # both sides of a block edge, short last block
    def test_realize_reads_row_p_of_the_block_stream(self, p):
        ch = self._channel(45, seed=5, redraw_per_pulse=True)
        np.testing.assert_array_equal(ch.realize(p), stacked_response(ch)[p])

    def test_spectral_smoothing_reduces_bin_variance(self):
        rough = self._channel(seed=4)
        smooth = self._channel(seed=4, spectral_smoothing_bins=8)
        assert np.var(np.abs(smooth.realize(0))) < np.var(np.abs(rough.realize(0)))

    class _ImpulseStreams:
        """One row's (gamma, phase) stream pair: Gamma draws of the shape in every
        bin but `bin`, which draws twice it (relative fluctuations 0 and 1), and u = 0."""

        def __init__(self, bin_):
            self.bin = bin_

        def standard_gamma(self, shape, out):
            out[:] = shape
            out[self.bin] = 2.0 * shape

        def random(self, out):
            out[:] = 0.0

    @pytest.mark.parametrize("bin_", [0, 31, 32, 63])  # carrier, top edge, bottom edge, below carrier
    def test_smoothing_averages_neighbours_in_frequency(self, bin_):
        # a 3-bin moving average spreads one bin to its neighbours in frequency, never
        # across the band edge between the top (bin 31) and bottom (bin 32) frequencies
        ch = self._channel(spectral_smoothing_bins=3)
        streams = self._ImpulseStreams(bin_)
        d, _, _ = ch._draw(*np.empty((3, 1, 64)), [(streams, streams)])
        step = ch.freq_grid_hz[1] - ch.freq_grid_hz[0]
        near = np.abs(ch.freq_grid_hz - ch.freq_grid_hz[bin_]) < 1.5 * step
        np.testing.assert_array_equal(np.flatnonzero(d[0]), np.flatnonzero(near))
        np.testing.assert_array_equal(d[0][near], 1.0 / 3.0)

    @pytest.mark.parametrize("shape", [0.2, 1.0, 4.0, 9.0])
    def test_draw_is_gamma_a_b_relative_to_its_mean(self, shape):
        # (x - a) / a from standard_gamma is (gamma(a, b) - a b) / (a b) bit for bit
        ch = self._channel(gamma_shape=shape, seed=6)
        streams = [(substream(6, "foliage_gamma", key), substream(6, "foliage_phase", key))
                   for key in range(3)]
        d, _, _ = ch._draw(*np.empty((3, 3, 64)), streams)
        mean = shape * GAMMA_SCALE
        for key in range(3):
            x = sample_gamma_fluctuation(shape, GAMMA_SCALE, 64,
                                         substream(6, "foliage_gamma", key))
            np.testing.assert_array_equal(d[key], (x - mean) / mean)

    @pytest.mark.parametrize("smoothing", [0, 3])
    @pytest.mark.parametrize("key", [0, 7])  # the frozen channel's key, a redrawn pulse's
    def test_draw_is_twice_tan_of_half_a_uniform_phase_and_its_square(self, key, smoothing):
        # 2t and t^2 with t = tan(psi / 2) of the uniform(-pi, pi) draw of key, bit for bit
        ch = self._channel(seed=5, redraw_per_pulse=key > 0, spectral_smoothing_bins=smoothing)
        streams = [(substream(5, "foliage_gamma", key), substream(5, "foliage_phase", key))]
        _, two_t, t2 = ch._frozen if key == 0 else ch._draw(*np.empty((3, 1, 64)), streams)
        t = np.tan(draw_uniform_phase(substream(5, "foliage_phase", key), 64) / 2)
        np.testing.assert_array_equal(two_t[0], 2.0 * t)
        np.testing.assert_array_equal(t2[0], t * t)

    def test_half_phase_identity(self):
        # pi u - pi / 2, the form _draw takes, is (2 pi u - pi) * 0.5, uniform(-pi, pi)
        # halved, bit for bit: the identity that keeps F's bits
        edges = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]
        u = np.concatenate([edges, np.random.default_rng(8).random(1 << 20)])
        half = np.pi * u - np.pi / 2
        np.testing.assert_array_equal(half.view(np.int64),
                                      ((2.0 * np.pi * u - np.pi) * 0.5).view(np.int64))

    @pytest.mark.parametrize("smoothing", [0, 3])
    def test_redrawn_rows_match_gamma_and_uniform_draws(self, smoothing):
        # the block draws are standard_gamma relative to its mean and pi u - pi / 2; row p
        # must be, within phasor_bound, the form drawn with gamma(a, b) and
        # uniform(-pi, pi) at key p + 1
        ch = self._channel(45, seed=5, redraw_per_pulse=True,
                           spectral_smoothing_bins=smoothing)
        f = stacked_response(ch)
        for p in range(45):
            want, _, bound = _reference_row(ch, p + 1, p)
            assert_within_bound(f[p], want, bound)

    @pytest.mark.parametrize("smoothing", [0, 3])
    def test_frozen_rows_match_key_0_gamma_and_uniform_draws(self, smoothing):
        # a frozen channel draws once, at key 0, through the same draw routine
        ch = self._channel(45, seed=5, spectral_smoothing_bins=smoothing)
        f = stacked_response(ch)
        for p in range(45):
            want, _, bound = _reference_row(ch, 0, p)
            assert_within_bound(f[p], want, bound)

    def test_a_redrawn_pass_holds_one_complex_and_two_real_block_buffers(self):
        # at the full preset's 1406 bins and the tank's 256 pulses; the slack covers
        # numpy's ufunc buffer, the per-pulse streams and their keys (about 85 KiB
        # with numpy 2.4), and is under half a real block buffer, so a third one fails
        n_bins = 1406
        ch = FoliageChannel(FoliageParams("HH", np.pi / 4, redraw_per_pulse=True), 2,
                            9e9 + np.fft.fftfreq(n_bins, d=8e-9), 256, 1 / 256.0)
        real_block = BLOCK_PULSES * n_bins * 8
        tracemalloc.start()
        try:
            for _ in ch.blocks():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 + 2) * real_block + 160 * 1024

    def test_redrawn_response_derives_keys_once_per_stream(self, monkeypatch):
        # 45 pulses are two blocks; each redrawn stream's 45 keys come from one pass,
        # and the fBm path's single key from another
        passes = collections.Counter()
        monkeypatch.setattr("fopen_sar.rng._philox_keys", lambda seed, tag, idx: passes.update(
            [(tag, np.size(idx))]) or _philox_keys(seed, tag, idx))
        stacked_response(self._channel(45, seed=5, redraw_per_pulse=True))
        assert passes == {("foliage_fbm", 1): 1, ("foliage_gamma", 45): 1,
                          ("foliage_phase", 45): 1}

    def test_streamed_csv_dump_has_the_bytes_of_the_whole_matrix(self, monkeypatch, tmp_path):
        # whole: one CSV block of 2880 rows; streamed: two F blocks (45 pulses)
        # written in CSV blocks of 100 rows
        ch = self._channel(45, seed=5, redraw_per_pulse=True)
        dump_realizations_csv(tmp_path / "whole.csv", [stacked_response(ch)])
        monkeypatch.setattr(fileio, "CSV_BLOCK_ROWS", 100)
        dump_realizations_csv(tmp_path / "streamed.csv", ch.blocks())
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_csv_dump(self, tmp_path):
        ch = self._channel()
        out = tmp_path / "foliage.csv"
        dump_realizations_csv(out, [stacked_response(ch)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pulse_index,bin,re,im"
        assert len(lines) == 1 + 16 * 64
        rows = [line.split(",") for line in lines[1:]]
        for i, (p, k, re, im) in enumerate(rows):
            assert (int(p), int(k)) == divmod(i, 64)
            f = ch.realize(int(p))[int(k)]
            assert (float(re), float(im)) == (f.real, f.imag)
