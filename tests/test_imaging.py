import re
import weakref

import numpy as np
import pytest

from fopen_sar import imaging
from fopen_sar.echo import RawDataMatrix, SimulationConfig, synthesize_raw, transmitted_pulse
from fopen_sar.geometry import PlatformParams, PointTarget, Scene, gm_vector, make_grid
from fopen_sar.imaging import (AZIMUTH_WINDOWS, azimuth_fft, migration_shift_cells,
                               range_compress_noise, range_compress_ofdm, rcmc,
                               smooth_length, azimuth_compress, focus)
from fopen_sar.scenario import focus_scenario, preset_scenario
from fopen_sar.waveform import (OfdmSpec, generate_bpsk_symbols, generate_noise_pulse,
                                generate_ofdm_pulse)

from brute_force import full_chain, point_rcs_estimate, synthesize_from_g


def _single_line_raw(g, pulse, kind="ofdm"):
    line = synthesize_from_g(g, pulse)
    data = np.vstack([line, line])
    return RawDataMatrix(data, np.array([0.0, 1.0]), kind)


class TestRangeCompressOfdm:
    def test_exact_recovery_random_g(self, tiny_spec):
        rng = np.random.default_rng(3)
        n, m = tiny_spec.n_subcarriers, tiny_spec.n_range_cells
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, n)
        pulse = generate_ofdm_pulse(tiny_spec)
        raw = _single_line_raw(g, pulse)
        rc = range_compress_ofdm(raw, tiny_spec, x)
        err = np.max(np.abs(rc.data[0] - np.sqrt(n) * g)) / np.max(np.abs(g))
        assert err < 1e-10

    def test_two_targets_only_two_cells(self, tiny_spec):
        n, m = tiny_spec.n_subcarriers, tiny_spec.n_range_cells
        g = np.zeros(m, complex)
        g[2] = 1.0
        g[6] = -0.5j
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, n)
        raw = _single_line_raw(g, generate_ofdm_pulse(tiny_spec))
        rc = range_compress_ofdm(raw, tiny_spec, x)
        peak = np.max(np.abs(rc.data[0]))
        others = np.delete(np.abs(rc.data[0]), [2, 6])
        assert np.all(others < 1e-9 * peak)

    def test_empty_scene_gives_zero(self, tiny_spec):
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, tiny_spec.n_subcarriers)
        raw = _single_line_raw(np.zeros(8, complex), generate_ofdm_pulse(tiny_spec))
        rc = range_compress_ofdm(raw, tiny_spec, x)
        np.testing.assert_array_equal(rc.data, np.zeros_like(rc.data))

    def test_matches_brute_force_oracle(self, tiny_spec):
        rng = np.random.default_rng(7)
        n, m = 8, 3
        spec = OfdmSpec(n, m, 1e9, symbol_seed=1)
        x = generate_bpsk_symbols(1, n)
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        z_brute, ghat_brute = full_chain(x, g, n, m)
        pulse = generate_ofdm_pulse(spec)
        raw = _single_line_raw(g, pulse)
        np.testing.assert_allclose(raw.data[0], z_brute, atol=1e-10)
        rc = range_compress_ofdm(raw, spec, x)
        np.testing.assert_allclose(rc.data[0], ghat_brute, atol=1e-10)

    def test_wrong_line_length_rejected(self, tiny_spec):
        raw = RawDataMatrix(np.zeros((2, 10), complex), np.array([0.0, 1.0]), "ofdm")
        x = generate_bpsk_symbols(0, tiny_spec.n_subcarriers)
        with pytest.raises(ValueError, match="line length"):
            range_compress_ofdm(raw, tiny_spec, x)

    def test_wrong_symbol_count_rejected(self, tiny_spec):
        raw = _single_line_raw(np.zeros(8, complex), generate_ofdm_pulse(tiny_spec))
        x = generate_bpsk_symbols(0, tiny_spec.n_subcarriers + 1)
        with pytest.raises(ValueError, match=re.escape(
                f"expected {tiny_spec.n_subcarriers} symbols, got ({len(x)},)")):
            range_compress_ofdm(raw, tiny_spec, x)

    def test_zero_symbol_rejected(self, tiny_spec):
        x = generate_bpsk_symbols(0, tiny_spec.n_subcarriers).copy()
        x[5] = 0.0
        raw = _single_line_raw(np.zeros(8, complex), generate_ofdm_pulse(tiny_spec))
        with pytest.raises(ZeroDivisionError):
            range_compress_ofdm(raw, tiny_spec, x)


class TestCpExactnessFullPreset:
    def test_recovery_error_far_inside_the_gate(self):
        # The acceptance gate is 1e-9; the folded equalizer keeps the full
        # preset near 1e-14, and an unreduced phase ramp would not.
        cfg = preset_scenario("full").simulation_config()
        n = cfg.ofdm.n_subcarriers
        raw = synthesize_raw(cfg)
        ghat = range_compress_ofdm(raw, cfg.ofdm,
                                   generate_bpsk_symbols(cfg.ofdm.symbol_seed, n)).data
        grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
        g = gm_vector(cfg.scene, grid, cfg.platform, raw.slow_time_s)
        assert np.max(np.abs(ghat - np.sqrt(n) * g)) / np.max(np.abs(g)) < 1e-13


class TestInterTargetInterference:
    """The paper's mechanism, cell by cell: in a clear scene, sufficient-CP OFDM
    compresses every range line to a multiple of its coefficient vector, so
    targets sharing a range line leave nothing in each other's cells, while
    the noise waveform's correlation sidelobes spread each target over the line.

    I = 10 log10(|rc - c G|^2 / |c G|^2) over the whole [pulse, cell] matrix,
    c = <G, rc> / <G, G> the least-squares gain: what of rc is not G.
    """

    @staticmethod
    def _interference_db(scen, seed):
        cfg = scen.simulation_config(seed)
        raw = synthesize_raw(cfg)
        if cfg.waveform_kind == "ofdm":
            symbols = generate_bpsk_symbols(cfg.ofdm.symbol_seed, cfg.ofdm.n_subcarriers)
            rc = range_compress_ofdm(raw, cfg.ofdm, symbols).data
        else:
            rc = range_compress_noise(raw, transmitted_pulse(cfg)).data
        grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
        g = gm_vector(cfg.scene, grid, cfg.platform, raw.slow_time_s)
        cg = np.vdot(g, rc) / np.vdot(g, g) * g
        return 10 * np.log10(np.sum(np.abs(rc - cg) ** 2) / np.sum(np.abs(cg) ** 2))

    @pytest.mark.parametrize("scene", ["tank", "full"])
    @pytest.mark.parametrize("seed", range(4))
    def test_ofdm_removes_what_noise_leaves(self, scene, seed):
        # tank: 28 targets, two to four on each hull range line; full: one target.
        # Measured OFDM -308 to -310 dB (rounding), noise -7 to -9 dB (near the
        # clear-noise closed form, -8.21 dB)
        base = preset_scenario(scene).with_overrides(foliage_pol="off")
        assert self._interference_db(base.with_overrides(waveform_kind="ofdm"), seed) < -250
        assert self._interference_db(base.with_overrides(waveform_kind="noise"), seed) > -20


class TestMaskingFloor:
    """How far below its own peak a target leaks into another cell of its range
    line: the level under which a weak target there is masked. Full preset,
    clear scene, the target in cell 96; the leakage into cell 120 on the peak's
    azimuth row, |img[az, 120]|^2 / |img[az, 96]|^2 in dB.

    Sufficient-CP OFDM recovers each range line exactly, so only rounding
    leaks. The noise waveform is one pulse per seed, the same on every pulse,
    and the target stays in its cell, so azimuth compression scales cells 96
    and 120 alike and the ratio is the pulse's normalised autocorrelation at
    lag tau = 24, |rho(tau)|^2. For L_p = N + M - 1 = 1215 white samples,
    E|rho(tau)|^2 = (L_p - tau) / L_p^2 = -30.93 dB. rho(tau) is near
    circular Gaussian, so |rho|^2 is exponential; the dB value of an
    exponential variable averages 10 log10(e) gamma = 2.51 dB (gamma =
    0.5772, Euler's constant) below the dB of its mean and has standard deviation 10 log10(e) pi / sqrt(6) =
    5.57 dB. The mean over 16 seeds is then -33.44 dB with SE 5.57 / 4 =
    1.39 dB. Measured: OFDM -335 to -347 dB over seeds 0-15; noise mean
    -31.39 dB, standard deviation 4.62 dB.
    """

    TARGET, CELL, SEEDS = 96, 120, 16

    def _leakage_db(self, kind, seed):
        scen = preset_scenario("full").with_overrides(kind, "off")
        cfg = scen.simulation_config(seed)
        img = focus_scenario(scen, cfg).pixels
        az = int(np.argmax(np.abs(img[:, self.TARGET])))
        return 10 * np.log10(np.abs(img[az, self.CELL]) ** 2
                             / np.abs(img[az, self.TARGET]) ** 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_ofdm_masks_nothing_above_rounding(self, seed):
        assert self._leakage_db("ofdm", seed) < -250

    def test_noise_leaks_its_autocorrelation_sidelobe(self):
        lp = preset_scenario("full").simulation_config().ofdm.pulse_length  # 1215
        tau = self.CELL - self.TARGET
        mean_db = 10 * np.log10((lp - tau) / lp**2) - 10 * np.log10(np.e) * np.euler_gamma
        se = 10 * np.log10(np.e) * np.pi / np.sqrt(6) / np.sqrt(self.SEEDS)
        got = np.mean([self._leakage_db("noise", seed) for seed in range(self.SEEDS)])
        assert abs(got - mean_db) < 3 * se, (got, mean_db, se)


class TestSmoothLength:
    @staticmethod
    def _is_smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    def test_smallest_5_smooth_at_least_n(self):
        for n in range(1, 4097):
            want = next(k for k in range(n, 2 * n + 1) if self._is_smooth(k))
            assert smooth_length(n) == want, n


class TestRangeCompressNoise:
    def test_smooth_length_matches_line_length_correlation(self):
        scen = preset_scenario("small").with_overrides(waveform_kind="noise",
                                                       foliage_pol="HH")
        cfg = scen.simulation_config()
        raw = synthesize_raw(cfg)
        # 45 pulses: a full block of 32 and a partial one
        raw = RawDataMatrix(np.vstack([raw.data, raw.data[:13]]), np.arange(45.0), "noise")
        pulse = transmitted_pulse(cfg)
        m, n = cfg.ofdm.n_range_cells, raw.data.shape[1]
        want = np.fft.ifft(np.fft.fft(raw.data, axis=1) * np.conj(np.fft.fft(pulse, n)),
                           axis=1)[:, :m] / np.sum(np.abs(pulse) ** 2)
        got = range_compress_noise(raw, pulse).data
        assert smooth_length(n) != n
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_autocorrelation_peak(self, tiny_spec):
        pulse = generate_noise_pulse(tiny_spec.pulse_length, 2)
        g = np.zeros(8, complex)
        g[0] = 1.0
        raw = _single_line_raw(g, pulse, kind="noise")
        rc = range_compress_noise(raw, pulse)
        assert abs(rc.data[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_empty_scene_gives_zero(self, tiny_spec):
        pulse = generate_noise_pulse(tiny_spec.pulse_length, 2)
        raw = _single_line_raw(np.zeros(8, complex), pulse, "noise")
        rc = range_compress_noise(raw, pulse)
        assert np.max(np.abs(rc.data)) < 1e-14

    def test_sidelobe_floor_scales_with_pulse_length(self):
        # RMS sidelobe of the normalized matched filter ~ 1/sqrt(N+M-1)
        spec = OfdmSpec(256, 48, 4e9)
        L = spec.pulse_length
        g = np.zeros(48, complex)
        g[24] = 1.0
        ratios = []
        for seed in range(100):
            pulse = generate_noise_pulse(L, seed)
            raw = _single_line_raw(g, pulse, "noise")
            rc = range_compress_noise(raw, pulse)
            side = np.delete(np.abs(rc.data[0]), 24)
            ratios.append(np.sqrt(np.mean(side**2)))
        measured = np.mean(ratios)
        assert measured == pytest.approx(1.0 / np.sqrt(L), rel=0.15)

    def test_dimension_mismatch_rejected(self, tiny_spec):
        # M = L - 39 + 1 cells: a line shorter than the replica has none
        pulse = generate_noise_pulse(tiny_spec.pulse_length, 2)
        raw = RawDataMatrix(np.zeros((2, 38), complex), np.array([0.0, 1.0]), "noise")
        with pytest.raises(ValueError, match=r"raw line length 38 .*replica \(39\)"):
            range_compress_noise(raw, pulse)
        raw = RawDataMatrix(np.zeros((2, 39), complex), np.array([0.0, 1.0]), "noise")
        assert range_compress_noise(raw, pulse).data.shape == (2, 1)


class TestAzimuthFft:
    def _rc(self, data):
        from fopen_sar.imaging import RangeCompressedMatrix
        return RangeCompressedMatrix(data)

    def test_constant_column_impulse_at_zero(self):
        data = np.ones((32, 3), complex)
        col = np.abs(azimuth_fft(self._rc(data))[:, 0])
        assert np.fft.fftfreq(32, 1 / 64.0)[np.argmax(col)] == 0.0
        assert np.sum(col > 1e-9) == 1

    def test_on_bin_tone_lands_on_its_bin(self):
        n, prf, f0 = 64, 128.0, 16.0
        eta = (np.arange(n) - n / 2) / prf
        data = np.exp(2j * np.pi * f0 * eta)[:, None]
        rd = azimuth_fft(self._rc(data))
        assert np.fft.fftfreq(n, 1 / prf)[np.argmax(np.abs(rd[:, 0]))] == pytest.approx(f0)

    def test_parseval_per_column(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        rd = azimuth_fft(self._rc(data))
        for c in range(4):
            assert np.sum(np.abs(rd[:, c]) ** 2) / 32 == pytest.approx(
                np.sum(np.abs(data[:, c]) ** 2), rel=1e-10)

    def test_single_pulse_rejected(self):
        with pytest.raises(ValueError):
            azimuth_fft(self._rc(np.ones((1, 3), complex)))


class TestRcmc:
    def _platform(self):
        return PlatformParams(5000.0, 150.0, 1.0, 9e9, 5000.0 * np.sqrt(2.0),
                              1.91, 256.0)

    def test_shift_arithmetic_example(self):
        # lambda = 1/30 m, Rc = 5*sqrt(2) km, v = 150, f = 95 Hz -> ~0.394 m
        p = PlatformParams(5000.0, 150.0, 1.0, 299792458.0 * 30.0,
                           5000.0 * np.sqrt(2.0), 1.91, 256.0)
        cells = migration_shift_cells(p, 299792458.0 / 8e9, np.array([95.0]))
        dr = cells[0] * 299792458.0 / 8e9
        assert dr == pytest.approx(0.3939, abs=2e-4)
        assert cells[0] == pytest.approx(10.5, abs=0.05)

    def test_zero_doppler_row_unshifted(self):
        p = self._platform()
        rng = np.random.default_rng(1)
        data = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
        fd = np.linspace(-128, 127, 8)
        fd[3] = 0.0
        out = rcmc(data, fd, p, 0.0375)
        np.testing.assert_allclose(out[3], data[3], atol=1e-12)

    def test_impulse_moves_by_the_migration_shift(self):
        p = self._platform()
        cell0, f0 = 40, 95.0
        data = np.zeros((4, 64), complex)
        fd = np.array([-f0, 0.0, f0, 10.0])
        data[2, cell0] = 1.0
        shift = migration_shift_cells(p, 0.0375, np.array([f0]))[0]
        out = rcmc(data, fd, p, 0.0375)
        peak = int(np.argmax(np.abs(out[2])))
        assert peak == int(round(cell0 - shift))

    def test_spectral_equals_roll_for_integer_shift(self):
        p = self._platform()
        rng = np.random.default_rng(5)
        row = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        # find a Doppler whose shift is exactly 3 cells
        lam = p.wavelength_m
        f = np.sqrt(3 * 0.0375 * 8 * p.velocity_mps**2
                    / (lam**2 * p.reference_range_m))
        out = rcmc(row[None, :], np.array([f]), p, 0.0375)
        np.testing.assert_allclose(out[0], np.roll(row, -3), atol=1e-9)


class TestAzimuthCompressAndFocus:
    def _run_small(self, kind="ofdm", scene=None):
        spec = OfdmSpec(256, 48, 4e9, symbol_seed=1)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              7.64, 128.0)
        scene = scene or Scene((PointTarget(24),), 48)
        cfg = SimulationConfig(kind, spec, scene, plat, master_seed=1)
        raw = synthesize_raw(cfg)
        reference = (transmitted_pulse(cfg) if kind == "noise"
                     else generate_bpsk_symbols(1, 256))
        img = focus(raw, spec, plat, reference)
        return img, plat

    def test_zero_input_zero_image(self):
        spec = OfdmSpec(64, 8, 4e9, symbol_seed=0)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        cfg = SimulationConfig("ofdm", spec, Scene((), 8), plat)
        raw = synthesize_raw(cfg)
        img = focus(raw, spec, plat, generate_bpsk_symbols(0, 64))
        assert np.max(np.abs(img.pixels)) < 1e-12

    def test_point_target_focuses_at_truth(self):
        img, plat = self._run_small()
        pk = np.unravel_index(np.argmax(np.abs(img.pixels)), img.pixels.shape)
        assert pk == (plat.n_pulses() // 2, 24)

    def test_boresight_peak_is_real_positive(self):
        # residual phase is the finite time-bandwidth stationary-phase error
        img, _ = self._run_small()
        peak = img.pixels[np.unravel_index(np.argmax(np.abs(img.pixels)),
                                           img.pixels.shape)]
        assert abs(np.angle(peak)) < 0.05
        assert peak.real > 0

    def test_two_separated_targets_equal_peaks(self):
        scene = Scene((PointTarget(10, azimuth_m=-10.0),
                       PointTarget(38, azimuth_m=10.0)), 48)
        img, plat = self._run_small(scene=scene)
        from fopen_sar.metrics import upsample_complex
        mag = np.abs(img.pixels)
        # band-limited peaks; the half-open slow-time grid truncates the two
        # dwells slightly differently, a ~2/n_pulses effect at 32 pulses
        p1 = np.abs(upsample_complex(img.pixels[:, 10], 16)).max()
        p2 = np.abs(upsample_complex(img.pixels[:, 38], 16)).max()
        assert p1 == pytest.approx(p2, rel=0.08)
        eta = plat.slow_time_axis()
        assert eta[np.argmax(mag[:, 10])] == pytest.approx(-10.0 / 150.0,
                                                           abs=1.5 / plat.prf_hz)
        assert eta[np.argmax(mag[:, 38])] == pytest.approx(10.0 / 150.0,
                                                           abs=1.5 / plat.prf_hz)

    def test_azimuth_fft_compress_round_trip(self):
        # with a unity matched filter the fft/ifft pair is the identity
        rng = np.random.default_rng(3)
        data = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        from fopen_sar.imaging import RangeCompressedMatrix
        rc = RangeCompressedMatrix(data)
        back = np.fft.ifft(azimuth_fft(rc), axis=0)
        np.testing.assert_allclose(back, data, atol=1e-12)

    def test_noise_waveform_replica_required(self):
        # the OFDM reference, N symbols, is no noise replica of N+M-1 samples
        spec = OfdmSpec(64, 8, 4e9, symbol_seed=0)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        cfg = SimulationConfig("noise", spec, Scene((PointTarget(4),), 8), plat)
        raw = synthesize_raw(cfg)
        with pytest.raises(ValueError, match="replica"):
            focus(raw, spec, plat, generate_bpsk_symbols(0, 64))

    @pytest.mark.parametrize("n", [8, 9])
    def test_hann_window_centred_on_zero_doppler(self, n):
        # the weights a unit Doppler column gets, read back through the FFT
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        fd = np.fft.fftfreq(n, 1 / plat.prf_hz)
        ones = np.ones((n, 1), complex)
        w = (np.fft.fft(azimuth_compress(ones, plat, "hann").pixels, axis=0)
             / np.fft.fft(azimuth_compress(ones, plat).pixels, axis=0))[:, 0]
        np.testing.assert_allclose(w.imag, 0.0, atol=1e-12)
        assert w[0].real == pytest.approx(1.0, rel=1e-12)
        # w(f_k) = w(f_-k) for even n too: bin -k is index -k mod n
        np.testing.assert_allclose(w.real, w.real[-np.arange(n)], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.real, 0.5 + 0.5 * np.cos(2 * np.pi * fd / plat.prf_hz),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("window", ["Hann", "hamming", "", None])
    def test_unknown_window_rejected(self, window):
        # a window outside AZIMUTH_WINDOWS raises, in focus too, rather than
        # leaving the image unwindowed
        spec = OfdmSpec(64, 8, 4e9, symbol_seed=0)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        raw = synthesize_raw(SimulationConfig("ofdm", spec, Scene((PointTarget(4),), 8), plat))
        named = re.escape(str(AZIMUTH_WINDOWS))
        with pytest.raises(ValueError, match=named):
            azimuth_compress(np.ones((8, 1), complex), plat, window)
        with pytest.raises(ValueError, match=named):
            focus(raw, spec, plat, generate_bpsk_symbols(0, 64), azimuth_window=window)

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    def test_range_compressed_matrix_is_freed_before_azimuth_compress(self, kind,
                                                                      monkeypatch):
        # focus once held rc through azimuth_compress, beside the Doppler matrix and image
        refs, alive = [], []

        def compress(fn):
            def spied(*args):
                rc = fn(*args)
                refs.append(weakref.ref(rc.data))
                return rc
            return spied

        def azimuth_compress_spy(rd, *args, fn=imaging.azimuth_compress):
            alive.append(refs[-1]() is not None)
            return fn(rd, *args)

        for name in ("range_compress_ofdm", "range_compress_noise"):
            monkeypatch.setattr(imaging, name, compress(getattr(imaging, name)))
        monkeypatch.setattr(imaging, "azimuth_compress", azimuth_compress_spy)
        self._run_small(kind)
        assert alive == [False]


class TestPointRcsEstimate:
    def test_recovers_rcs_single_pulse(self, tiny_spec, tiny_platform):
        sigma = 0.8 - 0.6j
        scene = Scene((PointTarget(4, rcs=sigma),), 8)
        cfg = SimulationConfig("ofdm", tiny_spec, scene, tiny_platform,
                               master_seed=0)
        raw = synthesize_raw(cfg)
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, tiny_spec.n_subcarriers)
        rc = range_compress_ofdm(raw, tiny_spec, x)
        grid = make_grid(8, tiny_spec.bandwidth_hz, tiny_platform)
        j = tiny_platform.n_pulses() // 2
        eta = tiny_platform.slow_time_axis()[j]
        est = point_rcs_estimate(rc.data[j], grid, tiny_platform, eta,
                                 tiny_spec.n_subcarriers)
        assert est[4] == pytest.approx(sigma, rel=1e-9)
