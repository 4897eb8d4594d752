import re

import numpy as np
import pytest

from fopen_sar.echo import (RawDataMatrix, SimulationConfig, synthesize_from_g,
                            synthesize_raw, transmitted_pulse, write_fsar)
from fopen_sar.fileio import FormatError
from fopen_sar.geometry import PlatformParams, PointTarget, Scene, gm_vector, make_grid
from fopen_sar.imaging import (FocusedImage, azimuth_fft, migration_shift_cells,
                               range_compress_noise, range_compress_ofdm, rcmc,
                               read_fimg, smooth_length, write_fimg, write_pgm,
                               write_png, RangeDopplerMatrix, focus)
from fopen_sar.scenario import preset_scenario
from fopen_sar.waveform import (NoiseSpec, OfdmSpec, generate_bpsk_symbols,
                                generate_noise_pulse, generate_ofdm_pulse)

from brute_force import full_chain, point_rcs_estimate


def _single_line_raw(g, pulse, spec, kind="ofdm"):
    line = synthesize_from_g(g, pulse)
    data = np.vstack([line, line])
    return RawDataMatrix(data, np.array([0.0, 1.0]), spec.sample_interval, kind)


class TestRangeCompressOfdm:
    def test_exact_recovery_random_g(self, tiny_spec):
        rng = np.random.default_rng(3)
        n, m = tiny_spec.n_subcarriers, tiny_spec.n_range_cells
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, n)
        pulse = generate_ofdm_pulse(tiny_spec)
        raw = _single_line_raw(g, pulse, tiny_spec)
        rc = range_compress_ofdm(raw, tiny_spec, x)
        err = np.max(np.abs(rc.data[0] - np.sqrt(n) * g)) / np.max(np.abs(g))
        assert err < 1e-10

    def test_two_targets_only_two_cells(self, tiny_spec):
        n, m = tiny_spec.n_subcarriers, tiny_spec.n_range_cells
        g = np.zeros(m, complex)
        g[2] = 1.0
        g[6] = -0.5j
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, n)
        raw = _single_line_raw(g, generate_ofdm_pulse(tiny_spec), tiny_spec)
        rc = range_compress_ofdm(raw, tiny_spec, x)
        peak = np.max(np.abs(rc.data[0]))
        others = np.delete(np.abs(rc.data[0]), [2, 6])
        assert np.all(others < 1e-9 * peak)

    def test_empty_scene_gives_zero(self, tiny_spec):
        x = generate_bpsk_symbols(tiny_spec.symbol_seed, tiny_spec.n_subcarriers)
        raw = _single_line_raw(np.zeros(8, complex),
                               generate_ofdm_pulse(tiny_spec), tiny_spec)
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
        raw = _single_line_raw(g, pulse, spec)
        np.testing.assert_allclose(raw.data[0], z_brute, atol=1e-10)
        rc = range_compress_ofdm(raw, spec, x)
        np.testing.assert_allclose(rc.data[0], ghat_brute, atol=1e-10)

    def test_wrong_line_length_rejected(self, tiny_spec):
        raw = RawDataMatrix(np.zeros((2, 10), complex), np.array([0.0, 1.0]),
                            1.0, "ofdm")
        x = generate_bpsk_symbols(0, tiny_spec.n_subcarriers)
        with pytest.raises(ValueError, match="line length"):
            range_compress_ofdm(raw, tiny_spec, x)

    def test_zero_symbol_rejected(self, tiny_spec):
        x = generate_bpsk_symbols(0, tiny_spec.n_subcarriers).copy()
        x[5] = 0.0
        raw = _single_line_raw(np.zeros(8, complex),
                               generate_ofdm_pulse(tiny_spec), tiny_spec)
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
        raw = RawDataMatrix(np.vstack([raw.data, raw.data[:13]]), np.arange(45.0),
                            raw.sample_interval_s, "noise")
        pulse = transmitted_pulse(cfg)
        rep = pulse.samples
        m, n = cfg.ofdm.n_range_cells, raw.line_length
        want = np.fft.ifft(np.fft.fft(raw.data, axis=1) * np.conj(np.fft.fft(rep, n)),
                           axis=1)[:, :m] / np.sum(np.abs(rep) ** 2)
        got = range_compress_noise(raw, pulse, m).data
        assert smooth_length(n) != n
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_autocorrelation_peak(self, tiny_spec):
        pulse = generate_noise_pulse(NoiseSpec(tiny_spec.pulse_length, 1.0, 2),
                                     tiny_spec.sample_interval)
        g = np.zeros(8, complex)
        g[0] = 1.0
        raw = _single_line_raw(g, pulse, tiny_spec, kind="noise")
        rc = range_compress_noise(raw, pulse, 8)
        assert abs(rc.data[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_empty_scene_gives_zero(self, tiny_spec):
        pulse = generate_noise_pulse(NoiseSpec(tiny_spec.pulse_length, 1.0, 2),
                                     tiny_spec.sample_interval)
        raw = _single_line_raw(np.zeros(8, complex), pulse, tiny_spec, "noise")
        rc = range_compress_noise(raw, pulse, 8)
        assert np.max(np.abs(rc.data)) < 1e-14

    def test_sidelobe_floor_scales_with_pulse_length(self):
        # RMS sidelobe of the normalized matched filter ~ 1/sqrt(N+M-1)
        spec = OfdmSpec(256, 48, 4e9)
        L = spec.pulse_length
        g = np.zeros(48, complex)
        g[24] = 1.0
        ratios = []
        for seed in range(100):
            pulse = generate_noise_pulse(NoiseSpec(L, 1.0, seed),
                                         spec.sample_interval)
            raw = _single_line_raw(g, pulse, spec, "noise")
            rc = range_compress_noise(raw, pulse, 48)
            side = np.delete(np.abs(rc.data[0]), 24)
            ratios.append(np.sqrt(np.mean(side**2)))
        measured = np.mean(ratios)
        assert measured == pytest.approx(1.0 / np.sqrt(L), rel=0.15)

    def test_dimension_mismatch_rejected(self, tiny_spec):
        pulse = generate_noise_pulse(NoiseSpec(tiny_spec.pulse_length, 1.0, 2),
                                     tiny_spec.sample_interval)
        raw = RawDataMatrix(np.zeros((2, 11), complex), np.array([0.0, 1.0]),
                            1.0, "noise")
        with pytest.raises(ValueError):
            range_compress_noise(raw, pulse, 8)


class TestAzimuthFft:
    def _rc(self, data):
        from fopen_sar.imaging import RangeCompressedMatrix
        return RangeCompressedMatrix(data)

    def test_constant_column_impulse_at_zero(self):
        data = np.ones((32, 3), complex)
        rd = azimuth_fft(self._rc(data), 64.0)
        col = np.abs(rd.data[:, 0])
        assert rd.doppler_hz[np.argmax(col)] == 0.0
        assert np.sum(col > 1e-9) == 1

    def test_on_bin_tone_lands_on_its_bin(self):
        n, prf, f0 = 64, 128.0, 16.0
        eta = (np.arange(n) - n / 2) / prf
        data = np.exp(2j * np.pi * f0 * eta)[:, None]
        rd = azimuth_fft(self._rc(data), prf)
        assert rd.doppler_hz[np.argmax(np.abs(rd.data[:, 0]))] == pytest.approx(f0)

    def test_parseval_per_column(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        rd = azimuth_fft(self._rc(data), 64.0)
        for c in range(4):
            assert np.sum(np.abs(rd.data[:, c]) ** 2) / 32 == pytest.approx(
                np.sum(np.abs(data[:, c]) ** 2), rel=1e-10)

    def test_single_pulse_rejected(self):
        with pytest.raises(ValueError):
            azimuth_fft(self._rc(np.ones((1, 3), complex)), 64.0)


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
        rd = RangeDopplerMatrix(data, fd)
        out = rcmc(rd, p, 0.0375, "spectral")
        np.testing.assert_allclose(out.data[3], data[3], atol=1e-12)

    @pytest.mark.parametrize("mode", ["spectral"])
    def test_impulse_moves_by_the_migration_shift(self, mode):
        p = self._platform()
        cell0, f0 = 40, 95.0
        data = np.zeros((4, 64), complex)
        fd = np.array([-f0, 0.0, f0, 10.0])
        data[2, cell0] = 1.0
        rd = RangeDopplerMatrix(data, fd)
        shift = migration_shift_cells(p, 0.0375, np.array([f0]))[0]
        out = rcmc(rd, p, 0.0375, mode)
        peak = int(np.argmax(np.abs(out.data[2])))
        assert peak == int(round(cell0 - shift))

    def test_spectral_equals_roll_for_integer_shift(self):
        p = self._platform()
        rng = np.random.default_rng(5)
        row = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        # find a Doppler whose shift is exactly 3 cells
        lam = p.wavelength_m
        f = np.sqrt(3 * 0.0375 * 8 * p.velocity_mps**2
                    / (lam**2 * p.reference_range_m))
        rd = RangeDopplerMatrix(row[None, :], np.array([f]))
        out = rcmc(rd, p, 0.0375, "spectral")
        np.testing.assert_allclose(out.data[0], np.roll(row, -3), atol=1e-9)

    def test_off_mode_is_identity(self):
        p = self._platform()
        rng = np.random.default_rng(2)
        data = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        rd = RangeDopplerMatrix(data, np.linspace(-10, 10, 4))
        out = rcmc(rd, p, 0.0375, "off")
        assert out.data is data

    def test_unknown_mode_rejected(self):
        p = self._platform()
        rd = RangeDopplerMatrix(np.zeros((2, 4), complex),
                                np.array([0.0, 1.0]))
        for mode in ("cubic", "sinc8"):
            with pytest.raises(ValueError, match="rcmc mode"):
                rcmc(rd, p, 0.0375, mode)


class TestAzimuthCompressAndFocus:
    def _run_small(self, kind="ofdm", scene=None):
        spec = OfdmSpec(256, 48, 4e9, symbol_seed=1)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              7.64, 128.0)
        scene = scene or Scene((PointTarget(24),), 48)
        cfg = SimulationConfig(kind, spec, scene, plat, master_seed=1)
        raw = synthesize_raw(cfg)
        grid = make_grid(48, spec.bandwidth_hz, plat)
        symbols = generate_bpsk_symbols(1, 256)
        replica = transmitted_pulse(cfg) if kind == "noise" else None
        img = focus(raw, spec, plat, grid, symbols=symbols, replica=replica)
        return img, plat

    def test_zero_input_zero_image(self):
        spec = OfdmSpec(64, 8, 4e9, symbol_seed=0)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        cfg = SimulationConfig("ofdm", spec, Scene((), 8), plat)
        raw = synthesize_raw(cfg)
        grid = make_grid(8, spec.bandwidth_hz, plat)
        img = focus(raw, spec, plat, grid,
                    symbols=generate_bpsk_symbols(0, 64))
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
        rd = azimuth_fft(rc, 64.0)
        spec = np.fft.ifftshift(rd.data, axes=0)
        back = np.fft.ifft(spec, axis=0)
        np.testing.assert_allclose(back, data, atol=1e-12)

    def test_noise_waveform_replica_required(self):
        spec = OfdmSpec(64, 8, 4e9, symbol_seed=0)
        plat = PlatformParams(5000.0, 150.0, 0.25, 9e9, 5000.0 * np.sqrt(2.0),
                              15.0, 128.0)
        cfg = SimulationConfig("noise", spec, Scene((PointTarget(4),), 8), plat)
        raw = synthesize_raw(cfg)
        grid = make_grid(8, spec.bandwidth_hz, plat)
        with pytest.raises(ValueError, match="replica"):
            focus(raw, spec, plat, grid, symbols=generate_bpsk_symbols(0, 64))


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


class TestImageIo:
    def _image(self):
        rng = np.random.default_rng(0)
        px = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        return FocusedImage(px)

    def test_fimg_round_trip(self, tmp_path):
        img = self._image()
        path = tmp_path / "img.fimg"
        write_fimg(path, img)
        np.testing.assert_array_equal(read_fimg(path), img.pixels)

    def test_fimg_round_trip_keeps_every_bit(self, tmp_path):
        px = np.array([[complex(-0.0, 1.0), complex(1.0, np.inf)]])
        path = tmp_path / "img.fimg"
        write_fimg(path, FocusedImage(px))
        assert read_fimg(path).tobytes() == px.tobytes()

    def test_fsar_is_not_an_image(self, tmp_path):
        path = tmp_path / "raw.fsar"
        write_fsar(path, RawDataMatrix(self._image().pixels, np.arange(8.0), 1.0, "ofdm"))
        msg = f"{path}: bad magic b'FSAR', expected b'FIMG'"
        with pytest.raises(FormatError, match=re.escape(msg)):
            read_fimg(path)

    def test_pgm_format(self, tmp_path):
        img = self._image()
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        header = b"P5\n6 8\n65535\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 8 * 6 * 2

    def test_png_structure(self, tmp_path):
        import struct
        import zlib
        img = self._image()
        path = tmp_path / "img.png"
        write_png(path, img)
        blob = path.read_bytes()
        assert blob[:8] == b"\x89PNG\r\n\x1a\n"
        w, h = struct.unpack(">II", blob[16:24])
        assert (w, h) == (6, 8)
        idat = blob.index(b"IDAT")
        size = struct.unpack(">I", blob[idat - 4:idat])[0]
        raw = zlib.decompress(blob[idat + 4:idat + 4 + size])
        assert len(raw) == 8 * (1 + 6 * 2)

    def test_pgm_peak_location_matches_image(self, tmp_path):
        px = np.full((5, 7), 0.01, complex)
        px[3, 2] = 1.0
        img = FocusedImage(px)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        header = b"P5\n7 5\n65535\n"
        vals = np.frombuffer(blob[len(header):], dtype=">u2").reshape(5, 7)
        assert np.unravel_index(np.argmax(vals), vals.shape) == (3, 2)
