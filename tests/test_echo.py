import re
import sys
import time

import numpy as np
import pytest

from fopen_sar import echo
from fopen_sar.echo import (SimulationConfig, apply_foliage, foliage_channel,
                            geometry_spectrum, read_fsar, synthesize_from_g,
                            synthesize_raw, transmitted_pulse, write_fsar)
from fopen_sar.fileio import FormatError
from fopen_sar.foliage import FoliageParams, FoliageRealization
from fopen_sar.geometry import PointTarget, Scene, gm_vector, make_grid
from fopen_sar.rng import substream
from fopen_sar.scenario import Scenario, preset_scenario, run_metrics
from fopen_sar.waveform import generate_ofdm_pulse


def _config(tiny_spec, tiny_platform, scene=None, **kw):
    scene = scene if scene is not None else Scene((PointTarget(4),), 8)
    return SimulationConfig(waveform_kind=kw.pop("kind", "ofdm"),
                            ofdm=tiny_spec, scene=scene,
                            platform=tiny_platform, **kw)


def _line(cfg, j):
    """Pulse j's range line of the batched synthesis."""
    return synthesize_raw(cfg).data[j]


def _max_rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSynthesizePulse:
    """Single range lines of the batched synthesis."""

    def test_empty_scene_noise_off_is_zero(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform, scene=Scene((), 8))
        line = _line(cfg, 0)
        assert len(line) == tiny_spec.n_subcarriers + 2 * tiny_spec.n_range_cells - 2
        np.testing.assert_array_equal(line, np.zeros_like(line))

    def test_single_target_is_shifted_scaled_pulse(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        pulse = transmitted_pulse(cfg)
        grid = make_grid(8, tiny_spec.bandwidth_hz, tiny_platform)
        eta = tiny_platform.slow_time_axis()[3]
        g = gm_vector(cfg.scene, grid, tiny_platform, eta)
        line = _line(cfg, 3)
        expected = np.zeros(cfg.line_length, dtype=complex)
        expected[4:4 + len(pulse.samples)] = g[4] * pulse.samples
        np.testing.assert_allclose(line, expected, atol=1e-14)

    def test_superposition(self, tiny_spec, tiny_platform):
        a = Scene((PointTarget(2),), 8)
        b = Scene((PointTarget(6, azimuth_m=1.0, rcs=0.5j),), 8)
        ab = Scene(a.targets + b.targets, 8)
        la = _line(_config(tiny_spec, tiny_platform, scene=a), 1)
        lb = _line(_config(tiny_spec, tiny_platform, scene=b), 1)
        lab = _line(_config(tiny_spec, tiny_platform, scene=ab), 1)
        assert _max_rel_err(la + lb, lab) < 1e-10


class TestBatchedMatchesPerPulseReference:
    """Every row of synthesize_raw against the per-pulse reference forms:
    direct convolution of gm_vector(eta_j) with the pulse, apply_foliage
    with realize(j), then pulse j's receiver-noise substream."""

    @staticmethod
    def _reference_line(cfg, j):
        pulse = transmitted_pulse(cfg)
        grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
        eta = cfg.platform.slow_time_axis()[j]
        line = np.convolve(gm_vector(cfg.scene, grid, cfg.platform, eta), pulse.samples)
        channel = foliage_channel(cfg)
        if channel is not None:
            line = apply_foliage(line, channel.realize(j))
        sigma2 = np.max(np.abs(pulse.samples) ** 2) / 10.0 ** (cfg.snr_db / 10.0)
        rng = substream(cfg.master_seed, "receiver_noise", j)
        n = len(line)
        return line + np.sqrt(sigma2 / 2.0) * (rng.standard_normal(n)
                                              + 1j * rng.standard_normal(n))

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redraw"])
    def test_rows_match_reference(self, kind, foliage):
        doc = preset_scenario("small").with_overrides(
            waveform_kind=kind, foliage_pol="off" if foliage == "off" else "HH",
            master_seed=4).doc
        doc["noise"] = {"snr_db": 20.0}
        if foliage == "redraw":
            doc["foliage"]["redraw_per_pulse"] = True
        cfg = Scenario(doc).simulation_config()
        raw = synthesize_raw(cfg)
        for j in range(raw.n_pulses):
            assert _max_rel_err(raw.data[j], self._reference_line(cfg, j)) < 1e-12, j


class TestApplyFoliage:
    def _realization(self, f):
        return FoliageRealization(np.asarray(f, complex), np.abs(np.asarray(f)),
                                  np.angle(np.asarray(f)), 0)

    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        line = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = apply_foliage(line, self._realization(np.ones(64)))
        assert np.max(np.abs(out - line)) / np.max(np.abs(line)) < 1e-12

    def test_scalar_channel(self):
        rng = np.random.default_rng(1)
        line = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = apply_foliage(line, self._realization(np.full(32, 0.5)))
        np.testing.assert_allclose(out, 0.5 * line, rtol=1e-12)

    def test_delay_ramp_is_circular_shift(self):
        n, d = 64, 5
        rng = np.random.default_rng(2)
        line = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ramp = np.exp(-2j * np.pi * np.arange(n) * d / n)
        out = apply_foliage(line, self._realization(ramp))
        np.testing.assert_allclose(out, np.roll(line, d), atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_foliage(np.zeros(8, complex), self._realization(np.ones(9)))


class TestSynthesizeRaw:
    def test_pulse_count_arithmetic(self):
        from fopen_sar.geometry import PlatformParams
        p = PlatformParams(5000.0, 150.0, 1.0, 9e9, 5000.0 * np.sqrt(2.0),
                           1.91, 256.0)
        assert p.n_pulses() == 256

    def test_deterministic(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", snr_db=20.0,
                      foliage=FoliageParams(seed=0), master_seed=3)
        a = synthesize_raw(cfg)
        b = synthesize_raw(cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_thread_count_does_not_change_bits(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", snr_db=14.0,
                      foliage=FoliageParams(seed=1), master_seed=5)
        a = synthesize_raw(cfg, threads=1)
        b = synthesize_raw(cfg, threads=4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_boresight_pulse_has_peak_magnitude(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        raw = synthesize_raw(cfg)
        peak_per_pulse = np.max(np.abs(raw.data), axis=1)
        j0 = int(np.argmax(peak_per_pulse))
        eta = tiny_platform.slow_time_axis()
        assert abs(eta[j0]) <= 1.0 / tiny_platform.prf_hz

    def test_matrix_shape_and_axes(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        raw = synthesize_raw(cfg)
        assert raw.data.shape == (tiny_platform.n_pulses(), cfg.line_length)
        assert raw.line_length == 32 + 2 * 8 - 2
        np.testing.assert_array_equal(raw.slow_time_s,
                                      tiny_platform.slow_time_axis())

    def test_noise_energy_matches_ofdm(self, tiny_spec, tiny_platform):
        ofdm = transmitted_pulse(_config(tiny_spec, tiny_platform))
        noise = transmitted_pulse(_config(tiny_spec, tiny_platform, kind="noise"))
        assert noise.energy == pytest.approx(ofdm.energy, rel=1e-12)

    def test_noise_variance_calibration(self, tiny_platform):
        # empty scene + snr: per-sample noise variance within 2% over >= 1e6 samples
        from fopen_sar.waveform import OfdmSpec
        spec = OfdmSpec(1024, 192, 4e9, symbol_seed=0)
        from fopen_sar.geometry import PlatformParams
        plat = PlatformParams(5000.0, 150.0, 3.0, 9e9, 5000.0 * np.sqrt(2.0),
                              1.91, 256.0)
        cfg = SimulationConfig("ofdm", spec, Scene((), 192), plat,
                               snr_db=10.0, master_seed=1)
        raw = synthesize_raw(cfg)
        assert raw.data.size >= 1_000_000
        pulse = transmitted_pulse(cfg)
        sigma2 = np.max(np.abs(pulse.samples) ** 2) / 10.0
        measured = np.mean(np.abs(raw.data) ** 2)
        assert measured == pytest.approx(sigma2, rel=0.02)

    def test_foliage_applied_before_noise(self, tiny_spec, tiny_platform):
        # with foliage F and no receiver noise, the clean line spectrum is
        # multiplied by F exactly
        fol = FoliageParams(seed=2)
        cfg = _config(tiny_spec, tiny_platform, foliage=fol, master_seed=2)
        clean = _config(tiny_spec, tiny_platform, master_seed=2)
        ch = foliage_channel(cfg)
        want = apply_foliage(_line(clean, 3), ch.realize(3))
        np.testing.assert_allclose(_line(cfg, 3), want, rtol=1e-12, atol=1e-15)

    def test_scene_waveform_cell_count_mismatch_rejected(self, tiny_spec,
                                                         tiny_platform):
        with pytest.raises(ValueError):
            SimulationConfig("ofdm", tiny_spec, Scene((PointTarget(0),), 9),
                             tiny_platform)


class TestGeometrySpectrumMemo:
    """FFT(G, L) is computed once per geometry and shared by every seed."""

    @pytest.mark.parametrize("change", [{"rcs": 0.5 - 0.25j}, {"azimuth_m": 2.0},
                                        {"range_cell": 5}])
    def test_one_target_field_changes_the_raw_matrix(self, tiny_spec, tiny_platform,
                                                     change):
        base = _config(tiny_spec, tiny_platform,
                       scene=Scene((PointTarget(4), PointTarget(2, 1.0)), 8))
        other = _config(tiny_spec, tiny_platform, scene=Scene(
            (PointTarget(**{"range_cell": 4, **change}), PointTarget(2, 1.0)), 8))
        warm = [synthesize_raw(cfg).data for cfg in (base, other, base)]
        assert np.any(warm[0] != warm[1])
        np.testing.assert_array_equal(warm[0], warm[2])
        for cfg, data in ((base, warm[0]), (other, warm[1])):
            geometry_spectrum.cache_clear()
            np.testing.assert_array_equal(synthesize_raw(cfg).data, data)

    def test_cached_spectrum_is_read_only(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        spec = geometry_spectrum(cfg.scene, cfg.platform, tiny_spec.bandwidth_hz,
                                 cfg.line_length)
        assert not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0, 0] = 0.0

    @pytest.mark.parametrize("threads, n_seeds", [(1, 4), (2, 4), (8, 8)])
    def test_seed_block_computes_g_once(self, monkeypatch, threads, n_seeds):
        scen = preset_scenario("small").with_overrides(foliage_pol="off")
        seeds = list(range(n_seeds))
        want = run_metrics(scen, seeds)
        calls = []

        def counting_gm_vector(*args):
            calls.append(args)
            time.sleep(0.05)  # other seed threads arrive while G is built
            return gm_vector(*args)

        monkeypatch.setattr(echo, "gm_vector", counting_gm_vector)
        geometry_spectrum.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_metrics(scen, seeds, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert got == want


class TestSeeds:
    def test_seeds_beyond_64_bits_do_not_alias(self):
        # 2^64 and 0 agree in their low 64 bits
        base = preset_scenario("small").with_overrides(waveform_kind="noise",
                                                       foliage_pol="HH")
        a = synthesize_raw(base.simulation_config(0)).data
        b = synthesize_raw(base.simulation_config(1 << 64)).data
        assert not np.array_equal(a, b)


class TestFsarIo:
    def test_round_trip(self, tiny_spec, tiny_platform, tmp_path):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", master_seed=8)
        raw = synthesize_raw(cfg)
        path = tmp_path / "raw.fsar"
        write_fsar(path, raw)
        data = read_fsar(path)
        np.testing.assert_array_equal(data, raw.data)

    def test_header_size_and_magic(self, tiny_spec, tiny_platform, tmp_path):
        cfg = _config(tiny_spec, tiny_platform)
        raw = synthesize_raw(cfg)
        path = tmp_path / "raw.fsar"
        write_fsar(path, raw)
        blob = path.read_bytes()
        assert blob[:4] == b"FSAR"
        assert len(blob) == 32 + raw.data.size * 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fsar"
        path.write_bytes(b"XSAR" + b"\0" * 28)
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic")):
            read_fsar(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.fsar"
        path.write_bytes(b"FSAR\0\0")
        with pytest.raises(FormatError, match=re.escape(f"{path}: truncated FSAR header")):
            read_fsar(path)

    def _written(self, tiny_spec, tiny_platform, tmp_path):
        path = tmp_path / "raw.fsar"
        write_fsar(path, synthesize_raw(_config(tiny_spec, tiny_platform)))
        return path

    def test_short_payload_rejected(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR payload has")):
            read_fsar(path)

    def test_future_version_rejected(self, tiny_spec, tiny_platform, tmp_path):
        path = self._written(tiny_spec, tiny_platform, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
        with pytest.raises(FormatError, match=re.escape(f"{path}: FSAR version 2")):
            read_fsar(path)


class TestSynthesizeFromG:
    def test_matches_scene_path(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        grid = make_grid(8, tiny_spec.bandwidth_hz, tiny_platform)
        eta = tiny_platform.slow_time_axis()[2]
        g = gm_vector(cfg.scene, grid, tiny_platform, eta)
        pulse = generate_ofdm_pulse(tiny_spec)
        np.testing.assert_allclose(synthesize_from_g(g, pulse), _line(cfg, 2), rtol=1e-12)
