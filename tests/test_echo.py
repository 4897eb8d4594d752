import collections
import dataclasses
import sys
import time

import numpy as np
import pytest

from fopen_sar import echo
from fopen_sar.echo import (SimulationConfig, apply_foliage, foliage_channel,
                            geometry_spectrum, synthesize_raw, transmitted_pulse)
from fopen_sar.foliage import FoliageParams
from fopen_sar.geometry import PointTarget, Scene, gm_vector, make_grid
from fopen_sar.metrics import METRIC_KEYS, image_metrics
from fopen_sar.rng import TAGS, _philox_keys
from fopen_sar.scenario import (Scenario, focus_scenario, preset_scenario, run_metrics,
                                tank_scenario)
from fopen_sar.waveform import generate_ofdm_pulse

from brute_force import receiver_noise, stacked_response, synthesize_from_g


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
        expected = np.zeros(cfg.ofdm.line_length, dtype=complex)
        expected[4:4 + len(pulse)] = g[4] * pulse
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
        line = np.convolve(gm_vector(cfg.scene, grid, cfg.platform, eta), pulse)
        channel = foliage_channel(cfg)
        if channel is not None:
            line = apply_foliage(line, channel.realize(j))
        return line + receiver_noise(pulse, cfg.snr_db, cfg.master_seed, j, len(line))

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redraw", "redraw-smoothed"])
    def test_rows_match_reference(self, kind, foliage):
        self._check_rows(kind, foliage)  # 32 pulses: one block

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redraw", "redraw-smoothed"])
    def test_rows_match_reference_across_a_block_seam(self, kind, foliage):
        self._check_rows(kind, foliage, n_pulses=45)  # a full block and a partial one

    def _check_rows(self, kind, foliage, n_pulses=None):
        doc = preset_scenario("small").with_overrides(
            waveform_kind=kind, foliage_pol="off" if foliage == "off" else "HH",
            master_seed=4).doc
        doc["noise"] = {"snr_db": 20.0}
        if foliage.startswith("redraw"):
            doc["foliage"]["redraw_per_pulse"] = True
        if foliage == "redraw-smoothed":
            doc["foliage"]["spectral_smoothing_bins"] = 3
        cfg = Scenario(doc).simulation_config()
        if n_pulses is not None:
            cfg = dataclasses.replace(cfg, platform=dataclasses.replace(
                cfg.platform, aperture_s=n_pulses / cfg.platform.prf_hz))
        raw = synthesize_raw(cfg)
        assert len(raw.data) == (n_pulses or 32)
        for j in range(len(raw.data)):
            assert _max_rel_err(raw.data[j], self._reference_line(cfg, j)) < 1e-12, j


def _noisy_small_config(kind, foliage, n_pulses=None):
    """Small preset at 20 dB SNR, clear or with HH foliage redrawn per pulse."""
    doc = preset_scenario("small").with_overrides(
        waveform_kind=kind, foliage_pol=foliage, master_seed=6).doc
    doc["noise"] = {"snr_db": 20.0}
    if foliage != "off":
        doc["foliage"]["redraw_per_pulse"] = True
    cfg = Scenario(doc).simulation_config()
    if n_pulses is not None:
        cfg = dataclasses.replace(cfg, platform=dataclasses.replace(
            cfg.platform, aperture_s=n_pulses / cfg.platform.prf_hz))
    return cfg


class TestReceiverNoiseInPlace:
    """The in-place noise is bit-identical to adding the whole matrix
    sigma * (a + 1j b), a and b from pulse j's own substream."""

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "HH"])
    @pytest.mark.parametrize("n_pulses", [None, 45])  # one block; a partial second block
    def test_equals_per_pulse_matrix_sum(self, kind, foliage, n_pulses):
        cfg = _noisy_small_config(kind, foliage, n_pulses)
        clean = synthesize_raw(dataclasses.replace(cfg, snr_db=None)).data
        pulse = transmitted_pulse(cfg)
        noise = np.array([receiver_noise(pulse, cfg.snr_db, cfg.master_seed, j, clean.shape[1])
                          for j in range(len(clean))])
        assert np.array_equal(synthesize_raw(cfg).data, clean + noise)

    def test_seeding_does_not_grow_with_pulse_count(self, monkeypatch):
        # every stream's keys, per-pulse ones included, come from one _philox_keys pass
        passes = collections.Counter()
        monkeypatch.setattr("fopen_sar.rng._philox_keys", lambda seed, tag, index: passes.update(
            [tag]) or _philox_keys(seed, tag, index))
        for n_pulses in (16, 45):
            cfg = _noisy_small_config("noise", "HH", n_pulses)
            passes.clear()
            assert len(synthesize_raw(cfg).data) == n_pulses
            assert passes == dict.fromkeys(TAGS, 1), n_pulses


class TestApplyFoliage:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        line = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = apply_foliage(line, np.ones(64, complex))
        assert np.max(np.abs(out - line)) / np.max(np.abs(line)) < 1e-12

    def test_scalar_channel(self):
        rng = np.random.default_rng(1)
        line = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = apply_foliage(line, np.full(32, 0.5 + 0j))
        np.testing.assert_allclose(out, 0.5 * line, rtol=1e-12)

    def test_delay_ramp_is_circular_shift(self):
        n, d = 64, 5
        rng = np.random.default_rng(2)
        line = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ramp = np.exp(-2j * np.pi * np.arange(n) * d / n)
        out = apply_foliage(line, ramp)
        np.testing.assert_allclose(out, np.roll(line, d), atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_foliage(np.zeros(8, complex), np.ones(9, complex))


class TestSynthesizeRaw:
    def test_pulse_count_arithmetic(self):
        from fopen_sar.geometry import PlatformParams
        p = PlatformParams(5000.0, 150.0, 1.0, 9e9, 5000.0 * np.sqrt(2.0),
                           1.91, 256.0)
        assert p.n_pulses() == 256

    def test_deterministic(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", snr_db=20.0,
                      foliage=FoliageParams("HH", np.pi / 4), master_seed=3)
        a = synthesize_raw(cfg)
        b = synthesize_raw(cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_thread_count_does_not_change_bits(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform, kind="noise", snr_db=14.0,
                      foliage=FoliageParams("HH", np.pi / 4), master_seed=5)
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
        assert raw.data.shape == (tiny_platform.n_pulses(), cfg.ofdm.line_length)
        assert raw.data.shape[1] == 32 + 2 * 8 - 2
        np.testing.assert_array_equal(raw.slow_time_s,
                                      tiny_platform.slow_time_axis())

    def test_noise_energy_matches_ofdm(self, tiny_spec, tiny_platform):
        ofdm = transmitted_pulse(_config(tiny_spec, tiny_platform))
        noise = transmitted_pulse(_config(tiny_spec, tiny_platform, kind="noise"))
        assert np.sum(np.abs(noise) ** 2) == pytest.approx(np.sum(np.abs(ofdm) ** 2),
                                                           rel=1e-12)

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    def test_transmitted_pulse_read_only(self, tiny_spec, tiny_platform, kind):
        pulse = transmitted_pulse(_config(tiny_spec, tiny_platform, kind=kind))
        assert not pulse.flags.writeable

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
        sigma2 = np.max(np.abs(pulse) ** 2) / 10.0
        measured = np.mean(np.abs(raw.data) ** 2)
        assert measured == pytest.approx(sigma2, rel=0.02)

    def test_foliage_applied_before_noise(self, tiny_spec, tiny_platform):
        # with foliage F and no receiver noise, the clean line spectrum is
        # multiplied by F exactly
        cfg = _config(tiny_spec, tiny_platform, foliage=FoliageParams("HH", np.pi / 4),
                      master_seed=2)
        clean = _config(tiny_spec, tiny_platform, master_seed=2)
        ch = foliage_channel(cfg)
        want = apply_foliage(_line(clean, 3), ch.realize(3))
        np.testing.assert_allclose(_line(cfg, 3), want, rtol=1e-12, atol=1e-15)


class TestGeometrySpectrumMemo:
    """G is computed once per geometry and shared by every seed, as the pair
    (g, ramp) with FFT(G, L) = g * ramp: a one-cell scene keeps the two vectors
    of its rank-one spectrum, a scene of several cells FFT(G, L) itself."""

    @pytest.mark.parametrize("change", [{"rcs": 0.5 - 0.25j}, {"azimuth_m": 2.0},
                                        {"range_cell": 5}])
    def test_one_target_field_changes_the_raw_matrix(self, tiny_spec, tiny_platform,
                                                     change):
        for rest in ((PointTarget(2, 1.0),), ()):  # two cells, then one
            base = _config(tiny_spec, tiny_platform, scene=Scene((PointTarget(4),) + rest, 8))
            other = _config(tiny_spec, tiny_platform, scene=Scene(
                (PointTarget(**{"range_cell": 4, **change}),) + rest, 8))
            warm = [synthesize_raw(cfg).data for cfg in (base, other, base)]
            assert np.any(warm[0] != warm[1])
            np.testing.assert_array_equal(warm[0], warm[2])
            for cfg, data in ((base, warm[0]), (other, warm[1])):
                echo._geometry.clear()
                for _ in range(3):  # the first run builds the memo, the later ones read it
                    np.testing.assert_array_equal(synthesize_raw(cfg).data, data)

    def test_cached_spectrum_is_read_only(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform,
                      scene=Scene((PointTarget(4), PointTarget(2, 1.0)), 8))
        n = cfg.ofdm.line_length
        args = (cfg.scene, cfg.platform, tiny_spec.bandwidth_hz, n)
        echo._geometry.clear()
        first = geometry_spectrum(*args)  # the first call keeps FFT(G, n) itself, not G
        full = gm_vector(cfg.scene, make_grid(8, tiny_spec.bandwidth_hz, tiny_platform),
                         tiny_platform, tiny_platform.slow_time_axis())
        assert first[1] is None
        np.testing.assert_array_equal(first[0], np.fft.fft(full, n, axis=-1))
        for spec, ramp in (first, geometry_spectrum(*args)):
            assert spec is first[0] and ramp is None
            assert not spec.flags.writeable
            with pytest.raises(ValueError):
                spec[0, 0] = 0.0

    @pytest.mark.parametrize("cell", [0, 4, 7, None])  # None: the empty scene
    def test_one_cell_pair_is_a_read_only_column_and_ramp(self, tiny_spec, tiny_platform,
                                                          cell):
        targets = () if cell is None else (PointTarget(cell), PointTarget(cell, 1.0, 0.5j))
        cfg = _config(tiny_spec, tiny_platform, scene=Scene(targets, 8))
        n = cfg.ofdm.line_length
        args = (cfg.scene, cfg.platform, tiny_spec.bandwidth_hz, n)
        echo._geometry.clear()
        g, ramp = geometry_spectrum(*args)
        again = geometry_spectrum(*args)
        assert again[0] is g and again[1] is ramp  # the same two arrays on every call
        full = gm_vector(cfg.scene, make_grid(8, tiny_spec.bandwidth_hz, tiny_platform),
                         tiny_platform, tiny_platform.slow_time_axis())
        assert g.shape == (len(full), 1) and ramp.shape == (n,)
        np.testing.assert_array_equal(g[:, 0], full[:, cell or 0])
        assert np.max(np.abs(g * ramp - np.fft.fft(full, n, axis=-1))) <= 1e-15 * max(
            1.0, np.max(np.abs(full)))
        for array in (g, ramp):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_first_use_and_memo_give_the_same_bits(self, kind, foliage):
        # the tank covers 12 cells of the full preset, which spans several blocks; the
        # first run builds the memo's FFT(G, L), a later one reads it, and a run after
        # the memo is dropped builds it again
        doc = tank_scenario("full").with_overrides(
            waveform_kind=kind, foliage_pol="off" if foliage == "off" else "HH").doc
        if foliage == "redrawn":
            doc["foliage"]["redraw_per_pulse"] = True
            doc["noise"] = {"snr_db": 30.0}
        cfg = Scenario(doc).simulation_config(3)
        echo._geometry.clear()
        first = synthesize_raw(cfg).data
        arrays = [v for v in echo._geometry.values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [first.shape]  # one FFT(G, L), no G
        assert echo._geometry["ramp"] is None
        second = synthesize_raw(cfg).data
        echo._geometry.clear()
        assert first.tobytes() == second.tobytes() == synthesize_raw(cfg).data.tobytes()

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
        echo._geometry.clear()
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


class TestSynthesizeFromG:
    def test_matches_scene_path(self, tiny_spec, tiny_platform):
        cfg = _config(tiny_spec, tiny_platform)
        grid = make_grid(8, tiny_spec.bandwidth_hz, tiny_platform)
        eta = tiny_platform.slow_time_axis()[2]
        g = gm_vector(cfg.scene, grid, tiny_platform, eta)
        pulse = generate_ofdm_pulse(tiny_spec)
        want, got = synthesize_from_g(g, pulse), _line(cfg, 2)
        # on the pulse's support both lines are the echo; off it both are FFT rounding
        support = slice(4, 4 + len(pulse))
        np.testing.assert_allclose(got[support], want[support], rtol=1e-12)
        off = np.ones(len(want), dtype=bool)
        off[support] = False
        assert np.count_nonzero(off) == 7
        assert np.max(np.abs(got[off] - want[off])) <= 1e-15 * np.max(np.abs(want))


def _generic_raw(cfg):
    """IFFT(FFT(G, L) * FFT(s, L) * F) on whole matrices, for any scene."""
    n = cfg.ofdm.line_length
    grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
    g = gm_vector(cfg.scene, grid, cfg.platform, cfg.platform.slow_time_axis())
    spec = np.fft.fft(g, n, axis=1) * np.fft.fft(transmitted_pulse(cfg), n)
    channel = foliage_channel(cfg)
    if channel is not None:
        spec *= stacked_response(channel)
    return np.fft.ifft(spec, axis=1)


def _full_scenario(kind, foliage, targets=None):
    doc = preset_scenario("full").with_overrides(
        waveform_kind=kind, foliage_pol="off" if foliage == "off" else "HH").doc
    if foliage == "redrawn":
        doc["foliage"]["redraw_per_pulse"] = True
    if targets is not None:
        doc["scene"]["targets"] = [{"cell": c, "azimuth_m": y, "rcs": [1.0, 0.0]}
                                   for c, y in targets]
    return Scenario(doc)


class TestOneCellSpectrum:
    """A one-cell scene synthesizes from G[:, c] and the ramp; the raw matrix
    agrees with the whole-matrix form to rounding, and so do its metrics."""

    def _check(self, scen):
        cfg = scen.simulation_config(5)
        echo._geometry.clear()
        got = synthesize_raw(cfg).data
        want = _generic_raw(cfg)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(got))
        metrics = [image_metrics(focus_scenario(scen, cfg, echo.RawDataMatrix(
            data, cfg.platform.slow_time_axis(), cfg.waveform_kind)).pixels,
            scen.processing["upsample"], scen.processing["smooth_window"])
            for data in (got, want)]
        for key in METRIC_KEYS:
            assert abs(metrics[0][key] - metrics[1][key]) <= 1e-12, key

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_full_preset_matches_the_whole_matrix_form(self, kind, foliage):
        self._check(_full_scenario(kind, foliage))

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen"])
    @pytest.mark.parametrize("targets", [[(0, 0.0)], [(191, 0.0)], [(96, 0.0), (96, 2.5)]],
                             ids=["cell-0", "cell-M-1", "two-in-one-cell"])
    def test_edge_cells_and_a_shared_cell(self, kind, foliage, targets):
        self._check(_full_scenario(kind, foliage, targets))

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    def test_clear_scene_makes_one_line_ifft_and_no_fft_of_g(self, monkeypatch, kind):
        calls = []

        class FftSpy:
            def __getattr__(self, name):
                def spy(a, *args, **kwargs):
                    calls.append((name, np.shape(a)))
                    return getattr(np.fft, name)(a, *args, **kwargs)
                return spy

        class NumpySpy:
            fft = FftSpy()

            def __getattr__(self, name):
                return getattr(np, name)

        cfg = _full_scenario(kind, "off").simulation_config(5)
        n_pulse = cfg.ofdm.pulse_length
        monkeypatch.setattr(echo, "np", NumpySpy())
        echo._geometry.clear()
        for _ in range(2):  # the run that builds the memo, then one that reads it
            calls.clear()
            synthesize_raw(cfg)
            assert calls == [("fft", (n_pulse,)), ("ifft", (cfg.ofdm.line_length,))]

