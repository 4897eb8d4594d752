import copy
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from fopen_sar import cli, echo, imaging, scenario
from fopen_sar.echo import SimulationConfig, synthesize_raw
from fopen_sar.foliage import ATTENUATION_CONSTANTS, FoliageParams
from fopen_sar.geometry import PointTarget
from fopen_sar.metrics import NoPeakError, image_metrics
from fopen_sar.rng import TAGS, _philox_keys
from fopen_sar.scenario import (PRESETS, SCHEMA, SMALL_PRESET, TARGET,
                                SchemaError, Scenario, load_scenario,
                                preset_scenario, run_metrics, run_pipeline,
                                tank_scenario, tank_targets, validate_scenario)
from fopen_sar.waveform import OfdmSpec

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


class TestValidation:
    def test_presets_validate(self):
        for name, doc in PRESETS.items():
            scen = preset_scenario(name)
            assert scen.doc["seeds"]["master"] == 0
            # SCHEMA is the one source of every default
            for section, values in doc.items():
                for key, value in values.items():
                    assert value != SCHEMA[section][key][1], f"{name}: {section}.{key}"

    def test_unknown_key_rejected_with_path(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["color"] = "red"
        with pytest.raises(SchemaError, match=r"platform\.color"):
            validate_scenario(doc)

    @pytest.mark.parametrize("section,key", [("waveform", "noise_variance"),
                                             ("foliage", "gamma_scale"),
                                             ("processing", "rcmc")])
    def test_removed_key_rejected(self, section, key):
        # keys that changed no output: the noise pulse is rescaled to the
        # OFDM pulse's energy, the Gamma draw to its own mean; and rcmc, as
        # no echo this tool forms migrates
        doc = copy.deepcopy(SMALL_PRESET)
        doc[section] = dict(doc.get(section, {"polarization": "HH"}), **{key: 2.0})
        with pytest.raises(SchemaError, match=rf"^{section}\.{key}: unknown key$"):
            validate_scenario(doc)

    @pytest.mark.parametrize("cell,ok", [(24, True), (23, False)])
    def test_target_below_nadir_rejected(self, cell, ok):
        # reference range at the altitude puts cell M//2 = 24 exactly at nadir
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["reference_range_m"] = doc["platform"]["altitude_m"]
        doc["scene"]["targets"][0]["cell"] = cell
        if ok:
            raw = synthesize_raw(Scenario(doc).simulation_config())
            assert np.all(np.isfinite(raw.data))
        else:
            with pytest.raises(SchemaError, match=r"^scene\.targets\[0\]\.cell: "
                               r"closest-approach slant range 4999\.962\d* m is below "
                               r"platform\.altitude_m"):
                validate_scenario(doc)

    def test_missing_section_names_it(self):
        doc = copy.deepcopy(SMALL_PRESET)
        del doc["platform"]
        with pytest.raises(SchemaError, match="platform"):
            validate_scenario(doc)

    def test_target_cell_out_of_range(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0]["cell"] = 48
        with pytest.raises(SchemaError, match=r"scene\.targets\[0\]\.cell"):
            validate_scenario(doc)

    def test_non_integer_count_rejected(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["waveform"]["n_subcarriers"] = 256.5
        with pytest.raises(SchemaError, match=r"waveform\.n_subcarriers"):
            validate_scenario(doc)

    def test_bad_rcs_rejected(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0]["rcs"] = [1.0]
        with pytest.raises(SchemaError, match=r"rcs"):
            validate_scenario(doc)

    def test_non_finite_rcs_rejected(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0]["rcs"] = [math.nan, 0.0]
        with pytest.raises(SchemaError, match=r"scene\.targets\[0\]\.rcs"):
            validate_scenario(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_number_rejected(self, value):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["velocity_mps"] = value
        with pytest.raises(SchemaError, match=r"platform\.velocity_mps: must be finite"):
            validate_scenario(doc)

    def test_too_few_pulses_rejected(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["aperture_s"] = 0.005  # rounds to 1 pulse at 128 Hz
        with pytest.raises(SchemaError, match=r"platform\.aperture_s"):
            validate_scenario(doc)

    def test_pulse_count_overflow_rejected(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["aperture_s"] = 1e307  # aperture_s * prf_hz is inf
        with pytest.raises(SchemaError, match=r"platform\.aperture_s: .* must be finite"):
            validate_scenario(doc)

    @pytest.mark.parametrize("edit,field", [
        # 65536 pulses x (418 + 2 * 48 - 2) samples = 2**25 raw samples
        ({"waveform": {"n_subcarriers": 418}, "platform": {"aperture_s": 512.0}}, None),
        ({"waveform": {"n_subcarriers": 418}, "platform": {"aperture_s": 512 + 1 / 128}},
         "platform.aperture_s"),
        # max(128 pulses, 48 cells) x 2**18 = 2**25 profile samples
        ({"platform": {"aperture_s": 1.0}, "processing": {"upsample": 1 << 18}}, None),
        ({"platform": {"aperture_s": 1.0}, "processing": {"upsample": (1 << 18) + 1}},
         "processing.upsample"),
        ({"platform": {"aperture_s": 1e6}}, "platform.aperture_s"),  # 44.8 G samples
        ({"processing": {"upsample": 10**9}}, "processing.upsample"),  # 48 G samples
    ], ids=["raw_at_limit", "raw_over_limit", "profile_at_limit",
            "profile_over_limit", "huge_aperture", "huge_upsample"])
    def test_sample_counts_bounded(self, edit, field):
        # validation only: a pipeline run at the limit needs gigabytes
        doc = copy.deepcopy(SMALL_PRESET)
        for section, values in edit.items():
            doc[section].update(values)
        if field is None:
            validate_scenario(doc)
        else:
            with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: .* "
                               rf"limit of {1 << 25} samples$"):
                validate_scenario(doc)

    @pytest.mark.parametrize("field,value,limit", [
        # the small preset's line has 256 + 2 * 48 - 2 = 350 bins
        ("foliage.spectral_smoothing_bins", 350, None),
        ("foliage.spectral_smoothing_bins", 351, 350),
        # its shorter upsampled profile is min(32 pulses, 48 cells) x 16 = 512
        ("processing.smooth_window", 512, None),
        ("processing.smooth_window", 513, 512),
        # the seed's digits go into every output file name
        ("seeds.master", 2**64 - 1, None),
        ("seeds.master", 10**300, 2**64 - 1),
    ], ids=["bins_at_line", "bins_over_line", "window_at_profile",
            "window_over_profile", "seed_at_max", "seed_10^300"])
    def test_smoothing_lengths_bounded(self, field, value, limit):
        section, key = field.split(".")
        doc = copy.deepcopy(SMALL_PRESET)
        doc["foliage"] = {"polarization": "HH"}
        doc[section][key] = value
        if limit is None:
            assert validate_scenario(doc)[section][key] == value
        else:
            with pytest.raises(SchemaError, match=rf"^{re.escape(field)}: must be <= "
                               rf"{limit}(, |$)"):
                validate_scenario(doc)

    def test_key_errors_reported_before_relations(self):
        # a relation error in platform, a key error in the later processing
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["aperture_s"] = 0.005  # rounds to 1 pulse at 128 Hz
        doc["processing"]["upsample"] = "x"
        with pytest.raises(SchemaError, match=r"^processing\.upsample: must be a number$"):
            validate_scenario(doc)

    def test_foliage_defaults_fill_in(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["foliage"] = {"polarization": "VV"}
        out = validate_scenario(doc)
        assert out["foliage"]["gamma_shape"] == 4.0
        assert out["foliage"]["hurst"] == 0.4
        assert out["foliage"]["redraw_per_pulse"] is False

    def test_polarizations_are_the_attenuation_tables_keys(self):
        # one set of polarizations: the schema's, the --foliage choices but off, the table's
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        assert SCHEMA["foliage"]["polarization"][0] == tuple(ATTENUATION_CONSTANTS)
        for sub in commands.values():
            choices = next(a.choices for a in sub._actions if a.dest == "foliage")
            assert choices[0] == "off"
            assert set(choices[1:]) == set(ATTENUATION_CONSTANTS)

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.float32(3.0)])
    def test_numpy_scalar_seed(self, value):
        scen = preset_scenario("small").with_overrides(master_seed=value)
        assert scen.master_seed == 3 and type(scen.master_seed) is int

    def test_numpy_bool_is_no_number(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["processing"]["upsample"] = np.True_
        with pytest.raises(SchemaError, match=r"^processing\.upsample: must be a number$"):
            validate_scenario(doc)

    def test_reference_range_below_altitude(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["platform"]["reference_range_m"] = 10.0
        with pytest.raises(SchemaError, match="reference_range_m"):
            validate_scenario(doc)

    def test_first_missing_key_independent_of_hash_seed(self):
        # Two missing keys in one object: the message names the first in
        # schema order, whatever PYTHONHASHSEED orders sets by.
        code = textwrap.dedent("""
            import copy
            from fopen_sar.scenario import SMALL_PRESET, SchemaError, validate_scenario
            for section, keys in ((None, ("outputs", "seeds")),
                                  ("platform", ("altitude_m", "prf_hz"))):
                doc = copy.deepcopy(SMALL_PRESET)
                for k in keys:
                    del (doc[section] if section else doc)[k]
                try:
                    validate_scenario(doc)
                except SchemaError as e:
                    print(e)
            """)
        outs = []
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")))
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert outs[0] == outs[1] == ("scenario.outputs: missing required key\n"
                                      "platform.altitude_m: missing required key\n")

    def test_readme_example_matches_schema(self):
        with open(os.path.join(ROOT, "README.md")) as fh:
            readme = fh.read()
        block = re.search(r"## Scenario files\n\n```json\n(.*?)```", readme, re.S)
        doc = json.loads(block.group(1))
        validate_scenario(doc)
        assert list(doc) == list(SCHEMA)
        for name, table in SCHEMA.items():
            assert set(doc[name]) == set(table), name
        assert set(doc["scene"]["targets"][0]) == set(TARGET)


def _small_with(**platform) -> Scenario:
    doc = copy.deepcopy(SMALL_PRESET)
    doc["platform"].update(platform)
    return Scenario(doc)


class TestAdvisories:
    """A valid scenario that the paper's figures do not hold for runs, with an
    advisory; the one advisory is a PRF below the Doppler bandwidth 2 v / L_a."""

    def test_presets_have_none(self):
        assert {name: preset_scenario(name).advisories for name in PRESETS} == {
            name: [] for name in PRESETS}

    def test_prf_below_doppler_bandwidth(self):
        # v = 150 m/s and L_a = 1 m: 2 v / L_a is 300 Hz exactly
        assert _small_with(antenna_length_m=1.0, prf_hz=300.0).advisories == []
        below = math.nextafter(300.0, 0.0)
        scen = _small_with(antenna_length_m=1.0, prf_hz=below)
        assert scen.advisories == [
            "platform.prf_hz: 299.99999999999994 Hz is below the Doppler bandwidth "
            "2 v / L_a = 300.0 Hz: azimuth aliasing"]
        # an advisory refuses nothing: the document is the one validation returns
        assert scen.doc == validate_scenario(scen.doc)

    def test_prf_below_derived_doppler_bandwidth(self):
        # L_a = lambda R_c / (v T_a) = 6.28 m, so 2 v / L_a = 47.76 Hz
        p = SMALL_PRESET["platform"]
        la = 299792458.0 / p["carrier_hz"] * p["reference_range_m"] / (150.0 * 0.25)
        bandwidth = 2 * 150.0 / la
        assert bandwidth == pytest.approx(47.76, abs=0.01)
        assert _small_with(antenna_length_m=None, prf_hz=48.0).advisories == []
        assert _small_with(antenna_length_m=None, prf_hz=40.0).advisories == [
            f"platform.prf_hz: 40.0 Hz is below the Doppler bandwidth 2 v / L_a "
            f"= {bandwidth} Hz: azimuth aliasing"]


class TestResolution:
    def test_full_preset_sizes(self):
        scen = preset_scenario("full")
        cfg = scen.simulation_config()
        assert cfg.ofdm.line_length == 1024 + 2 * 192 - 2 == 1406
        assert cfg.platform.n_pulses() == 256

    def test_grazing_angle_derived_from_geometry(self):
        scen = preset_scenario("full").with_overrides(foliage_pol="HH")
        fol = scen.simulation_config().foliage
        assert fol.grazing_angle_rad == pytest.approx(math.pi / 4, abs=1e-12)

    def test_explicit_grazing_angle(self):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["foliage"] = {"polarization": "HH", "grazing_angle_deg": 30.0}
        fol = Scenario(doc).simulation_config().foliage
        assert fol.grazing_angle_rad == pytest.approx(math.radians(30.0))

    def test_foliage_keys_are_foliage_params_fields(self):
        # every field of FoliageParams is a foliage key, the angle in degrees there
        fields = {f.name for f in dataclasses.fields(FoliageParams)}
        assert set(SCHEMA["foliage"]) - {"grazing_angle_deg"} == fields - {"grazing_angle_rad"}

    @pytest.mark.parametrize("pol", ["HH", "VV"])
    @pytest.mark.parametrize("redraw", [False, True])
    @pytest.mark.parametrize("degrees", [None, 30.0])
    def test_foliage_params_from_section(self, pol, redraw, degrees):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["foliage"] = {"polarization": pol, "grazing_angle_deg": degrees, "hurst": 0.3,
                          "redraw_per_pulse": redraw, "spectral_smoothing_bins": 2}
        grazing = math.asin(5000.0 / (5000.0 * math.sqrt(2.0))) if degrees is None else (
            math.radians(degrees))
        assert Scenario(doc).simulation_config(4).foliage == FoliageParams(
            pol, grazing, gamma_shape=4.0, hurst=0.3, redraw_per_pulse=redraw,
            spectral_smoothing_bins=2)

    def test_required_keys_resolve_to_the_pipelines_defaults(self):
        # what a scenario leaves out is what the pipeline's records and functions
        # take when not given: FoliageParams' and PointTarget's field defaults, and
        # the default arguments of image_metrics and focus
        doc = copy.deepcopy(SMALL_PRESET)
        del doc["platform"]["antenna_length_m"]
        doc["scene"]["targets"] = [{"cell": 24}]
        doc["foliage"] = {"polarization": "VV"}
        assert all(not doc[s] for s in ("processing", "outputs"))
        scen = Scenario(doc)
        cfg, p = scen.simulation_config(), doc["platform"]
        assert cfg.foliage == FoliageParams(
            "VV", math.asin(p["altitude_m"] / p["reference_range_m"]))
        assert cfg.scene.targets == (PointTarget(24),)
        proc = scen.processing
        assert proc["azimuth_window"] == inspect.signature(
            imaging.focus).parameters["azimuth_window"].default
        pixels = run_pipeline(scen).pixels
        assert image_metrics(pixels) == image_metrics(pixels, proc["upsample"],
                                                      proc["smooth_window"])

    def test_with_overrides(self):
        scen = preset_scenario("small")
        noisy = scen.with_overrides(waveform_kind="noise", foliage_pol="VV",
                                    master_seed=9)
        assert noisy.doc["waveform"]["kind"] == "noise"
        assert noisy.doc["foliage"]["polarization"] == "VV"
        assert noisy.master_seed == 9
        off = noisy.with_overrides(foliage_pol="off")
        assert "foliage" not in off.doc
        assert scen.doc["waveform"]["kind"] == "ofdm"  # original untouched

    def test_with_overrides_revalidates_kind(self):
        with pytest.raises(SchemaError, match=re.escape(
                "waveform.kind: must be one of ['noise', 'ofdm']")):
            preset_scenario("small").with_overrides(waveform_kind="chirp")

    def test_label(self):
        scen = preset_scenario("small").with_overrides(waveform_kind="noise",
                                                       foliage_pol="HH")
        assert scen.label() == "noise-foliage_HH"

    def test_seed_flows_into_all_streams(self, monkeypatch):
        # a scenario's seed is the run's master seed and its BPSK symbol seed
        cfg = preset_scenario("small").simulation_config(master_seed=7)
        assert cfg.master_seed == cfg.ofdm.symbol_seed == 7
        # a run's master seed keys every stream but the BPSK symbols: each key of a
        # noise-waveform run with redrawn HH foliage and receiver noise, recorded
        spec = OfdmSpec(cfg.ofdm.n_subcarriers, cfg.ofdm.n_range_cells,
                        cfg.ofdm.bandwidth_hz, symbol_seed=5)
        run = SimulationConfig("noise", spec, cfg.scene, cfg.platform,
                               FoliageParams("HH", np.pi / 4, redraw_per_pulse=True), snr_db=20.0,
                               master_seed=3)
        keyed = []
        monkeypatch.setattr("fopen_sar.rng._philox_keys", lambda seed, tag, index: keyed.append(
            (tag, seed)) or _philox_keys(seed, tag, index))
        synthesize_raw(run)
        assert {tag for tag, _ in keyed} == set(TAGS)
        assert [seed for tag, seed in keyed if tag == "bpsk_symbols"] == [5]
        assert {seed for tag, seed in keyed if tag != "bpsk_symbols"} == {3}

    def test_run_pipeline_refuses_a_float_seed(self):
        with pytest.raises(TypeError):  # 1.5 drew seed 1's streams when it was truncated
            run_pipeline(preset_scenario("small"), master_seed=1.5)

    def test_with_overrides_refuses_a_float_seed(self):
        with pytest.raises(SchemaError, match=r"^seeds\.master: must be an integer$"):
            preset_scenario("small").with_overrides(master_seed=2.7)

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(SMALL_PRESET))
        scen = load_scenario(path)
        assert scen.doc["waveform"]["n_subcarriers"] == 256

    @pytest.mark.parametrize("blob", [
        b"{nope",
        b"\xff\xfe" + json.dumps(SMALL_PRESET).encode(),
        b"[" * 100_000 + b"]" * 100_000,
        b"5" * 5000,
    ], ids=["syntax", "not_utf8", "nested_100000", "int_5000_digits"])
    def test_load_invalid_json(self, tmp_path, blob):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_scenario(path)


def _containers(node) -> set:
    """ids of every dict and list in a JSON-like document, node included."""
    if isinstance(node, dict):
        return {id(node)}.union(*map(_containers, node.values()))
    if isinstance(node, list):
        return {id(node)}.union(*map(_containers, node))
    return set()


def _scribble(doc):
    """Write into every section, target row and rcs list of doc."""
    for section in doc.values():
        for row in section.get("targets", ()):
            row["cell"] = -1
            row["rcs"].append(0.0)
        section["scribbled"] = True


class TestDocumentCopies:
    """Validation copies a document once, and nothing else copies it: what it
    returns shares no dict or list with its input, and a scenario built from a
    preset or by with_overrides leaves its source as it was."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_validated_doc_shares_no_container(self, name):
        doc = {**PRESETS[name], "foliage": {"polarization": "HH"}, "noise": {"snr_db": 30.0}}
        got = Scenario(doc).doc
        assert len(got["scene"]["targets"]) == len(doc["scene"]["targets"])
        assert not _containers(got) & _containers(doc)

    def test_presets_left_unchanged(self):
        before = copy.deepcopy(PRESETS)
        for scen in [preset_scenario(name) for name in PRESETS] + [
                tank_scenario("full"), tank_scenario("small")]:
            _scribble(scen.doc)
        assert PRESETS == before

    @pytest.mark.parametrize("override", [
        {"waveform_kind": "noise"}, {"foliage_pol": "off"}, {"foliage_pol": "VV"},
        {"master_seed": 7}], ids=["waveform", "foliage_off", "foliage_VV", "seed"])
    def test_with_overrides_leaves_source(self, override):
        src = preset_scenario("tank").with_overrides(foliage_pol="HH")
        before = copy.deepcopy(src.doc)
        out = src.with_overrides(**override)
        assert out.doc != before
        _scribble(out.doc)
        assert src.doc == before
        assert not _containers(out.doc) & _containers(src.doc)


class TestTankFixture:
    def test_target_count_and_bounds(self):
        pts = tank_targets(96, 0.0375, 192)
        assert 25 <= len(pts) <= 35
        cells = [p["cell"] for p in pts]
        assert min(cells) >= 0 and max(cells) <= 191
        # no duplicate (cell, azimuth) pairs
        keys = {(p["cell"], p["azimuth_m"]) for p in pts}
        assert len(keys) == len(pts)

    @pytest.mark.parametrize("preset", ["full", "small"])
    def test_tank_scenario_validates(self, preset):
        scen = tank_scenario(preset)
        assert len(scen.doc["scene"]["targets"]) >= 25
        scen.simulation_config()

    def test_tank_preset_is_the_full_tank_scenario(self):
        assert preset_scenario("tank").doc == tank_scenario("full").doc


class TestRunMetrics:
    @staticmethod
    def _assert_thread_identical(scen):
        seeds = [3, 4, 5, 6, 7]
        serial = run_metrics(scen, seeds, threads=1)
        assert len(serial) == len(seeds)
        assert serial != run_metrics(scen, seeds[::-1], threads=1)
        for threads in (2, 4):
            assert run_metrics(scen, seeds, threads=threads) == serial

    def test_bit_identical_for_any_thread_count(self):
        self._assert_thread_identical(preset_scenario("small").with_overrides(
            waveform_kind="noise", foliage_pol="HH"))

    def test_bit_identical_for_any_thread_count_noisy_redrawn(self):
        # per-pulse substreams: receiver noise and redrawn foliage
        doc = preset_scenario("small").with_overrides(waveform_kind="noise",
                                                      foliage_pol="HH").doc
        doc["noise"] = {"snr_db": 20.0}
        doc["foliage"]["redraw_per_pulse"] = True
        self._assert_thread_identical(Scenario(doc))

    def test_no_peak_error_raised_for_any_thread_count(self):
        # tank scene, noise waveform, no foliage, 30 dB SNR: seed 7 has no peak
        doc = tank_scenario("full").with_overrides(waveform_kind="noise",
                                                   foliage_pol="off").doc
        doc["noise"] = {"snr_db": 30.0}
        scen = Scenario(doc)
        messages = set()
        for threads in (1, 2, 4):
            with pytest.raises(NoPeakError) as err:
                run_metrics(scen, [5, 6, 7, 8], threads=threads)
            messages.add(str(err.value))
        assert messages == {"seed 7, noise-foliage_off: azimuth cut: "
                            "peak has no descending neighborhood"}
        assert len(run_metrics(scen, [5, 6, 8], threads=2)) == 3

    @pytest.mark.parametrize("threads", [0, 1, 2])
    def test_no_seeds(self, threads):
        assert run_metrics(preset_scenario("small"), [], threads=threads) == []

    def test_zero_threads_runs_on_the_caller(self, monkeypatch):
        ran_on = []
        self._fake_runs(monkeypatch, lambda seed: ran_on.append(threading.get_ident()) or seed)
        assert run_metrics(preset_scenario("small"), [4], threads=0) == [{"seed": 4}]
        assert ran_on == [threading.get_ident()]

    @staticmethod
    def _fake_runs(monkeypatch, run):
        """Replace the pipeline by run(seed) and the metrics by the seed's image."""
        monkeypatch.setattr(scenario, "run_pipeline",
                            lambda scen, master_seed: types.SimpleNamespace(
                                pixels=run(master_seed)))
        monkeypatch.setattr(scenario, "image_metrics",
                            lambda pixels, upsample, smooth_window: {"seed": pixels})

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_caller_is_one_of_the_threads(self, monkeypatch, threads):
        # threads=N is N threads in all: the caller runs seeds too
        ran_on = {}

        def run(seed):
            ran_on[seed] = threading.get_ident()
            time.sleep(0.01)
            return seed

        self._fake_runs(monkeypatch, run)
        seeds = list(range(10, 17))
        got = run_metrics(preset_scenario("small"), seeds, threads=threads)
        assert got == [{"seed": s} for s in seeds]
        assert sorted(ran_on) == seeds
        idents = set(ran_on.values())
        assert threading.get_ident() in idents
        assert len(idents - {threading.get_ident()}) <= threads - 1

    def test_every_seed_runs_once_under_frequent_switches(self, monkeypatch):
        # more threads than cores, switched every microsecond
        ran = []
        self._fake_runs(monkeypatch, lambda seed: ran.append(seed) or seed)
        seeds = list(range(400))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_metrics(preset_scenario("small"), seeds, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == [{"seed": s} for s in seeds]
        assert sorted(ran) == seeds

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_first_error_in_seed_order_not_in_time(self, monkeypatch, threads):
        # on more than one thread seed 22 fails first in time, but seed 21's
        # error is the one raised, named by its seed and the scenario label
        def run(seed):
            if seed == 21:
                time.sleep(0.2)
            if seed in (21, 22):
                raise NoPeakError(f"seed {seed}")
            return seed

        self._fake_runs(monkeypatch, run)
        with pytest.raises(NoPeakError, match="^seed 21, ofdm-foliage_off: seed 21$"):
            run_metrics(preset_scenario("small"), list(range(20, 25)), threads=threads)


def _memory_scenario(kind, foliage, make=preset_scenario):
    doc = make("full").with_overrides(
        waveform_kind=kind, foliage_pol="off" if foliage == "off" else "HH").doc
    if foliage == "redrawn":
        doc["foliage"]["redraw_per_pulse"] = True
        doc["noise"] = {"snr_db": 30.0}
    return Scenario(doc)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryModel:
    """A run allocates the raw matrix and block-sized temporaries: every
    [pulse, bin] stage streams BLOCK_PULSES rows, a one-cell scene's FFT(G, L)
    is a column times a row, a scene of several cells' is the shared geometry
    memo, as large as the raw matrix and built by the geometry's first run, and
    focus frees the raw matrix once it is range-compressed."""

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_full_preset_peak_is_raw_plus_blocks(self, kind, foliage):
        scen = _memory_scenario(kind, foliage)
        for _ in range(2):  # the geometry memo is warm
            raw_nbytes = synthesize_raw(scen.simulation_config()).data.nbytes
        peak = _traced_peak(lambda: run_pipeline(scen, master_seed=1))
        assert peak <= raw_nbytes + 4 * 2**20, (peak - raw_nbytes) / 2**20

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_cold_geometry_peak_is_raw_plus_blocks(self, kind, foliage):
        # one run of a new one-cell geometry keeps two vectors, not FFT(G, L)
        scen = _memory_scenario(kind, foliage)
        raw_nbytes = synthesize_raw(scen.simulation_config()).data.nbytes
        echo._geometry.clear()
        peak = _traced_peak(lambda: run_pipeline(scen, master_seed=1))
        assert peak <= raw_nbytes + 4 * 2**20, (peak - raw_nbytes) / 2**20

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_one_cell_geometry_never_holds_a_full_size_spectrum(self, kind, foliage):
        # two runs of a fresh geometry: a scene of several cells would build its
        # FFT(G, L), as large as the raw matrix, in the second
        scen = _memory_scenario(kind, foliage)
        raw_nbytes = synthesize_raw(scen.simulation_config()).data.nbytes
        echo._geometry.clear()

        def two_runs():
            run_pipeline(scen, master_seed=1)
            run_pipeline(scen, master_seed=2)

        peak = _traced_peak(two_runs)
        assert peak <= raw_nbytes + 4 * 2**20, (peak - raw_nbytes) / 2**20
        cfg = scen.simulation_config()
        longest = max(cfg.platform.n_pulses(), cfg.ofdm.line_length)  # a column or a row
        sizes = [v.size for v in echo._geometry.values() if isinstance(v, np.ndarray)]
        assert len(sizes) == 2 and max(sizes) <= longest, sizes

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_multi_cell_geometry_keeps_only_its_spectrum(self, kind, foliage):
        # the tank's 12 cells: a cold run builds FFT(G, L) beside its raw matrix and
        # keeps it, not G
        scen = _memory_scenario(kind, foliage, tank_scenario)
        cfg = scen.simulation_config()
        raw_nbytes = synthesize_raw(cfg).data.nbytes
        echo._geometry.clear()
        peak = _traced_peak(lambda: run_pipeline(scen, master_seed=1))
        assert peak <= 2 * raw_nbytes + 4 * 2**20, (peak - 2 * raw_nbytes) / 2**20
        shapes = [v.shape for v in echo._geometry.values() if isinstance(v, np.ndarray)]
        assert shapes == [(cfg.platform.n_pulses(), cfg.ofdm.line_length)]

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    @pytest.mark.parametrize("foliage", ["off", "frozen", "redrawn"])
    def test_multi_cell_second_run_peak_is_raw_plus_blocks(self, kind, foliage):
        # the tank's second run reads the FFT(G, L) its first run built
        scen = _memory_scenario(kind, foliage, tank_scenario)
        echo._geometry.clear()
        raw_nbytes = synthesize_raw(scen.simulation_config()).data.nbytes
        peak = _traced_peak(lambda: run_pipeline(scen, master_seed=1))
        assert peak <= raw_nbytes + 4 * 2**20, (peak - raw_nbytes) / 2**20

    @pytest.mark.parametrize("kind", ["ofdm", "noise"])
    def test_raw_matrix_is_freed_before_the_azimuth_stages(self, monkeypatch, kind):
        refs, alive = [], []

        def synthesize(cfg, threads=1):
            raw = synthesize_raw(cfg, threads)
            refs.append(weakref.ref(raw.data))
            return raw

        def azimuth_fft(rc, fn=imaging.azimuth_fft):
            alive.append(refs[-1]() is not None)
            return fn(rc)

        monkeypatch.setattr(scenario, "synthesize_raw", synthesize)
        monkeypatch.setattr(imaging, "azimuth_fft", azimuth_fft)
        run_pipeline(preset_scenario("small").with_overrides(waveform_kind=kind))
        assert alive == [False]
