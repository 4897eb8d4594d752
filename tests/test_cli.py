import copy
import hashlib
import importlib.util
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from fopen_sar import cli, imaging, scenario
from fopen_sar.cli import main
from fopen_sar.fileio import read_fimg, read_fsar, write_fimg, write_fsar
from fopen_sar.metrics import METRIC_KEYS, NoPeakError
from fopen_sar.scenario import SCHEMA, SMALL_PRESET, TARGET, run_metrics


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_PRESET))
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _per_seed_table(path):
    """A per-seed CSV's seeds and, per metric key, its column of floats."""
    with open(path) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    assert header == ["seed", *METRIC_KEYS]
    return [int(r[0]) for r in rows], {k: [float(r[j]) for r in rows]
                                       for j, k in enumerate(METRIC_KEYS, 1)}


def _assert_means_reproduced(path, seeds, report):
    """The per-seed table at path holds seeds, and each metric's mean over its rows
    is the report's, bit for bit."""
    got_seeds, columns = _per_seed_table(path)
    assert got_seeds == seeds
    for key, column in columns.items():
        assert float(np.mean(column)) == report[key], key


class TestSimulate:
    def test_writes_fsar_and_manifest(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["simulate", "--scenario", small_file, "--out", out]) == 0
        raw_path = os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar")
        data = read_fsar(raw_path)
        assert data.shape == (32, 256 + 2 * 48 - 2)
        manifest = _read_json(os.path.join(out, "simulate_manifest.json"))
        assert manifest["command"] == "simulate"
        assert any(o["path"].endswith("_raw.fsar") for o in manifest["outputs"])

    def test_manifest_names_numpy_version_and_dispatch_targets(self, small_file, tmp_path):
        # byte identity holds for one numpy build at one set of kernel targets, so the
        # manifest names them: every float64 and complex128 kernel the pipeline calls
        out = str(tmp_path / "out")
        assert main(["simulate", "--scenario", small_file, "--out", out]) == 0
        build = _read_json(os.path.join(out, "simulate_manifest.json"))["numpy"]
        assert build == cli.numpy_build() and build["version"] == np.__version__
        assert {key.split(".")[0] for key in build["dispatch"]} == {
            "tan", "sin", "cos", "exp", "log10", "arctan2", "absolute", "power", "multiply"}
        assert {"tan.dd", "exp.dd", "arctan2.ddd", "absolute.Dd", "power.ddd", "multiply.ddd",
                "multiply.DDD"} <= build["dispatch"].keys()
        assert all(build["dispatch"].values())

    def test_byte_identical_reruns(self, small_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--scenario", small_file, "--out", out1])
        main(["simulate", "--scenario", small_file, "--out", out2])
        f = "ofdm-foliage_off-seed0_raw.fsar"
        a = open(os.path.join(out1, f), "rb").read()
        b = open(os.path.join(out2, f), "rb").read()
        assert a == b

    def test_thread_count_does_not_change_bytes(self, small_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--scenario", small_file, "--out", out1,
              "--foliage", "HH", "--threads", "1"])
        main(["simulate", "--scenario", small_file, "--out", out2,
              "--foliage", "HH", "--threads", "4"])
        f = "ofdm-foliage_HH-seed0_raw.fsar"
        a = open(os.path.join(out1, f), "rb").read()
        b = open(os.path.join(out2, f), "rb").read()
        assert a == b

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_PRESET)
        del doc["platform"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "platform" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, small_file, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 2
        assert main(["simulate", "--scenario", small_file, "--preset", "small",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "image"])
    def test_seeds_rejected(self, command, tmp_path, capsys):
        # both write one seed; --seeds once ran on and wrote seed 0 only
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "small", "--seeds", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_csv_written_for_small_matrix(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        main(["simulate", "--scenario", small_file, "--out", out])
        csv_path = os.path.join(out, "ofdm-foliage_off-seed0_raw.csv")
        assert os.path.exists(csv_path)
        with open(csv_path) as fh:
            assert fh.readline().strip() == "pulse,sample,re,im"
            rows = [line.split(",") for line in fh.read().splitlines()]
        data = read_fsar(os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar"))
        assert len(rows) == data.size
        for i, (j, k, re, im) in enumerate(rows):
            assert (int(j), int(k)) == divmod(i, data.shape[1])
            assert (float(re), float(im)) == (data[int(j), int(k)].real,
                                              data[int(j), int(k)].imag)

    def test_manifest_snapshot_reproduces_outputs(self, tmp_path):
        # re-running from the manifest's resolved scenario gives identical bytes
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--preset", "small", "--foliage", "VV", "--seed", "5",
              "--out", out1])
        manifest = _read_json(os.path.join(out1, "simulate_manifest.json"))
        snap = tmp_path / "snapshot.json"
        snap.write_text(json.dumps(manifest["scenarios"][0]))
        main(["simulate", "--scenario", str(snap), "--out", out2])
        name = "ofdm-foliage_VV-seed5_raw.fsar"
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
        m2 = _read_json(os.path.join(out2, "simulate_manifest.json"))
        h1 = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        h2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
        assert h1 == h2


class TestImage:
    def test_from_existing_raw(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        main(["simulate", "--scenario", small_file, "--out", out])
        raw = os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar")
        assert main(["image", "--scenario", small_file, "--raw", raw,
                     "--out", out]) == 0
        img = read_fimg(os.path.join(out, "ofdm-foliage_off-seed0_image.fimg"))
        assert img.shape == (32, 48)
        for suffix in ("image.pgm", "image.png", "range_profile.csv",
                       "azimuth_profile.csv"):
            assert os.path.exists(
                os.path.join(out, f"ofdm-foliage_off-seed0_{suffix}"))

    @pytest.mark.parametrize("from_file", [True, False])
    def test_raw_matrix_is_freed_before_the_azimuth_stages(self, monkeypatch, small_file,
                                                           tmp_path, from_file):
        out = str(tmp_path / "out")
        main(["simulate", "--scenario", small_file, "--out", out])
        refs, alive = [], []

        def source(fn):
            def spied(*args, **kwargs):
                raw = fn(*args, **kwargs)
                refs.append(weakref.ref(raw if from_file else raw.data))
                return raw
            return spied

        def azimuth_fft(rc, fn=imaging.azimuth_fft):
            alive.append(refs[-1]() is not None)
            return fn(rc)

        monkeypatch.setattr(cli, "read_fsar", source(cli.read_fsar))
        monkeypatch.setattr(cli, "synthesize_raw", source(cli.synthesize_raw))
        monkeypatch.setattr(imaging, "azimuth_fft", azimuth_fft)
        raw = ["--raw", os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar")]
        assert main(["image", "--scenario", small_file, "--out", out]
                    + (raw if from_file else [])) == 0
        assert alive == [False]

    def test_pgm_peak_at_target(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        main(["image", "--scenario", small_file, "--out", out])
        blob = open(os.path.join(out, "ofdm-foliage_off-seed0_image.pgm"),
                    "rb").read()
        header = b"P5\n48 32\n65535\n"
        assert blob.startswith(header)
        vals = np.frombuffer(blob[len(header):], dtype=">u2").reshape(32, 48)
        peak = np.unravel_index(np.argmax(vals), vals.shape)
        assert abs(peak[0] - 16) <= 1 and abs(peak[1] - 24) <= 1

    def test_raw_scenario_mismatch_exit_4(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        main(["simulate", "--scenario", small_file, "--out", out])
        raw = os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar")
        assert main(["image", "--preset", "full", "--raw", raw,
                     "--out", out]) == 4

    def test_zero_scene_gives_black_pgm(self, tmp_path):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0]["rcs"] = [0.0, 0.0]
        scen = tmp_path / "zero.json"
        scen.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        # profiles cannot be extracted from a zero image
        doc["outputs"]["write_csv_profiles"] = False
        scen.write_text(json.dumps(doc))
        assert main(["image", "--scenario", str(scen), "--out", out]) == 0
        blob = open(os.path.join(out, "ofdm-foliage_off-seed0_image.pgm"),
                    "rb").read()
        header = b"P5\n48 32\n65535\n"
        vals = np.frombuffer(blob[len(header):], dtype=">u2")
        assert np.all(vals == 0)

    def test_tank_preset_peaks_present(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["image", "--preset", "tank", "--out", out]) == 0
        img = read_fimg(os.path.join(out, "ofdm-foliage_off-seed0_image.fimg"))
        mag = np.abs(img)
        from fopen_sar.scenario import tank_scenario
        scen = tank_scenario("full")
        prf, v = 256.0, 150.0
        n = mag.shape[0]
        peak = mag.max()
        for t in scen.doc["scene"]["targets"]:
            j = int(round(t["azimuth_m"] / v * prf + n / 2))
            assert mag[j, t["cell"]] > peak * 10 ** (-20 / 20.0)


class TestMetricsCmd:
    def test_multi_seed_aggregation(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["metrics", "--scenario", small_file, "--seeds", "3",
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "ofdm-foliage_off-seed0_metrics.json"))
        assert doc["n_seeds"] == 3
        _assert_means_reproduced(os.path.join(out, "ofdm-foliage_off-seed0_per_seed.csv"),
                                 [0, 1, 2], doc)
        assert doc["waveform"] == "ofdm"
        assert doc["foliage"] is False
        assert doc["polarization"] is None
        for key in ("islr_range_db", "pslr_range_db", "islr_azimuth_db",
                    "pslr_azimuth_db"):
            assert isinstance(doc[key], float)
            assert key in doc["std"]

    def test_from_existing_image(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        main(["image", "--scenario", small_file, "--out", out])
        img = os.path.join(out, "ofdm-foliage_off-seed0_image.fimg")
        assert main(["metrics", "--scenario", small_file, "--image", img,
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "ofdm-foliage_off-seed0_metrics.json"))
        assert doc["n_seeds"] == 1
        _assert_means_reproduced(os.path.join(out, "ofdm-foliage_off-seed0_per_seed.csv"),
                                 [0], doc)

    def test_seeds_rejected_with_image(self, small_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["image", "--scenario", small_file, "--out", str(out)])
        img = out / "ofdm-foliage_off-seed0_image.fimg"
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main(["metrics", "--scenario", small_file, "--image", str(img),
                     "--seeds", "7", "--out", str(out)]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    def test_image_scenario_mismatch_exit_4(self, small_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["image", "--scenario", small_file, "--out", str(out)])
        img = out / "ofdm-foliage_off-seed0_image.fimg"
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main(["metrics", "--preset", "full", "--image", str(img),
                     "--out", str(out)]) == 4
        assert (f"error: {img} has shape (32, 48), scenario expects (256, 192)"
                in capsys.readouterr().err)
        assert sorted(p.name for p in out.iterdir()) == before

    def test_no_peak_exit_5(self, tmp_path):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0]["rcs"] = [0.0, 0.0]
        scen = tmp_path / "zero.json"
        scen.write_text(json.dumps(doc))
        assert main(["metrics", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 5

    def test_multi_seed_no_peak_names_seed_and_cut(self, earlier_runs, tmp_path, capsys):
        # seed 6 of 40 has no azimuth peak; the message once named neither seed nor cut
        out = tmp_path / "earlier"
        shutil.copytree(earlier_runs, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["metrics", "--preset", "small", "--foliage", "HH", "--seeds", "40",
                     "--out", str(out)]) == 5
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert capsys.readouterr().err == ("error: no peak: seed 6, ofdm-foliage_HH: azimuth "
                                           "cut: peak has no descending neighborhood\n")

    @pytest.mark.parametrize("kind,key,value", [
        ("ofdm", "smooth_window", 2), ("ofdm", "smooth_window", 4),
        ("noise", "smooth_window", 2), ("noise", "smooth_window", 4),
        ("ofdm", "upsample", 1),
    ], ids=["ofdm_window_2", "ofdm_window_4", "noise_window_2", "noise_window_4",
            "ofdm_upsample_1"])
    def test_flat_topped_main_lobe_has_a_peak(self, tmp_path, kind, key, value):
        # an even smoothing window, or no upsampling, leaves two or three
        # equal samples at the top of the clear main lobe
        doc = copy.deepcopy(SMALL_PRESET)
        doc["waveform"]["kind"] = kind
        doc["processing"][key] = value
        scen = tmp_path / "flat.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["metrics", "--scenario", str(scen), "--out", str(out)]) == 0
        assert _read_json(out / f"{kind}-foliage_off-seed0_metrics.json")["n_seeds"] == 1


def _set(section, key, value):
    return lambda d: d.setdefault(section, {}).update({key: value})


def _foliage(**fields):
    return lambda d: d.update(foliage={"polarization": "HH", **fields})


SCHEMA_HOLES = [
    pytest.param(_set("platform", "aperture_s", 0.005), "platform.aperture_s",
                 id="too_few_pulses"),
    pytest.param(lambda d: d["scene"]["targets"][0].update(rcs=[float("nan"), 0.0]),
                 "scene.targets[0].rcs", id="nan_rcs"),
    pytest.param(_set("platform", "velocity_mps", float("inf")),
                 "platform.velocity_mps", id="infinite_velocity"),
    pytest.param(lambda d: d["scene"]["targets"].append(dict(d["scene"]["targets"][0])),
                 "scene.targets[1]: same cell and azimuth_m as scene.targets[0]",
                 id="duplicate_target"),
    pytest.param(_set("waveform", "n_subcarriers", 1), "waveform.n_subcarriers",
                 id="one_subcarrier"),
    pytest.param(_set("waveform", "n_subcarriers", 47), "waveform.n_subcarriers",
                 id="fewer_subcarriers_than_cells"),
    # longer than the 350-bin line: once a broadcasting ValueError traceback
    pytest.param(lambda d: d.update(foliage={"polarization": "HH",
                                             "spectral_smoothing_bins": 100000}),
                 "foliage.spectral_smoothing_bins", id="smoothing_past_line"),
    # longer than the profile: once exit 5 "no peak", and a MemoryError at 1e15
    pytest.param(_set("processing", "smooth_window", 100000),
                 "processing.smooth_window", id="window_past_profile"),
    pytest.param(_set("processing", "smooth_window", 1e15),
                 "processing.smooth_window", id="huge_window"),
    # changed no output: the noise pulse is rescaled to the OFDM pulse's energy
    pytest.param(_set("waveform", "noise_variance", 4.0),
                 "waveform.noise_variance: unknown key", id="noise_variance"),
    pytest.param(lambda d: d.update(foliage={"polarization": "HH", "gamma_scale": 0.5}),
                 "foliage.gamma_scale: unknown key", id="gamma_scale"),
    # 100 pulses over 1000 s: exp of the fBm path overflowed, then exit 5 "no peak"
    pytest.param(lambda d: (d.update(foliage={"polarization": "HH", "hurst": 0.99}),
                            d["platform"].update(aperture_s=1000.0, prf_hz=0.1)),
                 "platform.aperture_s", id="fbm_past_exp_range"),
    # no echo this tool forms migrates, and "spectral" worsened every metric
    pytest.param(_set("processing", "rcmc", "off"), "processing.rcmc: unknown key",
                 id="rcmc_off"),
    pytest.param(_set("processing", "rcmc", "spectral"), "processing.rcmc: unknown key",
                 id="rcmc_spectral"),
    # cell 0 sits 24 cells nearer than a reference range at the altitude:
    # once a bare ValueError traceback from the geometry
    pytest.param(lambda d: (d["platform"].update(reference_range_m=5000.0),
                            d["scene"]["targets"][0].update(cell=0)),
                 "scene.targets[0].cell", id="below_nadir"),
] + [
    pytest.param(_set(section, key, value), f"{section}.{key}",
                 id=f"{type(value).__name__}_{key}")
    for section, key in (("waveform", "kind"), ("foliage", "polarization"),
                         ("processing", "azimuth_window"))
    for value in ([], {"a": 1})
] + [
    # the rules the pipeline's constructors and helpers once repeated
    pytest.param(_set("platform", key, 0), f"platform.{key}", id=f"zero_{key}")
    for key in ("altitude_m", "velocity_mps", "aperture_s", "carrier_hz",
                "antenna_length_m", "prf_hz")
] + [
    pytest.param(_set("platform", "reference_range_m", 4000.0),
                 "platform.reference_range_m", id="reference_range_below_altitude"),
    pytest.param(_set("waveform", "n_range_cells", 0), "waveform.n_range_cells",
                 id="zero_n_range_cells"),
    pytest.param(_set("waveform", "bandwidth_hz", 0), "waveform.bandwidth_hz",
                 id="zero_bandwidth_hz"),
    pytest.param(lambda d: d["scene"]["targets"][0].update(cell=d["waveform"]["n_range_cells"]),
                 "scene.targets[0].cell", id="cell_past_grid"),
    pytest.param(_foliage(grazing_angle_deg=0), "foliage.grazing_angle_deg",
                 id="zero_grazing"),
    pytest.param(_foliage(grazing_angle_deg=90.5), "foliage.grazing_angle_deg",
                 id="grazing_past_90"),
    pytest.param(_foliage(hurst=0), "foliage.hurst", id="zero_hurst"),
    pytest.param(_foliage(hurst=1), "foliage.hurst", id="unit_hurst"),
    pytest.param(_foliage(gamma_shape=0), "foliage.gamma_shape", id="zero_gamma_shape"),
    pytest.param(_foliage(spectral_smoothing_bins=-1), "foliage.spectral_smoothing_bins",
                 id="negative_smoothing"),
    pytest.param(_foliage(polarization="HV"), "foliage.polarization", id="HV_polarization"),
    pytest.param(_set("processing", "upsample", 0), "processing.upsample", id="zero_upsample"),
    pytest.param(_set("processing", "azimuth_window", "hamming"), "processing.azimuth_window",
                 id="hamming_window"),
]


class TestSchemaHoles:
    """Inputs that once crashed or ran on, and every rule the pipeline's
    constructors and helpers once repeated: exit 2 with the field path."""

    @pytest.mark.parametrize("edit,field", SCHEMA_HOLES)
    def test_metrics_exit_2_names_field(self, edit, field, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_PRESET)
        edit(doc)
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        assert main(["metrics", "--scenario", str(scen),
                     "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    def test_image_with_fewer_subcarriers_than_cells_writes_nothing(self, tmp_path):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["waveform"]["n_subcarriers"] = 47
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["image", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()


# One changed value for every scenario key; "scene.targets[]" keys are set on
# the one target. The guard below fails when SCHEMA or TARGET gains a key
# that is not listed here.
KEY_CHANGES = {
    "waveform.kind": "noise",
    "waveform.n_subcarriers": 300,
    "waveform.n_range_cells": 40,
    "waveform.bandwidth_hz": 3.0e9,
    "platform.altitude_m": 4000.0,
    "platform.velocity_mps": 140.0,
    "platform.aperture_s": 0.3,
    "platform.carrier_hz": 10.0e9,
    "platform.reference_range_m": 7000.0,
    "platform.antenna_length_m": 5.0,
    "platform.prf_hz": 100.0,
    "scene.targets": [{"cell": 24}, {"cell": 10, "azimuth_m": -3.0}],
    "scene.targets[].cell": 20,
    "scene.targets[].azimuth_m": 2.0,
    "scene.targets[].rcs": [0.5, 0.5],
    "foliage.polarization": "VV",
    "foliage.grazing_angle_deg": 30.0,
    "foliage.gamma_shape": 2.0,
    "foliage.hurst": 0.7,
    "foliage.redraw_per_pulse": True,
    "foliage.spectral_smoothing_bins": 4,
    "noise.snr_db": 10.0,
    "processing.azimuth_window": "hann",
    "processing.upsample": 8,
    "processing.smooth_window": 5,
    "outputs.db_floor": -40.0,
    "outputs.write_pgm": False,
    "outputs.write_png": False,
    "outputs.write_csv_profiles": False,
    "outputs.dump_foliage_csv": True,
    "seeds.master": 1,
}


def _every_key_base():
    doc = copy.deepcopy(SMALL_PRESET)
    doc["foliage"] = {"polarization": "HH"}
    doc["noise"] = {"snr_db": 20.0}
    return doc


def _command_outputs(doc, tmp_path):
    """{(command, file): sha256} over the manifests of simulate, image and metrics."""
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    hashes = {}
    for command in ("simulate", "image", "metrics"):
        out = tmp_path / command
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 0
        manifest = _read_json(out / f"{command}_manifest.json")
        hashes.update({(command, o["path"]): o["sha256"] for o in manifest["outputs"]})
    return hashes


@pytest.fixture(scope="module")
def every_key_baseline(tmp_path_factory):
    return _command_outputs(_every_key_base(), tmp_path_factory.mktemp("baseline"))


class TestEveryKeyChangesAnOutput:
    """A scenario key whose value no output depends on is an option to delete."""

    def test_every_key_listed(self):
        keys = {f"{section}.{key}" for section, table in SCHEMA.items() for key in table}
        keys |= {f"scene.targets[].{key}" for key in TARGET}
        assert set(KEY_CHANGES) == keys

    @pytest.mark.parametrize("key", sorted(KEY_CHANGES))
    def test_key_changes_an_output(self, key, every_key_baseline, tmp_path):
        doc = _every_key_base()
        *path, name = key.split(".")
        node = doc["scene"]["targets"][0] if path == ["scene", "targets[]"] else doc[path[0]]
        node[name] = KEY_CHANGES[key]
        assert _command_outputs(doc, tmp_path) != every_key_baseline


def _mid_line_sample(value):
    """Damage that sets the real part of the middle pulse's middle sample."""
    def damage(blob):
        rows, cols = struct.unpack_from("<II", blob, 8)
        at = 32 + 16 * (rows // 2 * cols + cols // 2)
        return blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    return damage


class TestMalformedFiles:
    """A malformed FSAR/FIMG file exits 3 and names the file."""

    @pytest.mark.parametrize("argv,damage", [
        (["image", "--raw"], lambda blob: blob[:-16]),
        (["image", "--raw"], lambda blob: blob[:20]),
        (["metrics", "--image"], lambda blob: blob),
        (["image", "--raw"], lambda blob: blob[:32] + struct.pack("<d", math.nan) + blob[40:]),
        (["image", "--raw"], lambda blob: blob[:-8] + struct.pack("<d", -math.inf)),
        # finite, but it overflows while focusing
        (["image", "--raw"], _mid_line_sample(1e307)),
    ], ids=["image_short_raw", "image_truncated_raw", "metrics_fsar_as_image",
            "image_nan_raw", "image_inf_raw", "image_huge_raw"])
    def test_exit_3_names_file(self, argv, damage, small_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["simulate", "--scenario", small_file, "--out", out])
        path = tmp_path / "input.bin"
        raw = os.path.join(out, "ofdm-foliage_off-seed0_raw.fsar")
        path.write_bytes(damage(open(raw, "rb").read()))
        written = sorted(os.listdir(out))
        capsys.readouterr()
        assert main(argv[:1] + ["--scenario", small_file] + argv[1:]
                    + [str(path), "--out", out]) == 3
        assert f"error: malformed file: {path}: " in capsys.readouterr().err
        assert sorted(os.listdir(out)) == written


def _sample(value, pulse, index):
    """Damage that sets the real part of one sample."""
    def damage(blob):
        at = 32 + 16 * (pulse * struct.unpack_from("<I", blob, 12)[0] + index)
        return blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    return damage


def _scaled(factor):
    """Damage that multiplies every sample by factor."""
    return lambda blob: blob[:32] + (np.frombuffer(blob[32:], "<f8") * factor).tobytes()


class TestFloatRange:
    """Finite inputs whose squares leave the float64 range still give finite
    profiles and metrics; this suite raises RuntimeWarning as an error."""

    @pytest.mark.parametrize("argv,damage", [
        (["image", "--raw"], _sample(1e160, 5, 100)),
        (["metrics", "--image"], _mid_line_sample(1e300)),
        (["metrics", "--image"], _scaled(1e200)),
        (["metrics", "--image"], _scaled(1e-170)),
        # the peak at pulse 0: its main lobe runs round the cut's end
        (["metrics", "--image"], _sample(1e300, 0, 24)),
    ], ids=["image_raw_1e160", "metrics_image_1e300", "metrics_image_x1e200",
            "metrics_image_x1e-170", "metrics_image_1e300_pulse_0"])
    def test_exit_0_with_finite_results(self, argv, damage, small_file, tmp_path):
        out = tmp_path / "out"
        raw = argv[0] == "image"  # image reads an FSAR, metrics a FIMG file
        main(["simulate" if raw else "image", "--scenario", small_file, "--out", str(out)])
        source = out / ("ofdm-foliage_off-seed0_" + ("raw.fsar" if raw else "image.fimg"))
        path = tmp_path / "input.bin"
        path.write_bytes(damage(source.read_bytes()))
        assert main(argv[:1] + ["--scenario", small_file] + argv[1:]
                    + [str(path), "--out", str(out)]) == 0
        if raw:
            for cut in ("range", "azimuth"):
                table = np.loadtxt(out / f"ofdm-foliage_off-seed0_{cut}_profile.csv",
                                   delimiter=",", skiprows=1)
                assert np.isfinite(table[:, 1]).all() and table[:, 2].max() == 0.0
        else:
            doc = _read_json(out / "ofdm-foliage_off-seed0_metrics.json")
            assert all(math.isfinite(doc[k]) for k in cli.METRIC_KEYS)


class TestPeakAtCutEnd:
    """A cut is periodic: a peak at or near either end of it keeps the part of
    its main lobe that lies round the other end."""

    @staticmethod
    def _metrics(tmp_path, name, **target):
        doc = copy.deepcopy(SMALL_PRESET)
        doc["scene"]["targets"][0].update(target)
        scen = tmp_path / f"{name}.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["metrics", "--scenario", str(scen), "--out", str(out)]) == 0
        return _read_json(out / "ofdm-foliage_off-seed0_metrics.json")

    def test_target_in_cell_0_matches_cell_1(self, tmp_path):
        first = self._metrics(tmp_path, "cell0", cell=0)
        second = self._metrics(tmp_path, "cell1", cell=1)
        for key in cli.METRIC_KEYS:
            assert first[key] == pytest.approx(second[key], abs=0.01)

    def test_main_lobe_past_pulse_0_is_not_sidelobe(self, tmp_path):
        # at the aperture's edge, about half the azimuth main lobe lies
        # before pulse 0; counted as sidelobe, ISLR read -0.17 dB
        doc = self._metrics(tmp_path, "edge", azimuth_m=-18.5)
        assert doc["islr_azimuth_db"] == pytest.approx(-10.71, abs=0.05)


# (arguments, exit code) of commands that must fail before they write: main
# rejects each exit-2 list before --out is created, and main makes no write
# before a stage returns, so a stage failing with 3, 4 or 5 writes nothing.
# "{small}" is the small preset's file, "{late}" the same at seeds.master
# 2^64 - 2, "{zero}" the same with zero RCS, "{missing}" a FIMG path that does
# not exist, "{wrong_fimg}" and "{wrong_fsar}" 2 x 3 files, which match no
# scenario, and "{truncated}" that FSAR cut short.
_FAILS_BEFORE_WRITING = {
    "metrics_seeds_above_limit": (["metrics", "--preset", "small", "--seeds", "2000000"], 2),
    "compare_seeds_above_limit": (["compare", "--preset", "small", "--seeds", "2000000"], 2),
    "metrics_range_past_maximum": (["metrics", "--preset", "small", "--seed", str(2**64 - 2),
                                    "--seeds", "3"], 2),
    "compare_range_past_maximum": (["compare", "--preset", "small", "--seed", str(2**64 - 2),
                                    "--seeds", "3"], 2),
    "compare_second_range_past_maximum": (["compare", "--scenario", "{small}", "--scenario",
                                           "{late}", "--seeds", "3"], 2),
    "no_source": (["metrics"], 2),
    "both_sources": (["metrics", "--scenario", "{small}", "--preset", "small"], 2),
    "image_with_seeds": (["metrics", "--scenario", "{small}", "--image", "{missing}",
                          "--seeds", "7"], 2),
    "compare_files_and_preset": (["compare", "--scenario", "{small}", "--scenario", "{small}",
                                  "--preset", "small"], 2),
    "compare_files_and_waveform": (["compare", "--scenario", "{small}", "--scenario",
                                    "{small}", "--waveform", "noise"], 2),
    "compare_files_and_foliage": (["compare", "--scenario", "{small}", "--scenario", "{small}",
                                   "--foliage", "HH"], 2),
    "compare_one_variant": (["compare", "--scenario", "{small}"], 2),
    "simulate_two_scenarios": (["simulate", "--scenario", "{small}", "--scenario", "{small}"],
                               2),
    "image_no_peak": (["image", "--scenario", "{zero}"], 5),
    "metrics_no_peak": (["metrics", "--scenario", "{zero}"], 5),
    "metrics_image_missing": (["metrics", "--preset", "small", "--image", "{missing}"], 3),
    "metrics_image_wrong_shape": (["metrics", "--preset", "small", "--image", "{wrong_fimg}"],
                                  4),
    "image_raw_truncated": (["image", "--preset", "small", "--raw", "{truncated}"], 3),
    "image_raw_wrong_shape": (["image", "--preset", "small", "--raw", "{wrong_fsar}"], 4),
}


def _small_file_with(tmp_path, name, edit):
    doc = copy.deepcopy(SMALL_PRESET)
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _zero_rcs(doc):
    doc["scene"]["targets"][0]["rcs"] = [0.0, 0.0]


@pytest.fixture(scope="module")
def earlier_runs(tmp_path_factory):
    """A directory holding an earlier small-preset image run and metrics run: the
    image files, the metrics JSON and both manifests."""
    out = tmp_path_factory.mktemp("earlier_runs") / "out"
    for command in ("image", "metrics"):
        assert main([command, "--preset", "small", "--out", str(out)]) == 0
    assert {"image_manifest.json", "metrics_manifest.json"} <= set(os.listdir(out))
    return out


class TestFrame:
    """What main does around every command: the manifest and atomic writes."""

    @pytest.mark.parametrize("argv, code", list(_FAILS_BEFORE_WRITING.values()),
                             ids=list(_FAILS_BEFORE_WRITING))
    def test_failure_before_the_stage_writes_touches_nothing(self, argv, code, small_file,
                                                             earlier_runs, tmp_path):
        # main once judged the seed ranges after it had made --out and removed the
        # old manifest, simulate kept the last of two --scenario files, image wrote
        # its FIMG, PGM and PNG before it found no peak for the profiles, and main
        # removed the old manifest before every stage ran
        wrong = np.zeros((2, 3), complex)
        write_fsar(str(tmp_path / "wrong.fsar"), wrong)
        write_fimg(str(tmp_path / "wrong.fimg"), wrong)
        (tmp_path / "truncated.fsar").write_bytes((tmp_path / "wrong.fsar").read_bytes()[:-8])
        paths = {"small": small_file, "missing": str(tmp_path / "none.fimg"),
                 "late": _small_file_with(tmp_path, "late",
                                          lambda d: d["seeds"].update(master=2**64 - 2)),
                 "zero": _small_file_with(tmp_path, "zero", _zero_rcs),
                 "wrong_fsar": str(tmp_path / "wrong.fsar"),
                 "wrong_fimg": str(tmp_path / "wrong.fimg"),
                 "truncated": str(tmp_path / "truncated.fsar")}
        argv = [a.format(**paths) for a in argv]
        fresh = tmp_path / "fresh"
        assert main(argv + ["--out", str(fresh)]) == code
        assert not fresh.exists()
        out = tmp_path / "earlier"
        shutil.copytree(earlier_runs, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--out", str(out)]) == code
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command, owner", [("simulate", cli), ("metrics", scenario)],
                             ids=["simulate", "metrics"])
    def test_out_of_memory_exits_3_and_touches_nothing(self, command, owner, earlier_runs,
                                                       tmp_path, monkeypatch, capsys):
        # a MemoryError once ended in a traceback; metrics re-raises it from a seed thread
        def out_of_memory(cfg, threads=1):
            raise MemoryError("cannot allocate the raw matrix")

        monkeypatch.setattr(owner, "synthesize_raw", out_of_memory)
        argv = [command, "--preset", "small"]
        if command == "metrics":
            argv += ["--seeds", "2", "--threads", "2"]
        fresh = tmp_path / "fresh"
        assert main(argv + ["--out", str(fresh)]) == 3
        assert not fresh.exists()
        out = tmp_path / "earlier"
        shutil.copytree(earlier_runs, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        err = capsys.readouterr().err
        assert err.count("error: out of memory: cannot allocate the raw matrix\n") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,name", [
        ("simulate", "ofdm-foliage_off-seed0_raw.csv"),
        ("metrics", "ofdm-foliage_off-seed0_metrics.json"),
        ("compare", "compare.json"),
    ], ids=["raw_csv", "metrics_json", "compare_json"])
    def test_failed_rename_keeps_old_file(self, command, name, small_file, tmp_path,
                                          monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_bytes(b"old")
        manifest = out / f"{command}_manifest.json"
        manifest.write_bytes(b"{}")  # an earlier run's
        replace = os.replace

        def fail_on_target(src, dst):
            if str(dst).endswith(name):
                raise OSError(f"rename onto {dst} failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        sources = ["--scenario", small_file] * (2 if command == "compare" else 1)
        assert main([command] + sources + ["--out", str(out)]) == 3
        # a failed write leaves no manifest: main removed it before the first write
        assert (out / name).read_bytes() == b"old"
        assert not manifest.exists()
        assert not list(out.glob("*.tmp"))


def _aliasing_file(tmp_path, antenna_length_m):
    """The small preset at an antenna length whose 2 v / L_a is above its 128 Hz PRF."""
    doc = copy.deepcopy(SMALL_PRESET)
    doc["platform"]["antenna_length_m"] = antenna_length_m
    path = tmp_path / f"aliasing_{antenna_length_m}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _advisory(bandwidth):
    return ("warning: platform.prf_hz: 128.0 Hz is below the Doppler bandwidth "
            f"2 v / L_a = {bandwidth} Hz: azimuth aliasing")


class TestAdvisories:
    """A valid scenario's advisories: one stderr line each, before the stage runs,
    and a manifest "warnings" entry; the run goes on and exits 0."""

    def test_exit_0_with_warnings_raised_as_errors(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONWARNINGS="error")
        run = subprocess.run(
            [sys.executable, "-m", "fopen_sar.cli", "metrics", "--scenario",
             _aliasing_file(tmp_path, 1.0), "--seeds", "4", "--threads", "2",
             "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines() == [_advisory(300.0)]

    def test_one_line_and_entry_per_scenario(self, tmp_path, capsys):
        a, b = _aliasing_file(tmp_path, 1.0), _aliasing_file(tmp_path, 0.9)
        out = tmp_path / "out"
        lines = [_advisory(300.0), _advisory(2 * 150.0 / 0.9)]
        assert main(["compare", "--scenario", a, "--scenario", b, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == lines
        manifest = _read_json(out / "compare_manifest.json")
        assert manifest["warnings"] == [line.removeprefix("warning: ") for line in lines]
        assert main(["metrics", "--scenario", a, "--seeds", "4", "--threads", "2",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == lines[:1]
        assert _read_json(out / "metrics_manifest.json")["warnings"] == [
            lines[0].removeprefix("warning: ")]

    def test_preset_manifest_has_no_warnings_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["metrics", "--preset", "small", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "warnings" not in _read_json(out / "metrics_manifest.json")


def _perfbench(name):
    """Module perfbench/<name>.py, loaded by path without touching perfbench."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrap_points():
    """perfbench/tracer.py's wrap points."""
    return _perfbench("tracer").wrap_points()


class TestBenchmarkReference:
    """The benchmark's correctness gate on its default workload seed: every table
    and tank config at seed 0, and at each seed whose recorded outcome is a
    NoPeakError (null), matches perfbench/reference.json."""

    @pytest.mark.parametrize("workload", ["table", "tank"])
    def test_runs_match_the_recorded_reference(self, workload):
        workloads, checks = _perfbench("workloads"), _perfbench("checks")
        ref = checks.load_reference()[workload]
        for scen in workloads.configs(workload):
            want = ref[scen.label()]
            for seed in [0] + [int(s) for s, m in want.items() if m is None and s != "0"]:
                try:
                    got = run_metrics(scen, [seed])[0]
                except NoPeakError:
                    got = None
                assert checks.reference_mismatch(got, want[str(seed)]) is None, (
                    scen.label(), seed)


class TestTraceWrapPoints:
    """The benchmark's --trace 1 replaces these names; each must exist and run."""

    def test_every_wrap_point_resolves(self):
        for owner, attr, _, _ in _wrap_points():
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"

    def test_cli_calls_every_cli_wrap_point(self, tmp_path, monkeypatch):
        names = {attr for owner, attr, _, _ in _wrap_points() if owner is cli}
        called = set()

        def spy(attr, fn):
            def wrapped(*args, **kwargs):
                called.add(attr)
                return fn(*args, **kwargs)
            return wrapped

        for attr in names:
            monkeypatch.setattr(cli, attr, spy(attr, getattr(cli, attr)))
        doc = copy.deepcopy(SMALL_PRESET)
        doc["foliage"] = {"polarization": "HH"}
        doc["outputs"]["dump_foliage_csv"] = True
        scen = tmp_path / "hh.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        common = ["--scenario", str(scen), "--out", str(out)]
        assert main(["simulate"] + common) == 0
        assert main(["image", "--raw", str(out / "ofdm-foliage_HH-seed0_raw.fsar")]
                    + common) == 0
        assert main(["metrics", "--image", str(out / "ofdm-foliage_HH-seed0_image.fimg")]
                    + common) == 0
        assert called == names


def _fresh_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports the package from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestImport:
    def test_package_import_pulls_in_no_scipy(self):
        code = ("import sys, fopen_sar; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _fresh_python(code).strip() == "[]"

    def test_resolve_and_metrics_image_load_no_random_pool_or_csv(self, small_file, tmp_path):
        # neither resolving a scenario nor scoring a stored image draws or
        # starts a seed pool, and no command needs the csv module
        main(["image", "--scenario", small_file, "--out", str(tmp_path)])
        img = tmp_path / "ofdm-foliage_off-seed0_image.fimg"
        code = f"""
import sys, fopen_sar
from fopen_sar.cli import main
def loaded():
    return [m for m in ("numpy.random", "concurrent.futures", "csv") if m in sys.modules]
fopen_sar.preset_scenario("full").simulation_config()
after_resolve = loaded()
assert main(["metrics", "--scenario", {small_file!r}, "--image", {str(img)!r},
             "--out", {str(tmp_path / "m")!r}]) == 0
print(after_resolve, loaded())
"""
        assert _fresh_python(code).splitlines()[-1] == "[] []"

    def test_first_draws_from_two_threads_match_one_thread(self, tmp_path):
        # the seed threads are the first to import numpy.random
        name = "ofdm-foliage_off-seed0_metrics.json"
        code = f"""
from fopen_sar.cli import main
assert main(["metrics", "--preset", "small", "--seeds", "2", "--threads", "2",
             "--out", {str(tmp_path / "t2")!r}]) == 0
"""
        _fresh_python(code)
        assert main(["metrics", "--preset", "small", "--seeds", "2", "--threads", "1",
                     "--out", str(tmp_path / "t1")]) == 0
        assert ((tmp_path / "t2" / name).read_bytes()
                == (tmp_path / "t1" / name).read_bytes())


class TestCompare:
    def test_identical_variants_zero_differences(self, small_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compare", "--scenario", small_file, "--scenario",
                     small_file, "--out", out]) == 0
        doc = _read_json(os.path.join(out, "compare.json"))
        assert len(doc["variants"]) == 2
        d = doc["differences"][0]
        for k, v in d.items():
            if k.startswith("delta_"):
                assert v == pytest.approx(0.0, abs=1e-12)
        # one shared seed: a paired mean of exactly 0 and no standard error
        assert d["paired"] == dict.fromkeys(METRIC_KEYS, {"mean": 0.0, "se": "nan", "n": 1})

    def test_preset_grid(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compare", "--preset", "small", "--foliage", "off",
                     "--seeds", "2", "--out", out]) == 0
        doc = _read_json(os.path.join(out, "compare.json"))
        labels = {v["label"] for v in doc["variants"]}
        assert labels == {"ofdm-foliage_off", "noise-foliage_off"}
        assert doc["variants"][0]["metrics"]["n_seeds"] == 2
        # CP-OFDM beats noise in range ISLR
        byl = {v["label"]: v["metrics"] for v in doc["variants"]}
        assert (byl["ofdm-foliage_off"]["islr_range_db"]
                < byl["noise-foliage_off"]["islr_range_db"])

    def test_preset_grid_honours_waveform(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compare", "--preset", "small", "--waveform", "noise",
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "compare.json"))
        labels = {v["label"] for v in doc["variants"]}
        assert labels == {"noise-foliage_off", "noise-foliage_HH"}

    @pytest.mark.parametrize("flag", [["--preset", "small"], ["--waveform", "noise"],
                                      ["--foliage", "HH"]])
    def test_preset_flags_rejected_with_scenarios(self, flag, small_file, tmp_path,
                                                  capsys):
        out = tmp_path / "o"
        assert main(["compare", "--scenario", small_file, "--scenario", small_file,
                     *flag, "--out", str(out)]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_colliding_labels_gain_their_position(self, tmp_path):
        # two files that differ only in antenna length share the label ofdm-foliage_off
        paths = []
        for name, length in (("a", 1.0), ("b", 0.9)):
            doc = copy.deepcopy(SMALL_PRESET)
            doc["platform"]["antenna_length_m"] = length
            paths += ["--scenario", str(tmp_path / f"{name}.json")]
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert main(["compare", *paths, "--out", out]) == 0
        doc = _read_json(os.path.join(out, "compare.json"))
        assert [v["label"] for v in doc["variants"]] == ["ofdm-foliage_off#1",
                                                         "ofdm-foliage_off#2"]
        assert doc["differences"][0]["pair"] == ["ofdm-foliage_off#1", "ofdm-foliage_off#2"]
        for v in doc["variants"]:
            _assert_means_reproduced(os.path.join(out, f"{v['label']}_per_seed.csv"),
                                     v["seeds"], v["metrics"])

    def test_per_seed_files_reproduce_each_mean_at_any_thread_count(self, tmp_path):
        # one table per variant, listed and hashed in the manifest; none matches the
        # *_metrics.json glob that takes a metrics run's report
        outs = {threads: tmp_path / f"t{threads}" for threads in (1, 2)}
        for threads, out in outs.items():
            assert main(["compare", "--preset", "small", "--seeds", "3", "--threads",
                         str(threads), "--out", str(out)]) == 0
        doc = _read_json(outs[1] / "compare.json")
        listed = {o["path"]: o["sha256"]
                  for o in _read_json(outs[1] / "compare_manifest.json")["outputs"]}
        names = [f"{v['label']}_per_seed.csv" for v in doc["variants"]]
        assert len(doc["variants"]) == 4 and set(listed) == {"compare.json", *names}
        for name, v in zip(names, doc["variants"]):
            blob = (outs[1] / name).read_bytes()
            assert blob == (outs[2] / name).read_bytes()
            assert listed[name] == hashlib.sha256(blob).hexdigest()
            _assert_means_reproduced(outs[1] / name, v["seeds"], v["metrics"])
        assert not list(outs[1].glob("*_metrics.json"))

    def test_needs_two_variants(self, small_file, tmp_path):
        assert main(["compare", "--scenario", small_file,
                     "--out", str(tmp_path / "o")]) == 2


class TestSeedCount:
    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("flag, command", [
        pytest.param("--seeds", command, id=command) for command in ("metrics", "compare")
    ] + [
        pytest.param("--threads", command, id=f"threads-{command}")
        for command in ("simulate", "image", "metrics", "compare")
    ])
    def test_seed_count_below_one_rejected(self, flag, command, count, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "small", flag, count, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "image", "metrics", "compare"])
    def test_threads_above_the_cap_rejected(self, command, tmp_path, capsys):
        # --threads was once unbounded: metrics --seeds 1048576 --threads 1048576
        # asked for about a million threads, and the RuntimeError was a traceback
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "small", "--threads", "65", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --threads: must be at most 64, got '65'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "compare"])
    def test_range_past_the_seed_maximum_rejected(self, command, tmp_path, capsys):
        # 2^64 - 2 and two more seeds run to 2^64, which seeds.master may not hold
        out = tmp_path / "o"
        assert main([command, "--preset", "small", "--seed", str(2**64 - 2), "--seeds", "3",
                     "--out", str(out)]) == 2
        assert "seeds.master" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, "--preset", "small", "--seed", str(2**64 - 3), "--seeds", "3",
                     "--out", str(out)]) == 0  # the range ends on the maximum

    @pytest.mark.parametrize("command", ["metrics", "compare"])
    def test_count_above_the_limit_rejected(self, command, tmp_path, capsys):
        # the seed list was once built first: 10^15 seeds died in a MemoryError
        out = tmp_path / "o"
        assert main([command, "--preset", "small", "--seeds", str(10**15),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--seeds {10**15} is above the limit {2**20}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, command, text", [
        ("--threads", "simulate", "x"), ("--seeds", "metrics", "2.5")])
    def test_non_integer_rejected_with_the_rule(self, flag, command, text, tmp_path,
                                                capsys):
        # argparse once named the private type function: "invalid _positive_int value"
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "small", flag, text, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer >= 1, got '{text}'" in err
        assert "_positive_int" not in err
        assert not out.exists()
