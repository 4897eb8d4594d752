"""Scenario files: schema, validation, presets, and pipeline assembly.

A scenario is a JSON document with sections {waveform, platform, scene,
foliage?, noise?, processing, outputs, seeds}. Validation is strict:
unknown keys are rejected, and every error names the offending field path.
The two shipped presets are "full" (the reference ultra-wideband stripmap
configuration) and "small" (a desk-scale variant for CI).
"""

import copy
import json
import math
from concurrent.futures import ThreadPoolExecutor

from .echo import SimulationConfig, synthesize_raw, transmitted_pulse
from .foliage import FoliageParams
from .geometry import PlatformParams, PointTarget, Scene, make_grid
from .imaging import RCMC_MODES, FocusedImage, focus
from .metrics import image_metrics
from .waveform import OfdmSpec, generate_bpsk_symbols


class SchemaError(ValueError):
    """Scenario validation failure; message starts with the field path."""


def _fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


def _expect_dict(node, path, allowed, required):
    if not isinstance(node, dict):
        _fail(path, "must be an object")
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in node:
            _fail(f"{path}.{key}", "missing required key")


def _finite(v) -> bool:
    """False for NaN, +-Infinity (which JSON parsing accepts) and ints past float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _num(node, path, key, default=None, minimum=None, maximum=None,
         integer=False, allow_none=False):
    if key not in node or node[key] is None:
        if key in node and allow_none:
            return None
        if default is not None or allow_none:
            return default
        _fail(f"{path}.{key}", "missing required number")
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    if not _finite(v):
        _fail(f"{path}.{key}", "must be finite")
    if integer and int(v) != v:
        _fail(f"{path}.{key}", "must be an integer")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}")
    if maximum is not None and v > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum}")
    return int(v) if integer else float(v)


def _choice(node, path, key, choices, default):
    v = node.get(key, default)
    if v not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return v


def _flag(node, path, key, default):
    v = node.get(key, default)
    if not isinstance(v, bool):
        _fail(f"{path}.{key}", "must be a boolean")
    return v


class Scenario:
    """A validated scenario document, resolvable to pipeline objects."""

    def __init__(self, doc: dict):
        self.doc = validate_scenario(doc)

    # -- resolved views -------------------------------------------------

    @property
    def master_seed(self) -> int:
        return self.doc["seeds"]["master"]

    def ofdm_spec(self, master_seed=None) -> OfdmSpec:
        w = self.doc["waveform"]
        seed = self.master_seed if master_seed is None else master_seed
        return OfdmSpec(w["n_subcarriers"], w["n_range_cells"], w["bandwidth_hz"],
                        symbol_seed=seed)

    def platform(self) -> PlatformParams:
        p = self.doc["platform"]
        return PlatformParams(p["altitude_m"], p["velocity_mps"], p["aperture_s"],
                              p["carrier_hz"], p["reference_range_m"],
                              p.get("antenna_length_m"), p["prf_hz"])

    def scene(self) -> Scene:
        targets = tuple(
            PointTarget(t["cell"], t["azimuth_m"], complex(t["rcs"][0], t["rcs"][1]))
            for t in self.doc["scene"]["targets"])
        return Scene(targets, self.doc["waveform"]["n_range_cells"])

    def foliage_params(self, master_seed=None) -> FoliageParams | None:
        f = self.doc.get("foliage")
        if f is None:
            return None
        seed = self.master_seed if master_seed is None else master_seed
        if f.get("grazing_angle_deg") is None:
            p = self.doc["platform"]
            grazing = math.asin(p["altitude_m"] / p["reference_range_m"])
        else:
            grazing = math.radians(f["grazing_angle_deg"])
        return FoliageParams(f["polarization"], grazing, f["gamma_shape"],
                             f["gamma_scale"], f["hurst"], seed,
                             f["redraw_per_pulse"], f["spectral_smoothing_bins"])

    def simulation_config(self, master_seed=None) -> SimulationConfig:
        seed = self.master_seed if master_seed is None else master_seed
        noise = self.doc.get("noise") or {}
        return SimulationConfig(
            waveform_kind=self.doc["waveform"]["kind"],
            ofdm=self.ofdm_spec(seed),
            scene=self.scene(),
            platform=self.platform(),
            foliage=self.foliage_params(seed),
            noise_variance=self.doc["waveform"]["noise_variance"],
            snr_db=noise.get("snr_db"),
            master_seed=seed,
        )

    @property
    def processing(self) -> dict:
        return self.doc["processing"]

    @property
    def outputs(self) -> dict:
        return self.doc["outputs"]

    def with_overrides(self, waveform_kind=None, foliage_pol=None,
                       master_seed=None) -> "Scenario":
        """A copy with the waveform kind, foliage polarization, or seed swapped.

        foliage_pol may be "off" (drop the foliage section), "HH" or "VV".
        """
        doc = copy.deepcopy(self.doc)
        if waveform_kind is not None:
            if waveform_kind not in ("ofdm", "noise"):
                raise SchemaError("waveform.kind: must be one of ['noise', 'ofdm']")
            doc["waveform"]["kind"] = waveform_kind
        if foliage_pol is not None:
            if foliage_pol == "off":
                doc.pop("foliage", None)
            else:
                base = doc.get("foliage") or default_foliage_section()
                base["polarization"] = foliage_pol
                doc["foliage"] = base
        if master_seed is not None:
            doc["seeds"]["master"] = int(master_seed)
        return Scenario(doc)

    def label(self) -> str:
        f = self.doc.get("foliage")
        pol = f["polarization"] if f else "off"
        return f"{self.doc['waveform']['kind']}-foliage_{pol}"


def validate_scenario(doc: dict) -> dict:
    """Validate and normalize a scenario document (returns a deep copy)."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario: must be a JSON object")
    _expect_dict(doc, "scenario",
                 allowed={"waveform", "platform", "scene", "foliage", "noise",
                          "processing", "outputs", "seeds"},
                 required={"waveform", "platform", "scene", "processing",
                           "outputs", "seeds"})
    out = {}

    w = doc["waveform"]
    _expect_dict(w, "waveform",
                 allowed={"kind", "n_subcarriers", "n_range_cells",
                          "bandwidth_hz", "noise_variance"},
                 required={"kind", "n_subcarriers", "n_range_cells",
                           "bandwidth_hz"})
    out["waveform"] = {
        "kind": _choice(w, "waveform", "kind", {"ofdm", "noise"}, None),
        "n_subcarriers": _num(w, "waveform", "n_subcarriers", minimum=1, integer=True),
        "n_range_cells": _num(w, "waveform", "n_range_cells", minimum=1, integer=True),
        "bandwidth_hz": _num(w, "waveform", "bandwidth_hz", minimum=1e-12),
        "noise_variance": _num(w, "waveform", "noise_variance", default=1.0,
                               minimum=1e-300),
    }

    p = doc["platform"]
    _expect_dict(p, "platform",
                 allowed={"altitude_m", "velocity_mps", "aperture_s", "carrier_hz",
                          "reference_range_m", "antenna_length_m", "prf_hz"},
                 required={"altitude_m", "velocity_mps", "aperture_s",
                           "carrier_hz", "reference_range_m", "prf_hz"})
    out["platform"] = {
        "altitude_m": _num(p, "platform", "altitude_m", minimum=1e-9),
        "velocity_mps": _num(p, "platform", "velocity_mps", minimum=1e-9),
        "aperture_s": _num(p, "platform", "aperture_s", minimum=1e-12),
        "carrier_hz": _num(p, "platform", "carrier_hz", minimum=1e-9),
        "reference_range_m": _num(p, "platform", "reference_range_m", minimum=1e-9),
        "antenna_length_m": _num(p, "platform", "antenna_length_m",
                                 minimum=1e-9, allow_none=True, default=None),
        "prf_hz": _num(p, "platform", "prf_hz", minimum=1e-9),
    }
    if round(out["platform"]["aperture_s"] * out["platform"]["prf_hz"]) < 2:
        _fail("platform.aperture_s", "aperture_s * prf_hz must round to >= 2 pulses")
    if out["platform"]["reference_range_m"] < out["platform"]["altitude_m"]:
        _fail("platform.reference_range_m", "must be >= altitude_m")

    s = doc["scene"]
    _expect_dict(s, "scene", allowed={"targets"}, required={"targets"})
    if not isinstance(s["targets"], list) or not s["targets"]:
        _fail("scene.targets", "must be a non-empty array")
    targets = []
    m = out["waveform"]["n_range_cells"]
    for i, t in enumerate(s["targets"]):
        path = f"scene.targets[{i}]"
        _expect_dict(t, path, allowed={"cell", "azimuth_m", "rcs"},
                     required={"cell"})
        cell = _num(t, path, "cell", minimum=0, maximum=m - 1, integer=True)
        azimuth = _num(t, path, "azimuth_m", default=0.0)
        rcs = t.get("rcs", [1.0, 0.0])
        if (not isinstance(rcs, list) or len(rcs) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           and _finite(v) for v in rcs)):
            _fail(f"{path}.rcs", "must be [re, im] with finite numbers")
        targets.append({"cell": cell, "azimuth_m": azimuth,
                        "rcs": [float(rcs[0]), float(rcs[1])]})
    out["scene"] = {"targets": targets}

    if "foliage" in doc and doc["foliage"] is not None:
        f = doc["foliage"]
        _expect_dict(f, "foliage",
                     allowed={"polarization", "grazing_angle_deg", "gamma_shape",
                              "gamma_scale", "hurst", "redraw_per_pulse",
                              "spectral_smoothing_bins"},
                     required={"polarization"})
        out["foliage"] = {
            "polarization": _choice(f, "foliage", "polarization", {"HH", "VV"}, None),
            "grazing_angle_deg": _num(f, "foliage", "grazing_angle_deg",
                                      minimum=1e-9, maximum=90.0,
                                      allow_none=True, default=None),
            "gamma_shape": _num(f, "foliage", "gamma_shape", default=4.0,
                                minimum=1e-12),
            "gamma_scale": _num(f, "foliage", "gamma_scale", default=0.25,
                                minimum=1e-12),
            "hurst": _num(f, "foliage", "hurst", default=0.4,
                          minimum=1e-9, maximum=1 - 1e-9),
            "redraw_per_pulse": _flag(f, "foliage", "redraw_per_pulse", False),
            "spectral_smoothing_bins": _num(f, "foliage", "spectral_smoothing_bins",
                                            default=0, minimum=0, integer=True),
        }

    if "noise" in doc and doc["noise"] is not None:
        nz = doc["noise"]
        _expect_dict(nz, "noise", allowed={"snr_db"}, required={"snr_db"})
        out["noise"] = {"snr_db": _num(nz, "noise", "snr_db")}

    pr = doc["processing"]
    _expect_dict(pr, "processing",
                 allowed={"rcmc", "azimuth_window", "upsample", "smooth_window"},
                 required=set())
    out["processing"] = {
        "rcmc": _choice(pr, "processing", "rcmc", set(RCMC_MODES), "off"),
        "azimuth_window": _choice(pr, "processing", "azimuth_window",
                                  {"none", "hann"}, "none"),
        "upsample": _num(pr, "processing", "upsample", default=16, minimum=1,
                         integer=True),
        "smooth_window": _num(pr, "processing", "smooth_window", default=3,
                              minimum=1, integer=True),
    }

    o = doc["outputs"]
    _expect_dict(o, "outputs",
                 allowed={"db_floor", "write_pgm", "write_png",
                          "write_csv_profiles", "dump_foliage_csv"},
                 required=set())
    out["outputs"] = {
        "db_floor": _num(o, "outputs", "db_floor", default=-50.0, maximum=-1e-9),
        "write_pgm": _flag(o, "outputs", "write_pgm", True),
        "write_png": _flag(o, "outputs", "write_png", True),
        "write_csv_profiles": _flag(o, "outputs", "write_csv_profiles", True),
        "dump_foliage_csv": _flag(o, "outputs", "dump_foliage_csv", False),
    }

    sd = doc["seeds"]
    _expect_dict(sd, "seeds", allowed={"master"}, required={"master"})
    out["seeds"] = {"master": _num(sd, "seeds", "master", minimum=0, integer=True)}
    return out


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"scenario: invalid JSON ({e})") from e
    return Scenario(doc)


def default_foliage_section() -> dict:
    return {"polarization": "HH", "grazing_angle_deg": None, "gamma_shape": 4.0,
            "gamma_scale": 0.25, "hurst": 0.4, "redraw_per_pulse": False,
            "spectral_smoothing_bins": 0}


def tank_targets(center_cell: int = 96, cell_extent_m: float = 0.0375,
                 azimuth_res_m: float = 0.85) -> list[dict]:
    """Point-target arrangement sketching a tank silhouette (side-on).

    Our own construction (the reference arrangement was never published):
    hull outline, turret block and gun barrel, about 30 unit scatterers.
    Spacings keep neighbors separated by at least a resolution cell in
    range and about one azimuth resolution in azimuth.
    """
    hull_half_m = 2.0
    step = max(1, int(round(hull_half_m / 4 / cell_extent_m)))
    hull_cells = [center_cell + k * step for k in range(-4, 5)]
    a = azimuth_res_m
    pts = []
    for c in hull_cells:  # hull top and bottom edges
        pts.append({"cell": c, "azimuth_m": -1.5 * a, "rcs": [1.0, 0.0]})
        pts.append({"cell": c, "azimuth_m": 1.5 * a, "rcs": [1.0, 0.0]})
    for az in (-0.5 * a, 0.5 * a):  # hull ends
        pts.append({"cell": hull_cells[0], "azimuth_m": az, "rcs": [1.0, 0.0]})
        pts.append({"cell": hull_cells[-1], "azimuth_m": az, "rcs": [1.0, 0.0]})
    for c in (center_cell - step, center_cell, center_cell + step):  # turret
        pts.append({"cell": c, "azimuth_m": 0.0, "rcs": [1.0, 0.0]})
    barrel0 = hull_cells[-1] + step
    for k in range(3):  # barrel
        pts.append({"cell": barrel0 + k * step, "azimuth_m": 0.0, "rcs": [1.0, 0.0]})
    return pts


FULL_PRESET = {
    "waveform": {"kind": "ofdm", "n_subcarriers": 1024, "n_range_cells": 192,
                 "bandwidth_hz": 4.0e9, "noise_variance": 1.0},
    # Antenna length 1.91 m is calibrated so the sinc^2 beam taper reproduces
    # the reference azimuth PSLR (-23.5 dB); see README.
    "platform": {"altitude_m": 5000.0, "velocity_mps": 150.0, "aperture_s": 1.0,
                 "carrier_hz": 9.0e9, "reference_range_m": 5000.0 * math.sqrt(2.0),
                 "antenna_length_m": 1.91, "prf_hz": 256.0},
    "scene": {"targets": [{"cell": 96, "azimuth_m": 0.0, "rcs": [1.0, 0.0]}]},
    "processing": {"rcmc": "off", "azimuth_window": "none", "upsample": 16,
                   "smooth_window": 3},
    "outputs": {"db_floor": -50.0, "write_pgm": True, "write_png": True,
                "write_csv_profiles": True, "dump_foliage_csv": False},
    "seeds": {"master": 0},
}

SMALL_PRESET = {
    "waveform": {"kind": "ofdm", "n_subcarriers": 256, "n_range_cells": 48,
                 "bandwidth_hz": 4.0e9, "noise_variance": 1.0},
    "platform": {"altitude_m": 5000.0, "velocity_mps": 150.0, "aperture_s": 0.25,
                 "carrier_hz": 9.0e9, "reference_range_m": 5000.0 * math.sqrt(2.0),
                 "antenna_length_m": 7.64, "prf_hz": 128.0},
    "scene": {"targets": [{"cell": 24, "azimuth_m": 0.0, "rcs": [1.0, 0.0]}]},
    "processing": {"rcmc": "off", "azimuth_window": "none", "upsample": 16,
                   "smooth_window": 3},
    "outputs": {"db_floor": -50.0, "write_pgm": True, "write_png": True,
                "write_csv_profiles": True, "dump_foliage_csv": False},
    "seeds": {"master": 0},
}

PRESETS = {"full": FULL_PRESET, "small": SMALL_PRESET}


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise SchemaError(f"preset: unknown preset {name!r}; have {sorted(PRESETS)}")
    return Scenario(copy.deepcopy(PRESETS[name]))


def tank_scenario(preset: str = "full") -> Scenario:
    """Preset scenario with the extended-target tank fixture."""
    doc = copy.deepcopy(PRESETS[preset])
    cell_extent = 299792458.0 / (2 * doc["waveform"]["bandwidth_hz"])
    center = doc["waveform"]["n_range_cells"] // 2
    doc["scene"]["targets"] = tank_targets(center, cell_extent)
    return Scenario(doc)


# -- end-to-end helpers shared by the CLI and the test suite -------------

def run_pipeline(scen: Scenario, master_seed=None, threads: int = 1) -> FocusedImage:
    """Simulate and focus one scenario (one batched pass, one thread at any cap)."""
    cfg = scen.simulation_config(master_seed)
    raw = synthesize_raw(cfg, threads=threads)
    return focus_config(scen, cfg, raw)


def focus_config(scen: Scenario, cfg: SimulationConfig, raw) -> FocusedImage:
    grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
    symbols = generate_bpsk_symbols(cfg.ofdm.symbol_seed, cfg.ofdm.n_subcarriers)
    replica = transmitted_pulse(cfg) if cfg.waveform_kind == "noise" else None
    return focus(raw, cfg.ofdm, cfg.platform, grid, symbols=symbols,
                 replica=replica, rcmc_mode=scen.processing["rcmc"],
                 azimuth_window=scen.processing["azimuth_window"])


def run_metrics(scen: Scenario, seeds: list[int], threads: int = 1) -> list[dict]:
    """Per-seed metric dicts for a scenario over a seed list, in seed order.

    Seeds are independent runs, spread over up to `threads` worker threads;
    each result depends only on its seed, so the list is bit-identical for
    any thread count. The first error in seed order is raised.
    """
    def one(seed):
        img = run_pipeline(scen, master_seed=seed)
        return image_metrics(img.pixels, scen.processing["upsample"],
                             scen.processing["smooth_window"])

    if threads <= 1 or len(seeds) <= 1:
        return [one(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
        return list(pool.map(one, seeds))
