"""Scenario files: schema, validation, presets, and pipeline assembly.

A scenario is a JSON document with sections {waveform, platform, scene,
foliage?, noise?, processing, outputs, seeds}, stated once in SCHEMA.
Validation is strict: unknown keys are rejected, and every error names the
offending field path.
The shipped presets are "full" (the reference ultra-wideband stripmap
configuration), "small" (a desk-scale variant for CI) and "tank" (the full
preset with an extended tank-shaped target).
"""

import json
import math
import numbers
import threading

from .echo import SimulationConfig, synthesize_raw, transmitted_pulse
from .foliage import ATTENUATION_CONSTANTS, FoliageParams, block_rows
from .geometry import PlatformParams, PointTarget, RangeGrid, Scene
from .imaging import AZIMUTH_WINDOWS, FocusedImage, focus, smooth_length
from .metrics import SMOOTH_WINDOW, UPSAMPLE, NoPeakError, image_metrics
from .waveform import OfdmSpec, generate_bpsk_symbols


class SchemaError(ValueError):
    """Scenario validation failure; message starts with the field path."""


def _fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


REQUIRED = object()
OPTIONAL_SECTIONS = ("foliage", "noise")
# Each row of scene.targets, its defaults PointTarget's. A cell's maximum, M - 1, is a
# relation to the waveform, so the relations pass checks it. Each part of rcs is at most
# 1e100 in size. The metrics do not square raw magnitudes; the bound keeps the FFTs of
# synthesis and focusing, which overflow near an rcs of 1e303, far from the limit.
TARGET = {
    "cell": (int, REQUIRED, 0, None),
    "azimuth_m": (float, PointTarget.azimuth_m, None, None),
    "rcs": (complex, PointTarget.rcs, -1e100, 1e100),
}
# The scenario schema: SCHEMA[section][key] = (type, default, minimum, maximum).
# type is int, float, bool, complex ([re, im], the bounds applying to each part; its
# default a Python complex), a tuple of allowed values, or a row table such as TARGET (a
# non-empty array of objects, each checked against it). REQUIRED marks a required key; a
# default of None makes a number optional and nullable. Sections are checked in this
# order. The foliage and processing defaults are FoliageParams', metrics' and imaging's.
SCHEMA = {
    "waveform": {
        "kind": (("ofdm", "noise"), REQUIRED, None, None),
        "n_subcarriers": (int, REQUIRED, 1, None),
        "n_range_cells": (int, REQUIRED, 1, None),
        "bandwidth_hz": (float, REQUIRED, 1e-12, None),
    },
    # Key names are the PlatformParams field names.
    "platform": {
        "altitude_m": (float, REQUIRED, 1e-9, None),
        "velocity_mps": (float, REQUIRED, 1e-9, None),
        "aperture_s": (float, REQUIRED, 1e-12, None),
        "carrier_hz": (float, REQUIRED, 1e-9, None),
        "reference_range_m": (float, REQUIRED, 1e-9, None),
        "antenna_length_m": (float, None, 1e-9, None),
        "prf_hz": (float, REQUIRED, 1e-9, None),
    },
    "scene": {"targets": (TARGET, REQUIRED, None, None)},
    # Key names are the FoliageParams field names, but for grazing_angle_deg (in radians there).
    "foliage": {
        "polarization": (tuple(ATTENUATION_CONSTANTS), REQUIRED, None, None),
        "grazing_angle_deg": (float, None, 1e-9, 90.0),
        "gamma_shape": (float, FoliageParams.gamma_shape, 1e-12, None),
        "hurst": (float, FoliageParams.hurst, 1e-9, 1 - 1e-9),
        "redraw_per_pulse": (bool, FoliageParams.redraw_per_pulse, None, None),
        "spectral_smoothing_bins": (int, FoliageParams.spectral_smoothing_bins, 0, None),
    },
    "noise": {"snr_db": (float, REQUIRED, None, None)},
    "processing": {
        "azimuth_window": (AZIMUTH_WINDOWS, AZIMUTH_WINDOWS[0], None, None),
        "upsample": (int, UPSAMPLE, 1, None),
        "smooth_window": (int, SMOOTH_WINDOW, 1, None),
    },
    "outputs": {
        "db_floor": (float, -50.0, None, -1e-9),
        "write_pgm": (bool, True, None, None),
        "write_png": (bool, True, None, None),
        "write_csv_profiles": (bool, True, None, None),
        "dump_foliage_csv": (bool, False, None, None),
    },
    "seeds": {"master": (int, REQUIRED, 0, 2**64 - 1)},  # its digits name output files
}
# The most samples of a raw matrix, 512 MiB of complex128. No command holds it: this
# bounds simulate's FSAR, a run's work and, at 2^25 pulses, the fBm rule of _relations.
MAX_SAMPLES = 1 << 25
# The most bytes a scenario's runs may hold at once by run_bytes, on every host alike.
MEMORY_BUDGET = 4 << 30


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite(v) -> bool:
    """False for NaN, +-Infinity (which JSON parsing accepts) and ints past float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _keys(node, path, table, required):
    if not isinstance(node, dict):
        _fail(path, "must be an object")
    for key in node:
        if key not in table:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in node:
            _fail(f"{path}.{key}", "missing required key")


def _field(v, path, kind, default, minimum, maximum):
    """Check one value against its table entry; returns it normalized."""
    if isinstance(kind, tuple):
        if v not in kind:
            _fail(path, f"must be one of {sorted(kind)}")
        return v
    if kind is bool:
        if not isinstance(v, bool):
            _fail(path, "must be a boolean")
        return v
    if isinstance(kind, dict):
        if not isinstance(v, list) or not v:
            _fail(path, "must be a non-empty array")
        return [_section(row, f"{path}[{i}]", kind) for i, row in enumerate(v)]
    if kind is complex:
        if (not isinstance(v, list) or len(v) != 2
                or not all(_is_real(x) and _finite(x) for x in v)):
            _fail(path, "must be [re, im] with finite numbers")
        if not all(minimum <= x <= maximum for x in v):
            _fail(path, f"each part must be in [{minimum:g}, {maximum:g}]")
        return [float(v[0]), float(v[1])]
    if v is None:
        if default is REQUIRED:
            _fail(path, "missing required number")
        return default
    if not _is_real(v):
        _fail(path, "must be a number")
    if not _finite(v):
        _fail(path, "must be finite")
    if kind is int and int(v) != v:
        _fail(path, "must be an integer")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and v > maximum:
        _fail(path, f"must be <= {maximum}")
    return kind(v)


def _section(node, path, table) -> dict:
    """Check one object against its field table; returns the normalized copy."""
    _keys(node, path, table, [k for k, spec in table.items() if spec[1] is REQUIRED])
    return {key: _field(node.get(key, [spec[1].real, spec[1].imag] if spec[0] is complex
                                 else spec[1]), f"{path}.{key}", *spec)
            for key, spec in table.items()}


class Scenario:
    """A validated scenario document, resolvable to pipeline objects."""

    def __init__(self, doc: dict):
        self.doc = validate_scenario(doc)
        # "<field path>: <message>" strings a run goes on past, judged on the valid document
        p = self.platform()
        self.advisories = [] if p.prf_hz >= p.doppler_bandwidth_hz else [
            f"platform.prf_hz: {p.prf_hz} Hz is below the Doppler bandwidth 2 v / L_a "
            f"= {p.doppler_bandwidth_hz} Hz: azimuth aliasing"]

    # -- resolved views -------------------------------------------------

    @property
    def master_seed(self) -> int:
        return self.doc["seeds"]["master"]

    def platform(self) -> PlatformParams:
        return PlatformParams(**self.doc["platform"])

    def simulation_config(self, master_seed=None) -> SimulationConfig:
        """Every pipeline object of one run; master_seed overrides seeds.master."""
        seed = self.master_seed if master_seed is None else master_seed
        w, p, f = self.doc["waveform"], self.doc["platform"], self.doc.get("foliage")
        targets = tuple(PointTarget(t["cell"], t["azimuth_m"], complex(*t["rcs"]))
                        for t in self.doc["scene"]["targets"])
        foliage = None if f is None else FoliageParams(
            **{k: v for k, v in f.items() if k != "grazing_angle_deg"},
            grazing_angle_rad=(math.asin(p["altitude_m"] / p["reference_range_m"])
                               if f["grazing_angle_deg"] is None
                               else math.radians(f["grazing_angle_deg"])))
        return SimulationConfig(
            waveform_kind=w["kind"],
            ofdm=OfdmSpec(w["n_subcarriers"], w["n_range_cells"], w["bandwidth_hz"],
                          symbol_seed=seed),
            scene=Scene(targets, w["n_range_cells"]),
            platform=self.platform(),
            foliage=foliage,
            snr_db=(self.doc.get("noise") or {}).get("snr_db"),
            master_seed=seed,
        )

    @property
    def processing(self) -> dict:
        return self.doc["processing"]

    def with_overrides(self, waveform_kind=None, foliage_pol=None,
                       master_seed=None) -> "Scenario":
        """A copy with the waveform kind, foliage polarization, or seed swapped.

        foliage_pol may be "off" (drop the foliage section) or a polarization.
        Validation copies the whole document, so only the sections changed
        here are new dicts, and judges master_seed as given; self.doc is never
        written to.
        """
        doc = dict(self.doc)
        if waveform_kind is not None:
            doc["waveform"] = {**doc["waveform"], "kind": waveform_kind}
        if foliage_pol == "off":
            doc.pop("foliage", None)
        elif foliage_pol is not None:  # validation fills in the defaults of a new section
            doc["foliage"] = {**doc.get("foliage", {}), "polarization": foliage_pol}
        if master_seed is not None:
            doc["seeds"] = {**doc["seeds"], "master": master_seed}
        return Scenario(doc)

    def label(self) -> str:
        f = self.doc.get("foliage")
        pol = f["polarization"] if f else "off"
        return f"{self.doc['waveform']['kind']}-foliage_{pol}"


def validate_scenario(doc: dict) -> dict:
    """Validate and normalize a scenario document (returns a copy that shares no
    dict or list with doc, which is only read).

    Two passes: every key of every present section against its SCHEMA table,
    in SCHEMA order, then the relations between the values (_relations). So a
    key error is reported before any relation error.
    """
    if not isinstance(doc, dict):
        raise SchemaError("scenario: must be a JSON object")
    _keys(doc, "scenario", SCHEMA, [s for s in SCHEMA if s not in OPTIONAL_SECTIONS])
    out = {name: _section(doc[name], name, table) for name, table in SCHEMA.items()
           if name not in OPTIONAL_SECTIONS or doc.get(name) is not None}
    _relations(out)
    return out


def _or_inf(f) -> float:
    """f(), or inf where Python's float ** overflows or / divides by zero
    (numpy would only warn, and go on with inf or nan)."""
    try:
        return f()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def run_bytes(doc: dict, threads: int = 1) -> tuple[int, str]:
    """From above, the bytes `threads` seed threads of the valid document doc's runs hold
    at once in any command, and the field of the largest term of one run's largest
    stage. A stage sums its buffers: synthesis and range compression (the compressed
    matrix; per pulse G's column, slow times and keys, and the largest setup temporary:
    the fBm's embedding, a per-pulse stream's keys or gm_vector's targets; 8 line vectors
    and foliage's per-bin arrays; the raw, filter, F, noise and two ufunc blocks), and
    the ends of focusing and metrics (two [pulse, cell] matrices; 32 B a sample of the
    longer profile: its transform, inverted in place, its magnitude and the range
    profile). simulate's raw CSV copy is no stage: it holds the raw matrix, at most
    cli.RAW_CSV_MAX_SAMPLES samples (1 MiB), and its columns one CSV block at a time,
    and the first stage holds more than that matrix. Each thread adds 18 KiB of Python
    objects, the threads share a multi-cell scene's FFT(G, L), and main's fixed buffers
    (1 MiB to hash, one write_csv block) come on top."""
    w, fol, noisy = doc["waveform"], "foliage" in doc, "noise" in doc
    n, m, targets = w["n_subcarriers"], w["n_range_cells"], doc["scene"]["targets"]
    line, pulses = n + 2 * m - 2, PlatformParams(**doc["platform"]).n_pulses()
    redrawn, height = fol and doc["foliage"]["redraw_per_pulse"], block_rows(pulses, line)
    fft_len = n if w["kind"] == "ofdm" else smooth_length(line)
    setup = max(12 * fol, 10 * noisy, 20 * redrawn, 6 * block_rows(len(targets), pulses))
    matrix = 16 * pulses * m
    stages = ({"platform.aperture_s": matrix + 16 * pulses * (3 + setup),
               "waveform.n_subcarriers": 8 * line * (16 + 2 * fol + 3 * (fol - redrawn))
               + 16 * height * ((1 + 2 * fol + noisy) * line + fft_len)
               + 32 * min(height * line, 8192)},
              {"platform.aperture_s": 2 * matrix,
               "processing.upsample": 32 * max(pulses, m) * doc["processing"]["upsample"]})
    worst = max(stages, key=lambda stage: sum(stage.values()))
    shared = 16 * pulses * line * (len({t["cell"] for t in targets}) > 1)
    return threads * (sum(worst.values()) + 18 * 1024) + shared, max(worst, key=worst.get)


def _relations(out):
    """The rules that relate fields, on values derived once (the platform's by PlatformParams),
    in this order: the waveform's, the platform's, each target's (its cell maximum M - 1,
    its closest-approach slant range, which may not fall below the platform altitude, and
    its uniqueness), the smoothing lengths, one run's bytes (run_bytes), and last the bounds
    the pipeline's float arithmetic sets. Those are checked in scalars: what it divides by
    must be nonzero, and what it squares or takes the logarithm of must be finite. A PRF
    below the Doppler bandwidth is no error but an advisory, which Scenario judges after
    these rules."""
    w, p, proc = out["waveform"], out["platform"], out["processing"]
    plat = PlatformParams(**p)
    m, v, rc, prf = w["n_range_cells"], p["velocity_mps"], p["reference_range_m"], p["prf_hz"]
    if w["n_subcarriers"] < m:
        _fail("waveform.n_subcarriers", "must be >= n_range_cells")
    spec = OfdmSpec(w["n_subcarriers"], m, w["bandwidth_hz"])
    line = spec.line_length
    if not _finite(p["aperture_s"] * prf):
        _fail("platform.aperture_s", "aperture_s * prf_hz must be finite")
    n = plat.n_pulses()
    if n < 2:
        _fail("platform.aperture_s", "aperture_s * prf_hz must round to >= 2 pulses")
    if rc < p["altitude_m"]:
        _fail("platform.reference_range_m", "must be >= altitude_m")
    if n * line > MAX_SAMPLES:
        _fail("platform.aperture_s", f"raw matrix of {n} pulses x "
              f"{line} samples is more than the limit of {MAX_SAMPLES} samples")
    grid = RangeGrid(m, w["bandwidth_hz"], rc)
    ranges, seen = [], {}
    for i, t in enumerate(out["scene"]["targets"]):
        path = f"scene.targets[{i}]"
        if t["cell"] > m - 1:
            _fail(f"{path}.cell", f"must be <= {m - 1}")
        ranges.append(float(grid.slant_range_of_cell(t["cell"])))
        if ranges[-1] < p["altitude_m"]:
            _fail(f"{path}.cell", f"closest-approach slant range {ranges[-1]:.6f} m is "
                  f"below platform.altitude_m ({p['altitude_m']} m), past nadir")
        first = seen.setdefault((t["cell"], t["azimuth_m"]), path)
        if first != path:
            _fail(path, f"same cell and azimuth_m as {first}")
    # np.convolve(mode="same") returns max(bins, kernel) values, so a
    # kernel or window longer than what it smooths changes its length
    if "foliage" in out and out["foliage"]["spectral_smoothing_bins"] > line:
        _fail("foliage.spectral_smoothing_bins", f"must be <= {line}, the bins of a range line")
    if proc["smooth_window"] > min(n, m) * proc["upsample"]:
        _fail("processing.smooth_window", f"must be <= {min(n, m) * proc['upsample']}, "
              "the samples of the shorter upsampled profile")
    held, field = run_bytes(out)
    if held > MEMORY_BUDGET:
        _fail(field, f"one run would hold about {held / 2**20:.1f} MiB, over the memory "
              f"budget of {MEMORY_BUDGET / 2**20:.1f} MiB")
    # the float bounds
    if "foliage" in out:  # the channel takes log10 of every raw-line frequency
        low = float(spec.line_frequencies(p["carrier_hz"]).min())
        if low <= 0:
            _fail("platform.carrier_hz", f"the lowest raw-line frequency {low:g} Hz "
                  "(carrier_hz - bandwidth_hz / 2) must be > 0 with foliage")
    if "noise" in out:  # the noise power is the pulse peak / factor, and is squared
        snr_db = out["noise"]["snr_db"]
        factor = _or_inf(lambda: 10.0 ** (snr_db / 10.0))
        if not 0 < factor < math.inf or _or_inf(lambda: (1.0 / factor) ** 2) == math.inf:
            _fail("noise.snr_db", "10 ** (snr_db / 10) must be a finite, nonzero float "
                  "whose inverse has a finite square")
    lam, la = plat.wavelength_m, plat.antenna_length_m
    for field, what, value in (
            ("antenna_length_m", "the Doppler bandwidth 2 v / L_a",
             _or_inf(lambda: plat.doppler_bandwidth_hz)),
            ("velocity_mps", "the azimuth chirp rate 2 v^2 / (lambda R_c)",
             _or_inf(lambda: plat.doppler_rate_hz_per_s))):
        if not 0 < value < math.inf:
            _fail(f"platform.{field}", f"{what} must be a finite, nonzero float")
    if math.pi * (la * math.pi / 2) / lam == math.inf:  # np.sinc multiplies by pi
        _fail("platform.antenna_length_m", "the beam's sinc argument L_a theta / lambda "
              "must be finite up to theta = 90 degrees")
    ends = ((0 - n / 2.0) / prf, (n - 1 - n / 2.0) / prf)  # first and last slow time
    for i, (t, r) in enumerate(zip(out["scene"]["targets"], ranges)):
        if r * r == math.inf:
            _fail("platform.reference_range_m",
                  f"the squared slant range of scene.targets[{i}] must be finite")
        for eta in ends:
            du = v * eta - t["azimuth_m"]
            if r * r + du * du == math.inf:
                _fail(f"scene.targets[{i}].azimuth_m", "the squared slant range "
                      f"r0^2 + (velocity_mps * {eta:g} s - azimuth_m)^2 must be finite")
            if 4 * math.pi / lam * (math.sqrt(r * r + du * du) + rc) == math.inf:
                _fail("platform.carrier_hz", f"the two-way phase 4 pi (R + R_c) / lambda "
                      f"of scene.targets[{i}] must be finite")
    # exp of foliage's fBm path overflows past ln(float max) = 709.78. The path's std at the
    # aperture's end is at most aperture_s ** hurst (tau^2H, tau in s); at <= 2^25 pulses and
    # 2^64 seeds, 2^89 Q(k) samples pass k std, < 1 first at k = 11 (0.12; Q the normal tail).
    if "foliage" in out and 11 * p["aperture_s"] ** out["foliage"]["hurst"] > 709.78:
        _fail("platform.aperture_s", "11 * aperture_s ** foliage.hurst must be <= 709.78, "
              "so that exp of the foliage's fBm path stays finite")


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad bytes, syntax, depth, digits
            raise SchemaError(f"scenario: invalid JSON ({e})") from e
    return Scenario(doc)


def tank_targets(center_cell: int, cell_extent_m: float, n_range_cells: int) -> list[dict]:
    """Point-target arrangement sketching a tank silhouette (side-on).

    Our own construction (the reference arrangement was never published):
    hull outline, turret block and gun barrel, about 30 scatterers of the
    default rcs.
    Spacings keep neighbors separated by at least a resolution cell in
    range and about one azimuth resolution in azimuth. The range step is a
    quarter of the 2 m hull half-length, shortened where the hull (4 steps
    below the center) or the barrel (7 above) would leave the M cells.
    """
    step = min(round(2.0 / 4 / cell_extent_m), (n_range_cells - 1 - center_cell) // 7,
               center_cell // 4)
    hull_cells = [center_cell + k * step for k in range(-4, 5)]
    a = 0.85  # azimuth resolution, m
    pts = [(c, az) for c in hull_cells for az in (-1.5 * a, 1.5 * a)]  # hull top and bottom
    pts += [(c, az) for az in (-0.5 * a, 0.5 * a) for c in (hull_cells[0], hull_cells[-1])]  # ends
    pts += [(c, 0.0) for c in (center_cell - step, center_cell, center_cell + step)]  # turret
    barrel0 = hull_cells[-1] + step
    pts += [(barrel0 + k * step, 0.0) for k in range(3)]  # barrel
    return [{"cell": c, "azimuth_m": az} for c, az in pts]


def _with_tank(doc: dict) -> dict:
    """doc with its scene replaced by the tank fixture, centred in range."""
    w, p = doc["waveform"], doc["platform"]
    m = w["n_range_cells"]
    grid = RangeGrid(m, w["bandwidth_hz"], p["reference_range_m"])
    return {**doc, "scene": {"targets": tank_targets(m // 2, grid.cell_extent_m, m)}}


FULL_PRESET = {
    "waveform": {"kind": "ofdm", "n_subcarriers": 1024, "n_range_cells": 192,
                 "bandwidth_hz": 4.0e9},
    # Antenna length 1.91 m is calibrated so the sinc^2 beam taper reproduces
    # the reference azimuth PSLR (-23.5 dB); see README.
    "platform": {"altitude_m": 5000.0, "velocity_mps": 150.0, "aperture_s": 1.0,
                 "carrier_hz": 9.0e9, "reference_range_m": 5000.0 * math.sqrt(2.0),
                 "antenna_length_m": 1.91, "prf_hz": 256.0},
    "scene": {"targets": [{"cell": 96}]},
    "processing": {},
    "outputs": {},
    "seeds": {"master": 0},
}

SMALL_PRESET = {
    **FULL_PRESET,
    "waveform": {**FULL_PRESET["waveform"], "n_subcarriers": 256, "n_range_cells": 48},
    "platform": {**FULL_PRESET["platform"], "aperture_s": 0.25, "antenna_length_m": 7.64,
                 "prf_hz": 128.0},
    "scene": {"targets": [{"cell": 24}]},
}

PRESETS = {"full": FULL_PRESET, "small": SMALL_PRESET, "tank": _with_tank(FULL_PRESET)}


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise SchemaError(f"preset: unknown preset {name!r}; have {sorted(PRESETS)}")
    return Scenario(PRESETS[name])


def tank_scenario(preset: str = "full") -> Scenario:
    """Preset scenario with the extended-target tank fixture."""
    return Scenario(_with_tank(PRESETS[preset]))


# -- end-to-end helpers shared by the CLI and the test suite -------------

def run_pipeline(scen: Scenario, master_seed=None, threads: int = 1) -> FocusedImage:
    """Simulate and focus one scenario through its whole raw matrix, the reference
    every stream matches bit for bit; threads is unused (a run uses one thread)."""
    return focus_scenario(scen, scen.simulation_config(master_seed))


def focus_scenario(scen: Scenario, cfg: SimulationConfig, raw=None) -> FocusedImage:
    """Focus raw, cfg's raw data: a raw matrix, a stream (cfg, synthesized block by
    block, or the command line's FSAR reader), or None for the whole matrix, which
    goes straight into focus: focus frees it once it is range-compressed, and a
    local here would keep it alive through the azimuth stages. The echoes are
    compressed against the OFDM symbols or the transmitted noise pulse, and the
    azimuth window is the scenario's."""
    return focus(synthesize_raw(cfg) if raw is None else raw, cfg.ofdm, cfg.platform,
                 generate_bpsk_symbols(cfg.ofdm.symbol_seed, cfg.ofdm.n_subcarriers)
                 if cfg.waveform_kind == "ofdm" else transmitted_pulse(cfg),
                 scen.processing["azimuth_window"])


def run_metrics(scen: Scenario, seeds: list[int], threads: int = 1) -> list[dict]:
    """Per-seed metric dicts for a scenario over a seed list, in seed order.

    Seeds are independent runs, spread over n = max(1, min(threads, len(seeds)))
    threads: the calling thread and n - 1 workers. Thread k runs seeds k, k + n,
    k + 2n, ... in order and stops at its own first error. No seed thread holds
    a raw matrix: a seed's config is range-compressed as it is synthesized
    (run_bytes counts what a thread holds), to run_pipeline's metrics bit for bit. Each
    result depends only on its seed, so the list is bit-identical for any thread
    count.
    The first error in seed order is raised, a NoPeakError naming the seed and
    scenario label: the thread that owns its seed ran every earlier seed of its
    stride without error, so it reached it.
    """
    results = [None] * len(seeds)
    n = max(1, min(threads, len(seeds)))

    def stride(k):
        for i in range(k, len(seeds), n):
            try:  # no local holds the image into the next seed's synthesis
                cfg = scen.simulation_config(seeds[i])
                results[i] = image_metrics(focus_scenario(scen, cfg, cfg).pixels,
                                           scen.processing["upsample"],
                                           scen.processing["smooth_window"])
            except BaseException as exc:  # re-raised below, in seed order
                results[i] = exc
                return

    workers = [threading.Thread(target=stride, args=(k,)) for k in range(1, n)]
    for w in workers:
        w.start()
    stride(0)
    for w in workers:
        w.join()
    for seed, r in zip(seeds, results):
        if isinstance(r, NoPeakError):
            raise NoPeakError(f"seed {seed}, {scen.label()}: {r}") from r
        if isinstance(r, BaseException):
            raise r
    return results
