"""Correctness checks. None of them runs inside a timed region.

Outcome of one pipeline run: the metrics dict, or None for a NoPeakError.
"""

import json
import math
from pathlib import Path

import numpy as np

from fopen_sar.echo import synthesize_raw
from fopen_sar.geometry import gm_vector, make_grid
from fopen_sar.imaging import range_compress_ofdm
from fopen_sar.scenario import Scenario
from fopen_sar.waveform import generate_bpsk_symbols

CP_GATE = 1e-9  # relative, as in acceptance criterion 1
REFERENCE_TOL_DB = 1e-6  # per-seed metric against the recorded reference
REFERENCE_PATH = Path(__file__).with_name("reference.json")
METRIC_KEYS = ("islr_range_db", "pslr_range_db", "islr_azimuth_db", "pslr_azimuth_db")


class Ledger:
    """Operations attempted, with the reasons any of them failed."""

    def __init__(self):
        self.ops = {}  # key -> list of failure reasons
        self.checks = []  # (name, ok, detail)

    def attempt(self, key):
        self.ops.setdefault(key, [])

    def fail(self, key, reason):
        self.ops.setdefault(key, []).append(reason)

    def check(self, name, ok, detail, keys=()):
        """Record a check; when it fails, every op in keys fails with it."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            for key in keys:
                self.fail(key, name)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.ops.values() if reasons)

    @property
    def correct(self) -> bool:
        """False when any check failed; a NoPeakError is a failed op, not a wrong one."""
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [[*key, reasons] for key, reasons in self.ops.items() if reasons]


def finite(m: dict) -> bool:
    return all(math.isfinite(m[k]) for k in METRIC_KEYS)


def cp_error(scen: Scenario, seed: int) -> float:
    """Max |g_hat - sqrt(N) g| / max |g| over every pulse of a noise-free OFDM run."""
    doc = scen.with_overrides(waveform_kind="ofdm", foliage_pol="off").doc
    doc.pop("noise", None)
    cfg = Scenario(doc).simulation_config(seed)
    raw = synthesize_raw(cfg)
    n = cfg.ofdm.n_subcarriers
    ghat = range_compress_ofdm(raw, cfg.ofdm, generate_bpsk_symbols(cfg.ofdm.symbol_seed, n)).data
    grid = make_grid(cfg.scene.n_range_cells, cfg.ofdm.bandwidth_hz, cfg.platform)
    g = np.array([gm_vector(cfg.scene, grid, cfg.platform, eta) for eta in raw.slow_time_s])
    return float(np.max(np.abs(ghat - np.sqrt(n) * g)) / np.max(np.abs(g)))


def expected_peak(scen: Scenario):
    """(pulse, cell) of the single target's focused peak, or None for a multi-target scene."""
    targets = scen.doc["scene"]["targets"]
    if len(targets) != 1 or targets[0]["azimuth_m"] != 0.0:
        return None
    return scen.platform().n_pulses() // 2, targets[0]["cell"]


def peak_ok(pixels, expect) -> tuple[bool, tuple]:
    pk = tuple(int(v) for v in np.unravel_index(int(np.argmax(np.abs(pixels))), pixels.shape))
    return abs(pk[0] - expect[0]) <= 1 and abs(pk[1] - expect[1]) <= 1, pk


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_mismatch(got, want) -> str | None:
    """None when an outcome matches its reference, else a short description."""
    if got is None or want is None:
        return None if got is None and want is None else f"outcome {got} != reference {want}"
    worst = max(abs(got[k] - want[k]) for k in METRIC_KEYS)
    return None if worst <= REFERENCE_TOL_DB else f"off by {worst:.3g} dB"
