"""Fingerprint every run of a fixed sweep, one line per run.

Each line names the run and gives the sha256 of its raw matrix bytes, the
sha256 of its focused image bytes and the repr of its four metrics, or
NoPeakError when the image has no peak. Two checkouts that print the same
lines produce the same bits on every run; diffing their outputs is the check:

    PYTHONPATH=src python tools/bit_identity.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/bit_identity.py > before.txt
    diff before.txt after.txt

The sweep is the small preset at seeds 0-59, the full preset at seeds 0-5
and the full tank scene at seeds 0-11 with 30 dB receiver noise and foliage
redrawn per pulse, each over {ofdm, noise} x {off, HH, VV}: 468 runs. It
needs numpy and the fopen_sar package only.
"""

import hashlib

from fopen_sar.echo import synthesize_raw
from fopen_sar.metrics import METRIC_KEYS, NoPeakError, image_metrics
from fopen_sar.scenario import Scenario, focus_config, preset_scenario, tank_scenario

SEEDS = {"small": range(60), "full": range(6), "tank": range(12)}
TANK_SNR_DB = 30.0


def runs():
    """(set name, scenario, seed) of every run, in output order."""
    for name, seeds in SEEDS.items():
        base = tank_scenario("full") if name == "tank" else preset_scenario(name)
        for kind in ("ofdm", "noise"):
            for pol in ("off", "HH", "VV"):
                doc = base.with_overrides(kind, pol).doc
                if name == "tank":
                    doc["noise"] = {"snr_db": TANK_SNR_DB}
                    if pol != "off":
                        doc["foliage"]["redraw_per_pulse"] = True
                scen = Scenario(doc)
                for seed in seeds:
                    yield name, scen, seed


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def lines(run_list):
    """One fingerprint line per (set name, scenario, seed) run."""
    for name, scen, seed in run_list:
        cfg = scen.simulation_config(seed)
        raw = synthesize_raw(cfg)
        img = focus_config(scen, cfg, raw)
        try:
            m = image_metrics(img.pixels, scen.processing["upsample"],
                              scen.processing["smooth_window"])
            metrics = " ".join(f"{k}={float(m[k])!r}" for k in METRIC_KEYS)
        except NoPeakError:
            metrics = "NoPeakError"
        yield (f"{name} {scen.label()} seed={seed} raw={_sha256(raw.data)} "
               f"image={_sha256(img.pixels)} {metrics}")


if __name__ == "__main__":
    for line in lines(runs()):
        print(line, flush=True)
