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
redrawn per pulse, each over {ofdm, noise} x {off, HH, VV}: 468 runs. A
"branches" set then runs the small preset with the settings no preset uses
(the Hann azimuth window, HH foliage smoothed over 4 bins and an antenna
length derived from the aperture) over {ofdm, noise} at seeds 0-19: 40 runs.

The file mode fingerprints the files the command line writes instead:

    PYTHONPATH=src python tools/bit_identity.py files > after_files.txt

It runs FILE_COMMANDS in a temporary directory and prints one line per
command with its exit code, then one "<command>/<file> <sha256>" line per
file the command wrote, manifests hashed without their timings_s. The
commands simulate, image and take metrics of both presets, run multi-seed
metrics and compare commands on more than one thread, and image a scene
with zero RCS, which exits 5 and must write no file. Last, they image the
small preset and then the zero scene into one directory: the second command
exits 5 and must leave the first one's files whole, manifest included. Both modes
need numpy and the fopen_sar package only; to fingerprint another checkout,
run this file with that checkout's src first on PYTHONPATH.

Either mode first prints a header line: numpy's version and the dispatch target
of each float64 and complex128 kernel the pipeline calls, as each manifest's
"numpy" entry records them. Files and hashes are byte-identical for one such
header; two hosts whose headers differ may differ in the last ulp with no
defect behind it, and then only the metrics compare, within 1e-9 dB.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from fopen_sar.cli import main, numpy_build
from fopen_sar.echo import synthesize_raw
from fopen_sar.metrics import METRIC_KEYS, NoPeakError, image_metrics
from fopen_sar.scenario import Scenario, focus_scenario, preset_scenario, tank_scenario

SEEDS = {"small": range(60), "full": range(6), "tank": range(12), "branches": range(20)}
TANK_SNR_DB = 30.0


def runs():
    """(set name, scenario, seed) of every run, in output order."""
    for name, seeds in SEEDS.items():
        base = (tank_scenario("full") if name == "tank"
                else preset_scenario("small" if name == "branches" else name))
        for kind in ("ofdm", "noise"):
            for pol in ("HH",) if name == "branches" else ("off", "HH", "VV"):
                doc = base.with_overrides(kind, pol).doc
                if name == "tank":
                    doc["noise"] = {"snr_db": TANK_SNR_DB}
                    if pol != "off":
                        doc["foliage"]["redraw_per_pulse"] = True
                if name == "branches":
                    doc["processing"]["azimuth_window"] = "hann"
                    doc["foliage"]["spectral_smoothing_bins"] = 4
                    doc["platform"]["antenna_length_m"] = None
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
        img = focus_scenario(scen, cfg, lambda: raw)
        try:
            m = image_metrics(img.pixels, scen.processing["upsample"],
                              scen.processing["smooth_window"])
            metrics = " ".join(f"{k}={float(m[k])!r}" for k in METRIC_KEYS)
        except NoPeakError:
            metrics = "NoPeakError"
        yield (f"{name} {scen.label()} seed={seed} raw={_sha256(raw.data)} "
               f"image={_sha256(img.pixels)} {metrics}")


# (name, arguments) of each command, run in order with --out <dir>/<name>;
# "{dir}" is the temporary directory. The foliage scenario is the small preset
# with HH foliage and its foliage CSV switched on; the blocks scenario adds
# foliage redrawn per pulse, 30 dB receiver noise and an aperture of 80
# pulses, so F, the raw matrix and both CSVs span several blocks, the last
# one partial. The two "-seeds" commands run several seeds on several threads,
# so the seed loop's reports are fingerprinted too. The zero scenario is the
# small preset with zero RCS and default outputs: its image has no peak for the
# profiles, so the command exits 5, and any file it wrote would be listed. The
# two "image-rerun" commands share their --out: the failing rerun must leave the
# first run's listing, manifest included, line for line.
FILE_COMMANDS = (
    ("simulate-small", ["simulate", "--preset", "small"]),
    ("simulate-foliage", ["simulate", "--scenario", "{dir}/foliage.json"]),
    ("simulate-full", ["simulate", "--preset", "full"]),
    ("image-full", ["image", "--preset", "full", "--raw",
                    "{dir}/simulate-full/ofdm-foliage_off-seed0_raw.fsar"]),
    ("metrics-full", ["metrics", "--preset", "full", "--image",
                      "{dir}/image-full/ofdm-foliage_off-seed0_image.fimg"]),
    ("compare-small", ["compare", "--preset", "small"]),
    ("simulate-foliage-blocks", ["simulate", "--scenario", "{dir}/foliage_blocks.json"]),
    ("metrics-seeds", ["metrics", "--preset", "small", "--foliage", "HH", "--seeds", "6",
                       "--threads", "3"]),
    ("compare-seeds", ["compare", "--preset", "small", "--seeds", "3", "--threads", "2"]),
    ("image-zero", ["image", "--scenario", "{dir}/zero.json"]),
    ("image-rerun", ["image", "--preset", "small"]),
    ("image-rerun", ["image", "--scenario", "{dir}/zero.json"]),
)


def file_lines(tmp):
    """Run FILE_COMMANDS in the directory tmp; yield each command's exit code
    line, then a name and sha256 line for each file it wrote, by file name."""
    doc = preset_scenario("small").doc
    doc["scene"]["targets"][0]["rcs"] = [0.0, 0.0]
    with open(os.path.join(tmp, "zero.json"), "w") as fh:
        json.dump(doc, fh)
    doc = preset_scenario("small").with_overrides(foliage_pol="HH").doc
    doc["outputs"]["dump_foliage_csv"] = True
    with open(os.path.join(tmp, "foliage.json"), "w") as fh:
        json.dump(doc, fh)
    doc["foliage"]["redraw_per_pulse"] = True
    doc["noise"] = {"snr_db": 30.0}
    doc["platform"]["aperture_s"] = 80 / doc["platform"]["prf_hz"]
    with open(os.path.join(tmp, "foliage_blocks.json"), "w") as fh:
        json.dump(doc, fh)
    for name, argv in FILE_COMMANDS:
        out = os.path.join(tmp, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(dir=tmp) for a in argv] + ["--out", out])
        yield f"{name} exit={code}"
        for file in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            with open(os.path.join(out, file), "rb") as fh:
                blob = fh.read()
            if file.endswith("_manifest.json"):
                manifest = json.loads(blob)
                del manifest["timings_s"]
                blob = json.dumps(manifest, indent=2, sort_keys=True).encode()
            yield f"{name}/{file} {hashlib.sha256(blob).hexdigest()}"


def header() -> str:
    """The first line of either mode: numpy's version and each kernel's dispatch target,
    the manifest's "numpy" entry."""
    build = numpy_build()
    return " ".join([f"numpy {build['version']}"]
                    + [f"{k}={v}" for k, v in sorted(build["dispatch"].items())])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fingerprint a fixed sweep of runs, "
                                     "or the files the command line writes.")
    parser.add_argument("mode", nargs="?", choices=("runs", "files"), default="runs")
    mode = parser.parse_args().mode
    print(header(), flush=True)
    if mode == "runs":
        for line in lines(runs()):
            print(line, flush=True)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for line in file_lines(tmp):
                print(line, flush=True)
