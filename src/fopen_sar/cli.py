"""Command-line driver: simulate, image, metrics, compare.

Each command resolves a scenario (from --scenario PATH or --preset NAME,
optionally overridden by --waveform / --foliage / --seed), runs its stage,
writes artifacts under --out, and records a manifest with the resolved
configuration, seeds, output hashes and timings.

Exit codes: 0 success, 2 scenario/schema violation, 3 I/O failure or a
malformed FSAR/FIMG file (non-finite samples count as malformed), 4
input-file/scenario mismatch, 5 no peak in the image.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .echo import RawDataMatrix, foliage_channel, synthesize_raw
from .fileio import (FormatError, dump_realizations_csv, read_fimg, read_fsar, write_csv,
                     write_fimg, write_fsar, write_json, write_pgm, write_png, write_raw_csv)
from .metrics import (METRIC_KEYS, NoPeakError, aggregate_reports,
                      extract_profiles, image_metrics)
from .scenario import (PRESETS, SCHEMA, SchemaError, Scenario, focus_scenario,
                       load_scenario, preset_scenario, run_metrics)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_NO_PEAK = 5

# CSV threshold below which simulate also writes a plain-text copy.
_CSV_MAX_SAMPLES = 1 << 16
# Most seeds one metrics or compare run takes; its manifest lists every seed.
_MAX_SEEDS = 1 << 20


class MismatchError(ValueError):
    """An input FSAR/FIMG file and the scenario disagree on its shape."""


# main's exit code and stderr message prefix for each error a command may raise.
_ERRORS = {SchemaError: (EXIT_SCHEMA, ""), MismatchError: (EXIT_MISMATCH, ""),
           NoPeakError: (EXIT_NO_PEAK, "no peak: "),
           FormatError: (EXIT_IO, "malformed file: "), OSError: (EXIT_IO, "i/o: ")}


def _resolve_scenario(args) -> Scenario:
    if bool(args.scenario) == bool(args.preset):
        raise SchemaError("scenario: give exactly one of --scenario or --preset")
    scen = load_scenario(args.scenario) if args.scenario else preset_scenario(args.preset)
    return scen.with_overrides(args.waveform, args.foliage, args.seed)


def _compare_variants(args) -> list[Scenario]:
    """compare's scenarios: each --scenario, or the --preset waveform x foliage grid."""
    if args.scenario_multi:
        for flag in ("preset", "waveform", "foliage"):
            if getattr(args, flag):
                raise SchemaError(f"compare: --{flag} applies to --preset only")
        variants = [load_scenario(path).with_overrides(master_seed=args.seed)
                    for path in args.scenario_multi]
    else:
        if not args.preset:
            raise SchemaError("compare: give --preset or two or more --scenario")
        base = preset_scenario(args.preset)
        kinds = [args.waveform] if args.waveform else SCHEMA["waveform"]["kind"][0]
        pols = [args.foliage] if args.foliage else ["off", "HH"]
        variants = [base.with_overrides(kind, pol, args.seed)
                    for kind in kinds for pol in pols]
    if len(variants) < 2:
        raise SchemaError("compare: need at least 2 scenario variants")
    return variants


def _read_matching(read, path, shape):
    """The matrix read(path) gives, which must have the scenario's shape and be finite."""
    data = read(path)
    if data.shape != shape:
        raise MismatchError(f"{path} has shape {data.shape}, scenario expects {shape}")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: holds non-finite samples (NaN or infinity)")
    return data


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_profiles_csv(stem, pixels, upsample, smooth):
    rng_p, az_p = extract_profiles(pixels, upsample, smooth)
    paths = []
    for name, axis, prof in (("range", "axis_cells", rng_p), ("azimuth", "axis_pulses", az_p)):
        path = f"{stem}_{name}_profile.csv"
        v = prof.values
        db = 10 * np.log10(v / v.max(), out=np.full(v.shape, -np.inf), where=v > 0)
        write_csv(path, [axis, "power", "power_db"], [np.arange(len(v)) / upsample, v, db])
        paths.append(path)
    return paths


def _report(scen, per_seed) -> dict:
    """Per-seed metrics aggregated under the scenario's waveform and foliage."""
    fol = scen.doc.get("foliage")
    return aggregate_reports(per_seed, scen.doc["waveform"]["kind"],
                             fol["polarization"] if fol else None)


def _seed_list(scen, args) -> list[int]:
    """The --seeds consecutive seeds from seeds.master, each within its schema bound."""
    if args.seeds > _MAX_SEEDS:
        raise SchemaError(f"--seeds {args.seeds} is above the limit {_MAX_SEEDS}")
    last, maximum = scen.master_seed + args.seeds - 1, SCHEMA["seeds"]["master"][3]
    if last > maximum:
        raise SchemaError(f"seeds.master: --seeds {args.seeds} from {scen.master_seed} "
                          f"runs to {last}, past the maximum {maximum}")
    return list(range(scen.master_seed, last + 1))


# Each command runs its stage on the scenarios main resolved, writes its files
# (named from stem, "<out>/<label>-seed<N>" of the first scenario) and returns
# (seeds, files, stdout summary); main does everything around it.

def cmd_simulate(args, scens, stem):
    scen = scens[0]
    cfg = scen.simulation_config()
    raw = synthesize_raw(cfg)
    files = [f"{stem}_raw.fsar"]
    write_fsar(files[-1], raw.data)
    if raw.data.size <= _CSV_MAX_SAMPLES:
        files.append(f"{stem}_raw.csv")
        write_raw_csv(files[-1], raw.data)
    summary = "wrote {} ({} pulses x {} samples)".format(files[0], *raw.data.shape)
    del raw  # freed before the foliage CSV, which streams F a block at a time
    if scen.outputs["dump_foliage_csv"] and cfg.foliage is not None:
        files.append(f"{stem}_foliage.csv")
        dump_realizations_csv(files[-1], foliage_channel(cfg).blocks())
    return [scen.master_seed], files, summary


def cmd_image(args, scens, stem):
    scen = scens[0]
    cfg = scen.simulation_config()
    if args.raw:
        shape = (cfg.platform.n_pulses(), cfg.ofdm.line_length)
        # finite samples near the float64 limit can overflow in the FFTs
        with np.errstate(over="ignore", invalid="ignore"):
            img = focus_scenario(scen, cfg, lambda: RawDataMatrix(
                _read_matching(read_fsar, args.raw, shape), cfg.platform.slow_time_axis(),
                cfg.waveform_kind))
        if not np.isfinite(img.pixels).all():
            raise FormatError(f"{args.raw}: focuses to a non-finite image "
                              "(samples too large)")
    else:
        img = focus_scenario(scen, cfg, lambda: synthesize_raw(cfg))
    files = [f"{stem}_image.fimg"]
    write_fimg(files[-1], img.pixels)
    floor = scen.outputs["db_floor"]
    if scen.outputs["write_pgm"]:
        files.append(f"{stem}_image.pgm")
        write_pgm(files[-1], img.pixels, floor)
    if scen.outputs["write_png"]:
        files.append(f"{stem}_image.png")
        write_png(files[-1], img.pixels, floor)
    if scen.outputs["write_csv_profiles"]:
        files += _write_profiles_csv(stem, img.pixels, scen.processing["upsample"],
                                     scen.processing["smooth_window"])
    summary = "wrote {} ({} x {})".format(files[0], *img.pixels.shape)
    return [scen.master_seed], files, summary


def cmd_metrics(args, scens, stem):
    scen = scens[0]
    if args.image:
        pixels = _read_matching(read_fimg, args.image, (
            scen.platform().n_pulses(), scen.doc["waveform"]["n_range_cells"]))
        per_seed = [image_metrics(pixels, scen.processing["upsample"],
                                  scen.processing["smooth_window"])]
        seeds = [scen.master_seed]
    else:
        seeds = _seed_list(scen, args)
        per_seed = run_metrics(scen, seeds, threads=args.threads)
    report = _report(scen, per_seed)
    path = f"{stem}_metrics.json"
    write_json(path, report)
    return seeds, [path], json.dumps(report, indent=2, sort_keys=True)


def cmd_compare(args, scens, stem):
    seed_lists = [_seed_list(scen, args) for scen in scens]  # every range checked first
    entries = []
    for scen, seeds in zip(scens, seed_lists):
        per_seed = run_metrics(scen, seeds, threads=args.threads)
        entries.append({"label": scen.label(), "seeds": seeds,
                        "metrics": _report(scen, per_seed)})
    diffs = [{"pair": [a["label"], b["label"]],
              **{f"delta_{k}": (a["metrics"][k] - b["metrics"][k]
                                if isinstance(a["metrics"][k], float)
                                and isinstance(b["metrics"][k], float) else None)
                 for k in METRIC_KEYS}}
             for a, b in itertools.combinations(entries, 2)]
    path = os.path.join(args.out, "compare.json")
    write_json(path, {"variants": entries, "differences": diffs})
    seeds = sorted({s for e in entries for s in e["seeds"]})
    return seeds, [path], json.dumps(diffs, indent=2, sort_keys=True)


def _positive_int(text) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fopen-sar",
        description="UWB stripmap SAR foliage-penetration simulator "
                    "(CP-OFDM vs random-noise waveforms)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_multi=False, seeds=False):
        if scenario_multi:
            p.add_argument("--scenario", action="append", dest="scenario_multi",
                           metavar="PATH", help="scenario JSON (repeatable)")
        else:
            p.add_argument("--scenario", metavar="PATH", help="scenario JSON")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in scenario preset")
        p.add_argument("--waveform", choices=SCHEMA["waveform"]["kind"][0],
                       help="override the scenario waveform kind")
        p.add_argument("--foliage",
                       choices=("off",) + SCHEMA["foliage"]["polarization"][0],
                       help="override the scenario foliage section")
        p.add_argument("--seed", type=int, help="override seeds.master")
        if seeds:
            p.add_argument("--seeds", type=_positive_int, default=1,
                           help="number of consecutive seeds, from seeds.master")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="threads over independent seeds, the main thread included")

    p = sub.add_parser("simulate", help="synthesize the raw data matrix")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("image", help="form the focused image")
    common(p)
    p.add_argument("--raw", metavar="PATH", help="existing FSAR file "
                   "(default: simulate in-process)")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("metrics", help="compute ISLR/PSLR metrics")
    common(p, seeds=True)
    p.add_argument("--image", metavar="PATH", help="existing FIMG file "
                   "(default: run the pipeline)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="run scenario variants and diff metrics")
    common(p, scenario_multi=True, seeds=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    """Run one command in the frame all four share; map errors to exit codes.

    Scenarios are resolved before --out is touched, and the command's old
    manifest is removed before its stage runs, so a failed run leaves none.
    Each distinct advisory goes to stderr once, and into the manifest's "warnings".
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            scens = _compare_variants(args)
        else:
            scens = [_resolve_scenario(args)]
        if getattr(args, "image", None) and args.seeds != 1:
            raise SchemaError("metrics: --seeds must be 1 with --image")
        os.makedirs(args.out, exist_ok=True)
        manifest_path = os.path.join(args.out, f"{args.command}_manifest.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest_path)
        stem = os.path.join(args.out, f"{scens[0].label()}-seed{scens[0].master_seed}")
        advisories = list(dict.fromkeys(a for s in scens for a in s.advisories))
        for line in advisories:
            print(f"warning: {line}", file=sys.stderr)
        t0 = time.perf_counter()
        seeds, files, summary = args.func(args, scens, stem)
        seconds = time.perf_counter() - t0
        write_json(manifest_path, {
            "tool": "fopen-sar",
            "version": __version__,
            "command": args.command,
            "scenarios": [s.doc for s in scens],
            "seeds": seeds,
            "threads": args.threads,
            "outputs": [{"path": os.path.basename(p), "sha256": _sha256(p),
                         "bytes": os.path.getsize(p)} for p in files],
            "timings_s": {args.command: seconds},
            **({"warnings": advisories} if advisories else {}),
        })
        print(summary)
        return EXIT_OK
    except tuple(_ERRORS) as e:
        code, prefix = next(v for t, v in _ERRORS.items() if isinstance(e, t))
        print(f"error: {prefix}{e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
