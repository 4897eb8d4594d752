"""Command-line driver: simulate, image, metrics, compare.

Each command resolves a scenario (from --scenario PATH or --preset NAME,
optionally overridden by --waveform / --foliage / --seed), runs its stage,
writes artifacts under --out, and records a manifest with the resolved
configuration, seeds, output hashes and timings.

Exit codes: 0 success, 2 scenario/schema violation, 3 I/O failure, a
malformed FSAR/FIMG file (non-finite samples count as malformed) or out of
memory, 4 input-file/scenario mismatch, 5 no peak in the image.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import __version__
from .echo import foliage_channel, synthesize_raw
from .fileio import (FIMG_MAGIC, FSAR_MAGIC, FormatError, container_shape,
                     dump_realizations_csv, read_fimg, read_fsar, write_csv, write_fimg,
                     write_fsar, write_json, write_pgm, write_png, write_raw_csv)
from .foliage import block_rows
from .metrics import (METRIC_KEYS, NoPeakError, aggregate_reports,
                      extract_profiles, image_metrics, paired_differences)
from .scenario import (MEMORY_BUDGET, PRESETS, SCHEMA, SchemaError, Scenario, focus_scenario,
                       load_scenario, preset_scenario, run_bytes, run_metrics)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_NO_PEAK = 5

# Most seeds one metrics or compare run takes; its manifest lists every seed.
_MAX_SEEDS = 1 << 20
# Most --threads a command takes: a constant, so a command exits alike on every host.
_MAX_THREADS = 64
# The most samples of a raw matrix that simulate also writes as CSV.
RAW_CSV_MAX_SAMPLES = 1 << 16


class MismatchError(ValueError):
    """An input FSAR/FIMG file and the scenario disagree on its shape."""


# main's exit code and stderr message prefix for each error a command may raise.
_ERRORS = {SchemaError: (EXIT_SCHEMA, ""), MismatchError: (EXIT_MISMATCH, ""),
           NoPeakError: (EXIT_NO_PEAK, "no peak: "), OSError: (EXIT_IO, "i/o: "),
           FormatError: (EXIT_IO, "malformed file: "), MemoryError: (EXIT_IO, "out of memory: ")}


def _resolve_scenario(args) -> Scenario:
    if len(args.scenario or ()) + bool(args.preset) != 1:
        raise SchemaError("scenario: give exactly one of --scenario or --preset")
    scen = load_scenario(args.scenario[0]) if args.scenario else preset_scenario(args.preset)
    return scen.with_overrides(args.waveform, args.foliage, args.seed)


def _compare_variants(args) -> list[Scenario]:
    """compare's scenarios: each --scenario, or the --preset waveform x foliage grid."""
    if args.scenario:
        for flag in ("preset", "waveform", "foliage"):
            if getattr(args, flag):
                raise SchemaError(f"compare: --{flag} applies to --preset only")
        variants = [load_scenario(path).with_overrides(master_seed=args.seed)
                    for path in args.scenario]
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


def _check_shape(path, magic, shape) -> None:
    """Check path's header and payload size (FormatError), then that it holds the
    scenario's shape (MismatchError), and read no sample."""
    got = container_shape(path, magic)
    if got != shape:
        raise MismatchError(f"{path} has shape {got}, scenario expects {shape}")


def _finite(path, data: np.ndarray) -> np.ndarray:
    """data, read from path, once every sample is finite."""
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: holds non-finite samples (NaN or infinity)")
    return data


@dataclass(frozen=True)
class _FsarStream:
    """An FSAR file's raw matrix, never held whole: focus takes it as it takes a config,
    and blocks() reads it block_rows(*shape) pulses at a time, each checked finite."""

    path: str
    shape: tuple[int, int]
    waveform_kind: str

    def blocks(self):
        height = block_rows(*self.shape)
        for start in range(0, self.shape[0], height):
            rows = read_fsar(self.path, slice(start, start + height))
            yield start, _finite(self.path, rows)


def _sha256(path) -> str:
    h, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):  # one reused buffer, not a new bytes per read
            h.update(view[:n])
    return h.hexdigest()


def numpy_build() -> dict:
    """numpy's version and the dispatch target, by "<ufunc>.<type chars>", of each float64
    or complex128 kernel the pipeline calls: the scope in which files are byte-identical."""
    info = opt_func_info("^(tan|sin|cos|exp|log10|arctan2|absolute|power|multiply)$",
                         "^(float64|complex128)")
    return {"version": np.__version__, "dispatch": {
        f"{f}.{sig}": v["current"] for f, sigs in info.items() for sig, v in sigs.items()}}


def _write_profiles_csv(path, axis, profile):
    v = profile.values
    db = 10 * np.log10(v / v.max(), out=np.full(v.shape, -np.inf), where=v > 0)
    write_csv(path, [axis, "power", "power_db"], [[np.arange(len(v)) / profile.upsample, v, db]])


def _report(scen, per_seed) -> dict:
    """Per-seed metrics aggregated under the scenario's waveform and foliage."""
    fol = scen.doc.get("foliage")
    return aggregate_reports(per_seed, scen.doc["waveform"]["kind"],
                             fol["polarization"] if fol else None)


def _per_seed_csv(stem, seeds, per_seed) -> tuple:
    """The write of <stem>_per_seed.csv: a seed column, then one per METRIC_KEYS."""
    return (f"{stem}_per_seed.csv", write_csv, ["seed", *METRIC_KEYS],
            [[seeds, *(np.array([m[k] for m in per_seed]) for k in METRIC_KEYS)]])


def _seed_list(scen, args) -> list[int]:
    """The --seeds consecutive seeds from seeds.master, each within its schema bound."""
    if args.seeds > _MAX_SEEDS:
        raise SchemaError(f"--seeds {args.seeds} is above the limit {_MAX_SEEDS}")
    last, maximum = scen.master_seed + args.seeds - 1, SCHEMA["seeds"]["master"][3]
    if last > maximum:
        raise SchemaError(f"seeds.master: --seeds {args.seeds} from {scen.master_seed} "
                          f"runs to {last}, past the maximum {maximum}")
    return list(range(scen.master_seed, last + 1))


# Each command runs its stage on the scenarios and seed lists main judged, writes
# nothing, and returns (writes, stdout summary): the (path, writer, *data) entries main
# makes in order, each path named from stem ("<out>/<label>-seed<N>", first scenario).

def cmd_simulate(args, scens, seed_lists, stem):
    scen = scens[0]
    cfg = scen.simulation_config()
    csv = cfg.shape[0] * cfg.shape[1] <= RAW_CSV_MAX_SAMPLES
    # one whole matrix feeds both files; else cfg synthesizes each block as the FSAR is written
    raw = synthesize_raw(cfg) if csv else cfg
    writes = [(f"{stem}_raw.fsar", write_fsar, raw)]
    if csv:
        writes.append((f"{stem}_raw.csv", write_raw_csv, raw.data))
    # main drops the raw matrix before this CSV streams F a block at a time
    if scen.doc["outputs"]["dump_foliage_csv"] and cfg.foliage is not None:
        writes.append((f"{stem}_foliage.csv", dump_realizations_csv,
                       foliage_channel(cfg).blocks()))
    return writes, "wrote {} ({} pulses x {} samples)".format(writes[0][0], *cfg.shape)


def cmd_image(args, scens, seed_lists, stem):
    scen = scens[0]
    cfg = scen.simulation_config()
    source, raw = "simulated raw data", cfg
    if args.raw:
        _check_shape(args.raw, FSAR_MAGIC, cfg.shape)
        source, raw = args.raw, _FsarStream(args.raw, cfg.shape, cfg.waveform_kind)
    # finite samples near the float64 limit can overflow in the FFTs
    with np.errstate(over="ignore", invalid="ignore"):
        img = focus_scenario(scen, cfg, raw)
    if not np.isfinite(img.pixels).all():
        raise FormatError(f"{source}: focuses to a non-finite image (samples too large)")
    outputs, upsample, pixels = scen.doc["outputs"], scen.processing["upsample"], img.pixels
    writes = [(f"{stem}_image.fimg", write_fimg, pixels)]
    if outputs["write_pgm"]:
        writes.append((f"{stem}_image.pgm", write_pgm, pixels, outputs["db_floor"]))
    if outputs["write_png"]:
        writes.append((f"{stem}_image.png", write_png, pixels, outputs["db_floor"]))
    if outputs["write_csv_profiles"]:
        profiles = extract_profiles(pixels, upsample, scen.processing["smooth_window"])
        writes += [(f"{stem}_{name}_profile.csv", _write_profiles_csv, axis, prof)
                   for name, axis, prof in zip(("range", "azimuth"),
                                               ("axis_cells", "axis_pulses"), profiles)]
    return writes, "wrote {} ({} x {})".format(writes[0][0], *pixels.shape)


def cmd_metrics(args, scens, seed_lists, stem):
    scen = scens[0]
    if args.image:
        _check_shape(args.image, FIMG_MAGIC, (scen.platform().n_pulses(),
                                              scen.doc["waveform"]["n_range_cells"]))
        pixels = _finite(args.image, read_fimg(args.image))
        per_seed = [image_metrics(pixels, scen.processing["upsample"],
                                  scen.processing["smooth_window"])]
    else:
        per_seed = run_metrics(scen, seed_lists[0], threads=args.threads)
    report = _report(scen, per_seed)
    return ([(f"{stem}_metrics.json", write_json, report),
             _per_seed_csv(stem, seed_lists[0], per_seed)],
            json.dumps(report, indent=2, sort_keys=True))


def cmd_compare(args, scens, seed_lists, stem):
    labels = [scen.label() for scen in scens]  # a label two variants share gains "#<position>"
    entries, tables, by_seed = [], [], []
    for k, (scen, seeds, label) in enumerate(zip(scens, seed_lists, labels), 1):
        per_seed = run_metrics(scen, seeds, threads=args.threads)
        label = f"{label}#{k}" if labels.count(label) > 1 else label
        entries.append({"label": label, "seeds": seeds, "metrics": _report(scen, per_seed)})
        tables.append(_per_seed_csv(os.path.join(args.out, label), seeds, per_seed))
        by_seed.append(dict(zip(seeds, per_seed)))
    diffs = [{"pair": [a["label"], b["label"]],
              **{f"delta_{k}": (a["metrics"][k] - b["metrics"][k]
                                if isinstance(a["metrics"][k], float)
                                and isinstance(b["metrics"][k], float) else None)
                 for k in METRIC_KEYS},
              "paired": paired_differences(a_runs, b_runs)}
             for (a, a_runs), (b, b_runs) in itertools.combinations(zip(entries, by_seed), 2)]
    return ([(os.path.join(args.out, "compare.json"), write_json,
              {"variants": entries, "differences": diffs}), *tables],
            json.dumps(diffs, indent=2, sort_keys=True))


def _positive_int(text) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _thread_count(text) -> int:
    if _positive_int(text) > _MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_THREADS}, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fopen-sar",
        description="UWB stripmap SAR foliage-penetration simulator "
                    "(CP-OFDM vs random-noise waveforms)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("--scenario", action="append", metavar="PATH",
                       help="scenario JSON (compare takes two or more)")
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
        p.add_argument("--threads", type=_thread_count, default=1,
                       help="threads over independent seeds, the main thread included")

    p = sub.add_parser("simulate", help="synthesize the raw data matrix")
    common(p)
    p.set_defaults(func=cmd_simulate, seeds=1)

    p = sub.add_parser("image", help="form the focused image")
    common(p)
    p.add_argument("--raw", metavar="PATH", help="existing FSAR file, read and "
                   "range-compressed a block at a time (default: simulate in-process, "
                   "each block range-compressed as it is synthesized)")
    p.set_defaults(func=cmd_image, seeds=1)

    p = sub.add_parser("metrics", help="compute ISLR/PSLR metrics")
    common(p, seeds=True)
    p.add_argument("--image", metavar="PATH", help="existing FIMG file "
                   "(default: run the pipeline)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="run scenario variants and diff metrics")
    common(p, seeds=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    """Run one command in the frame all four share; map errors to exit codes.

    Every argument, scenario, seed-range and memory-budget rule is judged before
    --out is created. Once the stage returns, main removes the old manifest, makes the
    stage's writes and writes the new manifest: a failed stage leaves --out as it
    was, and a failed write leaves no manifest nor an --out it made and left empty
    (simulate synthesizes a streamed FSAR as it writes it, so a failure there is a
    write's).
    Each distinct advisory goes to stderr once, and into the manifest's "warnings".
    """
    args = build_parser().parse_args(argv)
    made = not os.path.isdir(args.out)
    try:
        scens = (_compare_variants(args) if args.command == "compare"
                 else [_resolve_scenario(args)])
        if getattr(args, "image", None) and args.seeds != 1:
            raise SchemaError("metrics: --seeds must be 1 with --image")
        seed_lists = [_seed_list(scen, args) for scen in scens]
        for scen, seeds in zip(scens, seed_lists):  # validation judged one run's bytes
            n = min(args.threads, len(seeds))
            if (held := run_bytes(scen.doc, n)[0]) > MEMORY_BUDGET:
                raise SchemaError(f"--threads: {n} seed threads of {scen.label()} would hold "
                                  f"about {held / 2**20:.1f} MiB, over the memory budget of "
                                  f"{MEMORY_BUDGET / 2**20:.1f} MiB")
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, f"{scens[0].label()}-seed{scens[0].master_seed}")
        advisories = list(dict.fromkeys(a for s in scens for a in s.advisories))
        for line in advisories:
            print(f"warning: {line}", file=sys.stderr)
        t0 = time.perf_counter()
        writes, summary = args.func(args, scens, seed_lists, stem)
        manifest_path = os.path.join(args.out, f"{args.command}_manifest.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest_path)
        files = []
        while writes:  # each entry's data is dropped once written
            path, write, *data = writes.pop(0)
            write(path, *data)
            files.append(path)
            del data
        seconds = time.perf_counter() - t0
        write_json(manifest_path, {
            "tool": "fopen-sar",
            "version": __version__,
            "command": args.command,
            "scenarios": [s.doc for s in scens],
            "seeds": sorted(set().union(*seed_lists)),
            "threads": args.threads,
            "numpy": numpy_build(),
            "outputs": [{"path": os.path.basename(p), "sha256": _sha256(p),
                         "bytes": os.path.getsize(p)} for p in files],
            "timings_s": {args.command: seconds},
            **({"warnings": advisories} if advisories else {}),
        })
        print(summary)
        return EXIT_OK
    except tuple(_ERRORS) as e:
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        code, prefix = next(v for t, v in _ERRORS.items() if isinstance(e, t))
        print(f"error: {prefix}{e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
