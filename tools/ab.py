"""Interleaved A/B of two checkouts: in-process runs, or fresh set-up probes.

    python tools/ab.py --a A/src --b B/src --workload table --rounds 30 --threads 1
    python tools/ab.py --a A/src --b B/src --workload cli --rounds 20 --setup

Each side's fopen_sar package is copied into a temporary directory as
fopen_sar_a or fopen_sar_b (the package imports itself only relatively), so
both load into one process. The configs of perfbench/workloads.py are built
on both sides from the same file, which is only read. Round r gives each
side one run_metrics call per config on the two-seed block of pass r, and
the side that runs first alternates from round to round, so slow drift of
the machine's speed falls on both sides alike.

It prints each side's ops_per_s by the benchmark's formula (configs / sum
of per-config median seconds per run), the median over rounds of the
per-round ratio b/a and the rounds b won, then one line per config with
both sides' median milliseconds per run, so a gain that only some configs
have shows where it lands. A call that raises NoPeakError is left out of
its side's rate and medians, and of its round's ratio on both sides. Needs
numpy and the standard library.

--setup measures the benchmark's setup_s instead, on table, tank or cli:
each round starts one fresh `perfbench/child.py setup WORKLOAD` process per
side, with that side's src first on PYTHONPATH, the side that starts first
alternating from round to round, and times it as perfbench/run.py's
measure_setup does (wall time around the process; import_s from its stamps).
It prints each side's median setup_s and import_s, the median over rounds of
the paired difference b - a in milliseconds, and the rounds b was faster.
"""

import argparse
import importlib
import importlib.util
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
CHILD = ROOT / "perfbench" / "child.py"


def load_side(src: str, name: str, tmp: str):
    """(package, workloads module) of the fopen_sar package under src, as `name`."""
    shutil.copytree(pathlib.Path(src) / "fopen_sar", pathlib.Path(tmp) / name)
    importlib.invalidate_caches()
    pkg = importlib.import_module(name)
    # workloads.py imports fopen_sar.scenario: point both names at this side while it loads
    saved = {k: sys.modules.get(k) for k in ("fopen_sar", "fopen_sar.scenario")}
    sys.modules.update({"fopen_sar": pkg, "fopen_sar.scenario": pkg.scenario})
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for k, mod in saved.items():
            if mod is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = mod
    return pkg, workloads


def timed_round(pkg, scens, block, threads) -> list[float | None]:
    """Seconds per run of each config on block, None where it raised NoPeakError."""
    out = []
    for scen in scens:
        t0 = time.perf_counter()
        try:
            pkg.scenario.run_metrics(scen, block, threads=threads)
        except pkg.metrics.NoPeakError:
            out.append(None)
            continue
        out.append((time.perf_counter() - t0) / len(block))
    return out


def compare(sides, workload: str, rounds: int, threads: int) -> dict:
    """Run the interleaved rounds; sides maps "a" and "b" to (package, workloads)."""
    scens = {k: wl.configs(workload) for k, (_, wl) in sides.items()}
    seconds = {k: [] for k in sides}  # per round, per config
    for r in range(rounds):
        block = sides["a"][1].seed_block(workload, sides["a"][1].DEFAULT_SEED, r)
        for k in ("a", "b") if r % 2 == 0 else ("b", "a"):
            seconds[k].append(timed_round(sides[k][0], scens[k], block, threads))
    ratios, failed = [], 0
    for sa, sb in zip(seconds["a"], seconds["b"]):
        both = [(x, y) for x, y in zip(sa, sb) if x is not None and y is not None]
        failed += len(sa) - len(both)
        ratios.append(sum(x for x, _ in both) / sum(y for _, y in both))
    medians, rate = {}, {}  # per config median seconds per run, None where every call failed
    for k, per_round in seconds.items():
        medians[k] = [statistics.median(ok) if (ok := [s for s in col if s is not None]) else None
                      for col in zip(*per_round)]
        ok = [m for m in medians[k] if m is not None]
        rate[k] = len(ok) / sum(ok)
    return {"ops_per_s_a": rate["a"], "ops_per_s_b": rate["b"],
            "ratio_b_over_a": statistics.median(ratios),
            "b_wins": sum(x > 1.0 for x in ratios), "rounds": rounds, "failed_calls": failed,
            "configs": [(scen.label(), medians["a"][i], medians["b"][i])
                        for i, scen in enumerate(scens["a"])]}


def setup_probe(src: str, workload: str) -> dict:
    """setup_s and import_s of one fresh child.py setup process with src first on
    PYTHONPATH, taken as perfbench/run.py's measure_setup takes them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), "setup", workload], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    t1 = time.monotonic()
    stamps = json.loads(proc.stdout.splitlines()[-1])
    return {"setup_s": t1 - t0, "import_s": stamps["fopen_sar"] - stamps["numpy"]}


def compare_setup(srcs: dict, workload: str, rounds: int) -> dict:
    """Run the alternating set-up probes; srcs maps "a" and "b" to src directories."""
    samples = {k: [] for k in srcs}
    for r in range(rounds):
        for k in ("a", "b") if r % 2 == 0 else ("b", "a"):
            samples[k].append(setup_probe(srcs[k], workload))
    diffs = [b["setup_s"] - a["setup_s"] for a, b in zip(samples["a"], samples["b"])]
    return {**{f"{m}_{k}": statistics.median(s[m] for s in samples[k])
               for k in srcs for m in ("setup_s", "import_s")},
            "diff_ms": 1e3 * statistics.median(diffs), "b_faster": sum(d < 0 for d in diffs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="side a's src directory")
    ap.add_argument("--b", required=True, help="side b's src directory")
    ap.add_argument("--workload", choices=("table", "tank", "cli"), default="table",
                    help="cli with --setup only")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--setup", action="store_true",
                    help="time fresh set-up processes instead of in-process runs")
    args = ap.parse_args(argv)
    if args.setup:
        res = compare_setup({k: str(pathlib.Path(src).resolve())
                             for k, src in (("a", args.a), ("b", args.b))},
                            args.workload, args.rounds)
        print(f"setup workload {args.workload}, {args.rounds} rounds")
        for k in ("a", "b"):
            print(f"{k} setup_s {res[f'setup_s_{k}']:.4f} import_s {res[f'import_s_{k}']:.4f}")
        print(f"median paired difference b-a ms {res['diff_ms']:.2f}")
        print(f"b faster {res['b_faster']}/{args.rounds}")
        return 0
    if args.workload == "cli":
        ap.error("--workload cli needs --setup")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = {k: load_side(src, f"fopen_sar_{k}", tmp)
                     for k, src in (("a", args.a), ("b", args.b))}
            res = compare(sides, args.workload, args.rounds, args.threads)
        finally:
            sys.path.remove(tmp)
    print(f"workload {args.workload}, {args.threads} thread(s), {res['rounds']} rounds")
    print(f"a ops_per_s {res['ops_per_s_a']:.3f}")
    print(f"b ops_per_s {res['ops_per_s_b']:.3f}")
    print(f"median ratio b/a {res['ratio_b_over_a']:.4f}")
    print(f"b wins {res['b_wins']}/{res['rounds']}")
    if res["failed_calls"]:
        print(f"calls left out for NoPeakError: {res['failed_calls']}")
    for label, *ms in res["configs"]:
        a, b = ("-" if m is None else f"{1e3 * m:.3f}" for m in ms)
        print(f"config {label} median ms per run a {a} b {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
