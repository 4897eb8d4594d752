"""Layered benchmark for fopen_sar: end-to-end throughput and latency, per-layer trace.

    python3 perfbench/run.py --workload table|tank|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads are defined in workloads.py and the metrics in catalogue.py.

--trace 0 measures the end-to-end metrics, untraced, for about S seconds.
--trace 1 spends about S/2 seconds on the same untraced loop and S/2 on a
traced loop at threads=1, and reports the per-layer metrics; their
difference is the tracing overhead. On table and tank the loops run a
number of passes sized from S (workloads.PASS_SECONDS), so a seed always
gives the same operations and outcomes; cli runs for S seconds by the
clock. Correctness checks run outside every timed region.

Human-readable lines go to stdout first; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. The full record (versions,
commit, src/ line count, per-pass samples, checks, failing operations) is
written to perfbench/out/, and with --trace 1 the spans too.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalogue import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOAD_WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
EXIT_NO_PEAK = 5  # fopen_sar.cli's exit code for an image without a peak


def tail(samples):
    """(value, percentile, n) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return None
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload: str) -> dict:
    """Median over fresh interpreters of set-up wall time and its split."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        t1 = time.monotonic()
        stamps = json.loads(proc.stdout.splitlines()[-1])
        samples.append({"setup_s": t1 - t0,
                        "python_numpy_s": stamps["numpy"] - t0,
                        "import_s": stamps["fopen_sar"] - stamps["numpy"],
                        "resolve_s": stamps["resolved"] - stamps["fopen_sar"]})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]} | {
        "samples": samples}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    scipy = sys.modules.get("scipy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "fopen_sar").rglob("*.py"))),
    }


# -- table and tank: in-process run_metrics calls -----------------------------

def timed_passes(scens, workload, seed, passes, modes, first_pass):
    """Run `passes` passes, cycling through the thread counts in modes.

    A pass gives every config one run_metrics call on the same seed block.
    """
    from fopen_sar.metrics import NoPeakError
    from fopen_sar.scenario import run_metrics
    from workloads import seed_block

    calls = []
    for p in range(first_pass, first_pass + passes):
        threads = modes[(p - first_pass) % len(modes)]
        block = seed_block(workload, seed, p)
        for scen in scens:
            t0 = time.perf_counter()
            try:
                res = run_metrics(scen, block, threads=threads)
            except NoPeakError:
                res = None
            calls.append({"pass": p, "threads": threads, "scen": scen,
                          "label": scen.label(), "seeds": block,
                          "seconds": time.perf_counter() - t0, "result": res})
    return calls


def one_run(scen, seed, threads):
    """Metrics of one seed, or None for a NoPeakError."""
    from fopen_sar.metrics import NoPeakError
    from fopen_sar.scenario import run_metrics
    try:
        return run_metrics(scen, [seed], threads=threads)[0]
    except NoPeakError:
        return None


def settle(calls, ledger, outcomes):
    """Per-seed outcomes of each call and how many runs finished in its timed window.

    run_metrics stops at the first NoPeakError, so a failed call's seeds are
    rerun one at a time (untimed) to find which failed. The timed window of
    that call covers the runs up to and including the first failure.
    """
    for call in calls:
        res = call["result"]
        if res is None:
            res = [one_run(call["scen"], s, 1) for s in call["seeds"]]
            call["finished"] = res.index(None) + 1
        else:
            call["finished"] = len(res)
        for s, m in zip(call["seeds"], res):
            key = (call["label"], s)
            ledger.attempt(key)
            outcomes[key] = m
            if m is None:
                ledger.fail(key, "NoPeakError")


def mix_rate(samples) -> float:
    """Operations per second over the workload's mix, from (kind, seconds per op) samples.

    Each kind of operation (config or CLI command) contributes its median
    time, so a burst of load on the machine moves a sample, not the result.
    """
    by_kind = {}
    for kind, sec in samples:
        by_kind.setdefault(kind, []).append(sec)
    return len(by_kind) / sum(statistics.median(v) for v in by_kind.values())


def per_op(calls, threads):
    """(config label, seconds per finished run) of every call at a thread count."""
    return [(c["label"], c["seconds"] / c["finished"]) for c in calls if c["threads"] == threads]


def run_pipeline_workload(workload, seed, seconds, trace, nproc, ledger):
    import checks
    from fopen_sar.metrics import NoPeakError, image_metrics
    from fopen_sar.scenario import run_pipeline
    from tracer import Tracer, layer_totals
    from workloads import DEFAULT_SEED, configs, n_passes, seed_block

    scens = configs(workload)
    outcomes = {}
    info = {}

    # Checks on the first seed of pass 0; they also warm up both thread counts.
    s0 = seed_block(workload, seed, 0)[0]
    first = {}
    for scen in scens:
        label = scen.label()
        img = run_pipeline(scen, s0, threads=1)
        try:
            m1 = image_metrics(img.pixels, scen.processing["upsample"],
                               scen.processing["smooth_window"])
        except NoPeakError:
            m1 = None
        m_n = one_run(scen, s0, nproc)
        first[label] = m1
        ledger.check(f"threads=1 vs {nproc} identical: {label} seed {s0}", m1 == m_n,
                     "bit-identical" if m1 == m_n else f"{m1} vs {m_n}", [(label, s0)])
        expect = checks.expected_peak(scen)
        if expect is not None:
            ok, pk = checks.peak_ok(img.pixels, expect)
            ledger.check(f"peak position: {label} seed {s0}", ok,
                         f"peak {pk} vs expected {expect} +-1", [(label, s0)])
    cp = checks.cp_error(scens[0], s0)
    info["cp_err_max"] = cp
    ledger.check("CP recovery", cp < checks.CP_GATE, f"max rel err {cp:.3g} < {checks.CP_GATE}")

    modes = (nproc, 1)
    untraced_s = seconds / 2 if trace else seconds
    calls = timed_passes(scens, workload, seed, n_passes(workload, untraced_s, len(modes)),
                         modes, 0)
    traced = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(scens, workload, seed, n_passes(workload, seconds / 2, 1),
                                  (1,), calls[-1]["pass"] + 1)
        finally:
            tracer.uninstall()
    settle(calls + traced, ledger, outcomes)

    bad = [k for k, m in outcomes.items() if m is not None and not checks.finite(m)]
    ledger.check("every per-seed metric finite", not bad, f"{len(bad)} non-finite", bad)
    rerun = [(label, s0) for label, m in first.items() if outcomes[(label, s0)] != m]
    ledger.check("timed results equal the untimed reruns", not rerun,
                 f"{len(rerun)} differ", rerun)
    if seed == DEFAULT_SEED:
        ref = checks.load_reference()[workload]
        diffs = {}
        for (label, s), m in outcomes.items():
            want = ref.get(label, {})
            if str(s) in want:
                d = checks.reference_mismatch(m, want[str(s)])
                if d:
                    diffs[(label, s)] = d
        compared = sum(1 for label, s in outcomes if str(s) in ref.get(label, {}))
        ledger.check("per-seed metrics match the reference", not diffs,
                     f"{compared} compared, mismatches {diffs}", list(diffs))

    samples_n, samples_1 = per_op(calls, nproc), per_op(calls, 1)
    lat = [1e3 * sec for _, sec in samples_n]
    e2e = {
        "ops_per_s": mix_rate(samples_n),
        "ops_per_s_1t": mix_rate(samples_1),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info["samples"] = {"threads_n": samples_n, "threads_1": samples_1}
    info["nopeak_count"] = sum(1 for m in outcomes.values() if m is None)
    layers = None
    if trace:
        ops = sum(c["finished"] for c in traced)
        untraced_1 = [c for c in calls if c["threads"] == 1]
        info["traced_ms_per_op"] = 1e3 * sum(c["seconds"] for c in traced) / ops
        info["untraced_1t_ms_per_op"] = (1e3 * sum(c["seconds"] for c in untraced_1)
                                         / sum(c["finished"] for c in untraced_1))
        layers = {"totals": layer_totals(tracer.spans), "ops": ops, "bytes_written": 0}
        info["spans"] = tracer.spans
    return e2e, layers, info


# -- cli: fresh processes ------------------------------------------------------

def cli_command(args, out_dir, threads, spans_path=None):
    """Run one CLI command in a fresh process; returns (seconds, exit code, maxrss KB)."""
    out_dir.mkdir(parents=True)
    if spans_path is None:
        argv = [sys.executable, "-m", "fopen_sar.cli"]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path)]
    argv += args + ["--out", str(out_dir), "--threads", str(threads)]
    with open(out_dir / "log.txt", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss


def manifest_outputs(out_dir):
    """({file: sha256}, bytes written incl. the manifest) of one command's manifest."""
    path = next(out_dir.glob("*_manifest.json"), None)
    if path is None:
        return None, 0
    doc = json.loads(path.read_text())
    hashes = {o["path"]: o["sha256"] for o in doc["outputs"]}
    return hashes, sum(o["bytes"] for o in doc["outputs"]) + path.stat().st_size


def cli_sequences(run_dir, seed, seconds, orders, traced, ledger, hashes, records):
    """Run the CLI sequence until `seconds` have passed, completing it at least once.

    Each command runs once per thread count in `orders`, back to back, so
    both counts see the same machine state; which goes first alternates.
    """
    from workloads import CLI_SEQUENCE

    start = time.perf_counter()
    k0 = len({r["seq"] for r in records})
    for k in itertools.count(k0):
        order = orders if (seed + k) % 2 == 0 else orders[::-1]
        dirs = {t: {} for t in order}
        for name, template in CLI_SEQUENCE:
            for threads in order:
                args = [a.format(**dirs[threads]) for a in template]
                out_dir = run_dir / f"seq{k}-t{threads}" / name
                spans = out_dir.parent / f"{name}.spans.json" if traced else None
                dt, code, rss = cli_command(args, out_dir, threads, spans)
                dirs[threads][name] = str(out_dir)
                key = ("cli", k, threads, name)
                ledger.attempt(key)
                if code != 0:
                    ledger.fail(key, f"exit {code}")
                got, nbytes = manifest_outputs(out_dir)
                want = hashes.setdefault(name, got)
                if got != want:
                    ledger.fail(key, "output hashes differ from the first run")
                records.append({"seq": k, "threads": threads, "name": name,
                                "seconds": dt, "exit": code, "rss_kb": rss,
                                "traced": traced, "bytes": nbytes, "spans": spans,
                                "out": out_dir})
            if k > k0 and time.perf_counter() - start >= seconds:
                return
        if time.perf_counter() - start >= seconds:
            return


def cli_checks(records, ledger):
    import checks
    from fopen_sar import read_fimg
    from fopen_sar.scenario import preset_scenario

    full = preset_scenario("full")
    cp = checks.cp_error(full, full.master_seed)
    sim_keys = [("cli", r["seq"], r["threads"], r["name"]) for r in records
                if r["name"] == "simulate-full"]
    ledger.check("CP recovery", cp < checks.CP_GATE,
                 f"max rel err {cp:.3g} < {checks.CP_GATE}", sim_keys)

    def key(r):
        return ("cli", r["seq"], r["threads"], r["name"])

    ok_runs = {}
    for r in records:
        if r["exit"] == 0:
            ok_runs.setdefault(r["name"], r)
    missing = {r["name"] for r in records} - set(ok_runs)
    ledger.check("every command succeeded at least once", not missing, f"missing {missing}")
    if missing:
        return cp

    img = ok_runs["image-full"]
    expect = checks.expected_peak(full)
    ok, pk = checks.peak_ok(read_fimg(next(img["out"].glob("*_image.fimg"))), expect)
    ledger.check("peak position: image-full", ok, f"peak {pk} vs expected {expect} +-1",
                 [key(img)])

    ref = checks.load_reference()["cli"]
    met = ok_runs["metrics-full"]
    got = {"metrics-full": json.loads(next(met["out"].glob("*_metrics.json")).read_text())}
    cmp_rec = ok_runs["compare-small"]
    for v in json.loads((cmp_rec["out"] / "compare.json").read_text())["variants"]:
        got[v["label"]] = v["metrics"]
    keys = {name: key(met) if name == "metrics-full" else key(cmp_rec) for name in got}
    bad = [keys[n] for n, m in got.items()
           if not all(isinstance(m[k], float) for k in checks.METRIC_KEYS)
           or not checks.finite(m)]
    ledger.check("every metric finite", not bad, f"{len(bad)} non-finite", bad)
    diffs = {n: checks.reference_mismatch(m, ref.get(n)) for n, m in got.items()}
    diffs = {n: d for n, d in diffs.items() if d}
    ledger.check("metrics match the reference", not diffs, f"mismatches {diffs}",
                 [keys[n] for n in diffs])
    return cp


def run_cli_workload(seed, seconds, trace, nproc, ledger):
    from tracer import layer_totals, merge_totals

    run_dir = OUT / f"cli-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    hashes, records = {}, []
    try:
        cli_sequences(run_dir, seed, seconds / 2 if trace else seconds, (nproc, 1),
                      False, ledger, hashes, records)
        if trace:
            cli_sequences(run_dir, seed, seconds / 2, (1,), True, ledger, hashes, records)
        cp = cli_checks(records, ledger)
        traced = [r for r in records if r["traced"]]
        layers = None
        if trace:
            parts = [layer_totals(json.loads(r["spans"].read_text())) for r in traced]
            layers = {"totals": merge_totals(parts), "ops": len(traced),
                      "bytes_written": sum(r["bytes"] for r in traced)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in records if not r["traced"]]

    def samples(threads):
        return [(r["name"], r["seconds"]) for r in untraced if r["threads"] == threads]

    lat = [1e3 * sec for _, sec in samples(nproc)]
    e2e = {
        "ops_per_s": mix_rate(samples(nproc)),
        "ops_per_s_1t": mix_rate(samples(1)),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail(lat),
        "peak_rss_mb": max(r["rss_kb"] for r in untraced) / 1024,
    }
    info = {"cp_err_max": cp,
            "nopeak_count": sum(1 for r in records if r["exit"] == EXIT_NO_PEAK),
            "samples": {"threads_n": samples(nproc), "threads_1": samples(1)}}
    if trace:
        untraced_1 = [r["seconds"] for r in untraced if r["threads"] == 1]
        info["traced_ms_per_op"] = 1e3 * sum(r["seconds"] for r in traced) / len(traced)
        info["untraced_1t_ms_per_op"] = 1e3 * sum(untraced_1) / len(untraced_1)
    return e2e, layers, info


# -- reporting -----------------------------------------------------------------

def layer_metrics(layers, info, setup, e2e) -> dict:
    """Per-layer metrics, per operation of the traced phase."""
    tot, ops = layers["totals"], layers["ops"]

    def g(group, field="total_s"):
        return tot.get(group, {}).get(field, 0)

    def ms(*groups, field="total_s"):
        return 1e3 * sum(g(x, field) for x in groups) / ops

    return {
        "geometry.gm_ms": ms("geometry.gm"),
        "geometry.gm_calls": g("geometry.gm", "calls") / ops,
        "echo.synth_ms": ms("echo.synth"),
        "echo.synth_self_ms": ms("echo.synth", field="self_s"),
        "echo.bytes_out": g("echo.synth", "value") / ops,
        "foliage.channel_ms": ms("foliage.channel"),
        "foliage.realize_ms": ms("foliage.realize"),
        "foliage.realize_calls": g("foliage.realize", "calls") / ops,
        "foliage.apply_ms": ms("foliage.apply"),
        "imaging.range_ofdm_ms": ms("imaging.range_ofdm"),
        "imaging.range_noise_ms": ms("imaging.range_noise"),
        "imaging.azimuth_ms": ms("imaging.azimuth"),
        "imaging.cp_err_max": info["cp_err_max"],
        "metrics.profiles_ms": ms("metrics.profiles"),
        "metrics.sidelobe_ms": ms("metrics.sidelobe"),
        "metrics.nopeak_count": info["nopeak_count"],
        "scenario.resolve_ms": ms("scenario.resolve"),
        "waveform.pulse_ms": ms("waveform.pulse"),
        "io.fsar_write_ms": ms("io.fsar_write"),
        "io.fsar_read_ms": ms("io.fsar_read"),
        "io.image_read_ms": ms("io.image_read"),
        "io.image_write_ms": ms("io.image_write"),
        "io.csv_ms": ms("io.csv", field="self_s"),
        "io.hash_ms": ms("io.hash"),
        "io.bytes_written": layers["bytes_written"] / ops,
        "cli.import_s": setup["import_s"],
        "cli.python_numpy_s": setup["python_numpy_s"],
        "run.op_ms_traced": info["traced_ms_per_op"],
        "run.trace_overhead_ms": info["traced_ms_per_op"] - info["untraced_1t_ms_per_op"],
        "run.threads_speedup": e2e["ops_per_s"] / e2e["ops_per_s_1t"],
    }


# Workload-specific names of the generic end-to-end metrics.
ALIASES = {
    "ops_per_s": {"table": "runs_per_s", "tank": "runs_per_s"},
    "ops_per_s_1t": {"table": "runs_per_s_1t", "tank": "runs_per_s_1t"},
    "op_ms_p50": {"cli": "cli_ms_p50"},
    "op_ms_tail": {"cli": "cli_ms_tail"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "fopen_sar" / "__init__.py").is_file():
        print(f"error: no fopen_sar package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fopen_sar
    if Path(fopen_sar.__file__).resolve().parent != SRC / "fopen_sar":
        print(f"error: imported fopen_sar from {fopen_sar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from checks import Ledger

    env = environment()
    nproc = env["nproc"]
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(args.workload)
    ledger = Ledger()
    if args.workload == "cli":
        e2e, layers, info = run_cli_workload(args.seed, args.seconds, args.trace, nproc, ledger)
    else:
        e2e, layers, info = run_pipeline_workload(args.workload, args.seed, args.seconds,
                                                  args.trace, nproc, ledger)
    e2e["setup_s"] = setup["setup_s"]
    e2e["failed_frac"] = ledger.failed / ledger.attempted
    per_layer = layer_metrics(layers, info, setup, e2e) if args.trace else None

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = info.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup": setup,
              "end_to_end": e2e, "per_layer": per_layer, "detail": info,
              "correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "failures": ledger.failures(),
              "checks": ledger.checks}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {nproc}  src_lines {env['src_lines']}  commit {env['commit']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    for name, ok, detail in ledger.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for failure in ledger.failures():
        print("failed", *failure)
    for name, value in e2e.items():
        unit = (END_TO_END.get(name) or REPORTED_ONLY[name])[0]
        alias = ALIASES.get(name, {}).get(args.workload, name)
        if name == "op_ms_tail":
            text = ("n/a (needs more than 10 samples)" if value is None else
                    f"{value[0]:.4f} {unit}  (p{value[1]:.1f} of {value[2]} samples)")
        else:
            text = f"{value:.6g} {unit}"
        print(f"{name:<14} {text}" + (f"  [{alias}]" if alias != name else ""))
    if per_layer:
        for name, value in per_layer.items():
            print(f"{name:<24} {value:.6g} {PER_LAYER[name][0]}")

    values, specs = (per_layer, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {n: {"value": values[n], "unit": spec[0]} for n, spec in specs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
