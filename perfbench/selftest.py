"""Self-test of the benchmark harness, about two minutes on two cores.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with catalogue.py and with the limits
the benchmark is held to; runs every workload at its smallest size
(--seconds 1, the default seed, untraced and traced) and checks that each
named metric is emitted with its unit and that the correctness checks ran
and passed; and checks that the harness refuses to run without the
package's sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from catalogue import END_TO_END, PER_LAYER, WORKLOAD_WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Checks each workload must report, by name prefix.
EXPECTED_CHECKS = {
    "table": ["threads=1 vs", "peak position", "CP recovery", "every per-seed metric finite",
              "timed results equal", "per-seed metrics match the reference"],
    "tank": ["threads=1 vs", "CP recovery", "every per-seed metric finite",
             "timed results equal", "per-seed metrics match the reference"],
    "cli": ["CP recovery", "every command succeeded", "peak position",
            "every metric finite", "metrics match the reference"],
}


def check_benchmark_json(errors):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(doc) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys {sorted(doc)}")
    if [w["name"] for w in doc["workloads"]] != list(WORKLOAD_WHY):
        errors.append("BENCHMARK.json workloads differ from catalogue.py")
    for w in doc["workloads"]:
        if w["why"] != WORKLOAD_WHY[w["name"]] or len(w["why"]) > 200:
            errors.append(f"workload {w['name']}: why differs or is too long")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    if e2e != {n: v[:3] for n, v in END_TO_END.items()}:
        errors.append("BENCHMARK.json end_to_end differs from catalogue.py")
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if layer != {n: v[:2] for n, v in PER_LAYER.items()}:
        errors.append("BENCHMARK.json per_layer differs from catalogue.py")
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
            errors.append(f"bad name or unit: {m}")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds.get("setup_s") != max(bounds.values()):
        errors.append(f"bounds {bounds}: at most 0.25, setup_s the largest")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload, trace, errors):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)])
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"{where}: correct {result['correct']}, attempted {result['attempted']}")
    want = PER_LAYER if trace else END_TO_END
    if set(result["metrics"]) != set(want):
        errors.append(f"{where}: metrics {sorted(result['metrics'])}")
    for name, spec in want.items():
        got = result["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != spec[0] or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {got}")
    record = json.loads((HERE / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
    names = [c[0] for c in record["checks"]]
    for prefix in EXPECTED_CHECKS[workload]:
        if not any(n.startswith(prefix) for n in names):
            errors.append(f"{where}: check {prefix!r} did not run")
    for key in ("nproc", "python", "numpy", "scipy", "commit", "src_lines"):
        if key not in record["environment"]:
            errors.append(f"{where}: environment lacks {key}")


def check_refuses_without_sources(errors):
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "table", "--seed", "0", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("harness ran without the package's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors = []
    check_benchmark_json(errors)
    check_refuses_without_sources(errors)
    for workload in WORKLOAD_WHY:
        for trace in (0, 1):
            check_workload(workload, trace, errors)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
