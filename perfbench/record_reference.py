"""Write reference.json: the outcomes the benchmark's reference check expects.

    python3 perfbench/record_reference.py

Records, at the default workload seed, each table and tank config's
per-seed metrics (null for a NoPeakError) over the first REFERENCE_PASSES
passes, and the metrics the CLI sequence writes. Rerun it only in a change
that means to alter the simulator's results, and say so in that change.
"""

import json
import shutil
import sys

import run

REFERENCE_PASSES = {"table": 32, "tank": 12}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from checks import REFERENCE_PATH, Ledger
    from workloads import DEFAULT_SEED, configs, seed_block

    ref = {}
    for workload, n_passes in REFERENCE_PASSES.items():
        ref[workload] = {}
        for scen in configs(workload):
            per_seed = ref[workload].setdefault(scen.label(), {})
            for p in range(n_passes):
                for s in seed_block(workload, DEFAULT_SEED, p):
                    per_seed[str(s)] = run.one_run(scen, s, 1)

    run_dir = run.OUT / "reference-cli"
    shutil.rmtree(run_dir, ignore_errors=True)
    records = []
    try:
        run.cli_sequences(run_dir, DEFAULT_SEED, 0, (1,), False, Ledger(), {}, records)
        out = {r["name"]: r["out"] for r in records}
        metrics = json.loads(next(out["metrics-full"].glob("*_metrics.json")).read_text())
        ref["cli"] = {"metrics-full": metrics}
        for v in json.loads((out["compare-small"] / "compare.json").read_text())["variants"]:
            ref["cli"][v["label"]] = v["metrics"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
