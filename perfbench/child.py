"""Fresh-interpreter probes the harness starts as child processes.

    python child.py setup WORKLOAD
        Import numpy, then fopen_sar, then resolve the workload's scenarios.
        Prints the time.monotonic() stamp after each step as JSON, so the
        parent can split its measured wall time into interpreter plus numpy,
        package import and scenario resolution.

    python child.py cli SPANS_PATH ARG...
        Install the tracer, run fopen_sar.cli.main(ARG...), write the spans
        to SPANS_PATH and exit with the command's exit code.

fopen_sar must be importable (the harness puts the checkout's src/ on
PYTHONPATH).
"""

import json
import sys
import time


def setup(workload: str) -> int:
    stamps = {}
    import numpy  # noqa: F401
    stamps["numpy"] = time.monotonic()
    import fopen_sar  # noqa: F401
    stamps["fopen_sar"] = time.monotonic()
    from workloads import resolve
    stamps["n_scenarios"] = resolve(workload)
    stamps["resolved"] = time.monotonic()
    print(json.dumps(stamps))
    return 0


def cli(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from fopen_sar.cli import main
    try:
        return main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
