"""Metrics across numpy's CPU dispatch levels.

numpy picks a SIMD kernel per ufunc by the CPU it finds, and the kernels of
float64 tan, exp, sin and cos differ in the last ulp, so files are byte-identical
only for one numpy build at one dispatch level. The metrics must not care: the
tank's redrawn-foliage runs, whose F comes from tan, are scored in fresh
processes at the default level and with the AVX-512 targets turned off through
NPY_DISABLE_CPU_FEATURES, which numpy reads only at import.
"""

import json
import os
import subprocess
import sys

import pytest
from numpy.lib.introspect import opt_func_info

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

# The tank's redrawn-HH configs of perfbench's tank workload (30 dB receiver
# noise) at seeds 0-3: the float64 tan level as the manifest names it, then per
# run its metrics or null for NoPeakError, as JSON.
CHILD = """
import json
from fopen_sar.cli import numpy_build
from fopen_sar.metrics import NoPeakError
from fopen_sar.scenario import Scenario, run_metrics, tank_scenario

runs = []
for kind in ("ofdm", "noise"):
    doc = tank_scenario("full").with_overrides(waveform_kind=kind, foliage_pol="HH").doc
    doc["noise"] = {"snr_db": 30.0}
    doc["foliage"]["redraw_per_pulse"] = True
    scen = Scenario(doc)
    for seed in range(4):
        try:
            runs.append(run_metrics(scen, [seed])[0])
        except NoPeakError:
            runs.append(None)
level = numpy_build()["dispatch"]["tan.dd"]
print(json.dumps({"level": level, "runs": runs}))
"""


def _tan_level() -> str:
    return opt_func_info(func_name="^tan$", signature="float64")["tan"]["dd"]["current"]


def _child(disabled: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.skipif(_tan_level() != "X86_V4",
                    reason="this host runs float64 tan below numpy's X86_V4 (AVX-512) "
                           "kernel, so there is no second level to compare with")
def test_tank_redrawn_metrics_agree_across_dispatch_levels():
    default, off = _child(None), _child(AVX512_OFF)
    assert default["level"] == "X86_V4" and off["level"] != "X86_V4"
    assert len(default["runs"]) == len(off["runs"]) == 8
    for a, b in zip(default["runs"], off["runs"]):
        assert (a is None) == (b is None)  # same NoPeakError outcome
        if a is not None:
            assert a.keys() == b.keys()
            for key in a:
                assert abs(a[key] - b[key]) <= 1e-9, key
