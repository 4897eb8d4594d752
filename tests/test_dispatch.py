"""Metrics and random streams across numpy's CPU dispatch levels.

numpy picks a SIMD kernel per ufunc by the CPU it finds, and the kernels of
float64 tan, exp, sin and cos differ in the last ulp, so files are byte-identical
only for one numpy build at one dispatch level. The metrics must not care, and
the random streams must not move at all. Fresh processes run the same runs at
three levels, set through NPY_DISABLE_CPU_FEATURES, which numpy reads only at
import: the default, with the AVX-512 targets turned off (tan at baseline, exp,
sin and cos at X86_V3), and with X86_V3 turned off as well (exp, sin and cos at
baseline). Each scores the tank's redrawn-foliage runs, whose F comes from tan,
and the small preset's HH runs, frozen and redrawn, and checks test_rng.py's
golden digests.
"""

import json
import os
import subprocess
import sys

import pytest
from numpy.lib.introspect import opt_func_info

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
LEVELS = {"default": None, "avx512_off": "X86_V4 AVX512_ICL AVX512_SPR",
          "x86_v3_off": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}

# Per level: the dispatch targets as the manifest names them; per set ("tank": the
# redrawn-HH configs of perfbench's tank workload, with 30 dB receiver noise;
# "small": the small preset with HH foliage, frozen then redrawn) and waveform, the
# metrics of seeds 0-3, or null for NoPeakError; and the golden digests that moved,
# as JSON.
CHILD = """
import json
from fopen_sar.cli import numpy_build
from fopen_sar.metrics import NoPeakError
from fopen_sar.scenario import Scenario, preset_scenario, run_metrics, tank_scenario
from test_rng import CALLS, GOLDEN, golden_digest


def docs(name):
    base = tank_scenario("full") if name == "tank" else preset_scenario("small")
    for kind in ("ofdm", "noise"):
        for redraw in (True,) if name == "tank" else (False, True):
            doc = base.with_overrides(waveform_kind=kind, foliage_pol="HH").doc
            doc["foliage"]["redraw_per_pulse"] = redraw
            if name == "tank":
                doc["noise"] = {"snr_db": 30.0}
            yield doc


def metrics(scen, seed):
    try:
        return run_metrics(scen, [seed])[0]
    except NoPeakError:
        return None


runs = {name: [metrics(Scenario(doc), seed) for doc in docs(name) for seed in range(4)]
        for name in ("tank", "small")}
moved = [f"{tag} {call}" for tag, call in sorted(CALLS)
         if golden_digest(tag, call) != GOLDEN[tag, call]]
print(json.dumps({"dispatch": numpy_build()["dispatch"], "runs": runs, "moved": moved}))
"""


def _tan_level() -> str:
    return opt_func_info(func_name="^tan$", signature="float64")["tan"]["dd"]["current"]


def _child(disabled: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(os.path.abspath, (SRC, HERE))))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def levels() -> dict:
    if _tan_level() != "X86_V4":
        pytest.skip("this host runs float64 tan below numpy's X86_V4 (AVX-512) kernel, "
                    "so there are not three levels to compare")
    return {name: _child(disabled) for name, disabled in LEVELS.items()}


def test_the_three_levels_differ(levels):
    default, avx512_off, v3_off = (levels[name]["dispatch"] for name in LEVELS)
    assert default["tan.dd"] == "X86_V4"
    assert avx512_off["tan.dd"].startswith("baseline")
    for f in ("exp.dd", "sin.dd", "cos.dd"):
        assert (default[f], avx512_off[f]) == ("X86_V4", "X86_V3"), f
        assert v3_off[f].startswith("baseline"), f


def _assert_agree(levels, name, n_runs):
    default = levels["default"]["runs"][name]
    assert len(default) == n_runs
    for level in LEVELS:
        runs = levels[level]["runs"][name]
        assert len(runs) == n_runs
        for i, (a, b) in enumerate(zip(default, runs)):
            assert (a is None) == (b is None), (level, i)  # same NoPeakError outcome
            if a is not None:
                assert a.keys() == b.keys()
                for key in a:
                    assert abs(a[key] - b[key]) <= 1e-9, (level, i, key)


def test_tank_redrawn_metrics_agree_across_dispatch_levels(levels):
    _assert_agree(levels, "tank", 2 * 4)  # 2 waveforms, 4 seeds


def test_small_preset_hh_metrics_agree_across_dispatch_levels(levels):
    _assert_agree(levels, "small", 2 * 2 * 4)  # 2 waveforms, frozen and redrawn, 4 seeds


def test_golden_digests_hold_at_every_dispatch_level(levels):
    for level in LEVELS:
        assert levels[level]["moved"] == [], level
