"""Metamorphic relations of the whole chain, from synthesis to the focused image.

Once the seed is fixed, the chain is linear in the scene: the seed alone fixes
the transmitted pulse, the foliage transfer function F and the receiver noise.
So the outputs of related scenes must stand in exact relations, whatever the
bits of any one output are. These relations can judge a change that must move
bits, where a bit-identity check against an earlier checkout cannot.
"""

import copy
import hashlib

import numpy as np
import pytest

from fopen_sar.echo import foliage_channel, synthesize_raw
from fopen_sar.scenario import Scenario, preset_scenario, run_pipeline

A = {"cell": 96, "azimuth_m": 0.0, "rcs": [1.0, 0.0]}
B = {"cell": 120, "azimuth_m": 4.0, "rcs": [0.3, -0.2]}
SEED = 5
# (waveform, foliage) on the full preset: clear, HH foliage drawn once for every
# pulse, and HH foliage redrawn per pulse
CASES = [(kind, foliage) for kind in ("ofdm", "noise")
         for foliage in ("off", "frozen", "redrawn")]
# The superposition error measures at most 2.6e-16 of the image peak over seeds
# 0 to 5, about one unit of float64 rounding (2.2e-16): the chain is a fixed
# sequence of FFTs and products, whose rounding stays within a few eps * log2(N)
# of the peak. The bound is over three orders of magnitude above that, and far
# below any defect that touches the echoes: target B alone peaks at about a
# third of the image.
BOUND = 1e-12


def _scenario(kind, foliage, targets, snr_db=None):
    doc = copy.deepcopy(preset_scenario("full").with_overrides(
        kind, "off" if foliage == "off" else "HH", SEED).doc)
    doc["scene"]["targets"] = targets
    if foliage == "redrawn":
        doc["foliage"]["redraw_per_pulse"] = True
    if snr_db is not None:
        doc["noise"] = {"snr_db": snr_db}
    return Scenario(doc)


def _image(*args, **kwargs):
    return run_pipeline(_scenario(*args, **kwargs)).pixels


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _scaled(target, factor):
    return {**target, "rcs": [factor * part for part in target["rcs"]]}


@pytest.mark.parametrize("kind, foliage", CASES)
def test_image_of_two_targets_is_the_sum_of_their_images(kind, foliage):
    both = _image(kind, foliage, [A, B])
    assert _rel_err(_image(kind, foliage, [A]) + _image(kind, foliage, [B]), both) < BOUND


@pytest.mark.parametrize("kind, foliage", CASES)
def test_scaling_every_rcs_by_4_scales_the_image_by_exactly_4(kind, foliage):
    # a power of two commutes with every rounding in the chain
    scaled = _image(kind, foliage, [_scaled(A, 4.0), _scaled(B, 4.0)])
    assert np.array_equal(scaled, 4.0 * _image(kind, foliage, [A, B]))


@pytest.mark.parametrize("kind, foliage", CASES)
def test_receiver_noise_adds_to_the_clean_image(kind, foliage):
    # the noise is drawn from the seed and referenced to the pulse, not the scene
    noisy = _image(kind, foliage, [A], snr_db=10.0)
    noise = _image(kind, foliage, [_scaled(A, 0.0)], snr_db=10.0)
    assert _rel_err(_image(kind, foliage, [A]) + noise, noisy) < BOUND


@pytest.mark.parametrize("kind", ["ofdm", "noise"])
@pytest.mark.parametrize("foliage", ["frozen", "redrawn"])
def test_foliage_filters_each_pulse_by_its_own_transfer_function(kind, foliage):
    # F applied to the wrong pulses is still a fixed linear filter, which the
    # relations above cannot see: pulse j of a foliage run must be pulse j of the
    # clear run times row j of F, the rows FoliageChannel.blocks() gives
    cfg = _scenario(kind, foliage, [A, B]).simulation_config()
    clear = synthesize_raw(_scenario(kind, "off", [A, B]).simulation_config()).data
    f = np.concatenate([block.copy() for block in foliage_channel(cfg).blocks()])
    want = np.fft.ifft(f * np.fft.fft(clear, axis=1), axis=1)
    assert _rel_err(synthesize_raw(cfg).data, want) < BOUND


def test_seeds_differing_in_any_32_bit_word_give_distinct_raw_matrices():
    seeds = [0, 1, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 2**64 - 1]
    scen = preset_scenario("small").with_overrides("noise", "HH")
    digests = {hashlib.sha256(synthesize_raw(scen.simulation_config(seed)).data.tobytes())
               .digest() for seed in seeds}
    assert len(digests) == len(seeds)
