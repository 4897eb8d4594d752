"""Seedable, parallel-safe random substreams.

Every stochastic draw in the simulator comes from a named substream derived
from (master_seed, module_tag, index). Streams are backed by the Philox
counter-based bit generator, so realizations are bit-reproducible for a
given master seed and independent of evaluation order or thread count.
"""

import numpy as np

# Registry of module tags. Values are stable identifiers that enter the
# seed derivation; never renumber existing entries.
TAGS = {
    "bpsk_symbols": 1,
    "noise_waveform": 2,
    "foliage_gamma": 3,
    "foliage_phase": 4,
    "foliage_fbm": 5,
    "receiver_noise": 6,
}

def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Generator for (master_seed, tag, index).

    Parameters
    ----------
    master_seed : int
        Run-level seed, any non-negative integer; all its bits enter the
        seed sequence, so seeds never alias.
    tag : str
        One of the names registered in ``TAGS``.
    index : int
        Per-draw index, typically a pulse number. Streams with different
        indices are statistically independent.
    """
    if tag not in TAGS:
        raise KeyError(f"unknown rng tag {tag!r}; registered: {sorted(TAGS)}")
    if index < 0:
        raise ValueError("substream index must be >= 0")
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(TAGS[tag], int(index)))
    return np.random.Generator(np.random.Philox(ss))
