"""Seedable, parallel-safe random substreams.

Every stochastic draw in the simulator comes from a named substream derived
from (master_seed, module_tag, index). Streams are backed by the Philox
counter-based bit generator, so realizations are bit-reproducible for a
given master seed and independent of evaluation order or thread count.
``substreams`` gives many indices' streams from keys derived in one pass.
numpy.random loads at the first draw, not at import: annotations that name
it are strings.
"""

import itertools

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

# numpy's SeedSequence hash constants; its entropy pool is 4 uint32 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def substream(master_seed: int, tag: str, index: int = 0) -> "np.random.Generator":
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


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix and its running constant, on ints or uint32 arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _philox_keys(seed: int, tag: str, indices: np.ndarray) -> np.ndarray:
    """Row i is the Philox key of SeedSequence(seed, spawn_key=(TAGS[tag], indices[i])):
    numpy's mixing of the seed's 32-bit words, zero-padded to the pool size,
    then the tag and index words, and generate_state(2, np.uint64)."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [TAGS[tag], indices.astype(np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    out = [h.astype(np.uint64) for h in map(_hasher(_INIT_B, _MULT_B), pool)]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def substreams(master_seed: int, tag: str, indices):
    """Yield, per index in [0, 2**32), a Generator that draws what
    ``substream(master_seed, tag, index)`` draws, bit for bit.

    All keys are derived in one array pass. The call re-keys its own Philox
    per index (counter 0, empty buffer), so a yielded generator is re-keyed
    on the next step: finish drawing from it first.
    """
    seed, indices = int(master_seed), np.asarray(indices, dtype=np.int64)
    if seed < 0 or np.any(indices >> 32):
        raise ValueError("substreams needs master_seed >= 0 and indices in [0, 2**32)")
    keys = _philox_keys(seed, tag, indices)
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state  # a fresh Philox: zero counter, empty buffer

    def rekey(key):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        return rng

    return map(rekey, keys)
