"""Seedable, parallel-safe random substreams.

Every stochastic draw in the simulator comes from a named substream keyed by
(master_seed, module_tag, index). Streams are backed by the Philox
counter-based bit generator, so realizations are bit-reproducible for a
given master seed and independent of evaluation order or thread count.
_philox_keys is the one key derivation, input check and integer conversion of
both entry points; its keys equal numpy's SeedSequence mixing, as the tests
check. numpy.random loads at the first draw, not at import: annotations that
name it are strings.
"""

import functools
import itertools
import operator

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
    """The Generator of (master_seed, tag, index): it draws what ``substreams(
    master_seed, tag, [index])`` yields, bit for bit, from the same key, and rejects
    what that call rejects. Every bit of master_seed >= 0 enters the key, so seeds
    never alias; tag is a name in ``TAGS``; streams of different indices in
    [0, 2**32), typically pulse numbers, are independent."""
    return np.random.Generator(np.random.Philox(key=_philox_keys(master_seed, tag, [index])[0]))


def _hashmix(value, xor: int, mult: int):
    """SeedSequence's hashmix of an int or a uint64 array, with one call's constants."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


@functools.cache
def _mixing(n_words: int) -> tuple:
    """SeedSequence's hashmix constants for n_words entropy words: the (xors, mults)
    of the pool's first 4 words, the steps (src, dst, xor, mult) that mix the hashmix
    of state[src] into state[dst] (state: the pool, then words 4 on; each pool word
    into each other, then each later word into all four), and generate_state's."""
    a, b = (tuple(itertools.accumulate([m] * n, lambda c, m: c * m & _M32, initial=c))
            for c, m, n in ((_INIT_A, _MULT_A, 4 * n_words), (_INIT_B, _MULT_B, 4)))
    steps = [*itertools.permutations(range(4), 2), *itertools.product(range(4, n_words), range(4))]
    return (a[:4], a[1:5]), tuple(map(tuple.__add__, steps, zip(a[4:], a[5:]))), (b[:-1], b[1:])


def _philox_keys(seed: int, tag: str, indices):
    """The Philox keys of SeedSequence(seed, spawn_key=(TAGS[tag], index)) per index:
    numpy's mixing of the seed's 32-bit words, zero-padded to the pool size, then
    the tag and index words, and generate_state(2, np.uint64), as one (n, 2) array.
    One index is mixed in int arithmetic; more, in one pass in uint64, where every
    product of two words is exact and a difference wraps mod 2**64. The seed and each
    index go through operator.index, so numpy integers key as Python ints do. Raises
    KeyError for an unknown tag, TypeError for a seed or an index that is no integer
    (a float, a string, a list), ValueError for a seed below 0 or an index outside
    [0, 2**32), of any size."""
    if tag not in TAGS:
        raise KeyError(f"unknown rng tag {tag!r}; registered: {sorted(TAGS)}")
    # Python ints of any size, so that no uint64 cast wraps before the range check
    seed, index = operator.index(seed), [*map(operator.index, indices)]
    if seed < 0 or any(i >> 32 for i in index):
        raise ValueError("rng streams need master_seed >= 0 and indices in [0, 2**32)")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [
        TAGS[tag], index[0] if len(index) == 1 else np.array(index, dtype=np.uint64)]
    first, steps, last = _mixing(len(words))
    state = [*map(_hashmix, words, *first), *words[4:]]
    for src, dst, xor, mult in steps:
        h = (state[src] ^ xor) * mult & _M32  # _hashmix inline, saving a call per step
        r = _MIX_L * state[dst] - _MIX_R * (h ^ h >> 16) & _M32
        state[dst] = r ^ r >> 16
    out = list(map(_hashmix, state, *last))
    keys = np.array([out[0] | out[1] << 32, out[2] | out[3] << 32], dtype=np.uint64)
    return keys.T.reshape(-1, 2)


def substreams(master_seed: int, tag: str, indices):
    """Yield, per index, a Generator that draws what ``substream(master_seed, tag,
    index)`` draws, bit for bit, from keys derived in one array pass. The call
    re-keys its own Philox per index (counter 0, empty buffer), so a yielded
    generator is re-keyed on the next step: finish drawing from it first."""
    keys = _philox_keys(master_seed, tag, indices)
    rng = np.random.Generator(np.random.Philox(0))
    state = rng.bit_generator.state  # a fresh Philox: zero counter, empty buffer

    def rekey(key):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        return rng

    return map(rekey, keys)
