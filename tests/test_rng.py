import hashlib

import numpy as np
import pytest

from fopen_sar.rng import TAGS, _philox_keys, substream, substreams
from fopen_sar.scenario import MAX_SAMPLES

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, (1 << 129) + 12345]
INDICES = list(range(300)) + list(range(MAX_SAMPLES - 3, MAX_SAMPLES + 4))


def _draws(rng) -> bytes:
    """A few draws of each kind the simulator (and numpy's buffered paths) use."""
    return b"".join(a.tobytes() for a in (
        rng.standard_normal(5), rng.gamma(4.0, 0.25, 5), rng.uniform(-np.pi, np.pi, 5),
        rng.integers(0, 2, 5), rng.integers(0, 1000, 3, dtype=np.int32)))


def _key(rng) -> np.ndarray:
    """The Philox key a generator draws from."""
    return rng.bit_generator.state["state"]["key"]


class TestKeysMatchSeedSequence:
    """numpy's SeedSequence is the oracle of the one key derivation, for an int
    index (substream's argument) and for an index array (substreams')."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_int_and_array_indices(self, seed, tag):
        rows = _philox_keys(seed, tag, np.asarray(INDICES, dtype=np.int64))
        assert rows.shape == (len(INDICES), 2) and rows.dtype == np.uint64
        for i, row in zip(INDICES, rows, strict=True):
            want = np.random.SeedSequence(seed, spawn_key=(TAGS[tag], i)).generate_state(
                2, np.uint64)
            key = _key(substream(seed, tag, i))
            assert key.shape == (2,) and key.dtype == np.uint64
            assert np.array_equal(key, want), (seed, tag, i)
            assert np.array_equal(row, want), (seed, tag, i)


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint32])
def test_numpy_integers_give_the_keys_of_equal_python_ints(kind):
    for seed, i in [(0, 0), (6, 3), (2**31 - 1, 2**31 - 1)]:
        want = _philox_keys(seed, "receiver_noise", [i])[0]
        assert np.array_equal(_key(substream(kind(seed), "receiver_noise", kind(i))), want)
        rows = _philox_keys(kind(seed), "receiver_noise", np.array([i, i], dtype=kind))
        assert np.array_equal(rows, [want, want])


# The draw calls the simulator makes on each stream, as (tag, call) -> draws.
N_DRAWS = 4096


def _fill(method, *args):
    def draw(rng):
        out = np.empty(N_DRAWS)
        getattr(rng, method)(*args, out=out)
        return out
    return draw


CALLS = {
    ("bpsk_symbols", "integers(0, 2)"): lambda rng: rng.integers(0, 2, size=N_DRAWS),
    ("noise_waveform", "standard_normal"): lambda rng: rng.standard_normal(N_DRAWS),
    ("foliage_gamma", "standard_gamma(0.2, out=)"): _fill("standard_gamma", 0.2),
    ("foliage_gamma", "standard_gamma(1, out=)"): _fill("standard_gamma", 1.0),
    ("foliage_gamma", "standard_gamma(4, out=)"): _fill("standard_gamma", 4.0),
    ("foliage_phase", "random(out=)"): _fill("random"),
    ("foliage_fbm", "standard_normal"): lambda rng: rng.standard_normal(N_DRAWS),
    ("receiver_noise", "standard_normal(out=)"): _fill("standard_normal"),
}
GOLDEN_PAIRS = [(0, 0), (6, 0), (40, 31), (2**64 - 1, 2**32 - 1)]
GOLDEN = {
    ("bpsk_symbols", "integers(0, 2)"):
        "f88e64dcdc26e8d5793a90df999e72414796632626bc4534b1d94b8eab33bf65",
    ("noise_waveform", "standard_normal"):
        "c6f2a878c472db282b914ebfcb97493f4f6310345409ccf91216071596478929",
    ("foliage_gamma", "standard_gamma(0.2, out=)"):
        "809926fafb524bd244c8768fd1c6cc418f01d0ae772519f98d127e69231c56cf",
    ("foliage_gamma", "standard_gamma(1, out=)"):
        "7478eb68106f59ad746428cf83fdd2b97cdc8dcd7135eda99a73270677395e74",
    ("foliage_gamma", "standard_gamma(4, out=)"):
        "1b21e5ffbf1516e1d6349ef16d1db8d3f18a3f3e61a0226c03123b1408684ec8",
    ("foliage_phase", "random(out=)"):
        "91584e3cbec0d4cc0576a521e3b0e329309f7792dd3b3c928bcd03002bd6135f",
    ("foliage_fbm", "standard_normal"):
        "c1d8609c4ebe3a0c0a09a6a764faa5c00e4f6de099acebd68030c476d8cea2b3",
    ("receiver_noise", "standard_normal(out=)"):
        "eba54626f59beaa295f0889cb15960d06f04db2c8b7b04fcf4e1ae4944269d3d",
}


def golden_digest(tag, call) -> str:
    """The SHA-256 of the first N_DRAWS draws of CALLS[tag, call] at each of GOLDEN_PAIRS."""
    return hashlib.sha256(b"".join(
        CALLS[tag, call](substream(seed, tag, i)).tobytes() for seed, i in GOLDEN_PAIRS)
    ).hexdigest()


@pytest.mark.parametrize("tag, call", sorted(CALLS), ids=[f"{t}-{c}" for t, c in sorted(CALLS)])
def test_golden_digest(tag, call):
    """A numpy-upgrade tripwire: the SHA-256 of the first N_DRAWS draws of each
    call the simulator makes on each stream, at GOLDEN_PAIRS' (seed, index).
    numpy's compatibility policy (NEP 19) does not promise that Generator
    distributions keep their values across versions; every output byte rests on
    them. The literals came from numpy 2.4.6 on x86_64 Linux (Python 3.11.7,
    float64 kernels at X86_V4), and match the keys of numpy's own SeedSequence;
    tests/test_dispatch.py checks them at every dispatch level as well."""
    assert golden_digest(tag, call) == GOLDEN[tag, call], f"stream {tag!r}, call {call} moved"


def test_golden_digests_cover_every_tag():
    assert {tag for tag, _ in CALLS} == set(TAGS) and set(GOLDEN) == set(CALLS)


class TestSubstreamsMatchSubstream:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", sorted(TAGS))
    def test_bit_for_bit(self, seed, tag):
        for i, rng in zip(INDICES, substreams(seed, tag, INDICES), strict=True):
            assert _draws(rng) == _draws(substream(seed, tag, i)), i

    def test_numpy_index_array_and_empty(self):
        idx = np.arange(1, 40)
        for i, rng in zip(idx, substreams(7, "foliage_gamma", idx), strict=True):
            assert _draws(rng) == _draws(substream(7, "foliage_gamma", i)), i
        assert list(substreams(7, "foliage_gamma", [])) == []

    def test_live_iterators_do_not_disturb_each_other(self):
        idx = range(1, 65)
        gammas = substreams(5, "foliage_gamma", idx)
        phases = substreams(5, "foliage_phase", idx)
        for i, g_rng, p_rng in zip(idx, gammas, phases, strict=True):
            g = g_rng.gamma(4.0, 0.25, 7)
            p = p_rng.uniform(-np.pi, np.pi, 7)
            g = np.concatenate([g, g_rng.gamma(4.0, 0.25, 3)])
            np.testing.assert_array_equal(
                g, substream(5, "foliage_gamma", i).gamma(4.0, 0.25, 10))
            np.testing.assert_array_equal(
                p, substream(5, "foliage_phase", i).uniform(-np.pi, np.pi, 7))


class TestSubstreamsRejects:
    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            substreams(1, "nope", [0])

    def test_negative_index(self):
        with pytest.raises(ValueError):
            substreams(1, "receiver_noise", [3, -1])

    def test_index_beyond_32_bits(self):
        with pytest.raises(ValueError):
            substreams(1, "receiver_noise", [2**32])

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            substreams(-1, "receiver_noise", [0])


# (master_seed, tag, index) that both entry points reject, and the exception.
BAD_INPUTS = [((1, "nope", 0), KeyError), ((-1, "receiver_noise", 0), ValueError),
              ((1, "receiver_noise", -1), ValueError),
              ((1, "receiver_noise", 2**32), ValueError),
              ((1, "receiver_noise", 2**63), ValueError),
              ((1, "receiver_noise", 2**64), ValueError),
              ((1.5, "receiver_noise", 0), TypeError),
              ((np.float64(1.0), "receiver_noise", 0), TypeError),
              (("1", "receiver_noise", 0), TypeError),
              ((1, "receiver_noise", 1.5), TypeError),
              ((1, "receiver_noise", np.float64(3.0)), TypeError),
              ((1, "receiver_noise", "3"), TypeError),
              ((1, "receiver_noise", [3]), TypeError)]


@pytest.mark.parametrize("args, error", BAD_INPUTS)
def test_substream_and_substreams_reject_alike(args, error):
    seed, tag, index = args
    with pytest.raises(error) as single:
        substream(seed, tag, index)
    with pytest.raises(error) as batched:
        substreams(seed, tag, [index])
    assert type(single.value) is type(batched.value) is error
