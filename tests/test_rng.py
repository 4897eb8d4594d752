import numpy as np
import pytest

from fopen_sar.rng import TAGS, substream, substreams
from fopen_sar.scenario import MAX_SAMPLES

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, (1 << 129) + 12345]
INDICES = list(range(300)) + list(range(MAX_SAMPLES - 3, MAX_SAMPLES + 4))


def _draws(rng) -> bytes:
    """A few draws of each kind the simulator (and numpy's buffered paths) use."""
    return b"".join(a.tobytes() for a in (
        rng.standard_normal(5), rng.gamma(4.0, 0.25, 5), rng.uniform(-np.pi, np.pi, 5),
        rng.integers(0, 2, 5), rng.integers(0, 1000, 3, dtype=np.int32)))


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
