"""Counter seeds and split masks against numpy's own streams.

The scalar forms the array arithmetic replaced are kept as oracles: one
``SeedSequence`` per derived seed (``oracles.seed_sequence_seed``) and one
``default_rng(s).integers(0, 2, n)`` per mask. ``Generator.integers`` is
not frozen across numpy versions, so these tests pin the streams of the
installed numpy.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcmi.seeding
from fcmi.core import ContractViolation
from fcmi.seeding import derive_seeds, split_masks
from oracles import seed_sequence_seed


def _rng_masks(seeds, n: int) -> np.ndarray:
    """The scalar split masks: one generator per seed."""
    return np.array([np.random.default_rng(int(s)).integers(0, 2, n) for s in seeds],
                    dtype=np.uint8).reshape(len(seeds), n)


# each word count of the entropy: 0, one word, two words, and above 2^64
EDGE_VALUES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
BIG_VALUES = EDGE_VALUES + [2 ** 64, 2 ** 64 + 5, 2 ** 96 + 3, 2 ** 200 + 1]
uint64s = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2 ** 64 - 1))
uint32s = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1))
any_ints = st.one_of(st.sampled_from(BIG_VALUES), st.integers(0, 2 ** 32),
                     st.integers(0, 2 ** 80))


class TestDeriveSeeds:
    @pytest.mark.parametrize("seed", BIG_VALUES)
    @pytest.mark.parametrize("path", [(), (0,), (1, 2), (2 ** 32, 7), (0, 0, 0, 0, 0),
                                      (2 ** 70, 1, 2), (3, 2 ** 64 - 1)])
    def test_scalar_edge_values(self, seed, path):
        got = derive_seeds(seed, *path)
        assert got.shape == () and int(got) == seed_sequence_seed(seed, *path)

    @pytest.mark.parametrize("args", [(-1,), (3, -2), (0, 1, -(2 ** 70))])
    def test_scalar_refuses_negative(self, args):
        with pytest.raises(ContractViolation, match="nonnegative"):
            derive_seeds(*args)

    @given(st.lists(uint64s, min_size=1, max_size=30), st.lists(any_ints, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_array_in_seed_position(self, seeds, path):
        got = derive_seeds(np.array(seeds, dtype=np.uint64), *path)
        assert got.dtype == np.uint64
        assert got.tolist() == [seed_sequence_seed(s, *path) for s in seeds]

    @given(any_ints, st.lists(any_ints, max_size=3), st.lists(uint32s, min_size=1, max_size=30),
           st.lists(any_ints, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_array_in_counter_position(self, seed, head, counters, tail):
        got = derive_seeds(seed, *head, np.array(counters, dtype=np.uint64), *tail)
        assert got.tolist() == [seed_sequence_seed(seed, *head, c, *tail)
                                for c in counters]

    @pytest.mark.parametrize("counters", [[2 ** 32], [0, 2 ** 63 - 1]])
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_refuses_counter_array_past_one_word(self, counters, dtype):
        """An array of counters is one spawn-key word per element, so a
        counter of 2^32 or more is refused; a scalar counter may be any size."""
        counters = np.array(counters, dtype=dtype)
        with pytest.raises(ContractViolation, match="below 2\\^32"):
            derive_seeds(3, 1, counters)
        assert int(derive_seeds(3, 1, 2 ** 32)) == seed_sequence_seed(3, 1, 2 ** 32)

    def test_broadcast_and_int64_counters(self):
        got = derive_seeds(7, np.arange(3), np.arange(2)[:, None])
        assert got.shape == (2, 3)
        assert got.tolist() == [[seed_sequence_seed(7, t, j) for t in range(3)]
                                for j in range(2)]
        assert derive_seeds(np.array([], dtype=np.uint64), 1).shape == (0,)

    @pytest.mark.parametrize("args", [(-1,), (3, -2), (np.array([1, -1]),),
                                      (np.array([0.5]),), (1, np.array([1.0]))])
    def test_refuses_negative_or_non_integer(self, args):
        with pytest.raises(ContractViolation):
            derive_seeds(*args)


class TestSplitMasks:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_equals_numpy_for_small_n(self, n):
        seeds = np.array(EDGE_VALUES + [seed_sequence_seed(5, n, t) for t in range(20)],
                         dtype=np.uint64)
        got = split_masks(seeds, n)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, _rng_masks(seeds, n))

    @given(st.lists(uint64s, min_size=1, max_size=40), st.integers(1, 80),
           st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_across_block_boundaries(self, seeds, n, block):
        """A small block splits both the rows and the outputs of a row, so the
        base state is carried from block to block."""
        seeds = np.array(seeds, dtype=np.uint64)
        with mock.patch.object(fcmi.seeding, "_MASK_BLOCK", block):
            got = split_masks(seeds, n)
        assert np.array_equal(got, _rng_masks(seeds, n))

    def test_default_blocks_with_many_rows(self):
        # 700 rows of 7 outputs: more than one block of 2^12 cells
        seeds = derive_seeds(2 ** 32 + 7, 1, 0, np.arange(700))
        assert np.array_equal(split_masks(seeds, 13), _rng_masks(seeds, 13))

    @pytest.mark.parametrize("n", [999, 1000])
    def test_long_masks(self, n):
        seeds = derive_seeds(3, 1, 0, np.arange(12))
        assert np.array_equal(split_masks(seeds, n), _rng_masks(seeds, n))

    def test_refuses_bad_shapes(self):
        with pytest.raises(ContractViolation):
            split_masks(np.zeros((2, 2), dtype=np.uint64), 3)
        with pytest.raises(ContractViolation):
            split_masks(np.arange(3), 0)
