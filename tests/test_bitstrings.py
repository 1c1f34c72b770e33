"""Unit + property tests for the packed-bitstring utilities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitstrings import (
    ints_to_keys,
    key_records,
    keys_to_ints,
    lexsort_keys,
    pack_bits,
    parity64,
    popcount64,
    searchsorted_keys,
    unique_keys,
    unpack_bits,
)


class TestPackUnpack:
    def test_single_word_roundtrip(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 0, 1]], dtype=np.uint8)
        keys = pack_bits(bits)
        assert keys.shape == (1, 1)
        assert keys[0, 0] == 0b10001101
        np.testing.assert_array_equal(unpack_bits(keys, 8), bits)

    def test_1d_input_promoted(self):
        keys = pack_bits(np.array([1, 1, 0], dtype=np.uint8))
        assert keys.shape == (1, 1)
        assert keys[0, 0] == 3

    def test_two_word_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(20, 100)).astype(np.uint8)
        keys = pack_bits(bits)
        assert keys.shape == (20, 2)
        np.testing.assert_array_equal(unpack_bits(keys, 100), bits)

    def test_bit_placement_across_words(self):
        bits = np.zeros((1, 70), dtype=np.uint8)
        bits[0, 65] = 1
        keys = pack_bits(bits)
        assert keys[0, 0] == 0
        assert keys[0, 1] == 2  # bit 65 -> word 1, position 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=130))
    def test_roundtrip_property(self, bits):
        arr = np.array([bits], dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(arr), len(bits)), arr)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**120 - 1))
    def test_matches_python_int(self, value):
        """A 120-bit int (two words) and its high word round-trip through
        ``ints_to_keys`` / ``keys_to_ints``, and bit j of the int is qubit j."""
        keys = ints_to_keys([value, value >> 64], 2)
        assert keys_to_ints(keys) == [value, value >> 64]
        assert int(keys[0, 0]) | (int(keys[0, 1]) << 64) == value
        bits = unpack_bits(keys[:1], 120)
        assert sum(int(b) << j for j, b in enumerate(bits[0])) == value
        np.testing.assert_array_equal(pack_bits(bits), keys[:1])


class TestPopcountParity:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_popcount_matches_python(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert popcount64(arr)[0] == bin(v).count("1")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_parity_matches_python(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert parity64(arr)[0] == bin(v).count("1") % 2

    def test_popcount_shape_preserved(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert popcount64(arr).shape == (3, 4)

    def test_popcount_zero_and_full(self):
        arr = np.array([0, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(popcount64(arr), [0, 64])


class TestSearchSorted:
    def test_single_word_hits_and_misses(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(50, 12)).astype(np.uint8)
        keys = np.unique(pack_bits(bits), axis=0)
        keys = keys[lexsort_keys(keys)]
        idx = searchsorted_keys(keys, keys)
        np.testing.assert_array_equal(keys[idx], keys)
        missing = np.array([[2**60]], dtype=np.uint64)
        assert searchsorted_keys(keys, missing)[0] == -1

    def test_multiword(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(80, 100)).astype(np.uint8)
        keys = np.unique(pack_bits(bits), axis=0)
        keys = keys[lexsort_keys(keys)]
        idx = searchsorted_keys(keys, keys)
        assert np.all(idx >= 0)
        np.testing.assert_array_equal(keys[idx], keys)
        probe = keys[3].copy()
        probe[0] ^= np.uint64(1)  # perturb -> almost surely absent
        if not any(np.array_equal(probe, k) for k in keys):
            assert searchsorted_keys(keys, probe[None, :])[0] == -1

    def test_empty_table(self):
        keys = np.zeros((0, 1), dtype=np.uint64)
        q = np.array([[5]], dtype=np.uint64)
        assert searchsorted_keys(keys, q)[0] == -1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40, unique=True))
    def test_property_single_word(self, values):
        keys = np.array(sorted(values), dtype=np.uint64)[:, None]
        for v in values:
            pos = searchsorted_keys(keys, np.array([[v]], dtype=np.uint64))[0]
            assert keys[pos, 0] == v


class TestLexsort:
    @pytest.mark.parametrize("n_words", [1, 2, 3])
    def test_sorting_is_total_order(self, n_words):
        """``lexsort_keys`` orders keys as the Python ints they pack (last
        word most significant), and so does sorting their ``key_records``."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 4, size=(60, n_words)).astype(np.uint64) << np.uint64(62)
        keys[::3] |= rng.integers(0, 2**63, size=(20, n_words)).astype(np.uint64)
        order = lexsort_keys(keys)
        ints = keys_to_ints(keys[order])
        assert ints == sorted(ints)
        records = key_records(keys)
        assert records.shape == (len(keys),)
        np.testing.assert_array_equal(
            keys[np.argsort(records, kind="stable")], keys[order])
        np.testing.assert_array_equal(np.sort(records), records[order])

    def test_1d_keys_accepted(self):
        keys = np.array([3, 1, 2], dtype=np.uint64)
        np.testing.assert_array_equal(lexsort_keys(keys), [1, 2, 0])


class TestUniqueKeys:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 7), max_size=60))
    def test_single_word_is_numpys_unique(self, values):
        """Zero rows, one row, duplicates and the full 64-bit range: the sort
        plus adjacent-difference dedup returns ``np.unique``'s array."""
        keys = np.array(values, dtype=np.uint64).reshape(-1, 1)
        got = unique_keys(keys)
        assert got.dtype == np.uint64 and got.shape[1] == 1
        np.testing.assert_array_equal(got[:, 0], np.unique(keys[:, 0]))

    def test_empty_and_one_row(self):
        for rows in (0, 1):
            keys = np.full((rows, 1), 5, dtype=np.uint64)
            np.testing.assert_array_equal(unique_keys(keys), keys)
