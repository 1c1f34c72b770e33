"""Property-based roundtrip tests for the stage-2 delta/varint codec.

The codec (repro.parallel.codec) must be exactly lossless — the engine's
bit-identity contracts (serial == thread == process trajectories) ride on
decode(encode(x)) == x for every sorted unique-key set the sampler can emit:
multi-word uint64 keys, adversarial gaps (0 between duplicates is excluded
by construction — keys are unique — but 1 and > 2^32 with word carries are
not), and empty and single-key sets.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.codec import (
    decode_counts,
    decode_sample_payload,
    decode_uint_stream,
    delta_decode_keys,
    delta_encode_keys,
    encode_counts,
    encode_sample_payload,
    encode_uint_stream,
)


def _sorted_unique_keys(values: list[int], k: int) -> np.ndarray:
    """(U, k) uint64 little-endian words of sorted unique ints."""
    vals = sorted(set(values))
    out = np.zeros((len(vals), k), dtype=np.uint64)
    for i, v in enumerate(vals):
        for w in range(k):
            out[i, w] = (v >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return out


def _keys_strategy(k: int, max_size: int = 60):
    return st.lists(
        st.integers(min_value=0, max_value=2 ** (64 * k) - 1),
        min_size=0, max_size=max_size,
    ).map(lambda vals: _sorted_unique_keys(vals, k))


class TestUintStream:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_single_word_roundtrip(self, vals):
        arr = np.array(vals, dtype=np.uint64).reshape(-1, 1)
        out = decode_uint_stream(encode_uint_stream(arr), 1, expect=len(vals))
        assert np.array_equal(out, arr)

    @given(st.lists(st.integers(min_value=0, max_value=2**192 - 1), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_multi_word_roundtrip(self, vals):
        arr = _sorted_unique_keys(vals, 3)  # sorted is irrelevant here; reuse
        out = decode_uint_stream(encode_uint_stream(arr), 3, expect=len(arr))
        assert np.array_equal(out, arr)

    def test_empty(self):
        assert encode_uint_stream(np.zeros((0, 2), dtype=np.uint64)) == b""
        out = decode_uint_stream(b"", 2, expect=0)
        assert out.shape == (0, 2)

    def test_truncation_detected(self):
        blob = encode_uint_stream(np.array([[2**63]], dtype=np.uint64))
        with pytest.raises(ValueError):
            decode_uint_stream(blob[:-1], 1, expect=1)

    def test_count_mismatch_detected(self):
        blob = encode_uint_stream(np.array([[7], [9]], dtype=np.uint64))
        with pytest.raises(ValueError):
            decode_uint_stream(blob, 1, expect=3)


class TestDeltaKeys:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adversarial_gaps(self, k):
        """Gaps of 1, exactly 2^32, 2^32 + 1, and a word-boundary carry."""
        base = 2**40
        vals = [0, 1, 2, base, base + 2**32, base + 2**32 + 1]
        if k > 1:
            # force deltas that carry across the 64-bit word boundary
            vals += [2**64 - 1, 2**64, 2**64 + 1, 2 ** (64 * k) - 1]
        keys = _sorted_unique_keys(vals, k)
        out = delta_decode_keys(delta_encode_keys(keys), k, expect=len(keys))
        assert np.array_equal(out, keys)

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_and_single(self, k):
        for vals in ([], [0], [2 ** (64 * k) - 1]):
            keys = _sorted_unique_keys(vals, k)
            out = delta_decode_keys(
                delta_encode_keys(keys), k, expect=len(keys)
            )
            assert np.array_equal(out, keys)

    @given(_keys_strategy(1))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_k1(self, keys):
        out = delta_decode_keys(delta_encode_keys(keys), 1, expect=len(keys))
        assert np.array_equal(out, keys)

    @given(_keys_strategy(2))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_k2(self, keys):
        out = delta_decode_keys(delta_encode_keys(keys), 2, expect=len(keys))
        assert np.array_equal(out, keys)

    @given(_keys_strategy(4, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_k4(self, keys):
        out = delta_decode_keys(delta_encode_keys(keys), 4, expect=len(keys))
        assert np.array_equal(out, keys)


class TestCounts:
    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, vals):
        arr = np.array(vals, dtype=np.int64)
        out = decode_counts(encode_counts(arr), expect=len(vals))
        assert out.dtype == np.int64
        assert np.array_equal(out, arr)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_counts(np.array([3, -1], dtype=np.int64))


@st.composite
def _payload_case(draw, k=2):
    """A sorted unique key set with aligned positive counts."""
    keys = draw(_keys_strategy(k, max_size=50))
    counts = draw(st.lists(
        st.integers(min_value=1, max_value=10**6),
        min_size=len(keys), max_size=len(keys),
    ))
    return keys, np.array(counts, dtype=np.int64)


class TestSamplePayload:
    @given(_payload_case())
    @settings(max_examples=80, deadline=None)
    def test_full_roundtrip(self, case):
        keys, counts = case
        blob = encode_sample_payload(keys, counts)
        out_k, out_c = decode_sample_payload(blob)
        assert np.array_equal(out_k, keys)
        assert np.array_equal(out_c, counts)

    @pytest.mark.parametrize("blob, match", [
        (b"\xff\xff\xff", "truncated"),
        # The earlier format: version 1 | flags 0 | U 1 | K 1 | section(key 5)
        # | section(count 3).  A peer on that build fails loudly, by version.
        (bytes([1, 0, 1, 1, 1, 5, 1, 3]), "version 1"),
    ], ids=["garbage", "version-1-with-flags"])
    def test_garbage_rejected(self, blob, match):
        with pytest.raises(ValueError, match=match):
            decode_sample_payload(blob)

    def test_compresses_sorted_dense_sets(self):
        """The design target: lexsorted 20-bit keys shrink well below raw."""
        rng = np.random.default_rng(0)
        vals = np.unique(rng.integers(0, 2**20, size=30000))
        keys = vals.astype(np.uint64).reshape(-1, 1)
        counts = rng.integers(1, 50, size=len(keys)).astype(np.int64)
        blob = encode_sample_payload(keys, counts)
        raw = keys.nbytes + counts.astype(np.uint32).nbytes
        assert len(blob) * 2 < raw
