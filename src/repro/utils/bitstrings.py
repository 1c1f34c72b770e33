"""Bitstring utilities shared by the sampler, Hamiltonian and local-energy code.

Throughout the package a *configuration* (occupation-number bitstring, one bit
per spin orbital / qubit) is represented in one of two interchangeable forms:

* an ``(batch, N)`` ``uint8`` array of 0/1 entries (the "unpacked" form used by
  the neural networks), with **bit j = qubit j**;
* one or two ``uint64`` keys per configuration (the "packed" form of Sec. 3.4
  method (5) of the paper, used for the sorted lookup table and binary search).

The paper packs configurations into a single 64-bit integer for N < 64 and two
integers for 64 <= N < 128; we follow the same layout.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "popcount64",
    "parity64",
    "keys_to_ints",
    "ints_to_keys",
    "lexsort_keys",
    "key_records",
    "searchsorted_keys",
    "unique_keys",
]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(batch, N)`` array of 0/1 into ``(batch, K)`` uint64 keys.

    ``K = ceil(N / 64)``; bit ``j`` of the configuration is stored in word
    ``j // 64`` at position ``j % 64``.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim == 1:
        bits = bits[None, :]
    batch, n = bits.shape
    k = (n + 63) // 64
    out = np.zeros((batch, k), dtype=np.uint64)
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    for w in range(k):
        chunk = bits[:, 64 * w : min(64 * (w + 1), n)].astype(np.uint64)
        out[:, w] = chunk @ weights[: chunk.shape[1]]
    return out


def unpack_bits(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(batch, K)`` uint64 -> ``(batch, N)`` uint8."""
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[None, :]
    batch, k = keys.shape
    out = np.zeros((batch, n), dtype=np.uint8)
    for w in range(k):
        hi = min(64 * (w + 1), n)
        shifts = np.arange(hi - 64 * w, dtype=np.uint64)
        out[:, 64 * w : hi] = ((keys[:, w : w + 1] >> shifts) & np.uint64(1)).astype(
            np.uint8
        )
    return out


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count of a uint64 array (any shape)."""
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


def parity64(x: np.ndarray) -> np.ndarray:
    """Parity (popcount mod 2) of a uint64 array."""
    return (popcount64(x) & 1).astype(np.int64)


def keys_to_ints(keys: np.ndarray) -> list[int]:
    """Collapse ``(batch, K)`` uint64 keys into arbitrary-precision Python ints.

    One vectorized shift-or pass per word over an object-dtype view (word
    ``w`` contributes bits ``64w..64w+63``), instead of a per-entry Python
    loop: bit ``j`` of the int is qubit ``j`` of the configuration.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint64))
    obj = keys.astype(object)  # Python ints: << never overflows
    acc = obj[:, 0]
    for w in range(1, keys.shape[1]):
        acc = acc | (obj[:, w] << (64 * w))
    return acc.tolist()


def ints_to_keys(values, n_words: int) -> np.ndarray:
    """Inverse of :func:`keys_to_ints`: Python ints -> ``(len, n_words)`` uint64.

    Word ``w`` of a key holds bits ``64w..64w+63`` of the int.
    """
    obj = np.array(list(values), dtype=object)
    keys = np.zeros((len(obj), n_words), dtype=np.uint64)
    mask64 = (1 << 64) - 1
    for w in range(n_words):
        keys[:, w] = (obj >> (64 * w)) & mask64
    return keys


def lexsort_keys(keys: np.ndarray) -> np.ndarray:
    """Indices sorting multi-word uint64 keys lexicographically (word 0 minor).

    With bit j of the configuration stored in word ``j // 64``, comparing the
    *last* word first gives an order consistent across any key width; any
    total order works for the lookup table, this one is deterministic.
    ``np.lexsort`` is stable: equal keys keep their input order.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[:, None]
    return np.lexsort(tuple(keys[:, w] for w in range(keys.shape[1])))


@functools.cache
def _words_dtype(n_words: int) -> np.dtype:
    return np.dtype([(f"w{i}", np.uint64) for i in range(n_words)])


def key_records(keys: np.ndarray) -> np.ndarray:
    """``(M, W)`` uint64 keys -> ``(M,)`` values that compare in
    :func:`lexsort_keys` order — the one comparable view of a key.

    A one-word key is its word (no copy when the column is contiguous); a
    wider key is a record of its words, last word first, so ``np.searchsorted``
    and ``==`` compare the most significant word first.  Callers that search
    one table many times cache the view of the table.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.shape[1] == 1:
        return np.ascontiguousarray(keys[:, 0])
    return np.ascontiguousarray(keys[:, ::-1]).view(_words_dtype(keys.shape[1])).ravel()


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of ``(M, K)`` uint64 keys, in :func:`lexsort_keys` order.

    The keys are sorted and every row equal to the one before it dropped.
    Single-word keys sort their word column alone: numpy 2's 1-D ``unique``
    dedups by hashing and sorts afterwards (2.2 against 0.3 ms on the 51 798
    flip keys of one N2 exact iteration), and ``np.unique(keys, axis=0)``
    sorts a void-dtype view of the rows.  Multi-word keys are lexsorted.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint64))
    if keys.shape[1] == 1:
        keys = np.sort(keys, axis=0)
    else:
        keys = keys[lexsort_keys(keys)]
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return keys[keep]


def searchsorted_keys(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Binary search of ``query`` rows in lexicographically sorted ``sorted_keys``.

    Returns an ``(len(query),)`` int64 array of row indices, ``-1`` where the
    query key is absent.  This is the numpy counterpart of the CUDA
    ``binary_find`` of Algorithm 2 in the paper.
    """
    base = key_records(np.atleast_2d(np.asarray(sorted_keys, dtype=np.uint64)))
    q = key_records(np.atleast_2d(np.asarray(query, dtype=np.uint64)))
    if not len(base):
        return np.full(len(q), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(base, q), len(base) - 1)
    return np.where(base[pos] == q, pos, -1).astype(np.int64)
