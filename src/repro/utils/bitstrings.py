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

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "popcount64",
    "parity64",
    "bits_to_int",
    "int_to_bits",
    "keys_to_ints",
    "lexsort_keys",
    "searchsorted_keys",
    "unique_keys",
]

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


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
    x = np.asarray(x, dtype=np.uint64)
    view = x[..., None].view(np.uint8)
    return _POP8[view].sum(axis=-1).astype(np.int64).reshape(x.shape)


def parity64(x: np.ndarray) -> np.ndarray:
    """Parity (popcount mod 2) of a uint64 array."""
    return (popcount64(x) & 1).astype(np.int64)


def bits_to_int(bits) -> int:
    """Single Python-int key for one configuration of arbitrary length."""
    v = 0
    for j, b in enumerate(bits):
        if b:
            v |= 1 << j
    return v


def int_to_bits(v: int, n: int) -> np.ndarray:
    return np.array([(v >> j) & 1 for j in range(n)], dtype=np.uint8)


def keys_to_ints(keys: np.ndarray) -> list[int]:
    """Collapse ``(batch, K)`` uint64 keys into arbitrary-precision Python ints.

    One vectorized shift-or pass per word over an object-dtype view (word
    ``w`` contributes bits ``64w..64w+63``), instead of a per-entry Python
    loop.  The result matches ``bits_to_int`` on the unpacked configuration.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint64))
    obj = keys.astype(object)  # Python ints: << never overflows
    acc = obj[:, 0]
    for w in range(1, keys.shape[1]):
        acc = acc | (obj[:, w] << (64 * w))
    return acc.tolist()


def lexsort_keys(keys: np.ndarray) -> np.ndarray:
    """Indices sorting multi-word uint64 keys lexicographically (word 0 minor).

    With bit j of the configuration stored in word ``j // 64``, comparing the
    *last* word first gives an order consistent across any key width; any
    total order works for the lookup table, this one is deterministic.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[:, None]
    return np.lexsort(tuple(keys[:, w] for w in range(keys.shape[1])))


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of ``(M, K)`` uint64 keys, in :func:`lexsort_keys` order.

    Single-word keys dedup through a 1-D ``unique`` on the word column;
    ``np.unique(keys, axis=0)`` would sort a void-dtype view of the rows
    instead (3.5x slower on the 58 740 flip rows of one N2 exact iteration).
    Multi-word keys are lexsorted and adjacent duplicates dropped.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint64))
    if keys.shape[1] == 1:
        return np.unique(keys[:, 0])[:, None]
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
    sorted_keys = np.atleast_2d(np.asarray(sorted_keys, dtype=np.uint64))
    query = np.atleast_2d(np.asarray(query, dtype=np.uint64))
    k = sorted_keys.shape[1]
    if k == 1:
        base = sorted_keys[:, 0]
        q = query[:, 0]
        pos = np.searchsorted(base, q)
        pos_clip = np.minimum(pos, len(base) - 1) if len(base) else pos * 0
        hit = (len(base) > 0) & (base[pos_clip] == q) if len(base) else np.zeros(len(q), bool)
        return np.where(hit, pos_clip, -1).astype(np.int64)
    # Multi-word keys: map each distinct word tuple to a scalar via structured view.
    dt = np.dtype([(f"w{i}", np.uint64) for i in range(k)])
    # lexsort_keys sorts with word 0 as the *least* significant, so build the
    # structured comparison in reverse word order to match.
    base_rec = np.ascontiguousarray(sorted_keys[:, ::-1]).view(dt).ravel()
    q_rec = np.ascontiguousarray(query[:, ::-1]).view(dt).ravel()
    pos = np.searchsorted(base_rec, q_rec)
    pos_clip = np.minimum(pos, len(base_rec) - 1) if len(base_rec) else pos * 0
    hit = (base_rec[pos_clip] == q_rec) if len(base_rec) else np.zeros(len(q_rec), bool)
    return np.where(hit, pos_clip, -1).astype(np.int64)
