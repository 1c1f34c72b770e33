"""Lossless delta/varint codec for the stage-2 sample allgather.

The stage-2 collective of the data-centric scheme (Fig. 4 / Sec. 3.2) ships
each rank's *lexsorted* unique-sample set: multi-word uint64 packed keys
(:mod:`repro.utils.bitstrings`) plus integer multiplicities.  Sorted unique
keys compress extremely well:

* **delta coding** — consecutive sorted keys differ by small gaps, so the
  stream stores ``key[0], key[1]-key[0], key[2]-key[1], ...`` as full-width
  multi-word differences (exact subtract-with-borrow, no precision loss);
* **LEB128 varints** — each K-word little-endian value is emitted as 7-bit
  groups, least significant first, with the high bit as the continuation
  flag; small gaps take one byte instead of ``8 * K``.

Everything here is bit-exact: ``decode(encode(x)) == x`` for any sorted
uint64 key set, including adversarial gaps of 0 (duplicates), 1, and
``> 2**64`` (multi-word carries).  A payload is a function of the one
iteration's keys and counts alone: no state crosses iterations.

Encoding and decoding are vectorized numpy passes (one loop over the ≤ 19
seven-bit groups of a 128-bit value, never over the batch).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "encode_uint_stream",
    "decode_uint_stream",
    "delta_encode_keys",
    "delta_decode_keys",
    "encode_counts",
    "decode_counts",
    "encode_sample_payload",
    "decode_sample_payload",
]

_PAYLOAD_VERSION = 2


# ----------------------------------------------------------- scalar varints
def _varint(value: int) -> bytes:
    v = int(value)
    if v < 0:
        raise ValueError(f"varints encode non-negative ints, got {value!r}")
    out = bytearray()
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _read_varint(buf, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    try:
        while True:
            b = buf[pos]
            pos += 1
            value |= (b & 0x7F) << shift
            if not (b & 0x80):
                return value, pos
            shift += 7
    except IndexError:
        raise ValueError("truncated payload header") from None


def _section(data: bytes) -> bytes:
    return _varint(len(data)) + data


def _read_section(buf, pos: int) -> tuple[bytes, int]:
    length, pos = _read_varint(buf, pos)
    if pos + length > len(buf):
        raise ValueError("truncated payload section")
    return bytes(buf[pos : pos + length]), pos + length


# ----------------------------------------------------- multi-word arithmetic
def _sub_multiword(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a - b`` on (U, K) uint64 little-endian values (word 0 minor)."""
    k = a.shape[1]
    out = np.empty_like(a)
    borrow = np.zeros(len(a), dtype=np.uint64)
    for w in range(k):
        d = a[:, w] - b[:, w]
        under1 = a[:, w] < b[:, w]
        d2 = d - borrow
        under2 = d < borrow
        out[:, w] = d2
        borrow = (under1 | under2).astype(np.uint64)
    return out


def _cumsum_multiword(deltas: np.ndarray) -> np.ndarray:
    """Exact prefix sums of (U, K) uint64 little-endian values.

    Per word: a wrapping ``np.add.accumulate`` plus carry propagation — each
    step adds < 2**64, so a step wraps iff the running sum drops below the
    step's addend; carries into the next word are the cumulative wrap count
    (plus at most one more wrap from adding the carries themselves).
    """
    u, k = deltas.shape
    out = np.empty_like(deltas)
    carries = np.zeros(u, dtype=np.int64)
    for w in range(k):
        col = deltas[:, w]
        cs = np.add.accumulate(col)
        step_wrap = cs < col
        cum_wraps = np.cumsum(step_wrap)
        res = cs + carries.astype(np.uint64)
        extra = res < cs
        out[:, w] = res
        carries = cum_wraps + extra
    return out


def _delta_words(values: np.ndarray) -> np.ndarray:
    """First row absolute, then exact consecutive differences."""
    out = np.array(values, dtype=np.uint64, copy=True)
    if len(out) > 1:
        out[1:] = _sub_multiword(values[1:], values[:-1])
    return out


# ------------------------------------------------------------ varint streams
def encode_uint_stream(words: np.ndarray) -> bytes:
    """LEB128-encode (U, K) uint64 little-endian values, one varint each."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[:, None]
    u, k = words.shape
    if u == 0:
        return b""
    n_groups = (64 * k + 6) // 7
    groups = np.zeros((u, n_groups), dtype=np.uint8)
    for g in range(n_groups):
        w, off = divmod(7 * g, 64)
        val = words[:, w] >> np.uint64(off)
        if off > 57 and w + 1 < k:
            val = val | (words[:, w + 1] << np.uint64(64 - off))
        groups[:, g] = (val & np.uint64(0x7F)).astype(np.uint8)
    nz = groups != 0
    highest = n_groups - 1 - np.argmax(nz[:, ::-1], axis=1)
    nbytes = np.where(nz.any(axis=1), highest + 1, 1).astype(np.int64)
    total = int(nbytes.sum())
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    gidx = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    vidx = np.repeat(np.arange(u, dtype=np.int64), nbytes)
    out = groups[vidx, gidx]
    cont = np.ones(total, dtype=np.uint8)
    cont[ends - 1] = 0
    return (out | (cont << 7)).tobytes()


def decode_uint_stream(data: bytes, k: int,
                       expect: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode_uint_stream`; returns (U, K) uint64."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0:
        if expect not in (None, 0):
            raise ValueError(f"expected {expect} values, stream is empty")
        return np.zeros((0, k), dtype=np.uint64)
    is_last = (raw & 0x80) == 0
    if not is_last[-1]:
        raise ValueError("truncated varint stream")
    u = int(is_last.sum())
    if expect is not None and u != expect:
        raise ValueError(f"expected {expect} values, stream holds {u}")
    ends = np.nonzero(is_last)[0]
    starts = np.empty(u, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    vid = np.zeros(raw.size, dtype=np.int64)
    vid[1:] = np.cumsum(is_last[:-1])
    gidx = np.arange(raw.size, dtype=np.int64) - starts[vid]
    payload = (raw & np.uint8(0x7F)).astype(np.uint64)
    words = np.zeros((u, k), dtype=np.uint64)
    for g in range(int(gidx.max()) + 1):
        sel = gidx == g
        p = payload[sel]
        v = vid[sel]
        w, off = divmod(7 * g, 64)
        if w >= k:
            if np.any(p):
                raise ValueError("varint value overflows the key width")
            continue
        words[v, w] |= p << np.uint64(off)
        if off > 57:
            spill = p >> np.uint64(64 - off)
            if w + 1 < k:
                words[v, w + 1] |= spill
            elif np.any(spill):
                raise ValueError("varint value overflows the key width")
    return words


# ------------------------------------------------------------- key streams
def delta_encode_keys(keys: np.ndarray) -> bytes:
    """Delta + varint encode lexsorted (U, K) uint64 keys."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[:, None]
    return encode_uint_stream(_delta_words(keys))


def delta_decode_keys(data: bytes, k: int,
                      expect: int | None = None) -> np.ndarray:
    """Inverse of :func:`delta_encode_keys`."""
    return _cumsum_multiword(decode_uint_stream(data, k, expect=expect))


def encode_counts(counts: np.ndarray) -> bytes:
    """Varint-encode integer multiplicities (any non-negative int dtype)."""
    counts = np.asarray(counts)
    if counts.size and int(counts.min()) < 0:
        raise ValueError("sample counts must be non-negative")
    return encode_uint_stream(counts.astype(np.uint64).reshape(-1, 1))


def decode_counts(data: bytes, expect: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode_counts`; returns int64 multiplicities."""
    return decode_uint_stream(data, 1, expect=expect).ravel().astype(np.int64)


# ------------------------------------------------------------ full payloads
def encode_sample_payload(keys: np.ndarray, counts: np.ndarray) -> bytes:
    """Encode one rank's sorted (keys, counts) stage-2 contribution.

    Wire format (all integers LEB128 varints)::

        version | U | K | section(delta-varint keys) | section(varint counts)

    ``counts`` is aligned with the sorted key order.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if keys.ndim == 1:
        keys = keys[:, None]
    counts = np.asarray(counts)
    u, k = keys.shape
    if counts.shape != (u,):
        raise ValueError(
            f"counts shape {counts.shape} does not match {u} keys"
        )
    return b"".join([
        _varint(_PAYLOAD_VERSION), _varint(u), _varint(k),
        _section(delta_encode_keys(keys)), _section(encode_counts(counts)),
    ])


def decode_sample_payload(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_sample_payload`; returns (keys, counts).

    ``keys`` is the sender's sorted (U, K) uint64 set, ``counts`` the aligned
    int64 multiplicities.  Raises :class:`ValueError` on a version or width
    mismatch or a corrupt payload instead of reconstructing a wrong set.
    """
    buf = memoryview(bytes(blob))
    version, pos = _read_varint(buf, 0)
    if version != _PAYLOAD_VERSION:
        raise ValueError(
            f"unknown payload version {version} (this build reads "
            f"version {_PAYLOAD_VERSION})"
        )
    u, pos = _read_varint(buf, pos)
    k, pos = _read_varint(buf, pos)
    if k < 1:
        raise ValueError(f"invalid key width {k}")
    stream, pos = _read_section(buf, pos)
    keys = delta_decode_keys(stream, k)
    counts_stream, pos = _read_section(buf, pos)
    counts = decode_counts(counts_stream)
    if len(keys) != u or len(counts) != u:
        raise ValueError(
            f"corrupt payload: header says {u} keys, decoded "
            f"{len(keys)} keys / {len(counts)} counts"
        )
    return keys, counts
