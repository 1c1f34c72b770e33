"""The one communicator: typed collectives over a transport ``exchange`` seam.

The paper's data-centric scheme (Fig. 4, Sec. 3.2) needs exactly two
collectives: ``Allgather`` (unique samples + weights + amplitudes, stage 2)
and ``Allreduce`` (energy sums, stage 4; gradients, stage 6).  :class:`Comm`
implements them once — rank order, the chunked rank-ordered sum, the
``(op, seq)`` desynchronization check and the byte accounting — on top of a
*transport* that knows nothing about collectives.

A transport supplies five things:

``rank``, ``size``
    This member's position in, and the size of, the world.
``exchange(tag, buffer) -> [(tag_0, buffer_0), ..., (tag_{size-1}, ...)]``
    All-to-all: deliver ``(tag, buffer)`` to every peer and return every
    rank's pair in rank order (the caller's own pair at index ``rank``,
    carrying the very object passed in).  ``buffer`` is an ``ndarray`` or a
    ``bytes`` object and comes back as the same kind.  Returned buffers are
    **valid until the next** ``exchange`` on this transport and must be
    treated as read-only; ``borrows`` says whether they alias transport
    memory (shared-memory segment views) and so *must* be copied to outlive
    it.  Peers' tags come back unchecked — the desync check lives here, in
    one place, not in each transport.
``abort(reason)``
    Leave the world abruptly so that every peer's blocked or next
    ``exchange`` raises :class:`CommAbortError` in bounded time.
``close()``
    Leave cleanly and release every resource (idempotent).

Byte accounting follows the paper's convention (payload bytes x N_p), split
into *logical* bytes (the uncompressed natural-width payload the Sec. 3.2
closed-form model predicts) and *wire* bytes (what crosses the transport
after :mod:`repro.parallel.codec`; equal to logical for raw collectives).
Every rank computes the same numbers from the payload sizes it sees, so any
rank's :class:`CommStats` speaks for the world; launchers return rank 0's.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Comm",
    "CommAbortError",
    "CommStats",
    "SoloTransport",
    "dead_rank_message",
    "poison_survivors",
]

# allreduce accumulation granularity: bounds resident temporaries without
# changing the rank-ordered elementwise add (bit-identical to any chunking).
_REDUCE_CHUNK_BYTES = 4 << 20
# allgather_blob prefixes each blob with the logical size it stands for.
_LOGICAL = struct.Struct("<Q")


class CommAbortError(RuntimeError):
    """A collective was poisoned because a rank died, left or desynchronized.

    Raised on *every* survivor, naming the rank (or the op/seq) at fault —
    the crash semantics shared by all transports.  Subclasses
    ``RuntimeError`` so ``except RuntimeError`` callers keep working.
    """

    def __init__(self, message: str, dead_rank: int | None = None):
        super().__init__(message)
        self.dead_rank = dead_rank


def dead_rank_message(dead_ranks, reason: str) -> str:
    """The canonical poison message: which rank(s) died, and why."""
    ranks = sorted(set(int(r) for r in dead_ranks))
    label = f"rank {ranks[0]}" if len(ranks) == 1 else (
        "ranks " + ", ".join(str(r) for r in ranks)
    )
    return f"{label} left the collective: {reason}"


def poison_survivors(live_ranks, send_abort, message: str) -> None:
    """Deliver an abort poison to every live rank, swallowing send failures.

    ``send_abort(rank, message)`` is the transport-specific delivery (a pipe
    send for the process coordinator, an abort control frame for the
    rendezvous coordinator); a rank whose channel is already gone is simply
    skipped — it is dead or dying anyway.
    """
    for rank in live_ranks:
        try:
            send_abort(rank, message)
        except (OSError, BrokenPipeError, EOFError):
            pass


@dataclass
class CommStats:
    """Byte counters per collective (paper convention: payload x N_p).

    ``*_bytes`` counters are *logical* volume (uncompressed, natural width);
    ``*_wire_bytes`` are what actually moved.  ``channels`` breaks both down
    by the logical channel name a collective was tagged with (e.g.
    ``stage2_samples``).
    """

    allgather_bytes: int = 0
    allreduce_bytes: int = 0
    allgather_wire_bytes: int = 0
    allreduce_wire_bytes: int = 0
    calls: dict = field(
        default_factory=lambda: {"allgather": 0, "allreduce": 0}
    )
    channels: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.allgather_bytes + self.allreduce_bytes

    @property
    def total_wire_bytes(self) -> int:
        return self.allgather_wire_bytes + self.allreduce_wire_bytes

    def add(self, op: str, nbytes: int, wire: int | None = None,
            channel: str | None = None) -> None:
        wire = nbytes if wire is None else wire
        setattr(self, f"{op}_bytes", getattr(self, f"{op}_bytes") + nbytes)
        setattr(
            self, f"{op}_wire_bytes", getattr(self, f"{op}_wire_bytes") + wire
        )
        self.calls[op] += 1
        if channel is not None:
            rec = self.channels.setdefault(
                channel, {"logical": 0, "wire": 0, "calls": 0}
            )
            rec["logical"] += nbytes
            rec["wire"] += wire
            rec["calls"] += 1


class SoloTransport:
    """The size-1 world: ``exchange`` is the identity."""

    rank = 0
    size = 1
    borrows = False

    def exchange(self, tag, buffer) -> list:
        return [(tag, buffer)]

    def abort(self, reason: str) -> None:
        pass

    def close(self) -> None:
        pass


def _sum_rank_ordered(parts: list) -> np.ndarray:
    """Chunked ``parts[0] + parts[1] + ...`` in rank order, into a new array.

    Sequential elementwise IEEE adds — bit-equal to
    ``functools.reduce(np.add, parts)`` — in ``_REDUCE_CHUNK_BYTES`` chunks,
    so the only resident temporary is the output itself even when ``parts``
    are views into peers' shared-memory segments.
    """
    out = np.empty(parts[0].shape, dtype=parts[0].dtype)
    flat = out.reshape(-1)
    views = [p.reshape(-1) for p in parts]
    step = max(1, _REDUCE_CHUNK_BYTES // max(1, out.itemsize))
    for s in range(0, flat.size, step):
        sl = slice(s, s + step)
        np.copyto(flat[sl], views[0][sl])
        for v in views[1:]:
            flat[sl] += v[sl]
    return out


class Comm:
    """One rank's communicator: the typed collectives of Fig. 4.

    All ranks must issue collectives in the same order — the MPI contract;
    a rank that does not is detected by the ``(op, seq)`` tag check and
    surfaces as :class:`CommAbortError` naming the op, the seq and the rank.
    """

    def __init__(self, transport):
        self.transport = transport
        self.stats = CommStats()
        self._seq = 0

    def Get_rank(self) -> int:
        return self.transport.rank

    def Get_size(self) -> int:
        return self.transport.size

    def close(self) -> None:
        self.transport.close()

    def _exchange(self, op: str, buffer) -> list:
        tag = (op, self._seq)
        self._seq += 1
        parts = []
        for peer, (peer_tag, part) in enumerate(
                self.transport.exchange(tag, buffer)):
            if peer_tag != tag:
                raise CommAbortError(
                    f"rank {self.transport.rank}: desynchronized collective: "
                    f"issued {op} (seq {tag[1]}) while rank {peer} issued "
                    f"{peer_tag[0]} (seq {peer_tag[1]})"
                )
            parts.append(part)
        return parts

    # ------------------------------------------------------------ collectives
    def allgather_ndarray(self, array: np.ndarray,
                          channel: str | None = None) -> list[np.ndarray]:
        """Typed allgather of one ndarray per rank, returned in rank order.

        Thread ranks share references to each other's arrays (zero copies),
        so callers must treat the returned arrays as read-only.
        """
        array = np.asarray(array)
        parts = self._exchange("allgather_ndarray", array)
        self.stats.add(
            "allgather", sum(a.nbytes for a in parts) * self.transport.size,
            channel=channel,
        )
        if self.transport.borrows:
            parts = [a if a is array else a.copy() for a in parts]
        return parts

    def allgather_blob(self, data: bytes, logical_bytes: int | None = None,
                       channel: str | None = None) -> list[bytes]:
        """Allgather pre-encoded bytes; accounts logical vs. wire separately.

        ``logical_bytes`` declares the uncompressed payload size the blob
        stands for (defaults to ``len(data)``), so compressed collectives
        report an honest logical/wire split.
        """
        data = bytes(data)
        logical = len(data) if logical_bytes is None else int(logical_bytes)
        parts = self._exchange("allgather_blob", _LOGICAL.pack(logical) + data)
        size = self.transport.size
        self.stats.add(
            "allgather",
            sum(_LOGICAL.unpack_from(p)[0] for p in parts) * size,
            wire=sum(len(p) - _LOGICAL.size for p in parts) * size,
            channel=channel,
        )
        rank = self.transport.rank
        return [
            data if r == rank else bytes(p[_LOGICAL.size:])
            for r, p in enumerate(parts)
        ]

    def allreduce_ndarray(self, array: np.ndarray,
                          channel: str | None = None) -> np.ndarray:
        """Typed sum-allreduce; rank-ordered, so identical on every rank and
        on every transport (never ``MPI.SUM``, whose order is
        implementation-defined).

        Aliasing rule: on a size-1 world the sum of one part is that part, and
        the result is ``array`` itself — no copy; a caller that goes on writing
        into its buffer is writing into the result.  On any larger world the
        result is a new array.
        """
        array = np.asarray(array)
        parts = self._exchange("allreduce_ndarray", array)
        for peer, part in enumerate(parts):
            if part.shape != array.shape or part.dtype != array.dtype:
                raise CommAbortError(
                    f"rank {self.transport.rank}: allreduce payload mismatch: "
                    f"{array.dtype}{array.shape} here, "
                    f"{part.dtype}{part.shape} on rank {peer}"
                )
        self.stats.add(
            "allreduce", array.nbytes * self.transport.size, channel=channel
        )
        if self.transport.size == 1:
            return array
        return _sum_rank_ordered(parts)
