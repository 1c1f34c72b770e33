"""Request microbatching: coalesce concurrent small requests into big batches.

The paper's whole performance story — batch autoregressive sampling, the
Algorithm-2 amplitude LUT, the batch-vectorized local-energy kernel — exists
to keep the network busy with large, coalesced batches.  A serving layer has
the same shape: many concurrent clients each asking for a handful of
amplitudes produce exactly the small-batch traffic that wastes the (Python
and kernel-launch) fixed cost of a forward pass.  The :class:`MicroBatcher`
is the standard inference-server answer: requests enter a **bounded** queue
(backpressure — a full queue rejects instead of growing without bound), a
single scheduler thread drains it, fuses requests that share a *coalescing
key* up to ``max_batch_size`` rows — waiting at most ``max_wait_ms`` for
stragglers — and runs one vectorized evaluation per group.

Knobs and their trade-off (see DESIGN.md "Serving"):

* ``max_batch_size`` — rows fused into one forward; larger amortizes more
  fixed cost per row but delays the first request of the batch.
* ``max_wait_ms``    — how long a lone request waits for company.  0 means
  "fuse only what is already queued": lowest latency, still coalesces under
  sustained load.
* ``queue_capacity`` / ``submit_timeout`` — the backpressure contract: when
  the queue is full, ``submit`` blocks up to ``submit_timeout`` seconds and
  then raises :class:`ServiceOverloadedError`.

Execution is single-threaded by design: every model evaluation happens on
the scheduler thread, so the per-model state (prefix caches,
amplitude tables) needs no locking.
"""
from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

__all__ = [
    "MicroBatcher",
    "BatcherStats",
    "RequestFailure",
    "ServiceClosedError",
    "ServiceOverloadedError",
]


class ServiceClosedError(RuntimeError):
    """The service/batcher has been closed; no further requests are accepted."""


class ServiceOverloadedError(RuntimeError):
    """Bounded-queue backpressure: the request queue stayed full past the
    submit timeout."""


class RequestFailure:
    """A per-request error inside an otherwise successful group.

    Runners return one of these in the results list to fail a single
    request without poisoning the rest of its coalescing group.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


@dataclass
class _Request:
    key: tuple
    payload: object
    n_rows: int
    future: Future


# Enqueued by close(): FIFO order guarantees every earlier request is served
# before the loop exits, and the idle loop can block on get() with no
# wake-up polling.
_SHUTDOWN = object()


@dataclass
class BatcherStats:
    """Scheduler counters (all mutated on the scheduler thread only)."""

    requests: int = 0          # accepted into the queue
    rejected: int = 0          # refused by backpressure
    batches: int = 0           # vectorized runs issued
    batched_rows: int = 0      # total rows across all runs
    max_rows_per_batch: int = 0

    def rows_per_batch(self) -> float:
        return self.batched_rows / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "batches": self.batches,
            "batched_rows": self.batched_rows,
            "max_rows_per_batch": self.max_rows_per_batch,
            "rows_per_batch": self.rows_per_batch(),
        }


class MicroBatcher:
    """Bounded-queue request coalescer driving a single evaluation thread.

    ``runner(key, payloads) -> results`` receives every payload of one
    coalescing-key group (in arrival order) and must return one result per
    payload.  Whether a group is actually fused into one array operation is
    the runner's business — the batcher guarantees grouping, ordering,
    bounded queueing and per-request future delivery.
    """

    def __init__(self, runner, max_batch_size: int = 256,
                 max_wait_ms: float = 2.0, queue_capacity: int = 1024,
                 submit_timeout: float = 30.0):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self._runner = runner
        self.max_batch_size = max_batch_size
        self.max_wait_s = max(max_wait_ms, 0.0) / 1e3
        self.submit_timeout = submit_timeout
        self._queue: queue.Queue[_Request] = queue.Queue(maxsize=queue_capacity)
        self._closing = False
        self._thread: threading.Thread | None = None
        self.stats = BatcherStats()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="microbatcher")
        self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting requests, then shut the scheduler down.

        ``drain=True`` (the graceful path, wired to SIGTERM in the network
        server): every request already accepted into the queue is served
        before the scheduler thread exits — new submissions are rejected
        with :class:`ServiceClosedError` from the moment close() is entered,
        but no accepted future is ever abandoned.  ``drain=False`` (the
        emergency path, e.g. the peer we would answer is already gone):
        queued requests are failed with :class:`ServiceClosedError`
        immediately; only the batch already executing finishes.

        ``timeout`` bounds the whole close.  Past it the backlog is failed
        as with ``drain=False``, the batch already executing finishes on the
        (daemon) scheduler thread, which then exits, and close() returns
        False.  Returns True once the scheduler thread has exited.
        """
        self._closing = True
        thread = self._thread
        if thread is not None:
            deadline = None if timeout is None else time.monotonic() + timeout

            def left() -> float | None:
                return (None if deadline is None
                        else max(deadline - time.monotonic(), 0.0))

            if not drain:
                self._fail_queued()  # empty the backlog before the marker
            try:
                self._queue.put(_SHUTDOWN, timeout=left())  # the loop drains
            except queue.Full:
                pass  # budget spent behind a full queue; failed below
            thread.join(left())
            self._thread = None
            if thread.is_alive():
                self._fail_queued()
                try:
                    self._queue.put_nowait(_SHUTDOWN)
                except queue.Full:  # pragma: no cover - a submit raced in
                    pass
                return False
        self._fail_queued()
        return True

    def _fail_queued(self) -> None:
        """Deliver ServiceClosedError to any request still in the dead queue
        (a shutdown marker found on the way is put back for the loop)."""
        marker = False
        while True:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                break
            if req is _SHUTDOWN:
                marker = True
            elif not req.future.done():
                req.future.set_exception(
                    ServiceClosedError("batcher is closed")
                )
        if marker:
            self._queue.put_nowait(_SHUTDOWN)

    # -------------------------------------------------------------- submit
    def submit(self, key: tuple, payload, n_rows: int = 1,
               timeout: float | None = None) -> Future:
        """Enqueue one request; returns its :class:`Future`.

        Raises :class:`ServiceClosedError` after :meth:`close`, and
        :class:`ServiceOverloadedError` when backpressure rejects the
        request (queue full past ``timeout``, defaulting to the batcher's
        ``submit_timeout``; pass ``0.0`` for an immediate reject — the
        HTTP front door's shape, where waiting would park a handler thread
        behind a full queue).
        """
        if self._closing:
            raise ServiceClosedError("batcher is closed")
        if self._thread is None:
            raise ServiceClosedError("batcher not started")
        if timeout is None:
            timeout = self.submit_timeout
        req = _Request(key=key, payload=payload, n_rows=max(int(n_rows), 1),
                       future=Future())
        try:
            if timeout > 0:
                self._queue.put(req, timeout=timeout)
            else:
                self._queue.put_nowait(req)
        except queue.Full:
            self.stats.rejected += 1  # benign race: stat only
            raise ServiceOverloadedError(
                f"request queue full ({self._queue.maxsize}) for {timeout}s"
            ) from None
        # Re-check after the put: if close() finished its drain between our
        # closing check and the put, the loop is gone and nothing would ever
        # resolve this future — fail it (and anything else stranded) now.
        if self._closing and self._thread is None:
            self._fail_queued()
        return req.future

    # ------------------------------------------------------------ the loop
    def _loop(self) -> None:
        shutdown = False
        while not shutdown:
            first = self._queue.get()  # idle service parks here, no polling
            if first is _SHUTDOWN:
                return
            batch = [first]
            rows = first.n_rows
            deadline = time.monotonic() + self.max_wait_s
            while rows < self.max_batch_size:
                remaining = deadline - time.monotonic()
                try:
                    nxt = self._queue.get(timeout=max(remaining, 0.0))
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True  # serve what we already collected first
                    break
                batch.append(nxt)
                rows += nxt.n_rows
            try:
                self._dispatch(batch)
            except BaseException:  # pragma: no cover - last-resort guard
                # The scheduler thread must survive anything: a dead loop
                # strands every future client forever.
                continue

    def _dispatch(self, batch: list[_Request]) -> None:
        """Group one drain cycle by coalescing key and run each group."""
        groups: dict[tuple, list[_Request]] = {}
        for req in batch:
            # Transition PENDING -> RUNNING; a future the client cancelled
            # while queued is dropped here (setting it later would raise
            # InvalidStateError and kill the scheduler thread).
            if req.future.set_running_or_notify_cancel():
                groups.setdefault(req.key, []).append(req)
        for key, reqs in groups.items():
            self.stats.requests += len(reqs)
            self.stats.batches += 1
            n_rows = sum(r.n_rows for r in reqs)
            self.stats.batched_rows += n_rows
            self.stats.max_rows_per_batch = max(self.stats.max_rows_per_batch,
                                                n_rows)
            try:
                results = self._runner(key, [r.payload for r in reqs])
                if len(results) != len(reqs):  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"runner returned {len(results)} results for "
                        f"{len(reqs)} requests"
                    )
            except BaseException as exc:  # noqa: BLE001 - delivered per future
                for r in reqs:
                    r.future.set_exception(exc)
            else:
                for r, res in zip(reqs, results):
                    if isinstance(res, RequestFailure):
                        r.future.set_exception(res.exc)
                    else:
                        r.future.set_result(res)
