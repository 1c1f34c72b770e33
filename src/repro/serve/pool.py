"""Session reuse for the serving layer: free-list pool + prefix cache.

Two complementary reuse mechanisms around PR 1's inference sessions:

* :class:`SessionPool` — a bounded free list of reset sessions.  A *lease*
  temporarily routes ``NNQSWavefunction.make_session`` through the pool, so
  every session a sampling sweep opens (the BAS root prefill, the prefill
  of a session-less resumed state) is drawn from — and afterwards recycled into — the free list
  instead of being constructed from scratch per request.  ``reset()``
  restores a recycled session to its freshly-constructed state — its KV
  cache and its float32 copy of the weights are dropped together, and the
  next step takes both afresh from the network's current θ — so pooled
  sampling stays bit-identical to unpooled sampling.

* :class:`PrefixSessionCache` — an LRU of *live* decoding sessions keyed by
  the token prefix they have consumed, for clients that drive their own
  autoregressive loop through the service's ``conditional_probs`` API.
  A request whose prefix extends a cached entry by one position is served
  with a single KV-cached ``step()`` (O(k) work) instead of a full prefill
  (k + 1 steps, O(k^2)); a repeat of an identical prefix replays the stored
  logits with no network work at all.  A prefill is a loop of the same
  decode kernel, so cache-miss prefills, step-continuations and a direct
  in-process call are numerically *identical*; all match the float64 full
  forward to the float32 decoder's tolerance (tests/test_inference.py).

Neither structure is thread-safe: the service confines all model evaluation
to the single scheduler thread (see scheduler.py).
"""
from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
import threading

import numpy as np

__all__ = ["SessionPool", "PrefixSessionCache"]


class SessionPool:
    """Bounded free list of inference sessions for one amplitude network."""

    def __init__(self, amplitude, max_idle: int = 4):
        self.amplitude = amplitude
        self.max_idle = max_idle
        self._idle: list = []
        self.created = 0
        self.reused = 0

    def acquire(self, batch_size: int = 1):
        """A fresh-state session: recycled when available, else constructed."""
        if self._idle:
            self.reused += 1
            return self._idle.pop().reset(batch_size)
        self.created += 1
        return self.amplitude.make_session(batch_size)

    def release(self, session) -> None:
        """Return a session to the free list (reset; dropped when full)."""
        if len(self._idle) < self.max_idle:
            self._idle.append(session.reset())

    @contextmanager
    def lease(self, wf):
        """Route ``wf.make_session`` through the pool for the duration.

        Every session opened under the lease is recycled on exit — the BAS
        sweep of one ``sample`` request typically opens exactly one (the
        root; ``select()`` derivatives share its buffers and are dropped).

        Pooled sessions are handed out only to the leasing thread: another
        thread sharing the wavefunction (e.g. a trainer sampling in-process
        while the service runs) gets a plain fresh session, so lease exit
        can never reset a session that thread is still stepping.
        """
        opened: list = []
        owner = threading.get_ident()

        def factory(batch_size: int):
            if threading.get_ident() != owner:
                return wf.amplitude.make_session(batch_size)
            session = self.acquire(batch_size)
            opened.append(session)
            return session

        previous = wf.session_factory
        wf.session_factory = factory
        try:
            yield self
        finally:
            wf.session_factory = previous
            for session in opened:
                self.release(session)

    def stats(self) -> dict:
        return {"created": self.created, "reused": self.reused,
                "idle": len(self._idle)}


class _PrefixEntry:
    __slots__ = ("session", "tokens", "logits")

    def __init__(self, session, tokens: np.ndarray, logits: np.ndarray):
        self.session = session
        self.tokens = tokens
        self.logits = logits


def _prefix_key(tokens: np.ndarray) -> tuple:
    return (tokens.shape, tokens.tobytes())


class PrefixSessionCache:
    """LRU of live sessions keyed by their consumed ``(batch, k)`` prefix."""

    def __init__(self, pool: SessionPool, max_entries: int = 8):
        self.pool = pool
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, _PrefixEntry] = OrderedDict()
        self.hits_exact = 0
        self.hits_step = 0
        self.misses = 0

    def next_logits(self, prefix_tokens: np.ndarray) -> np.ndarray:
        """Raw next-position logits for ``(batch, k)`` prefixes.

        Lookup order: exact replay (stored logits, no network work) ->
        one-token continuation (single cached ``step``) -> miss (full
        prefill, entry inserted).
        """
        prefix = np.ascontiguousarray(prefix_tokens, dtype=np.int64)
        if prefix.ndim == 1:
            prefix = prefix[None, :]
        key = _prefix_key(prefix)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits_exact += 1
            self._entries.move_to_end(key)
            return entry.logits
        if prefix.shape[1] > 0:
            parent_key = _prefix_key(prefix[:, :-1])
            entry = self._entries.get(parent_key)
            if entry is not None:
                self.hits_step += 1
                del self._entries[parent_key]
                entry.logits = entry.session.step(prefix[:, -1])
                entry.tokens = prefix
                self._insert(key, entry)
                return entry.logits
        self.misses += 1
        session = self.pool.acquire(len(prefix))
        logits = session.prefill(prefix)
        self._insert(key, _PrefixEntry(session, prefix, logits))
        return logits

    def _insert(self, key: tuple, entry: _PrefixEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.pool.release(evicted.session)

    def clear(self) -> None:
        for entry in self._entries.values():
            self.pool.release(entry.session)
        self._entries.clear()

    def stats(self) -> dict:
        return {"exact_hits": self.hits_exact, "step_hits": self.hits_step,
                "misses": self.misses, "entries": len(self._entries)}
