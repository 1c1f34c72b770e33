"""`WavefunctionService`: concurrent evaluation of trained NNQS ansätze.

The trained wavefunction is a long-lived artifact queried by many downstream
consumers — sampling, local energies, observables, PES scans (cf. the
QiankunNet LM-for-chemistry framing and the Fugaku-scale NNQS follow-up).
This module turns the in-process :class:`NNQSWavefunction` into a service:

* request APIs: ``sample``, ``log_amplitudes``, ``amplitudes``,
  ``conditional_probs``, ``local_energy`` — synchronous wrappers around
  ``submit_*`` future-returning variants;
* a :class:`~repro.serve.scheduler.MicroBatcher` coalescing concurrent
  amplitude requests into single vectorized forward passes (bounded queue,
  backpressure, latency/batch-size knobs);
* a per-version :class:`PrefixSessionCache` reusing live KV caches across
  ``conditional_probs`` requests;
* a :class:`~repro.serve.registry.ModelRegistry` binding, so clients pin a
  model version while training publishes new ones.

Determinism contract:

* ``sample`` requests carry their own seed and run as one seeded
  ``batch_autoregressive_sample`` per request — responses are bit-identical
  to a direct in-process call with the same seed, for every ansatz.
* ``log_amplitudes`` / ``amplitudes`` are deterministic in their inputs;
  when a request is fused with others, per-element results may differ from
  a direct call by BLAS reduction-order rounding (<= 1e-15 relative;
  a group containing a single request reproduces the direct call exactly).
* ``local_energy`` reuses the service's per-version amplitude table: in
  ``exact`` mode the result is the same Eq. (4) sum either way; in
  ``sample_aware`` mode the accumulated table means the service sums over a
  *superset* of the single-request sampled set (less biased, documented).

Every model evaluation runs on the scheduler thread, so per-version state
needs no locking.  Versions are immutable once published; the service keys
all derived state by version, which is what makes cached amplitude tables
safe (their ``log Psi`` entries are only valid per parameter vector).
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.local_energy import (
    AmplitudeTable,
    ElocPlan,
    build_amplitude_table,
    grow_amplitude_table,
    local_energy,
)
from repro.core.sampler import SampleBatch, batch_autoregressive_sample
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicroBatcher, RequestFailure, ServiceClosedError
from repro.utils.bitstrings import pack_bits

__all__ = ["PrefixSessionCache", "ServeConfig", "WavefunctionService"]


@dataclass
class ServeConfig:
    """Scheduler / cache knobs (trade-offs documented in DESIGN.md)."""

    max_batch_size: int = 256        # rows fused into one forward pass
    max_wait_ms: float = 2.0         # stragglers-latency budget per batch
    queue_capacity: int = 1024       # bounded queue => backpressure
    submit_timeout: float = 30.0     # seconds before overload rejection
    max_loaded_versions: int = 4     # resident snapshot LRU
    prefix_cache_entries: int = 8    # live decoding sessions per version
    table_max_entries: int = 500_000  # per-version amplitude-table cap


class _PrefixEntry:
    __slots__ = ("session", "logits")

    def __init__(self, session, logits: np.ndarray):
        self.session = session
        self.logits = logits


def _prefix_key(tokens: np.ndarray) -> tuple:
    return (tokens.shape, tokens.tobytes())


def _check_bits(bits: np.ndarray, n_qubits: int) -> None:
    """A client's ``(B, n_qubits)`` 0/1 rows; anything else is a bad
    request."""
    if bits.ndim != 2 or bits.shape[1] != n_qubits:
        raise ValueError(f"bits rows must be {n_qubits} wide, "
                         f"got shape {bits.shape}")
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")


def _check_per_row(name: str, arr: np.ndarray, n_rows: int) -> None:
    if arr.shape != (n_rows,):
        raise ValueError(f"{name} must hold one entry per row ({n_rows}), "
                         f"got shape {arr.shape}")


class PrefixSessionCache:
    """LRU of live decoding sessions keyed by their consumed ``(batch, k)``
    prefix, for clients that drive their own autoregressive loop through
    ``conditional_probs``.

    A request whose prefix extends a cached entry by one position is served
    with a single KV-cached ``step()`` (O(k) work) instead of a full prefill
    (k + 1 steps, O(k^2)); a repeat of an identical prefix replays the
    stored logits with no network work at all.  A prefill is a loop of the
    same decode kernel, so misses, continuations and a direct in-process
    call are numerically identical.  Not thread-safe: only the scheduler
    thread touches it.
    """

    def __init__(self, amplitude, max_entries: int = 8):
        self.amplitude = amplitude
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
            entry = self._entries.pop(_prefix_key(prefix[:, :-1]), None)
            if entry is not None:
                self.hits_step += 1
                entry.logits = entry.session.step(prefix[:, -1])
                self._insert(key, entry)
                return entry.logits
        self.misses += 1
        session = self.amplitude.make_session(len(prefix))
        logits = session.prefill(prefix)
        self._insert(key, _PrefixEntry(session, logits))
        return logits

    def _insert(self, key: tuple, entry: _PrefixEntry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> dict:
        return {"exact_hits": self.hits_exact, "step_hits": self.hits_step,
                "misses": self.misses, "entries": len(self._entries)}


class _LoadedModel:
    """One resident snapshot: wavefunction + its per-version reuse state."""

    __slots__ = ("version", "wf", "prefix_cache", "table",
                 "table_overflows", "eloc_plan")

    def __init__(self, version: int, wf: NNQSWavefunction, cfg: ServeConfig):
        self.version = version
        self.wf = wf
        self.prefix_cache = PrefixSessionCache(
            wf.amplitude, max_entries=cfg.prefix_cache_entries
        )
        self.table: AmplitudeTable | None = None
        self.table_overflows = 0
        # Compiled local-energy plan, one per version alongside the cached
        # amplitude table (built lazily on the first local_energy request;
        # evicted together with the snapshot's other per-version caches).
        self.eloc_plan: ElocPlan | None = None


class WavefunctionService:
    """Serve one or more wavefunction snapshots to concurrent clients.

    ``model`` is either a :class:`ModelRegistry` (versioned serving: clients
    may pin any published version, ``refresh()`` follows the latest) or a
    bare :class:`NNQSWavefunction` (single-model serving as version 0; the
    service treats the parameters as immutable — republish through a
    registry to change them).
    """

    LOCAL_VERSION = 0

    def __init__(
        self,
        model: ModelRegistry | NNQSWavefunction,
        hamiltonian: CompressedHamiltonian | Any | None = None,
        config: ServeConfig | None = None,
    ):
        self.config = config or ServeConfig()
        self._models: OrderedDict[int, _LoadedModel] = OrderedDict()
        if isinstance(model, ModelRegistry):
            self.registry: ModelRegistry | None = model
            self._active_version = model.latest_version()
        else:
            self.registry = None
            self._active_version = self.LOCAL_VERSION
            self._models[self.LOCAL_VERSION] = _LoadedModel(
                self.LOCAL_VERSION, model, self.config
            )
        self.comp: CompressedHamiltonian | None = None
        if hamiltonian is not None:
            self.comp = (
                hamiltonian
                if isinstance(hamiltonian, CompressedHamiltonian)
                else compress_hamiltonian(hamiltonian)
            )
        self._batcher = MicroBatcher(
            self._run_group,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            queue_capacity=self.config.queue_capacity,
            submit_timeout=self.config.submit_timeout,
        )
        self._op_counts: dict[str, int] = {}
        # Guards _models / _op_counts structure: the scheduler thread
        # mutates them while monitoring threads snapshot via stats().
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "WavefunctionService":
        self._batcher.start()
        return self

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut the service down; with ``drain`` (default) every accepted
        request is answered first, within ``timeout`` seconds if given —
        see :meth:`MicroBatcher.close`.  False when the budget ran out."""
        return self._batcher.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "WavefunctionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- versions
    def refresh(self) -> int | None:
        """Re-read the registry; subsequent unpinned requests use the latest
        published version.  Pinned (explicit-version) requests are unaffected."""
        if self.registry is not None:
            self._active_version = self.registry.latest_version()
        return self._active_version

    def active_version(self) -> int | None:
        return self._active_version

    def _resolve(self, version: int | None) -> int:
        if version is not None:
            return int(version)
        if self._active_version is None:
            raise ServiceClosedError(
                "registry has no published versions yet (publish, then refresh())"
            )
        return self._active_version

    def _model(self, version: int) -> _LoadedModel:
        """Resident snapshot for ``version`` (scheduler thread only)."""
        with self._state_lock:
            entry = self._models.get(version)
            if entry is not None:
                self._models.move_to_end(version)
                return entry
        if self.registry is None:
            raise KeyError(
                f"single-model service only serves version {self.LOCAL_VERSION}, "
                f"got {version}"
            )
        wf, _ = self.registry.load(version)
        entry = _LoadedModel(version, wf, self.config)
        with self._state_lock:
            self._models[version] = entry
            while len(self._models) > self.config.max_loaded_versions:
                self._models.popitem(last=False)  # evict LRU snapshot + caches
        return entry

    # ------------------------------------------------------------- requests
    def submit_sample(self, n_samples: int, seed: int, version: int | None = None,
                      timeout: float | None = None):
        return self._batcher.submit(
            ("sample", self._resolve(version)), (int(n_samples), int(seed)),
            timeout=timeout,
        )

    def sample(self, n_samples: int, seed: int, version: int | None = None) -> SampleBatch:
        """Seeded BAS sampling; bit-identical to the same direct seeded call."""
        return self.submit_sample(n_samples, seed, version).result()

    def submit_log_amplitudes(self, bits: np.ndarray, version: int | None = None,
                              timeout: float | None = None):
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        return self._batcher.submit(
            ("log_amps", self._resolve(version)), bits, n_rows=len(bits),
            timeout=timeout,
        )

    def log_amplitudes(self, bits: np.ndarray, version: int | None = None) -> np.ndarray:
        """(B,) complex log Psi(x) — the microbatched hot path."""
        return self.submit_log_amplitudes(bits, version).result()

    def submit_amplitudes(self, bits: np.ndarray, version: int | None = None,
                          timeout: float | None = None):
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        return self._batcher.submit(
            ("amps", self._resolve(version)), bits, n_rows=len(bits),
            timeout=timeout,
        )

    def amplitudes(self, bits: np.ndarray, version: int | None = None) -> np.ndarray:
        return self.submit_amplitudes(bits, version).result()

    def submit_conditional_probs(self, prefix_tokens: np.ndarray,
                                 counts_up: np.ndarray, counts_dn: np.ndarray,
                                 version: int | None = None,
                                 timeout: float | None = None):
        payload = (
            np.atleast_2d(np.asarray(prefix_tokens, dtype=np.int64)),
            np.asarray(counts_up, dtype=np.int64),
            np.asarray(counts_dn, dtype=np.int64),
        )
        return self._batcher.submit(
            ("cond_probs", self._resolve(version)), payload,
            n_rows=len(payload[0]), timeout=timeout,
        )

    def conditional_probs(self, prefix_tokens: np.ndarray, counts_up: np.ndarray,
                          counts_dn: np.ndarray,
                          version: int | None = None) -> np.ndarray:
        """(B, vocab) masked next-token conditionals, KV-cache accelerated.

        Successive calls extending the same prefix by one token are served
        with a single cached ``step`` (the inference-server decode loop);
        identical repeats replay stored logits.
        """
        return self.submit_conditional_probs(
            prefix_tokens, counts_up, counts_dn, version
        ).result()

    def submit_local_energy(self, batch: SampleBatch, mode: str = "exact",
                            version: int | None = None,
                            timeout: float | None = None):
        if self.comp is None:
            raise ValueError("service was built without a Hamiltonian")
        return self._batcher.submit(
            ("local_energy", self._resolve(version)), (batch, mode),
            n_rows=batch.n_unique, timeout=timeout,
        )

    def local_energy(self, batch: SampleBatch, mode: str = "exact",
                     version: int | None = None) -> np.ndarray:
        """(U,) E_loc over ``batch``, reusing the version's amplitude table."""
        return self.submit_local_energy(batch, mode, version).result()

    # ------------------------------------------------------------ execution
    def _run_group(self, key: tuple, payloads: list) -> list:
        op, version = key
        with self._state_lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + len(payloads)
        model = self._model(version)
        if op == "log_amps":
            return self._run_fused(model.wf.log_amplitudes, payloads,
                                   model.wf.n_qubits)
        if op == "amps":
            return self._run_fused(model.wf.amplitudes, payloads,
                                   model.wf.n_qubits)
        if op == "cond_probs":
            return [self._run_cond_probs(model, p) for p in payloads]
        if op == "sample":
            return [self._run_sample(model, p) for p in payloads]
        if op == "local_energy":
            return [self._run_local_energy(model, p) for p in payloads]
        raise RuntimeError(f"unknown op {op!r}")  # pragma: no cover

    @staticmethod
    def _run_fused(evaluate, payloads: list, n_qubits: int) -> list:
        """One vectorized forward over the concatenated request rows.

        A group that fails as a whole (e.g. one client sent malformed bits,
        breaking the concatenation) falls back to per-request evaluation so
        a single bad request cannot poison the others fused with it.  Rows
        that are not ``n_qubits`` wide or hold a value other than 0/1 are a
        ``ValueError`` (a bad request), raised before any forward work.
        """
        def checked(bits: np.ndarray) -> np.ndarray:
            _check_bits(bits, n_qubits)
            return evaluate(bits)

        if len(payloads) == 1:
            return [checked(payloads[0])]
        try:
            sizes = np.cumsum([len(p) for p in payloads])[:-1]
            out = checked(np.concatenate(payloads, axis=0))
            return np.split(out, sizes)
        except Exception:  # noqa: BLE001 - isolated per request below
            results = []
            for p in payloads:
                try:
                    results.append(checked(p))
                except Exception as exc:  # noqa: BLE001
                    results.append(RequestFailure(exc))
            return results

    def _run_cond_probs(self, model: _LoadedModel, payload) -> np.ndarray:
        prefix, counts_up, counts_dn = payload
        vocab = model.wf.vocab_size
        if prefix.ndim != 2 or (prefix.size and not
                                0 <= prefix.min() <= prefix.max() < vocab):
            raise ValueError(f"prefix_tokens must be (B, k) tokens in "
                             f"[0, {vocab}), got shape {prefix.shape}")
        _check_per_row("counts_up", counts_up, len(prefix))
        _check_per_row("counts_dn", counts_dn, len(prefix))
        logits = model.prefix_cache.next_logits(prefix)
        return model.wf.probs_from_logits(
            logits, counts_up, counts_dn, prefix.shape[1]
        )

    def _run_sample(self, model: _LoadedModel, payload) -> SampleBatch:
        n_samples, seed = payload
        rng = np.random.default_rng(seed)
        return batch_autoregressive_sample(model.wf, n_samples, rng)

    def _run_local_energy(self, model: _LoadedModel, payload) -> np.ndarray:
        batch, mode = payload
        _check_bits(batch.bits, model.wf.n_qubits)
        _check_per_row("weights", batch.weights, len(batch.bits))
        if model.eloc_plan is None:
            model.eloc_plan = ElocPlan(self.comp)
        table = self._table_with_samples(model, batch)
        eloc, table = local_energy(model.wf, self.comp, batch, mode=mode,
                                   table=table, plan=model.eloc_plan)
        if table.n_entries <= self.config.table_max_entries:
            model.table = table
        else:
            # Over the cap: keep the previous under-cap table (bounded
            # memory, reuse of the older working set preserved) rather than
            # dropping to a permanent cold start.
            model.table_overflows += 1
        return eloc

    def _table_with_samples(self, model: _LoadedModel,
                            batch: SampleBatch) -> AmplitudeTable:
        """The version's table, grown to cover ``batch``.  The first request
        tabulates the batch; later ones evaluate only configurations never
        seen under this version, each once.  Client rows may repeat (unique
        rows are a sampler guarantee, not a wire invariant): both calls keep
        the table sorted-unique."""
        if model.table is None:
            return build_amplitude_table(model.wf, batch)
        return grow_amplitude_table(model.wf, model.table, pack_bits(batch.bits))

    # ----------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """Scheduler + per-version reuse counters (for tests and benches)."""
        with self._state_lock:
            models = list(self._models.items())
            ops = dict(self._op_counts)
        per_version = {
            v: {
                "prefix_cache": m.prefix_cache.stats(),
                "table_entries": 0 if m.table is None else m.table.n_entries,
                "table_overflows": m.table_overflows,
                "eloc_plan_compiled": m.eloc_plan is not None,
            }
            for v, m in models
        }
        return {
            "batcher": self._batcher.stats.as_dict(),
            "ops": ops,
            "versions": per_version,
            "active_version": self._active_version,
        }
