"""Independent-stream batch sampling — the paper's Sec. 4.4 outlook.

"For even larger scale parallelization in the future implementation, one
could still take advantage of the conventional Monte Carlo sampling by simply
implementing several independent [runs of] the batch sampling algorithm,
which will be effective as long as a larger number of unique samples are
going to be important for that problem."

:func:`merged_batch_sample` runs ``n_streams`` independent BAS sweeps (each
with its own RNG stream and its own share of the sample budget) and merges
the resulting unique sets, summing occurrence weights.  Each stream is an
embarrassingly parallel unit — on a cluster every stream would live on its
own process group; here the streams run sequentially and the merge cost and
unique-sample statistics (the quantities that decide whether the scheme pays
off) are reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sampler import SampleBatch, batch_autoregressive_sample
from repro.core.wavefunction import NNQSWavefunction
from repro.utils.bitstrings import lexsort_keys, pack_bits, unpack_bits

__all__ = ["MergeStats", "merge_batches", "merged_batch_sample"]


@dataclass
class MergeStats:
    """Unique-sample bookkeeping for an independent-stream merge."""

    n_streams: int
    uniques_per_stream: list[int]
    n_unique_merged: int
    n_samples: int

    @property
    def overlap_fraction(self) -> float:
        """1 - merged/summed uniques: how much work the streams duplicated."""
        total = sum(self.uniques_per_stream)
        return 1.0 - self.n_unique_merged / total if total else 0.0


def merge_batches(batches: list[SampleBatch], n_qubits: int) -> SampleBatch:
    """Union of unique samples across batches, occurrence weights summed."""
    if not batches:
        raise ValueError("need at least one batch to merge")
    keys = np.concatenate([pack_bits(b.bits) for b in batches], axis=0)
    weights = np.concatenate([b.weights for b in batches])
    order = lexsort_keys(keys)
    keys, weights = keys[order], weights[order]
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    group = np.cumsum(boundary) - 1
    merged_w = np.bincount(group, weights=weights).astype(np.int64)
    merged_keys = keys[boundary]
    return SampleBatch(bits=unpack_bits(merged_keys, n_qubits), weights=merged_w)


def merged_batch_sample(
    wf: NNQSWavefunction,
    n_samples: int,
    rng: np.random.Generator,
    n_streams: int = 4,
) -> tuple[SampleBatch, MergeStats]:
    """Run ``n_streams`` independent BAS sweeps and merge their outputs.

    The budget is split evenly (remainder to the first stream); each stream
    gets an independent child RNG so results are reproducible and the streams
    are statistically independent, as required for the variance argument of
    Sec. 4.4.  Every stream runs its own incremental-decoding session.
    """
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    share = n_samples // n_streams
    budgets = [share] * n_streams
    budgets[0] += n_samples - share * n_streams
    children = rng.spawn(n_streams)
    batches = [
        batch_autoregressive_sample(wf, ns, child)
        for ns, child in zip(budgets, children)
        if ns > 0
    ]
    merged = merge_batches(batches, wf.n_qubits)
    stats = MergeStats(
        n_streams=len(batches),
        uniques_per_stream=[b.n_unique for b in batches],
        n_unique_merged=merged.n_unique,
        n_samples=merged.n_samples,
    )
    return merged, stats
