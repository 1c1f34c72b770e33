"""Parallel BAS tree partitioning (Fig. 5 / Sec. 3.3).

Every rank runs the serial BAS with the *same* seed for the first k steps
(k chosen dynamically: the first step whose layer holds more than N_u^*
unique prefixes), then the layer-k nodes are split into N_p contiguous chunks
balancing the *sample counts* (weights), not the node counts — the paper's
heuristic for load balance, since downstream cost tracks unique samples
produced, which correlates with the weight pushed down each subtree.
"""
from __future__ import annotations

import numpy as np

from repro.core.sampler import BASTreeState

__all__ = ["split_tree_state", "balanced_weight_partition"]


def balanced_weight_partition(weights: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Split indices 0..P-1 into contiguous chunks of ~equal total weight.

    Greedy prefix cut at multiples of total/n_parts; every part is non-empty
    whenever P >= n_parts.
    """
    weights = np.asarray(weights, dtype=np.float64)
    p = len(weights)
    if p == 0:
        return [np.array([], dtype=np.int64) for _ in range(n_parts)]
    cum = np.cumsum(weights)
    total = cum[-1]
    cuts = [0]
    for part in range(1, n_parts):
        target = total * part / n_parts
        pos = int(np.searchsorted(cum, target))
        if p >= n_parts:
            # keep every part non-empty while leaving room for later parts
            lo = cuts[-1] + 1
            hi = p - (n_parts - part)
        else:
            # fewer nodes than parts: trailing parts come out empty
            lo = cuts[-1]
            hi = p
        pos = min(max(pos, lo), max(hi, lo))
        cuts.append(pos)
    cuts.append(p)
    return [np.arange(cuts[i], cuts[i + 1], dtype=np.int64) for i in range(n_parts)]


def split_tree_state(state: BASTreeState, n_parts: int) -> list[BASTreeState]:
    """Assign the layer-k nodes of a BAS tree to ``n_parts`` ranks.

    The inference session's KV-cache rows (when the state carries one) are
    gathered alongside the node arrays, so each rank continues its subtree
    without re-running the shared first k steps.
    """
    parts = balanced_weight_partition(state.weights, n_parts)
    out = []
    for idx in parts:
        out.append(
            BASTreeState(
                prefixes=state.prefixes[idx],
                weights=state.weights[idx],
                counts_up=state.counts_up[idx],
                counts_dn=state.counts_dn[idx],
                log_prob=state.log_prob[idx],
                step=state.step,
                session=state.session.select(idx) if state.session is not None else None,
            )
        )
    return out
