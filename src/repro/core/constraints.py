"""Particle-number conservation masking (Eq. 12 + leaf pruning of Fig. 5).

The total numbers of spin-up and spin-down electrons are conserved separately.
With 2-qubit tokens (one spatial orbital per step: token t occupies the up
orbital if ``t & 1`` and the down orbital if ``t >> 1``), Eq. 12 zeroes the
conditional probability of any token that would *exceed* n_up / n_dn; the
paper additionally prunes non-number-conserving leaves of the sampling tree.
Both are equivalent to the single feasibility condition implemented here:

  allowed(t) :  used_so_far + t_occ <= n  AND  n - used - t_occ <= slots_left

so every completed sample carries exactly (n_up, n_dn) electrons and the
masked-renormalized conditionals define a distribution supported only on the
physical sector.

For the 1-qubit-token ablation, ``pos_spin`` records which spin channel each
sampling position feeds (it depends on the orbital ordering permutation).
"""
from __future__ import annotations

import numpy as np

__all__ = ["ParticleNumberConstraint"]

# token -> (up occupation, down occupation); token = up_bit + 2 * down_bit
_TOKEN_UP = np.array([0, 1, 0, 1], dtype=np.int64)
_TOKEN_DN = np.array([0, 0, 1, 1], dtype=np.int64)


class ParticleNumberConstraint:
    def __init__(self, n_tokens: int, n_up: int, n_dn: int, vocab_size: int = 4,
                 pos_spin: np.ndarray | None = None):
        if vocab_size not in (2, 4):
            raise ValueError("vocab_size must be 2 (1-qubit tokens) or 4")
        self.n_tokens = n_tokens
        self.n_up = n_up
        self.n_dn = n_dn
        self.vocab_size = vocab_size
        if vocab_size == 4:
            self.tok_up, self.tok_dn = _TOKEN_UP, _TOKEN_DN
            self.pos_spin = None
            # Remaining orbital slots hold at most one electron per channel.
        else:
            if pos_spin is None:
                pos_spin = np.arange(n_tokens) % 2
            self.pos_spin = np.asarray(pos_spin, dtype=np.int64)
            # Remaining same-spin positions strictly after position i:
            self._left_same = np.zeros(n_tokens, dtype=np.int64)
            for i in range(n_tokens):
                self._left_same[i] = np.sum(self.pos_spin[i + 1 :] == self.pos_spin[i])

    # --------------------------------------------------------------- masking
    def mask_for_step(self, counts_up: np.ndarray, counts_dn: np.ndarray,
                      step) -> np.ndarray:
        """(B, vocab) allowed-token mask given occupation counts at ``step``
        (one position for the whole batch, or a ``(B,)`` array of them)."""
        if self.vocab_size == 4:
            left = np.reshape(self.n_tokens - step - 1, (-1, 1))
            need_up = self.n_up - counts_up[:, None] - self.tok_up[None, :]
            need_dn = self.n_dn - counts_dn[:, None] - self.tok_dn[None, :]
            return (need_up >= 0) & (need_dn >= 0) & (need_up <= left) & (need_dn <= left)
        up_channel = np.reshape(self.pos_spin[step] == 0, (-1, 1))
        free = np.where(up_channel, self.n_up - counts_up[:, None],
                        self.n_dn - counts_dn[:, None])
        need = free - np.array([0, 1], dtype=np.int64)
        return (need >= 0) & (need <= np.reshape(self._left_same[step], (-1, 1)))

    def counts_before(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (up, dn) occupation *before* each position; (B, T+1)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if self.vocab_size == 4:
            up = _TOKEN_UP[tokens]
            dn = _TOKEN_DN[tokens]
        else:
            up = tokens * (self.pos_spin[None, :] == 0)
            dn = tokens * (self.pos_spin[None, :] == 1)
        cu = np.zeros((tokens.shape[0], tokens.shape[1] + 1), dtype=np.int64)
        cd = np.zeros_like(cu)
        np.cumsum(up, axis=1, out=cu[:, 1:])
        np.cumsum(dn, axis=1, out=cd[:, 1:])
        return cu, cd

    def mask_sequence(self, tokens: np.ndarray) -> np.ndarray:
        """(B, T, vocab) allowed mask along a full token sequence."""
        tokens = np.asarray(tokens, dtype=np.int64)
        b, t = tokens.shape
        cu, cd = self.counts_before(tokens)
        steps = np.tile(np.arange(t), b)
        return self.mask_for_step(
            cu[:, :t].ravel(), cd[:, :t].ravel(), steps
        ).reshape(b, t, self.vocab_size)

    def validate_bits(self, bits: np.ndarray) -> np.ndarray:
        """(B,) bool: does each bitstring carry exactly (n_up, n_dn) electrons?"""
        bits = np.atleast_2d(bits)
        return (bits[:, 0::2].sum(axis=1) == self.n_up) & (
            bits[:, 1::2].sum(axis=1) == self.n_dn
        )
