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

A prefix is *decided* (:meth:`ParticleNumberConstraint.suffix_forced`) when,
for each spin, the electrons still to place are zero or fill every remaining
slot of that spin: from there on the mask admits exactly one token per
position, so every later conditional is exactly 1.0 whatever the network
says, and the evaluators skip the decoder on it (DESIGN.md "Decided
prefixes").
"""
from __future__ import annotations

import numpy as np

from repro.dtypes import int64, uint64

__all__ = ["ParticleNumberConstraint"]

# token -> (up occupation, down occupation); token = up_bit + 2 * down_bit
_TOKEN_UP = np.array([0, 1, 0, 1], dtype=int64)
_TOKEN_DN = np.array([0, 0, 1, 1], dtype=int64)
# The up / down qubits of a packed key word (qubit j is bit j % 64).
_EVEN_BITS = uint64(0x5555555555555555)
_ODD_BITS = uint64(0xAAAAAAAAAAAAAAAA)


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
            self.pos_spin = np.asarray(pos_spin, dtype=int64)
            # _slots[s, k]: positions >= k that feed spin channel s, (2, T + 1).
            tail = np.cumsum(self.pos_spin[::-1] == np.arange(2)[:, None], axis=1)
            self._slots = np.concatenate(
                [tail[:, ::-1], np.zeros((2, 1), dtype=int64)], axis=1)
            # Remaining same-spin positions strictly after position i:
            self._left_same = self._slots[self.pos_spin, np.arange(n_tokens) + 1]

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
        need = free - np.array([0, 1], dtype=int64)
        return (need >= 0) & (need <= np.reshape(self._left_same[step], (-1, 1)))

    def suffix_forced(self, counts_up: np.ndarray, counts_dn: np.ndarray,
                      step) -> np.ndarray:
        """(B,) bool: is every token from ``step`` on fixed by the mask?

        True when, per spin, the electrons left to place are zero or equal to
        the slots that spin has at positions ``>= step``, or it has no slot
        left — exactly when :meth:`mask_for_step` admits one token at every
        remaining position of the continuation.  ``step`` is one position or
        a ``(B,)`` array of them, ``0 .. n_tokens``.  Over- or under-filled
        prefixes are never forced while their spin still has a slot; with
        one-bit tokens a spin past its last slot is no longer checked, so
        callers that may see rows outside the sector apply their own rule
        to them (``NNQSWavefunction._open_nodes``).
        """
        left_up = self.n_up - np.asarray(counts_up)
        left_dn = self.n_dn - np.asarray(counts_dn)
        if self.vocab_size == 4:
            slots_up = slots_dn = self.n_tokens - np.asarray(step)
        else:
            slots_up, slots_dn = self._slots[0, step], self._slots[1, step]
        return (((left_up == 0) | (left_up == slots_up) | (slots_up == 0))
                & ((left_dn == 0) | (left_dn == slots_dn) | (slots_dn == 0)))

    def counts_before(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (up, dn) occupation *before* each position; (B, T+1)."""
        tokens = np.asarray(tokens, dtype=int64)
        if self.vocab_size == 4:
            up = _TOKEN_UP[tokens]
            dn = _TOKEN_DN[tokens]
        else:
            up = tokens * (self.pos_spin[None, :] == 0)
            dn = tokens * (self.pos_spin[None, :] == 1)
        cu = np.zeros((tokens.shape[0], tokens.shape[1] + 1), dtype=int64)
        cd = np.zeros_like(cu)
        np.cumsum(up, axis=1, out=cu[:, 1:])
        np.cumsum(dn, axis=1, out=cd[:, 1:])
        return cu, cd

    def mask_sequence(self, tokens: np.ndarray) -> np.ndarray:
        """(B, T, vocab) allowed mask along a full token sequence."""
        tokens = np.asarray(tokens, dtype=int64)
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

    def validate_keys(self, keys: np.ndarray) -> np.ndarray:
        """(M,) bool: :meth:`validate_bits` on ``(M, W)`` packed keys
        (``utils.bitstrings.pack_bits``), without unpacking them.

        Qubit j sits at bit ``j % 64`` of word ``j // 64``, and 64 is even,
        so the even (up) qubits are the even bit positions of every word:
        the counts are popcounts of each word under the two masks.
        """
        up = np.zeros(len(keys), dtype=int64)
        dn = np.zeros(len(keys), dtype=int64)
        for w in range(keys.shape[1]):
            up += np.bitwise_count(keys[:, w] & _EVEN_BITS)
            dn += np.bitwise_count(keys[:, w] & _ODD_BITS)
        return (up == self.n_up) & (dn == self.n_dn)
