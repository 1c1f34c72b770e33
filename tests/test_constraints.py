"""Particle-number constraint masking (Eq. 12 + feasibility pruning)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ParticleNumberConstraint


class TestFourTokenMask:
    def test_start_of_sequence(self):
        c = ParticleNumberConstraint(n_tokens=4, n_up=2, n_dn=2)
        mask = c.mask_for_step(np.array([0]), np.array([0]), step=0)
        # 4 orbitals, 2+2 electrons: any token is feasible at step 0.
        assert mask.tolist() == [[True, True, True, True]]

    def test_exceeding_blocked(self):
        c = ParticleNumberConstraint(n_tokens=4, n_up=1, n_dn=1)
        mask = c.mask_for_step(np.array([1]), np.array([0]), step=1)
        # up channel full: tokens 1 (up) and 3 (up+dn) are forbidden
        assert mask[0].tolist() == [True, False, True, False]

    def test_forced_filling_at_tail(self):
        c = ParticleNumberConstraint(n_tokens=3, n_up=3, n_dn=0)
        mask = c.mask_for_step(np.array([0]), np.array([0]), step=0)
        # every remaining orbital must hold one up electron; dn forbidden
        assert mask[0].tolist() == [False, True, False, False]

    def test_tail_with_both_channels_forced(self):
        c = ParticleNumberConstraint(n_tokens=2, n_up=2, n_dn=2)
        mask = c.mask_for_step(np.array([1]), np.array([1]), step=1)
        assert mask[0].tolist() == [False, False, False, True]

    def test_mask_sequence_consistent_with_stepwise(self):
        rng = np.random.default_rng(0)
        c = ParticleNumberConstraint(n_tokens=5, n_up=2, n_dn=3)
        toks = rng.integers(0, 4, size=(6, 5))
        seq = c.mask_sequence(toks)
        cu, cd = c.counts_before(toks)
        for i in range(5):
            np.testing.assert_array_equal(
                seq[:, i], c.mask_for_step(cu[:, i], cd[:, i], i)
            )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_masked_paths_always_complete(self, n_tokens, data):
        """Greedy sampling under the mask always lands in the target sector."""
        n_up = data.draw(st.integers(0, n_tokens))
        n_dn = data.draw(st.integers(0, n_tokens))
        c = ParticleNumberConstraint(n_tokens, n_up, n_dn)
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        cu = np.array([0])
        cd = np.array([0])
        toks = []
        for step in range(n_tokens):
            mask = c.mask_for_step(cu, cd, step)[0]
            options = np.flatnonzero(mask)
            assert len(options) > 0, "constraint produced a dead end"
            t = int(rng.choice(options))
            toks.append(t)
            cu = cu + (t & 1)
            cd = cd + (t >> 1)
        assert cu[0] == n_up and cd[0] == n_dn

    def test_validate_bits(self):
        c = ParticleNumberConstraint(n_tokens=3, n_up=2, n_dn=1)
        good = np.array([[1, 0, 1, 1, 0, 0]], dtype=np.uint8)  # up at q0,q2? q0,q2 even
        # even qubits (0,2,4): bits 1,1,0 -> n_up=2; odd (1,3,5): 0,1,0 -> n_dn=1
        assert c.validate_bits(good)[0]
        bad = np.array([[1, 1, 1, 1, 0, 0]], dtype=np.uint8)
        assert not c.validate_bits(bad)[0]


class TestOneQubitTokenMask:
    def test_parity_aware_accounting(self):
        # positions address qubits in reverse: pos_spin from qubit parity
        pos_spin = np.array([1, 0, 1, 0])  # qubits 3,2,1,0 for N=4
        c = ParticleNumberConstraint(4, n_up=1, n_dn=1, vocab_size=2, pos_spin=pos_spin)
        # At step 0 (a down qubit), placing one dn electron is allowed;
        # skipping is also allowed because one dn slot remains (step 2).
        mask = c.mask_for_step(np.array([0]), np.array([0]), 0)
        assert mask[0].tolist() == [True, True]
        # After placing the dn electron, the other dn position must stay empty.
        mask2 = c.mask_for_step(np.array([0]), np.array([1]), 2)
        assert mask2[0].tolist() == [True, False]

    def test_forced_occupation(self):
        pos_spin = np.array([0, 1, 0, 1])
        c = ParticleNumberConstraint(4, n_up=2, n_dn=0, vocab_size=2, pos_spin=pos_spin)
        mask = c.mask_for_step(np.array([0]), np.array([0]), 0)
        assert mask[0].tolist() == [False, True]  # must fill every up slot
        mask_dn = c.mask_for_step(np.array([0]), np.array([0]), 1)
        assert mask_dn[0].tolist() == [True, False]  # dn slots must stay empty

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_completion_property(self, n_orb, data):
        n = 2 * n_orb
        n_up = data.draw(st.integers(0, n_orb))
        n_dn = data.draw(st.integers(0, n_orb))
        order = np.arange(n)[::-1]
        c = ParticleNumberConstraint(n, n_up, n_dn, vocab_size=2, pos_spin=order % 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        cu = np.array([0]); cd = np.array([0])
        for step in range(n):
            mask = c.mask_for_step(cu, cd, step)[0]
            options = np.flatnonzero(mask)
            assert len(options) > 0
            t = int(rng.choice(options))
            if order[step] % 2 == 0:
                cu = cu + t
            else:
                cd = cd + t
        assert (cu[0], cd[0]) == (n_up, n_dn)

    def test_invalid_vocab_rejected(self):
        with pytest.raises(ValueError):
            ParticleNumberConstraint(4, 1, 1, vocab_size=3)


def _constraint(width: str, n_orb: int, n_up: int, n_dn: int) -> ParticleNumberConstraint:
    """Two-bit tokens (one per orbital), or one-bit tokens in the reversed /
    natural qubit order (``pos_spin`` as ``build_qiankunnet`` sets it)."""
    if width == "two-bit":
        return ParticleNumberConstraint(n_orb, n_up, n_dn)
    order = np.arange(2 * n_orb)
    if width == "one-bit-reversed":
        order = order[::-1]
    return ParticleNumberConstraint(2 * n_orb, n_up, n_dn, vocab_size=2,
                                    pos_spin=order % 2)


def _forced_by_brute_force(c: ParticleNumberConstraint, prefix) -> bool:
    """Does the mask admit exactly one token at every remaining position,
    following that token each time?"""
    tokens = np.zeros(c.n_tokens, dtype=np.int64)
    tokens[: len(prefix)] = prefix
    for k in range(len(prefix), c.n_tokens):
        cu, cd = c.counts_before(tokens[None, :])
        allowed = np.flatnonzero(c.mask_for_step(cu[:, k], cd[:, k], k)[0])
        if len(allowed) != 1:
            return False
        tokens[k] = allowed[0]
    return True


class TestSuffixForced:
    """``suffix_forced`` (a prefix is *decided*) against brute force."""

    @pytest.mark.parametrize("width", ["two-bit", "one-bit-reversed", "one-bit-natural"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, width, data):
        n_orb = data.draw(st.integers(1, 4))
        c = _constraint(width, n_orb, data.draw(st.integers(0, n_orb)),
                        data.draw(st.integers(0, n_orb)))
        prefixes = []
        for _ in range(data.draw(st.integers(1, 6))):
            length = data.draw(st.integers(0, c.n_tokens - 1))
            if data.draw(st.booleans()):       # any tokens: in or out of the sector
                prefix = data.draw(st.lists(st.integers(0, c.vocab_size - 1),
                                            min_size=length, max_size=length))
            else:                              # a path the mask admits
                prefix = []
                for k in range(length):
                    tokens = np.zeros((1, c.n_tokens), dtype=np.int64)
                    tokens[0, :k] = prefix
                    cu, cd = c.counts_before(tokens)
                    options = np.flatnonzero(c.mask_for_step(cu[:, k], cd[:, k], k)[0])
                    prefix.append(int(options[data.draw(st.integers(0, len(options) - 1))]))
            prefixes.append(prefix)
        want = np.array([_forced_by_brute_force(c, p) for p in prefixes])
        padded = np.zeros((len(prefixes), c.n_tokens), dtype=np.int64)
        for i, p in enumerate(prefixes):
            padded[i, : len(p)] = p
        cu, cd = c.counts_before(padded)
        steps = np.array([len(p) for p in prefixes])
        rows = np.arange(len(prefixes))
        # One (B,) array of positions, and one position per call.
        np.testing.assert_array_equal(
            c.suffix_forced(cu[rows, steps], cd[rows, steps], steps), want)
        for i, k in enumerate(steps):
            assert c.suffix_forced(cu[i : i + 1, k], cd[i : i + 1, k], k)[0] == want[i]

    def test_examples(self):
        c = ParticleNumberConstraint(n_tokens=4, n_up=2, n_dn=2)
        cu, cd = np.array([0, 1, 1, 2, 3]), np.array([0, 1, 2, 0, 0])
        # step 2, two slots left: decided iff each spin has 0 or 2 to place;
        # three up electrons is outside the sector, never decided.
        assert c.suffix_forced(cu, cd, 2).tolist() == [True, False, False, True, False]
        # one-bit tokens, up / dn alternating: past the last up slot an
        # over-filled up channel is no longer checked, the dn slot still is
        c = ParticleNumberConstraint(4, n_up=1, n_dn=1, vocab_size=2,
                                     pos_spin=np.array([0, 1, 0, 1]))
        assert c.suffix_forced(np.array([2, 2, 1]), np.array([1, 0, 2]), 3).tolist() \
            == [True, True, False]


class TestValidateKeys:
    @settings(max_examples=60, deadline=None)
    @given(width=st.sampled_from(["two-bit", "one-bit-reversed", "one-bit-natural"]),
           n_orb=st.sampled_from([1, 5, 31, 32, 33, 50, 64, 70]),   # 1-3 words
           data=st.data())
    def test_packed_equals_unpacked(self, width, n_orb, data):
        """``validate_keys(pack_bits(b)) == validate_bits(b)``, rows in and
        out of the sector, with keys of one, two and three words."""
        from repro.utils.bitstrings import pack_bits

        n_up = data.draw(st.integers(0, n_orb))
        n_dn = data.draw(st.integers(0, n_orb))
        c = _constraint(width, n_orb, n_up, n_dn)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        bits = (rng.random((40, 2 * n_orb)) < rng.random((40, 1))).astype(np.uint8)
        in_sector = np.zeros((8, 2 * n_orb), dtype=np.uint8)   # exact-count rows
        for row in in_sector:
            row[0::2][rng.permutation(n_orb)[:n_up]] = 1
            row[1::2][rng.permutation(n_orb)[:n_dn]] = 1
        bits = np.concatenate([bits, in_sector])
        want = c.validate_bits(bits)
        assert want[-8:].all()
        np.testing.assert_array_equal(c.validate_keys(pack_bits(bits)), want)

    def test_empty(self):
        c = ParticleNumberConstraint(3, 1, 1)
        assert c.validate_keys(np.zeros((0, 1), dtype=np.uint64)).shape == (0,)
