"""Ablations of the design choices DESIGN.md calls out (Sec. 3 of the paper).

1. Amplitude architecture: transformer (QiankunNet) vs MADE vs NAQS-style MLP
   at matched iteration budget (the Table 1 comparison, distilled).
2. Token size: 2-qubit tokens (quadtree, the paper's choice) vs 1-qubit.
3. Particle-number constraint (Eq. 12): on vs off — off must waste probability
   mass outside the physical sector.
4. Local-energy mode: exact vs sample-aware (method 4) — SA is cheaper but
   biased when the sample set is small.
5. Sampling strategy: BAS vs the Markov chain it replaces, and the Sec. 4.4
   independent-stream outlook.
6. Optimizer: stochastic reconfiguration vs the paper's AdamW (Sec. 1).

All run on H2 (fast, exact FCI reference) with fixed budgets.

The sampling foils of (5) and the SR optimizer of (6) live *here*, next to
the rows that are their only users: the production path has one sampler
(``batch_autoregressive_sample``) and one optimizer (``NoamAdamW``), and
``src/`` imports none of this.  ``check_foils_agree`` pins the sampling foils
to that sampler and to the exactly enumerated |Psi|^2; the tests load this
file through the ``ablations`` fixture of ``tests/conftest.py``, and
``examples/sr_vs_adamw.py`` loads it by path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from baseline_ansatze import BASELINES, build_baseline

from repro.autograd import oracle
from reporting import format_table, registry
from repro.chem import build_problem, run_fci
from repro.core import (
    VMC,
    NNQSWavefunction,
    NoamAdamW,
    SampleBatch,
    VMCConfig,
    batch_autoregressive_sample,
    build_qiankunnet,
    pretrain_to_reference,
)
from repro.hamiltonian import SectorOperator, sector_basis
from repro.nn import Module, Parameter
from repro.utils.bitstrings import lexsort_keys, pack_bits, unpack_bits


# --------------------------------------------------------------------------
# Foil 1 — the RBM + Metropolis regime that BAS replaces (paper Sec. 1/2.2).
# --------------------------------------------------------------------------
class RBMWavefunction(Module):
    """Complex RBM over N qubits with ``alpha * N`` hidden units (Ref. [25]):

        Psi(x) = exp(sum_j a_j s_j) * prod_k 2 cosh(b_k + sum_j W_kj s_j),

    with s_j = 2 x_j - 1.  |Psi|^2 is not normalized, so sampling needs a
    Markov chain — the cost batch autoregressive sampling eliminates.
    """

    def __init__(self, n_qubits: int, alpha: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        n_hidden = alpha * n_qubits
        scale = 0.01
        self.a_re = Parameter(rng.normal(0, scale, n_qubits))
        self.a_im = Parameter(rng.normal(0, scale, n_qubits))
        self.b_re = Parameter(rng.normal(0, scale, n_hidden))
        self.b_im = Parameter(rng.normal(0, scale, n_hidden))
        self.w_re = Parameter(rng.normal(0, scale, (n_hidden, n_qubits)))
        self.w_im = Parameter(rng.normal(0, scale, (n_hidden, n_qubits)))
        self.n_qubits = n_qubits
        self.n_hidden = n_hidden

    def log_amplitudes(self, bits: np.ndarray) -> np.ndarray:
        """(B,) complex log Psi(x)."""
        bits = np.atleast_2d(np.asarray(bits, dtype=np.float64))
        s = 2.0 * bits - 1.0
        a = self.a_re.data + 1j * self.a_im.data
        b = self.b_re.data + 1j * self.b_im.data
        w = self.w_re.data + 1j * self.w_im.data
        theta = s @ w.T + b[None, :]
        return s @ a + np.log(2.0 * np.cosh(theta)).sum(axis=1)

    def amplitudes(self, bits: np.ndarray) -> np.ndarray:
        return np.exp(self.log_amplitudes(bits))


@dataclass
class MCMCStats:
    acceptance_rate: float
    n_sweeps: int


def _exchange_move(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Propose a same-spin occupied->empty exchange (number conserving)."""
    out = bits.copy()
    n = bits.shape[0]
    spin = rng.integers(0, 2)
    channel = np.arange(spin, n, 2)
    occ = channel[bits[channel] == 1]
    emp = channel[bits[channel] == 0]
    if len(occ) == 0 or len(emp) == 0:
        return out
    out[rng.choice(occ)] = 0
    out[rng.choice(emp)] = 1
    return out


def metropolis_sample(
    wf,
    start_bits: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    n_burnin: int = 200,
    thin: int = 2,
) -> tuple[SampleBatch, MCMCStats]:
    """Single-chain Metropolis sampling of |Psi(x)|^2.

    ``wf`` needs only ``log_amplitudes``; the chain records every ``thin``-th
    state after burn-in and the output collapses duplicates into the
    (unique, weight) SampleBatch format.
    """
    x = np.asarray(start_bits, dtype=np.uint8).copy()
    log_p = 2.0 * np.real(wf.log_amplitudes(x[None, :])[0])
    accepted = 0
    proposed = 0
    records: list[bytes] = []
    total_steps = n_burnin + n_samples * thin
    for step in range(total_steps):
        cand = _exchange_move(x, rng)
        log_p_cand = 2.0 * np.real(wf.log_amplitudes(cand[None, :])[0])
        proposed += 1
        if np.log(rng.random() + 1e-300) < log_p_cand - log_p:
            x = cand
            log_p = log_p_cand
            accepted += 1
        if step >= n_burnin and (step - n_burnin) % thin == 0:
            records.append(x.tobytes())
    counts: dict[bytes, int] = {}
    for r in records:
        counts[r] = counts.get(r, 0) + 1
    bits = np.array([np.frombuffer(k, dtype=np.uint8) for k in counts])
    weights = np.array(list(counts.values()), dtype=np.int64)
    return (
        SampleBatch(bits=bits, weights=weights),
        MCMCStats(acceptance_rate=accepted / max(proposed, 1), n_sweeps=total_steps),
    )


# --------------------------------------------------------------------------
# Foil 2 — independent-stream BAS, the paper's Sec. 4.4 outlook: "one could
# still take advantage of the conventional Monte Carlo sampling by simply
# implementing several independent [runs of] the batch sampling algorithm".
# --------------------------------------------------------------------------
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
    wf,
    n_samples: int,
    rng: np.random.Generator,
    n_streams: int = 4,
) -> tuple[SampleBatch, MergeStats]:
    """Run ``n_streams`` independent BAS sweeps and merge their outputs.

    The budget is split evenly (remainder to the first stream); each stream
    gets an independent child RNG so results are reproducible and the streams
    are statistically independent, as required for the variance argument of
    Sec. 4.4.  On a cluster every stream would live on its own process group;
    here they run sequentially.
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


def check_foils_agree(n_chain: int = 40_000, atol: float = 0.02) -> float:
    """The foils against the two things that define them, on H2 (4 qubits).

    * The Metropolis histogram converges to the exactly enumerated
      |Psi_RBM|^2 of the (1, 1) sector within ``atol`` (the returned value is
      the largest deviation).
    * ``merged_batch_sample(n_streams=1)`` *is* one plain BAS sweep on the
      spawned child stream: same unique rows, same counts.
    """
    prob = build_problem("H2", "sto-3g", r=0.7414)
    n = prob.n_qubits
    sector = sector_basis(n, prob.n_up, prob.n_dn).bits()
    rbm = RBMWavefunction(n, alpha=2, rng=np.random.default_rng(6))
    chain, _ = metropolis_sample(rbm, prob.hf_bits, n_chain,
                                 np.random.default_rng(7), n_burnin=500)
    psi2 = np.abs(rbm.amplitudes(sector)) ** 2
    psi2 /= psi2.sum()
    freq = {row.tobytes(): w / chain.n_samples
            for row, w in zip(chain.bits, chain.weights)}
    deviation = max(abs(freq.get(row.tobytes(), 0.0) - p)
                    for row, p in zip(sector, psi2))
    assert deviation <= atol, f"Metropolis histogram off |Psi|^2 by {deviation:.3f}"

    wf = build_qiankunnet(n, prob.n_up, prob.n_dn, d_model=8, n_heads=2,
                          n_layers=1, phase_hidden=(16,), seed=2)
    merged, _ = merged_batch_sample(wf, 5000, np.random.default_rng(1), n_streams=1)
    (child,) = np.random.default_rng(1).spawn(1)
    plain = batch_autoregressive_sample(wf, 5000, child)
    order = lexsort_keys(pack_bits(plain.bits))
    np.testing.assert_array_equal(merged.bits, plain.bits[order])
    np.testing.assert_array_equal(merged.weights, plain.weights[order])
    return deviation


# --------------------------------------------------------------------------
# Foil 3 — stochastic reconfiguration (SR), the optimizer the paper engineers
# around.  Sec. 1: conventional NNQS needs "the stochastic reconfiguration
# (SR) technique for stable convergence to the global minimum, for which one
# needs to (approximately) compute the inverse of the M x M SR matrix for a
# neural network with M parameters, thus greatly prohibiting the usage of
# very deep neural networks as well as the scalability to a large number of
# processes".  SR lives here so that claim can be *measured* against the
# AdamW + autoregressive-sampling path the paper uses.
#
# For a wave function Psi_theta with real parameters theta, the
# log-derivative operators are ``O_k(x) = d ln Psi*_theta(x) / d theta_k``
# (here ``1/2 d log pi - i d phi``), and one SR step solves
#
#     (S + lambda I) delta = -lr * F,
#     S_kk' = Re( <O_k* O_k'> - <O_k*><O_k'> ),
#     F_k   = Re( <(E_loc - <E>) O_k*> ),
#
# with expectations over the sampled distribution.  SR preconditions the
# same force as the production update: Eq. 7's gradient is ``2 F``.  The
# dense M x M solve (and the per-sample Jacobian it needs) is exactly the
# bottleneck the paper points at; we guard with ``max_params`` instead of
# hiding it.
# --------------------------------------------------------------------------
def per_sample_jacobians(
    wf: NNQSWavefunction, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``J_logp[b] = d log pi(x_b)/d theta`` and ``J_phi[b] = d phi(x_b)/d theta``.

    One backward pass per sample and head through the taped float64 oracle
    (``repro.autograd.oracle``) — O(B * M) memory, O(B * cost) time.  This
    is the scaling wall SR imposes; documented, not optimized.
    """
    bits = np.atleast_2d(bits)
    m = wf.num_parameters()
    j_logp = np.zeros((len(bits), m))
    j_phi = np.zeros((len(bits), m))
    for b in range(len(bits)):
        wf.zero_grad()
        oracle.log_prob(wf, bits[b : b + 1]).sum().backward()
        j_logp[b] = wf.get_flat_grads()
        wf.zero_grad()
        oracle.forward(wf.phase, bits[b : b + 1]).sum().backward()
        j_phi[b] = wf.get_flat_grads()
    wf.zero_grad()
    return j_logp, j_phi


@dataclass
class SRConfig:
    lr: float = 0.05
    diag_shift: float = 0.01   # relative Tikhonov shift (units of the top eigenvalue)
    rcond: float = 1e-10       # singular-value cutoff relative to the largest
    max_params: int = 20_000   # refuse the dense solve beyond this M


@dataclass
class SRStepInfo:
    energy: float
    grad_norm: float
    update_norm: float
    s_condition: float


class StochasticReconfiguration:
    """SR over an ``NNQSWavefunction``, driven by hand: sample a batch,
    compute local energies, then ``sr.step(batch, eloc)``.  Single rank by
    construction — ``S`` couples every pair of samples."""

    def __init__(self, wf: NNQSWavefunction, config: SRConfig | None = None):
        self.wf = wf
        self.config = config or SRConfig()
        self.last_info: SRStepInfo | None = None
        m = wf.num_parameters()
        if m > self.config.max_params:
            raise ValueError(
                f"SR needs a dense {m} x {m} solve; refusing above "
                f"max_params={self.config.max_params}.  This is the paper's "
                "point — use the AdamW path for deep networks."
            )

    def direction(self, batch: SampleBatch, w: np.ndarray, eloc: np.ndarray,
                  e_mean: float, e_imag: float) -> np.ndarray:
        """The natural-gradient solve: ``delta`` with ``(S + lambda I) delta = F``.

        ``w`` are the normalized sample weights and ``e_mean + i e_imag`` the
        weighted mean of ``eloc``.  Everything up to, not including, the
        parameter write; the diagnostics land in :attr:`last_info`.
        """
        cfg = self.config
        j_logp, j_phi = per_sample_jacobians(self.wf, batch.bits)
        # O = d ln Psi* = 1/2 d log pi - i d phi   (rows per sample)
        o = 0.5 * j_logp - 1j * j_phi
        o_mean = w @ o
        oc = o - o_mean[None, :]

        # F_k = Re <(E_loc - E) O_k> with O = d ln Psi* (Eq. 7's gradient);
        # no extra conjugation — O already carries the Psi* convention.
        f = np.real((w * (eloc - complex(e_mean, e_imag))) @ oc)

        # S = Re(A^H A) with A = sqrt(w) * oc; rank(S) <= 2 N_u, so solve in
        # the sample subspace via SVD of the stacked real representation.
        # Directions outside the span carry no curvature information and are
        # projected out (the pseudo-inverse convention used in practice) —
        # a dense (S + lambda I)^{-1} would blow them up by 1/lambda.
        a = np.sqrt(w)[:, None] * oc
        ar = np.vstack([a.real, a.imag])  # (2B, M): S = ar.T @ ar exactly
        _, sing, vt = np.linalg.svd(ar, full_matrices=False)
        s2 = sing**2
        top = s2[0] if len(s2) and s2[0] > 0 else 1.0
        keep = s2 > cfg.rcond * top
        proj = vt[keep] @ f
        delta = vt[keep].T @ (proj / (s2[keep] + cfg.diag_shift * top))

        cond = float(s2[keep][0] / s2[keep][-1]) if keep.any() else 1.0
        self.last_info = SRStepInfo(
            energy=float(e_mean),
            grad_norm=float(np.linalg.norm(f)),
            update_norm=float(cfg.lr * np.linalg.norm(delta)),
            s_condition=cond,
        )
        return delta

    def apply(self, delta: np.ndarray) -> None:
        """The parameter write ``theta -= lr * delta`` (no clip, no decay)."""
        self.wf.arena().theta -= self.config.lr * delta

    def step(self, batch: SampleBatch, eloc: np.ndarray) -> SRStepInfo:
        w = batch.weights / batch.weights.sum()
        e_mean = complex(np.sum(w * eloc))
        self.apply(self.direction(batch, w, eloc, e_mean.real, e_mean.imag))
        return self.last_info


_ITERS = 150


def _run(prob, fci, iters=_ITERS, foil=None, **kwargs):
    """Train ``iters`` iterations of QiankunNet, or of ``foil`` (a
    ``baseline_ansatze`` amplitude class) in its frame."""
    if foil is None:
        defaults = dict(d_model=16, n_heads=4, n_layers=2, seed=51)
        defaults.update(kwargs)
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, **defaults)
    else:
        wf = build_baseline(foil, prob.n_qubits, prob.n_up, prob.n_dn, seed=51)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
    vmc = VMC(wf, prob.hamiltonian,
              VMCConfig(n_samples=10**5, eloc_mode="exact", seed=52),
              optimizer=NoamAdamW(wf, warmup=150))
    vmc.run(iters)
    return vmc.best_energy() - fci, wf


def test_ablation_amplitude_architecture(benchmark, full):
    prob = build_problem("H2", "sto-3g", r=0.7414)
    fci = run_fci(prob.hamiltonian).energy
    rows = []
    for kind in ("transformer", *BASELINES):
        err, wf = _run(prob, fci, foil=BASELINES.get(kind))
        rows.append([kind, wf.num_parameters(), f"{err:.2e}"])
    registry.record(
        "ablation_amplitude_architecture",
        format_table(
            "Ablation — amplitude ansatz (H2/STO-3G, error vs FCI, fixed budget)",
            ["ansatz", "params", "|E - FCI| (Ha)"],
            rows,
            notes="Paper shape: transformer (QiankunNet) at least as accurate as "
                  "MADE / MLP baselines.",
        ),
    )
    benchmark(lambda: build_qiankunnet(4, 1, 1, seed=0).num_parameters())


def test_ablation_token_size(benchmark, full):
    prob = build_problem("H2", "sto-3g", r=0.7414)
    fci = run_fci(prob.hamiltonian).energy
    rows = []
    for token_bits, label in ((2, "2 qubits/token (paper)"), (1, "1 qubit/token")):
        err, _ = _run(prob, fci, token_bits=token_bits)
        rows.append([label, f"{err:.2e}"])
    registry.record(
        "ablation_token_size",
        format_table(
            "Ablation — sampling token size (H2/STO-3G)",
            ["tokenization", "|E - FCI| (Ha)"],
            rows,
            notes="Both must converge; 2-qubit tokens halve the sequence length "
                  "(the paper samples one spatial orbital per step).",
        ),
    )
    benchmark(lambda: None)


def test_ablation_number_conservation(benchmark, full):
    prob = build_problem("H2", "sto-3g", r=0.7414)
    rows = []
    for constrain in (True, False):
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn,
                              constrain=constrain, seed=53)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
        rng = np.random.default_rng(54)
        batch = batch_autoregressive_sample(wf, 10**5, rng)
        from repro.core.constraints import ParticleNumberConstraint

        checker = ParticleNumberConstraint(prob.n_qubits // 2, prob.n_up, prob.n_dn)
        in_sector = checker.validate_bits(batch.bits)
        frac = batch.weights[in_sector].sum() / batch.n_samples
        rows.append(["Eq. 12 mask on" if constrain else "mask off",
                     batch.n_unique, f"{100 * frac:.1f}%"])
    registry.record(
        "ablation_number_conservation",
        format_table(
            "Ablation — particle-number constraint (H2, sampling after pretrain)",
            ["configuration", "N_u", "samples in physical sector"],
            rows,
            notes="With Eq. 12 masking, 100% of samples are physical; without it "
                  "probability mass (and thus sampling + E_loc work) leaks into "
                  "dead sectors.",
        ),
    )
    assert rows[0][2] == "100.0%"
    benchmark(lambda: None)


def test_ablation_eloc_mode(benchmark, full):
    prob = build_problem("H2", "sto-3g", r=0.7414)
    fci = run_fci(prob.hamiltonian).energy
    rows = []
    for mode in ("exact", "sample_aware"):
        wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=55)
        pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
        vmc = VMC(wf, prob.hamiltonian,
                  VMCConfig(n_samples=10**5, eloc_mode=mode, seed=56),
                  optimizer=NoamAdamW(wf, warmup=150))
        vmc.run(_ITERS)
        rows.append([mode, f"{vmc.best_energy() - fci:.2e}"])
    registry.record(
        "ablation_eloc_mode",
        format_table(
            "Ablation — local-energy evaluation mode (H2/STO-3G)",
            ["E_loc mode", "|E - FCI| (Ha)"],
            rows,
            notes="Sample-aware (method 4) matches exact mode once the sampled "
                  "set covers the wave function support — the paper's regime.",
        ),
    )
    benchmark(lambda: None)


def test_sampling_foils_agree():
    """The two rows below time code that lives in this file only: pin it."""
    check_foils_agree()


def test_ablation_sampling_strategy(benchmark, full):
    """BAS vs Markov-chain Metropolis sampling (the paper's Sec. 1 argument).

    Same wavefunction-evaluation contract, same sample budget: BAS produces
    exact, independent counts at a cost set by N_u; MCMC needs burn-in,
    thinning and still returns correlated samples at ~1 amplitude evaluation
    per proposal.
    """
    import time

    prob = build_problem("H2O", "sto-3g")
    qkn = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=61)
    pretrain_to_reference(qkn, prob.hf_bits, n_steps=80, target_prob=0.3)
    rng = np.random.default_rng(62)

    rows = []
    for ns in (10**4, 10**6):
        t0 = time.perf_counter()
        bas = batch_autoregressive_sample(qkn, ns, rng)
        t_bas = time.perf_counter() - t0
        rows.append([f"BAS (QiankunNet), N_s={ns:.0e}", bas.n_unique,
                     f"{t_bas:.3f}", "exact counts, independent"])
    rbm = RBMWavefunction(prob.n_qubits, rng=np.random.default_rng(63))
    for ns in (10**4,):
        t0 = time.perf_counter()
        mc, stats = metropolis_sample(rbm, prob.hf_bits, ns,
                                      np.random.default_rng(64))
        t_mc = time.perf_counter() - t0
        rows.append([f"Metropolis (RBM), N_s={ns:.0e}", mc.n_unique,
                     f"{t_mc:.3f}",
                     f"acceptance {100 * stats.acceptance_rate:.0f}%, correlated"])
    registry.record(
        "ablation_sampling_strategy",
        format_table(
            "Ablation — batch autoregressive sampling vs Markov-chain sampling (H2O)",
            ["sampler", "N_u", "time (s)", "sample quality"],
            rows,
            notes="BAS cost is set by the unique-sample count, independent of "
                  "N_s (grow the budget 100x for ~no extra cost); the Markov "
                  "chain pays per sample and autocorrelates — the core "
                  "motivation for autoregressive NNQS (Sec. 1/2.2).",
        ),
    )
    benchmark(lambda: None)


def test_ablation_sr_vs_adamw(benchmark, full):
    """Stochastic reconfiguration vs the paper's AdamW path (Sec. 1 claim).

    The paper argues autoregressive NNQS "can often easily converge to the
    ground state without using the SR technique", avoiding the M x M solve.
    We measure both optimizers at a matched sample budget on H2.
    """
    import time

    from repro.core import local_energy
    from repro.hamiltonian import compress_hamiltonian

    prob = build_problem("H2", "sto-3g", r=0.7414)
    fci = run_fci(prob.hamiltonian).energy
    comp = compress_hamiltonian(prob.hamiltonian)
    rows = []

    # --- SR (small net: the dense solve forbids the paper-scale model)
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, d_model=8,
                          n_heads=2, n_layers=1, phase_hidden=(16,), seed=71)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=100)
    sr = StochasticReconfiguration(wf, SRConfig(lr=0.2, diag_shift=0.02))
    rng = np.random.default_rng(72)
    t0 = time.perf_counter()
    e_sr = np.inf
    for _ in range(60):
        batch = batch_autoregressive_sample(wf, 10**5, rng)
        eloc, _ = local_energy(wf, comp, batch, mode="exact")
        e_sr = sr.step(batch, eloc).energy
    t_sr = time.perf_counter() - t0
    rows.append(["SR (60 iters)", wf.num_parameters(), f"{t_sr:.1f}",
                 f"{e_sr - fci:.2e}", "O(M^2) memory + per-sample Jacobian"])

    # --- AdamW at the same matched-size model and budget
    err, wf2 = _run(prob, fci, iters=150, d_model=8, n_heads=2, n_layers=1,
                    phase_hidden=(16,), seed=73)
    rows.append(["AdamW (150 iters)", wf2.num_parameters(), "-",
                 f"{err:.2e}", "O(M) memory, 1 backward/iter"])

    registry.record(
        "ablation_sr_vs_adamw",
        format_table(
            "Ablation — stochastic reconfiguration vs AdamW (H2/STO-3G)",
            ["optimizer", "params", "time (s)", "|E - FCI| (Ha)", "cost profile"],
            rows,
            notes="Measured SC'23 Sec. 1 claim: SR converges quickly to the HF "
                  "basin but stalls at the sign-structure plateau and needs the "
                  "dense M x M solve; the AdamW path escapes it and scales to "
                  "deep networks.",
        ),
    )
    benchmark(lambda: None)


def test_ablation_hybrid_sampling_streams(benchmark, full):
    """Independent-stream BAS merge (Sec. 4.4 outlook): overlap statistics."""
    prob = build_problem("H2O", "sto-3g")
    wf = build_qiankunnet(prob.n_qubits, prob.n_up, prob.n_dn, seed=81)
    pretrain_to_reference(wf, prob.hf_bits, n_steps=80, target_prob=0.3)
    rows = []
    for n_streams in (1, 2, 4, 8):
        rng = np.random.default_rng(82)
        merged, stats = merged_batch_sample(wf, 10**6, rng, n_streams=n_streams)
        rows.append([n_streams, merged.n_unique,
                     f"{100 * stats.overlap_fraction:.0f}%"])
    registry.record(
        "ablation_hybrid_sampling",
        format_table(
            "Ablation — independent-stream BAS (H2O, N_s = 1e6 total)",
            ["streams", "merged N_u", "duplicated unique work"],
            rows,
            notes="The Sec. 4.4 outlook: extra streams only pay off when the "
                  "problem needs more unique samples than one tree sweep "
                  "yields; on a concentrated wave function the streams mostly "
                  "duplicate each other.",
        ),
    )
    benchmark(lambda: None)


def test_ablation_fci_solver(benchmark, full):
    """Substrate ablation: dense eigh vs Davidson on the one FCI sector operator."""
    import time

    from repro.chem.davidson import davidson

    name = "H2O" if full else "LiH"
    prob = build_problem(name, "sto-3g")
    op = SectorOperator(prob.hamiltonian,
                        sector_basis(prob.n_qubits, prob.n_up, prob.n_dn))
    t0 = time.perf_counter()
    e_dense = np.linalg.eigh(op.dense())[0][0] + op.constant
    t_dense = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = davidson(op.matvec, op.diagonal, k=1, tol=1e-9)
    t_dav = time.perf_counter() - t0
    e_dav = res.eigenvalues[0] + op.constant
    assert res.converged and abs(e_dav - e_dense) < 1e-8
    rows = [["dense eigh", f"{e_dense:.8f}", "-", f"{t_dense:.2f}"],
            ["Davidson", f"{e_dav:.8f}", res.n_matvec, f"{t_dav:.2f}"]]
    registry.record(
        "ablation_fci_solver",
        format_table(
            f"Ablation — FCI eigensolvers on one sector operator "
            f"({name}/STO-3G, dim {op.basis.dim})",
            ["solver", "E_FCI (Ha)", "matvecs", "time (s)"],
            rows,
            notes="Both solvers agree to 1e-8.  run_fci diagonalizes sectors "
                  "up to 600 determinants densely and runs Davidson "
                  "(diagonal-preconditioned) above that.",
        ),
    )
    benchmark(lambda: None)
