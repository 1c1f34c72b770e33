"""Observable estimation on neural-network quantum states.

Any Hermitian operator expressed as a :class:`QubitHamiltonian` can be
estimated with the same machinery the paper uses for the energy: a local
estimator ``O_loc(x) = sum_x' O_xx' Psi(x')/Psi(x)`` (Eq. 4 with H -> O)
averaged over the sampled distribution (Eq. 6).  This module provides

* :func:`estimate` — sampled <O> for the wave function (exact or
  sample-aware local estimators, same modes as the energy);
* :func:`sector_expectation` — exact <v|O|v> of a CI vector in a
  determinant sector (for validating the sampled estimates);
* :func:`fidelity` — |<v_CI|Psi_NN>|^2 overlap with an exact eigenvector;
* :func:`occupations` — spin-orbital occupations <n_P> directly from the
  sample weights (zero extra network evaluations);
* :class:`ObservableSet` — convenience bundle (N, S_z, S^2, double
  occupancy) used by the examples and the ablation bench.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.local_energy import AmplitudeTable, local_energy
from repro.core.sampler import SampleBatch
from repro.core.wavefunction import NNQSWavefunction
from repro.hamiltonian.compressed import CompressedHamiltonian, compress_hamiltonian
from repro.hamiltonian.exact import SectorBasis, SectorOperator
from repro.hamiltonian.operators import (
    double_occupancy_operator,
    number_operator,
    s2_operator,
    sz_operator,
)
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian

__all__ = [
    "EstimateResult",
    "estimate",
    "sector_expectation",
    "sector_matvec",
    "fidelity",
    "occupations",
    "one_rdm_sampled",
    "ObservableSet",
]


@dataclass
class EstimateResult:
    """Weighted-sample estimate of one observable."""

    mean: float
    variance: float       # population variance of the local estimator
    std_error: float      # sqrt(var / N_s) — i.i.d. error bar on the mean
    imag_residual: float  # |Im <O>| (should be ~0 for Hermitian O)
    n_unique: int
    n_samples: int


def _total_weight(batch: SampleBatch, who: str):
    """The batch's total sample weight; a batch with no rows or no weight has
    no mean to report and is a ``ValueError`` naming ``who``."""
    total = batch.weights.sum()
    if not total > 0:
        raise ValueError(
            f"{who} needs a batch with samples; this batch has "
            f"{batch.n_unique} rows of total weight {total}"
        )
    return total


def estimate(
    wf: NNQSWavefunction,
    operator: QubitHamiltonian | CompressedHamiltonian,
    batch: SampleBatch,
    mode: str = "exact",
    table: AmplitudeTable | None = None,
) -> EstimateResult:
    """Sampled expectation <O> = E_p[O_loc(x)] over an existing sample batch.

    ``mode='exact'`` evaluates Psi on every coupled configuration (unbiased);
    ``'sample_aware'`` restricts to the sampled set (method (4) of Sec. 3.4).
    Note: an amplitude ``table`` built for a *different* operator must not be
    reused in exact mode — coupled sets differ.  A batch with no rows or no
    total weight is a ``ValueError``: it has no mean to report.
    """
    total = _total_weight(batch, "estimate")
    comp = (
        operator
        if isinstance(operator, CompressedHamiltonian)
        else compress_hamiltonian(operator)
    )
    oloc, _ = local_energy(wf, comp, batch, mode=mode, table=table)
    w = batch.weights / total
    mean = float(np.sum(w * oloc.real))
    var = float(np.sum(w * (oloc.real - mean) ** 2))
    return EstimateResult(
        mean=mean,
        variance=var,
        std_error=float(np.sqrt(var / max(batch.n_samples, 1))),
        imag_residual=float(abs(np.sum(w * oloc.imag))),
        n_unique=batch.n_unique,
        n_samples=batch.n_samples,
    )


def sector_matvec(
    operator: QubitHamiltonian | CompressedHamiltonian,
    vec: np.ndarray,
    basis: SectorBasis,
) -> np.ndarray:
    """O @ v in a determinant sector basis (couplings leaving it are dropped)."""
    vec = np.asarray(vec, dtype=np.complex128)
    op = SectorOperator(operator, basis)
    return op.matvec(vec) + op.constant * vec


def sector_expectation(
    operator: QubitHamiltonian | CompressedHamiltonian,
    vec: np.ndarray,
    basis: SectorBasis,
) -> float:
    """Exact <v|O|v> / <v|v> for a CI vector (validation reference)."""
    vec = np.asarray(vec, dtype=np.complex128)
    val = np.vdot(vec, sector_matvec(operator, vec, basis))
    return float(np.real(val) / np.real(np.vdot(vec, vec)))


def fidelity(wf: NNQSWavefunction, vec: np.ndarray, basis: SectorBasis) -> float:
    """|<v|Psi>|^2 with v a normalized CI vector over ``basis``.

    The autoregressive amplitude distribution is normalized over the full
    Hilbert space, so when the wave function leaks probability outside the
    sector the fidelity correctly decreases.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    vec = vec / np.linalg.norm(vec)
    amps = wf.amplitudes(basis.bits())
    return float(np.abs(np.vdot(vec, amps)) ** 2)


def occupations(batch: SampleBatch) -> np.ndarray:
    """Spin-orbital occupations <n_P> from the sample weights alone (a batch
    with no rows or no total weight is a ``ValueError``)."""
    w = batch.weights / _total_weight(batch, "occupations")
    return (w[:, None] * batch.bits).sum(axis=0)


def one_rdm_sampled(
    wf: NNQSWavefunction,
    batch: SampleBatch,
    mode: str = "exact",
    max_qubits: int = 20,
) -> np.ndarray:
    """Sampled 1-RDM ``gamma[P, Q] ~ <a+_P a_Q>`` of the wave function.

    The diagonal comes free from the sample weights (:func:`occupations`);
    each symmetric off-diagonal pair is estimated with one local-estimator
    pass over the batch, so the cost is O(N^2) estimator sweeps — fine for
    the molecule sizes where the RDM is inspected, guarded by ``max_qubits``.
    Assumes a real wave function (molecular ground states here), for which
    gamma is symmetric.  A batch with no rows or no total weight is a
    ``ValueError``, as in :func:`estimate`.
    """
    from repro.hamiltonian.jordan_wigner import jordan_wigner_fermion_terms

    n = wf.n_qubits
    if n > max_qubits:
        raise ValueError(
            f"sampled 1-RDM is O(N^2) estimator sweeps; n_qubits={n} exceeds "
            f"max_qubits={max_qubits}"
        )
    gamma = np.diag(occupations(batch))
    table = None
    for p in range(n):
        for q in range(p + 2, n, 2):  # same spin block only (p, q same parity)
            op = jordan_wigner_fermion_terms(
                [(0.5, [(p, True), (q, False)]), (0.5, [(q, True), (p, False)])],
                n,
            )
            if op.n_terms == 0:
                continue
            res = estimate(wf, op, batch, mode=mode)
            gamma[p, q] = gamma[q, p] = res.mean
    return gamma


@dataclass
class ObservableSet:
    """The standard diagnostics bundle: N, S_z, S^2, double occupancy.

    Operators are JW-built once per qubit count and compressed lazily.
    """

    n_qubits: int
    _ops: dict = field(default_factory=dict, repr=False)

    def _get(self, name: str) -> CompressedHamiltonian:
        if name not in self._ops:
            builders = {
                "N": number_operator,
                "Sz": sz_operator,
                "S2": s2_operator,
                "D": double_occupancy_operator,
            }
            self._ops[name] = compress_hamiltonian(builders[name](self.n_qubits))
        return self._ops[name]

    def measure(
        self,
        wf: NNQSWavefunction,
        batch: SampleBatch,
        mode: str = "exact",
        which: tuple[str, ...] = ("N", "Sz", "S2", "D"),
    ) -> dict[str, EstimateResult]:
        return {
            name: estimate(wf, self._get(name), batch, mode=mode)
            for name in which
        }
