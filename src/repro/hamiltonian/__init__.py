"""Qubit Hamiltonians: Pauli algebra, Jordan-Wigner, compressed storage."""
from repro.hamiltonian.pauli import (
    PauliTerm,
    letters_to_xz,
    pauli_mul,
    strings_to_matrix,
    term_matrix,
    xz_to_letters,
)
from repro.hamiltonian.qubit_hamiltonian import QubitHamiltonian
from repro.hamiltonian.jordan_wigner import (
    jordan_wigner,
    jordan_wigner_fermion_terms,
    ladder_terms,
)
from repro.hamiltonian.operators import (
    double_occupancy_operator,
    number_dn_operator,
    number_operator,
    number_up_operator,
    occupation_operator,
    one_body_operator,
    s2_operator,
    sz_operator,
)
from repro.hamiltonian.compressed import (
    CompressedHamiltonian,
    ReferenceHamiltonianData,
    build_reference,
    compress_hamiltonian,
)
from repro.hamiltonian.exact import (
    SectorBasis,
    SectorOperator,
    sector_basis,
    sector_hamiltonian_dense,
)
from repro.hamiltonian.synthetic import synthetic_molecular_hamiltonian

__all__ = [
    "PauliTerm",
    "letters_to_xz",
    "pauli_mul",
    "strings_to_matrix",
    "term_matrix",
    "xz_to_letters",
    "QubitHamiltonian",
    "jordan_wigner",
    "jordan_wigner_fermion_terms",
    "ladder_terms",
    "double_occupancy_operator",
    "number_dn_operator",
    "number_operator",
    "number_up_operator",
    "occupation_operator",
    "one_body_operator",
    "s2_operator",
    "sz_operator",
    "CompressedHamiltonian",
    "ReferenceHamiltonianData",
    "build_reference",
    "compress_hamiltonian",
    "SectorBasis",
    "SectorOperator",
    "sector_basis",
    "sector_hamiltonian_dense",
    "synthetic_molecular_hamiltonian",
]
