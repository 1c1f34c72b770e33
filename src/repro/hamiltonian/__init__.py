"""Qubit Hamiltonians: Pauli algebra, Jordan-Wigner, compressed storage."""
from repro._lazy import lazy_exports

# ``jordan_wigner`` is also a submodule's name, so it is bound now (``repro._lazy``).
from repro.hamiltonian.jordan_wigner import jordan_wigner

_EXPORTS = {
    "PauliTerm": ".pauli",
    "letters_to_xz": ".pauli",
    "pauli_mul": ".pauli",
    "strings_to_matrix": ".pauli",
    "term_matrix": ".pauli",
    "xz_to_letters": ".pauli",
    "QubitHamiltonian": ".qubit_hamiltonian",
    "jordan_wigner": ".jordan_wigner",
    "jordan_wigner_fermion_terms": ".jordan_wigner",
    "ladder_terms": ".jordan_wigner",
    "double_occupancy_operator": ".operators",
    "number_dn_operator": ".operators",
    "number_operator": ".operators",
    "number_up_operator": ".operators",
    "occupation_operator": ".operators",
    "one_body_operator": ".operators",
    "s2_operator": ".operators",
    "sz_operator": ".operators",
    "CompressedHamiltonian": ".compressed",
    "ReferenceHamiltonianData": ".compressed",
    "build_reference": ".compressed",
    "compress_hamiltonian": ".compressed",
    "SectorBasis": ".exact",
    "SectorOperator": ".exact",
    "sector_basis": ".exact",
    "sector_hamiltonian_dense": ".exact",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
