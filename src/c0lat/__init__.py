"""Desk-scale toolkit for finite Blaschke products, model spaces with
their compressed shifts, the matrix functional calculus, invariant-subspace
lattices, Jordan models, and randomized lattice-law verifiers.

SciPy enters only as ``scipy.linalg``, and only inside the functions that
take or reorder a Schur form, so ``import c0lat`` and every command that
never takes one load numpy alone."""

from .blaschke import (
    BlaschkeProduct,
    UnitDiskPoint,
    almost_equiv,
    divide,
    divides,
    divisors,
    elementary,
    equiv,
    evaluate,
    gcd,
    lcm,
    monomial,
    multiply,
)
from .calculus import (
    C0Certificate,
    apply_blaschke,
    apply_polynomial,
    classify_c0,
    eigenstructure,
    is_c0,
    minimal_function,
    radial_validate,
    spectral_radius,
)
from .jordan import (
    IntertwinerSpace,
    JordanModel,
    LatticeMapReport,
    VerificationReport,
    Violation,
    are_quasisimilar,
    brute_force_lat,
    check_lattice_isomorphism,
    cyclic_multiplicity,
    find_quasiaffinity,
    intertwiner_space,
    jordan_model,
    lattice_map,
    lattice_preimage,
    theorem97_verifier,
    theorem_x3_verifier,
)
from .modelspace import (
    ModelOperator,
    ModelSpace,
    compressed_shift,
    divisor_subspace,
    enumerate_lattice,
)
from .subspace import (
    FiniteLattice,
    Subspace,
    check_distributive_triple,
    check_modular_triple,
    contains,
    cyclic_subspace,
    distance,
    equals,
    is_invariant,
    join,
    lattice_is_distributive,
    lattice_is_modular,
    meet,
)

__version__ = "0.1.0"
