"""Desk-scale toolkit for finite Blaschke products, model spaces with
their compressed shifts, the matrix functional calculus, invariant-subspace
lattices, Jordan models, and randomized lattice-law verifiers.

Every module loads on first use (PEP 562): ``import c0lat`` loads no
submodule and no numpy, ``c0lat.meet`` loads ``c0lat.subspace``, and
``c0lat inner`` loads ``blaschke`` and ``serialize`` alone.  Those two,
and ``cli``, import numpy only inside the functions that do linear
algebra (``evaluate``, ``decode_matrix``, ``encode_matrix``), so
``inner gcd|lcm|divides``, ``--help`` and a usage error run on the
standard library.  Every other module imports numpy at load time.  SciPy
enters only as ``scipy.linalg``, and only inside the functions that take
or reorder a Schur form, so every command that never takes one loads
numpy alone."""

import sys

# the public names, by the submodule that defines them
_EXPORTS = {
    "blaschke": ("BlaschkeProduct", "UnitDiskPoint", "almost_equiv", "divide",
                 "divides", "divisors", "elementary", "equiv", "evaluate", "gcd",
                 "lcm", "monomial", "multiply"),
    "calculus": ("C0Certificate", "apply_blaschke", "apply_polynomial", "classify_c0",
                 "eigenstructure", "is_c0", "minimal_function", "radial_validate",
                 "spectral_radius"),
    "jordan": ("IntertwinerSpace", "JordanModel", "LatticeMapReport",
               "VerificationReport", "Violation", "are_quasisimilar",
               "brute_force_lat", "check_lattice_isomorphism", "cyclic_multiplicity",
               "find_quasiaffinity", "intertwiner_space", "jordan_model",
               "lattice_map", "lattice_preimage", "theorem97_verifier",
               "theorem_x3_verifier"),
    "modelspace": ("ModelOperator", "ModelSpace", "compressed_shift",
                   "divisor_subspace", "enumerate_lattice"),
    "subspace": ("FiniteLattice", "Subspace", "check_distributive_triple",
                 "check_modular_triple", "contains", "cyclic_subspace", "distance",
                 "equals", "is_invariant", "join", "lattice_is_distributive",
                 "lattice_is_modular", "meet"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "sampling", "serialize", "suites"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _submodule(module):
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    # a public name is its home module's current binding, never a stale copy
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
