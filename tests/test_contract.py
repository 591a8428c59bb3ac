"""The matrix contract: every public entry point that takes a matrix refuses
a non-finite or misshapen one with a ValueError that names the argument."""

import re
import warnings

import numpy as np
import pytest

from c0lat import calculus, jordan, sampling
from c0lat.blaschke import BlaschkeProduct
from c0lat.subspace import Subspace, is_invariant, op_norm

T = np.diag([0.3, -0.2]).astype(complex)
B = BlaschkeProduct(((0.5, 1),))
E1 = Subspace(2, [[1.0], [0.0]])

# a valid matrix for each argument, by the name its error messages give it
VALID = {
    "operator": T,
    "T1": T,
    "T2": T,
    "X": np.eye(2),
    "Y": np.eye(2),
    "columns": [[1.0], [0.0]],
    "coefficients": [1.0, 0.5],
    "matrix": np.eye(2),
    # three vectors of C^2: its first row is no vector of C^2
    "vectors": np.ones((2, 3)),
}

# per entry point: a call taking its matrices in order, and for each, by its
# name, whether it must be square and, where its shape is tied to the
# others', a shape that does not fit them
ENTRY_POINTS = {
    "theorem97_verifier": (
        lambda operator: jordan.theorem97_verifier(operator, triples=2),
        {"operator": (True, None)},
    ),
    "theorem_x3_verifier": (
        lambda T1, T2, Y: jordan.theorem_x3_verifier(T1, T2, Y, samples=2),
        {"T1": (True, None), "T2": (True, None), "Y": (True, (3, 3))},
    ),
    "check_lattice_isomorphism": (
        lambda X, T1, T2: jordan.check_lattice_isomorphism(X, T1, T2, samples=2),
        {"X": (False, (3, 2)), "T1": (True, None), "T2": (True, None)},
    ),
    "intertwiner_space": (jordan.intertwiner_space, {"T1": (True, None), "T2": (True, None)}),
    "find_quasiaffinity": (jordan.find_quasiaffinity, {"T1": (True, None), "T2": (True, None)}),
    "are_quasisimilar": (jordan.are_quasisimilar, {"T1": (True, None), "T2": (True, None)}),
    "jordan_model": (jordan.jordan_model, {"operator": (True, None)}),
    "cyclic_multiplicity": (jordan.cyclic_multiplicity, {"operator": (True, None)}),
    "brute_force_lat": (jordan.brute_force_lat, {"operator": (True, None)}),
    "lattice_map": (lambda X: jordan.lattice_map(X, E1), {"X": (False, (2, 3))}),
    "lattice_preimage": (lambda X: jordan.lattice_preimage(X, E1), {"X": (False, (3, 2))}),
    "is_c0": (calculus.is_c0, {"operator": (True, None)}),
    "classify_c0": (calculus.classify_c0, {"operator": (True, None)}),
    "minimal_function": (calculus.minimal_function, {"operator": (True, None)}),
    "eigenstructure": (calculus.eigenstructure, {"operator": (True, None)}),
    "spectral_radius": (calculus.spectral_radius, {"operator": (True, None)}),
    "apply_blaschke": (
        lambda operator: calculus.apply_blaschke(operator, B),
        {"operator": (True, None)},
    ),
    "apply_polynomial": (
        calculus.apply_polynomial,
        {"operator": (True, None), "coefficients": (False, None)},
    ),
    "radial_validate": (
        lambda operator: calculus.radial_validate(operator, B, (0.9, 0.99)),
        {"operator": (True, None)},
    ),
    "is_invariant": (lambda operator: is_invariant(operator, E1), {"operator": (True, None)}),
    "Subspace.from_span": (Subspace.from_span, {"columns": (False, None)}),
    "Subspace.project": (E1.project, {"vectors": (False, (3, 2))}),
    "op_norm": (op_norm, {"matrix": (False, None)}),
    "sample_invariant_subspaces": (
        lambda operator: sampling.sample_invariant_subspaces(operator, 3, np.random.default_rng(0)),
        {"operator": (True, None)},
    ),
}


def _with_entry(valid, value):
    bad = np.array(valid, dtype=complex)
    bad.flat[0] = value
    return bad


def _cases():
    for entry, (_, slots) in ENTRY_POINTS.items():
        for name, (square, misfit) in slots.items():
            valid = np.asarray(VALID[name], dtype=complex)
            probes = {
                "nan": _with_entry(valid, np.nan),
                "inf": _with_entry(valid, complex(0, np.inf)),
            }
            if valid.ndim == 2:
                probes["1-d"] = valid[0]
            if square:
                probes["non-square"] = np.hstack([valid, np.zeros((len(valid), 1))])
            if misfit is not None:
                probes["wrong-shape"] = np.eye(*misfit)
            for probe, bad in probes.items():
                yield pytest.param(entry, name, bad, id=f"{entry}-{name}-{probe}")


def _call(entry, name=None, bad=None):
    """The entry point on the valid matrices, with ``bad`` as ``name``."""
    call, slots = ENTRY_POINTS[entry]
    return call(*(bad if k == name else VALID[k] for k in slots))


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_each_entry_point_takes_the_valid_matrices(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(entry)


@pytest.mark.parametrize("entry, name, bad", list(_cases()))
def test_a_bad_matrix_is_a_value_error_that_names_it(entry, name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            _call(entry, name, bad)
    assert not isinstance(info.value, np.linalg.LinAlgError)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: op_norm([[np.inf, 0], [0, 1]]), "matrix must be finite"),
        (lambda: op_norm(np.ones((2, 2, 2))), r"matrix must be 2-d, got shape \(2, 2, 2\)"),
        (lambda: Subspace.full(2).project(np.ones((2, 2, 2))),
         r"vectors must have 2 rows, got shape \(2, 2, 2\)"),
    ],
    ids=["op_norm-real-inf", "op_norm-3-d", "project-3-d"],
)
def test_norm_and_projection_refuse_real_inf_and_stacks(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_project_takes_a_vector_or_columns():
    v = np.array([0.5, 2.0])
    assert np.array_equal(E1.project(v), [0.5, 0.0])
    assert np.array_equal(E1.project(np.column_stack([v, v])), [[0.5, 0.5], [0.0, 0.0]])
