"""The matrix contract: every public entry point that takes a matrix refuses
a non-finite or misshapen one with a ValueError that names the argument;
and the exact text of the size caps and payload refusals."""

import re
import warnings

import numpy as np
import pytest

from c0lat import calculus, jordan, sampling, suites
from c0lat.blaschke import BlaschkeProduct, monomial
from c0lat.calculus import VerificationError
from c0lat.serialize import decode_matrix
from c0lat.subspace import FiniteLattice, Subspace, is_invariant, op_norm

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Subspace(3, np.zeros((2, 1))), "basis has 2 rows for ambient dimension 3"),
        (lambda: Subspace(2, np.eye(2, 3)), "basis has 3 columns in ambient dimension 2"),
        (lambda: Subspace.from_span(np.ones((3, 1)), 4),
         "column length does not match ambient dimension"),
        (lambda: is_invariant(np.eye(3), E1), "operator size does not match ambient dimension"),
        (lambda: FiniteLattice(range(4097), np.eye(1, dtype=bool)), "lattice size 4097 exceeds cap 4096"),
        (lambda: FiniteLattice(range(3), np.eye(2, dtype=bool)),
         "leq must be a square boolean matrix matching labels"),
        (lambda: FiniteLattice(range(2), [[True, True], [False, False]]), "leq is not reflexive"),
        (lambda: FiniteLattice.from_subspaces([]), "cannot build a lattice from no subspaces"),
        (lambda: jordan.jordan_model(np.zeros((13, 13))), "jordan_model is capped at size 12"),
        (lambda: jordan.theorem97_verifier(np.zeros((11, 11))), "theorem97_verifier is capped at size 10"),
        (lambda: jordan.brute_force_lat(np.zeros((11, 11))), "brute_force_lat is capped at size 10"),
        (lambda: suites.thm97_suite(seed=-1), "seed must be non-negative; got -1"),
        (lambda: jordan.check_lattice_isomorphism(np.eye(2), T, T, samples=0),
         "samples must be at least 1; got 0"),
        (lambda: jordan.check_lattice_isomorphism(np.eye(2), T, T, samples=-1),
         "samples must be at least 1; got -1"),
        (lambda: suites.duality_suite(trials=1, samples=0), "samples must be at least 1; got 0"),
        (lambda: jordan.theorem97_verifier(T, triples=-2), "triples must be non-negative; got -2"),
        (lambda: jordan.theorem_x3_verifier(T, T, np.eye(2), samples=-2),
         "samples must be non-negative; got -2"),
        (lambda: suites.SuiteConfig("nosuch"),
         "unknown suite 'nosuch'; choose from ['calculus', 'distributive', 'duality', "
         "'lattice-laws', 'modular-thm97', 'oracle-latmatch', 'prop14', 'propq-meetjoin', 'x3-transfer']"),
        (lambda: suites.SuiteConfig("prop14", output="xml"), "output must be 'text' or 'json'"),
        (lambda: BlaschkeProduct.from_json_dict({"zeros": [{"re": 0.5, "im": 0.0}]}),
         "Blaschke payload has no field zeros[0].mult"),
        (lambda: BlaschkeProduct.from_json_dict({"zeros": [{"re": 10**400, "im": 0.0, "mult": 1}]}),
         "Blaschke payload: zeros[0].re is too large for a float"),
        (lambda: monomial(-1), "monomial degree must be nonnegative"),
        (lambda: decode_matrix({"rows": 2, "cols": 1, "entries": [[[0.0, 0.0]]]}),
         "matrix payload does not match shape 2x1"),
    ],
    ids=[
        "subspace-rows", "subspace-columns", "from_span-ambient", "is_invariant-size",
        "lattice-cap", "lattice-shape", "lattice-reflexive", "lattice-empty",
        "jordan_model-cap", "theorem97-cap", "brute_force_lat-cap", "thm97_suite-seed",
        "lattice-map-samples-0", "lattice-map-samples-negative", "duality-samples-0",
        "theorem97-triples-negative", "x3-samples-negative",
        "config-suite", "config-output", "blaschke-mult", "blaschke-re", "monomial", "decode-shape",
    ],
)
def test_each_refusal_is_a_value_error_with_its_text(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_verifiers_take_zero_trials_as_an_empty_report():
    for report in (jordan.theorem97_verifier(T, triples=0),
                   jordan.theorem_x3_verifier(T, T, np.eye(2), samples=0)):
        assert report.passed and report.trials == 0 and report.max_residual == 0.0


def test_jordan_model_suite_raises_once_its_redraws_are_used_up(monkeypatch):
    # every draw is one the clustering ladder cannot certify: the suite
    # draws _MODEL_DRAWS of them for its first trial and lets the last
    # refusal through
    refused = []

    def uncertifiable(t, verify=True):
        refused.append(t)
        raise VerificationError(f"refusal {len(refused)}")

    monkeypatch.setattr(suites, "jordan_model", uncertifiable)
    with pytest.raises(VerificationError) as info:
        suites.jordan_model_suite(trials=1)
    assert str(info.value) == f"refusal {suites._MODEL_DRAWS}"
    assert len(refused) == suites._MODEL_DRAWS == 10
