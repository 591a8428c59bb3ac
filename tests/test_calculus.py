"""Matrix functional calculus: polynomials, Blaschke products, C0
classification, minimal functions.

The independent oracle for minimal functions enumerates all divisors of
the characteristic Blaschke product by increasing degree and accepts the
first annihilator; it never looks at Jordan structure.
"""

import numpy as np
import pytest
import scipy.linalg

from c0lat import blaschke, calculus
from c0lat.blaschke import BlaschkeProduct, almost_equiv, divisors, elementary, equiv, monomial, multiply
from c0lat.calculus import (
    NotC0Error,
    SingularResolventError,
    VerificationError,
    apply_blaschke,
    apply_polynomial,
    classify_c0,
    eigenstructure,
    is_c0,
    minimal_function,
    radial_validate,
    spectral_radius,
)
from c0lat.modelspace import compressed_shift
from c0lat.sampling import (
    complex_gaussian,
    random_blaschke,
    random_contraction,
    random_well_conditioned,
)
from c0lat.subspace import op_norm

NILPOTENT = np.array([[0, 0], [1, 0]], dtype=complex)


def minimal_function_oracle(t, tol=1e-7):
    """Brute force: characteristic Blaschke product, then the first
    annihilating divisor by increasing degree."""
    eigvals = np.linalg.eigvals(t)
    # group exactly-equal eigenvalues (oracle inputs are numerically clean)
    counts = {}
    for lam in eigvals:
        key = complex(np.round(lam, 10))
        counts[key] = counts.get(key, 0) + 1
    characteristic = BlaschkeProduct(tuple(counts.items()))
    for candidate in divisors(characteristic):
        if candidate.degree == 0:
            continue
        if op_norm(apply_blaschke(t, candidate)) <= tol:
            return candidate
    return characteristic


# --- polynomials -----------------------------------------------------------------

def test_polynomial_identity_and_constant():
    t = np.diag([0.3, -0.2]).astype(complex)
    assert np.allclose(apply_polynomial(t, [0, 1]), t)
    assert np.allclose(apply_polynomial(t, [1]), np.eye(2))
    assert np.allclose(apply_polynomial(t, []), np.zeros((2, 2)))


def test_polynomial_on_nilpotent_block():
    assert np.allclose(apply_polynomial(NILPOTENT, [0, 0, 1]), np.zeros((2, 2)))


def test_polynomial_horner_matches_powers():
    rng = np.random.default_rng(0)
    t = random_contraction(rng, 4, 0.7)
    coeffs = [0.3, -0.5j, 0.2, 0.1 + 0.1j]
    direct = sum(c * np.linalg.matrix_power(t, k) for k, c in enumerate(coeffs))
    assert np.allclose(apply_polynomial(t, coeffs), direct)


# --- Blaschke calculus --------------------------------------------------------------

def test_blaschke_identity_symbol():
    t = np.diag([0.4, -0.1]).astype(complex)
    assert np.allclose(apply_blaschke(t, monomial(1)), t)


def test_blaschke_requires_spectrum_in_disk():
    with pytest.raises(NotC0Error):
        apply_blaschke(np.eye(1), monomial(1))


def test_symbol_annihilates_its_shift():
    theta = multiply(monomial(1), elementary(0.5))
    s = compressed_shift(theta).matrix
    assert op_norm(apply_blaschke(s, theta)) <= 1e-7


def test_singular_resolvent_detected():
    lam = 1.0 - 1e-7
    t = np.array([[lam, 0.0], [0.9, lam]], dtype=complex)
    assert spectral_radius(t) < 1.0
    with pytest.raises(SingularResolventError):
        apply_blaschke(t, elementary(lam))


def test_multiplicativity_and_contractivity():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        t = random_contraction(rng, n, spectral_radius=0.8, norm_cap=0.9)
        b1 = random_blaschke(rng, 4, radius=0.6)
        b2 = random_blaschke(rng, 4, radius=0.6)
        lhs = apply_blaschke(t, blaschke.multiply(b1, b2))
        rhs = apply_blaschke(t, b1) @ apply_blaschke(t, b2)
        assert op_norm(lhs - rhs) <= 1e-8
        assert op_norm(apply_blaschke(t, b1)) <= 1.0 + 1e-8


def test_factors_commute():
    rng = np.random.default_rng(2)
    t = random_contraction(rng, 5, 0.7)
    b1, b2 = elementary(0.5), elementary(-0.3 + 0.2j)
    left = apply_blaschke(t, b1) @ apply_blaschke(t, b2)
    right = apply_blaschke(t, b2) @ apply_blaschke(t, b1)
    assert op_norm(left - right) < 1e-12


# --- radial validation ----------------------------------------------------------------

def test_radial_identity_symbol_exact():
    t = np.diag([0.5, 0.3]).astype(complex)
    rs = [0.9, 0.99]
    resids = radial_validate(t, monomial(1), rs)
    for r, resid in zip(rs, resids):
        assert resid == pytest.approx((1 - r) * op_norm(t), abs=1e-12)


def test_radial_nilpotent_square_is_zero():
    resids = radial_validate(NILPOTENT, monomial(2), [0.9, 0.99])
    assert max(resids) < 1e-14


def test_radial_decreasing_and_small():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_contraction(rng, 5, spectral_radius=0.8, norm_cap=0.85)
        b = random_blaschke(rng, 4, radius=0.6)
        resids = radial_validate(t, b, [0.9, 0.99, 0.999])
        assert resids[-1] <= 1e-2
        for a, c in zip(resids, resids[1:]):
            assert c <= 1.1 * a


def test_radial_rejects_bad_radii():
    with pytest.raises(ValueError):
        radial_validate(NILPOTENT, monomial(1), [1.0])


# --- classification ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.zeros((0, 0)), True),
        (np.zeros((3, 3)), True),
        (np.eye(2), False),
        # nilpotent, so spectral radius 0, but norm 1 + 1e-6
        (np.array([[0.0, 1.0 + 1e-6], [0.0, 0.0]]), False),
        # C0 although its eigenstructure cannot be certified
        (np.diag([0.5, 0.5001]), True),
    ],
    ids=["empty", "zeros", "identity", "norm-above-one", "uncertifiable"],
)
def test_is_c0_table(matrix, expected):
    assert is_c0(matrix.astype(complex)) is expected


def test_classify_zero_matrix():
    cert = classify_c0(np.zeros((2, 2)))
    assert cert.is_c0
    assert equiv(cert.minimal_function, monomial(1))
    assert cert.annihilation_residual <= 1e-10


def test_classify_unitary_scalar():
    cert = classify_c0(np.array([[1.0]], dtype=complex))
    assert not cert.is_c0
    assert cert.minimal_function is None


def test_classify_diag_example_with_oracle():
    t = np.diag([0.5, 0.0]).astype(complex)
    cert = classify_c0(t)
    assert cert.is_c0
    expected = minimal_function_oracle(t)
    assert equiv(cert.minimal_function, expected)
    assert equiv(cert.minimal_function, multiply(monomial(1), elementary(0.5)))


def test_classify_takes_the_spectrum_and_each_factor_once(monkeypatch):
    # one eigvals for the radius and one in eigenstructure; the residual
    # reuses eigenstructure's factors b(0.3)(T) and b(-0.4)(T)
    t = np.array([[0.3, 0.5, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, -0.4]], dtype=complex)
    mf = minimal_function(t)
    residual = op_norm(calculus.apply_blaschke(t, mf))  # every factor anew
    calls = dict.fromkeys(("eigvals", "svd"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    cert = classify_c0(t)
    assert calls == {"eigvals": 2, "svd": 11}
    assert cert.minimal_function == mf and cert.annihilation_residual == residual


# --- minimal functions --------------------------------------------------------------------

def test_minimal_function_monomial_shift():
    s = compressed_shift(monomial(2)).matrix
    assert almost_equiv(minimal_function(s), monomial(2), 1e-7)


def test_minimal_function_zero_matrix():
    assert equiv(minimal_function(np.zeros((3, 3))), monomial(1))


def test_minimal_function_repeated_diagonal_with_oracle():
    t = np.diag([0.5, 0.5]).astype(complex)
    mf = minimal_function(t)
    assert mf.degree == 1
    assert equiv(mf, minimal_function_oracle(t))


def test_minimal_function_requires_c0():
    with pytest.raises(NotC0Error):
        minimal_function(np.eye(2))


def test_eigenstructure_refuses_a_spectrum_on_the_circle_before_the_ladder(monkeypatch):
    def unused(*args):
        raise AssertionError("eigenstructure clustered a spectrum of radius 1.5")

    monkeypatch.setattr(calculus, "_single_linkage_clusters", unused)
    with pytest.raises(NotC0Error, match="spectral radius < 1"):
        eigenstructure(np.diag([1.5, 0.2]))


def test_minimal_function_similarity_invariance():
    # wide spectra, small sizes, condition number up to 10
    rng = np.random.default_rng(4)
    for _ in range(10):
        cond = float(rng.uniform(1.0, 10.0))
        t = np.diag([0.05 + 0.02j, -0.04 + 0.01j, 0.01 - 0.06j]).astype(complex)
        q = random_well_conditioned(rng, 3, cond_cap=cond)
        conj = q @ t @ np.linalg.inv(q)
        assert almost_equiv(minimal_function(t), minimal_function(conj), 1e-7)


def test_minimal_function_shared_with_jordan_structure():
    # distinct blocks at one eigenvalue: largest block wins
    t = np.zeros((3, 3), dtype=complex)
    t[1, 0] = 1.0  # chain of length 2 plus a singleton, all at 0
    mf = minimal_function(t)
    assert equiv(mf, monomial(2))
    structure = eigenstructure(t)
    assert len(structure) == 1
    assert structure[0][1] == (2, 1)


def test_eigenstructure_mixed_blocks_under_rotation():
    q = np.linalg.qr(
        np.random.default_rng(5).standard_normal((4, 4))
        + 1j * np.random.default_rng(6).standard_normal((4, 4))
    )[0]
    j = np.diag([0.3 + 0.1j, 0.3 + 0.1j, -0.4j, -0.4j]).astype(complex)
    j[1, 0] = 0.5
    t = q @ j @ q.conj().T * 0.9
    structure = eigenstructure(t)
    parts = sorted(p for _, p in structure)
    assert parts == [(1, 1), (2,)]


def repeated_block_matrices():
    """Jordan matrices with two or three eigenvalue clusters, each carrying
    repeated blocks, conjugated by well-conditioned similarities."""
    rng = np.random.default_rng(17)
    structures = [
        {0.3 + 0.1j: (2, 2), -0.4j: (1, 1)},
        {0.5: (3, 3, 1), -0.2 + 0.3j: (2, 2), -0.5: (1,)},
        {0.1j: (2, 1, 1), 0.6 - 0.1j: (2, 2)},
    ]
    for structure in structures:
        blocks = []
        for lam, sizes in structure.items():
            for size in sizes:
                block = lam * np.eye(size, dtype=complex)
                block[np.arange(1, size), np.arange(size - 1)] = 0.3
                blocks.append(block)
        j = scipy.linalg.block_diag(*blocks)
        q = random_well_conditioned(rng, j.shape[0], cond_cap=2.0)
        yield structure, 0.9 * q @ j @ np.linalg.inv(q)


def test_eigenstructure_products_are_apply_blaschke_bit_for_bit(monkeypatch):
    # the candidate and every trimmed product, built from factors shared
    # across the call, equal fresh apply_blaschke evaluations exactly
    for structure, t in repeated_block_matrices():
        products = []
        shared = calculus._blaschke_product

        def recording(t, b, factors):
            products.append((b, shared(t, b, factors)))
            return products[-1][1]

        monkeypatch.setattr(calculus, "_blaschke_product", recording)
        found = eigenstructure(t)
        monkeypatch.undo()
        assert sorted(p for _, p in found) == sorted(structure.values())
        assert len(products) == 1 + len(structure)
        for b, got in products:
            assert np.array_equal(got, apply_blaschke(t, b))


def test_eigenstructure_evaluates_each_factor_once(monkeypatch):
    for structure, t in repeated_block_matrices():
        zeros = []
        factor = calculus._blaschke_factor

        def counted(t, a):
            zeros.append(a)
            return factor(t, a)

        monkeypatch.setattr(calculus, "_blaschke_factor", counted)
        found = eigenstructure(t)
        monkeypatch.undo()
        assert len(zeros) == len(set(zeros)) and set(zeros) == {mean for mean, _ in found}


def test_eigenstructure_uncertifiable_spectrum_raises():
    # pseudo-hyperbolic separation below the maximality floor
    with pytest.raises(VerificationError):
        eigenstructure(np.diag([0.5, 0.5 + 2e-4]).astype(complex))


def union_find_clusters(values, radius):
    """The reference single linkage: a union-find pass over every pair,
    clusters in order of their smallest index, then sorted by mean."""
    parent = list(range(values.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(values.size):
        for j in range(i + 1, values.size):
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(values.size):
        groups.setdefault(find(i), []).append(i)
    clusters = [np.array(idx) for idx in groups.values()]
    clusters.sort(key=lambda idx: (values[idx].mean().real, values[idx].mean().imag))
    return clusters


@pytest.mark.parametrize("seed", range(4))
def test_single_linkage_clusters_match_the_union_find_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 33))
        centres = rng.uniform(-0.9, 0.9, 4) + 1j * rng.uniform(-0.9, 0.9, 4)
        # chains of near points, exact repeats and conjugate pairs
        values = rng.choice(centres, n) + rng.uniform(0, 1e-2) * complex_gaussian(rng, n)
        values = np.round(values, 2) if rng.uniform() < 0.3 else values
        values = np.concatenate([values, values.conj()]) if rng.uniform() < 0.3 else values
        radius = float(rng.choice(calculus.CLUSTER_LADDER + (1e-2,)))
        got = calculus._single_linkage_clusters(values, radius)
        assert [c.tolist() for c in got] == [c.tolist() for c in union_find_clusters(values, radius)]


def test_certificate_json_shape():
    cert = classify_c0(np.diag([0.5, 0.0]).astype(complex))
    data = cert.to_json_dict()
    assert set(data) == {"is_c0", "spectral_radius", "minimal_function", "annihilation_residual"}
    assert data["minimal_function"]["zeros"]
