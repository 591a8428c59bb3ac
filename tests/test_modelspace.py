"""Model spaces, the rational basis, and the compressed shift.

The independent oracle for the basis and the closed-form shift matrix is
adaptive quadrature (scipy.integrate.quad) of f(e^it) conj(g(e^it)) / 2pi
on [0, 2pi]; it shares no code with either.  The divisor subspaces' oracle
is the closed-form span of the reproducing kernels at the divisor's zeros,
from Taylor coefficients of the basis computed here.
"""

import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from c0lat import blaschke, suites
from c0lat.blaschke import BlaschkeProduct, NotADivisorError, elementary, monomial, multiply
from c0lat.calculus import VerificationError, _spectral_basis, apply_blaschke
from c0lat.modelspace import (
    LatticeCapError,
    ModelOperator,
    ModelSpace,
    compressed_shift,
    divisor_subspace,
    enumerate_lattice,
)
from c0lat.sampling import random_blaschke, random_divisor, random_unit_disk_points
from c0lat.subspace import Subspace, contains, distance, equals, is_invariant, join, meet, op_norm


def quad_inner(f, g) -> complex:
    """Adaptive-quadrature circle inner product: the oracle."""

    def integrand_re(t):
        z = np.exp(1j * t)
        return (f(z) * np.conj(g(z))).real

    def integrand_im(t):
        z = np.exp(1j * t)
        return (f(z) * np.conj(g(z))).imag

    re, _ = quad(integrand_re, 0.0, 2 * np.pi, limit=200)
    im, _ = quad(integrand_im, 0.0, 2 * np.pi, limit=200)
    return complex(re, im) / (2 * np.pi)


THETA_MIXED = BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0.2j, 1), (0.1 - 0.6j, 1)))
# the zeros of a Jordan structure with two 4-blocks
THETA_TWO_FOURFOLD = BlaschkeProduct(
    (
        (0.16315617427631196 + 0.06201259116827713j, 4),
        (-0.5600446443392839 - 0.03902363760481331j, 4),
    )
)


# --- basis ----------------------------------------------------------------------

def test_monomial_basis():
    space = ModelSpace(monomial(2))
    assert space.basis_eval(1, 0.3 + 0.2j) == pytest.approx(1.0)
    assert space.basis_eval(2, 0.3 + 0.2j) == pytest.approx(0.3 + 0.2j)
    z = np.array([[0.1, -0.2j], [0.5, 0.0]])
    assert np.allclose(space.basis_eval(2, z), z) and space.basis_eval(2, z).shape == (2, 2)


def test_basis_index_and_domain_checks():
    space = ModelSpace(monomial(2))
    with pytest.raises(IndexError):
        space.basis_eval(0, 0.1)
    with pytest.raises(IndexError):
        space.basis_eval(3, 0.1)
    with pytest.raises(ValueError):
        space.basis_eval(1, 1.5)
    with pytest.raises(ValueError):
        ModelSpace(BlaschkeProduct(()))  # constant theta has no model space


def test_gram_matrix_identity_against_quad_oracle():
    space = ModelSpace(THETA_MIXED)
    d = space.dim
    for j in range(1, d + 1):
        for k in range(j, d + 1):
            expected = 1.0 if j == k else 0.0
            oracle = quad_inner(
                lambda z, j=j: space.basis_eval(j, z),
                lambda z, k=k: space.basis_eval(k, z),
            )
            assert oracle == pytest.approx(expected, abs=1e-9)


# --- compressed shift --------------------------------------------------------------

def test_shift_monomial_case():
    op = compressed_shift(monomial(2))
    expected = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.max(np.abs(op.matrix - expected)) < 1e-12


def test_shift_degree_one_cases():
    assert np.max(np.abs(compressed_shift(monomial(1)).matrix)) < 1e-12
    a = 0.5 + 0.0j
    op = compressed_shift(elementary(a))
    assert op.matrix[0, 0] == pytest.approx(a, abs=1e-12)
    # oracle: <z e_1, e_1> by adaptive quadrature
    space = ModelSpace(elementary(a))
    oracle = quad_inner(lambda z: z * space.basis_eval(1, z), lambda z: space.basis_eval(1, z))
    assert oracle == pytest.approx(a, abs=1e-9)


def test_shift_matrix_against_quad_oracle():
    op = compressed_shift(THETA_MIXED)
    space = ModelSpace(THETA_MIXED)
    d = space.dim
    oracle = np.array(
        [
            [
                quad_inner(
                    lambda z, k=k: z * space.basis_eval(k, z),
                    lambda z, j=j: space.basis_eval(j, z),
                )
                for k in range(1, d + 1)
            ]
            for j in range(1, d + 1)
        ]
    )
    assert np.max(np.abs(op.matrix - oracle)) < 1e-9


def test_shift_is_lower_triangular_with_zero_diagonal_order():
    op = compressed_shift(THETA_MIXED)
    space = ModelSpace(THETA_MIXED)
    assert np.max(np.abs(np.triu(op.matrix, 1))) < 1e-10
    assert np.max(np.abs(np.diag(op.matrix) - np.array(space.zero_order))) < 1e-10


def test_shift_norm_is_contractive():
    op = compressed_shift(THETA_MIXED)
    assert op_norm(op.matrix) <= 1.0 + 1e-9


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        compressed_shift(BlaschkeProduct((), np.exp(0.1j)))


def test_model_operator_takes_theta_alone_and_derives_a_read_only_matrix():
    # no matrix can be paired with theta, so no wrong operator can be built
    with pytest.raises(TypeError):
        ModelOperator(monomial(2), np.diag([0.5, 0.5]).astype(complex))
    op = ModelOperator(THETA_MIXED)
    assert op == compressed_shift(THETA_MIXED)
    assert np.array_equal(op.matrix, compressed_shift(THETA_MIXED).matrix)
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 0


# --- divisor subspaces ---------------------------------------------------------------

def test_divisor_subspace_monomial_example():
    s = divisor_subspace(monomial(2), monomial(1))
    assert s.dim == 1
    e2 = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
    assert equals(s, e2)


def test_divisor_subspace_extremes():
    theta = THETA_MIXED
    assert divisor_subspace(theta, BlaschkeProduct(())).dim == theta.degree
    assert divisor_subspace(theta, theta).dim == 0


def test_divisor_subspace_dimension():
    theta = THETA_MIXED
    phi = multiply(monomial(0), elementary(0.5))
    s = divisor_subspace(theta, phi)
    assert s.dim == theta.degree - phi.degree


def mobius_taylor(num, b, a, order):
    """Taylor coefficients at ``a``, in powers of w = z - a, of
    ``num(w) / (1 - conj(b) z)``: power-series division by the linear
    denominator (1 - conj(b) a) - conj(b) w."""
    c0, c1 = 1 - np.conj(b) * a, -np.conj(b)
    out = []
    for k in range(order):
        out.append(((num[k] if k < len(num) else 0) - (c1 * out[-1] if out else 0)) / c0)
    return np.array(out)


def basis_taylor(zeros, a, order):
    """``t[j, k]``: the k-th Taylor coefficient at ``a`` of the j-th
    Takenaka-Malmquist function on ``zeros``, from its Möbius factors."""
    t = np.empty((len(zeros), order), dtype=complex)
    carried = np.eye(1, order, dtype=complex)[0]
    for j, b in enumerate(zeros):
        lead = mobius_taylor([np.sqrt(1 - abs(b) ** 2)], b, a, order)
        t[j] = np.convolve(carried, lead)[:order]
        carried = np.convolve(carried, mobius_taylor([a - b, 1], b, a, order))[:order]
    return t


def test_divisor_subspaces_against_the_kernel_oracle():
    # H(theta) ⊖ phi H(theta/phi) = H(phi) is spanned by the kernels of
    # f -> f^(k)(a) / k! for the zeros a of phi and k below a's multiplicity
    # in phi; in the e-basis their coordinates are conj(e_j^(k)(a) / k!).  So
    # divisor_subspace(phi) is exactly the orthocomplement of their span K,
    # which has rank deg phi, for every divisor, the double zero's included
    zeros = THETA_MIXED.zero_sequence()
    d = len(zeros)
    divisors = blaschke.divisors(THETA_MIXED)
    assert len(divisors) == 12
    for phi in divisors:
        k = np.zeros((d, 0), dtype=complex)
        for a, m in phi.zeros:
            k = np.hstack([k, basis_taylor(zeros, a, m).conj()])
        s = divisor_subspace(THETA_MIXED, phi)
        assert np.linalg.matrix_rank(k) == phi.degree
        assert s.dim == d - phi.degree
        if phi.degree and s.dim:
            assert np.linalg.norm(s.basis.conj().T @ k, 2) <= 1e-12 * np.linalg.norm(k, 2)


def test_divisor_subspace_requires_divisor():
    with pytest.raises(NotADivisorError):
        divisor_subspace(monomial(2), elementary(0.5))


def divide_picked_subspace(space, phi) -> np.ndarray:
    """The divisor subspace's basis from the positions that
    ``blaschke.divide``'s validated quotient picks on the reversed shift."""
    left, zeros = blaschke.divide(space.theta, phi).zero_multiset(), space.zero_order[::-1]
    picked = [k for k, z in enumerate(zeros) if k < zeros.index(z) + left.get(z, 0)]
    flip = np.eye(space.dim, dtype=complex)[::-1]
    return _spectral_basis(space._flipped, flip, picked)[0]


# 3 * 2 * 2 = 12 divisors, as in tests/test_suites.py
THETA_12 = BlaschkeProduct(((0.3 + 0j, 2), (-0.2 + 0.4j, 1), (0.1 - 0.5j, 1)))


@pytest.mark.parametrize("theta", [THETA_MIXED, THETA_12])
def test_trusted_divisor_paths_give_the_validated_objects(theta):
    # divisors and divide build on sub-multisets of a validated product
    # without validating again, and divisor_subspace picks from exponent
    # counts without a quotient: each gives what the validated path gives
    found = blaschke.divisors(theta)
    validated = [
        BlaschkeProduct(tuple((z, m) for (z, _), m in zip(theta.zeros, mults) if m))
        for mults in itertools.product(*(range(m + 1) for _, m in theta.zeros))
    ]
    validated.sort(key=lambda d: (d.degree, tuple((z.real, z.imag, m) for z, m in d.zeros)))
    assert found == validated
    assert found == [BlaschkeProduct(d.zeros) for d in found]
    space = ModelSpace(theta)
    scaled = BlaschkeProduct(theta.zeros, 1j)
    for phi in found:
        basis = space.divisor_subspace(phi).basis
        assert basis.tobytes() == divide_picked_subspace(space, phi).tobytes()
        phi = BlaschkeProduct(phi.zeros, np.exp(0.3j))
        left = tuple((z, m - dict(phi.zeros).get(z, 0)) for z, m in theta.zeros)
        quotient = BlaschkeProduct(tuple((z, m) for z, m in left if m), scaled.constant / phi.constant)
        assert blaschke.divide(scaled, phi) == quotient
    (z, m), *_ = theta.zeros
    for phi in (multiply(theta, elementary(0.6)), BlaschkeProduct(((z, m + 1),))):
        message = re.escape(f"{phi} does not divide {theta}")
        with pytest.raises(NotADivisorError, match=message):
            space.divisor_subspace(phi)
        with pytest.raises(NotADivisorError, match=message):
            blaschke.divide(theta, phi)


@pytest.mark.parametrize("theta", [THETA_MIXED, THETA_TWO_FOURFOLD])
def test_prefix_divisor_subspace_is_exactly_the_trailing_basis_vectors(theta):
    # phi made of the first k canonical zeros: phi H(theta/phi) is spanned by
    # e_{k+1}, ..., e_d, and the reorder runs no swap, so rows 1..k are 0.0
    space = ModelSpace(theta)
    for k in range(theta.degree + 1):
        s = space.divisor_subspace(BlaschkeProduct(tuple((z, 1) for z in space.zero_order[:k])))
        assert s.dim == theta.degree - k
        assert np.all(s.basis[:k] == 0)


def svd_divisor_subspace(space, phi) -> Subspace:
    """The oracle: phi H^2 ⊖ theta H^2 as the range of phi(S(theta)), whose
    rank is deg theta - deg phi, from the leading left singular vectors."""
    u, _, _ = np.linalg.svd(apply_blaschke(compressed_shift(space.theta).matrix, phi))
    return Subspace(space.dim, u[:, : space.dim - phi.degree])


def oracle_families():
    rng = np.random.default_rng(16)
    pools = [random_unit_disk_points(rng, 3, radius=0.85) for _ in range(40)]
    # three zeros drawn into a product of degree up to 8, so zeros repeat
    yield from (random_blaschke(rng, 8, pool=pool) for pool in pools)
    yield BlaschkeProduct(((0.5 + 0j, 1), (0.500001 + 0j, 1), (-0.3 + 0.2j, 1)))
    yield BlaschkeProduct(((0.99999 * np.exp(0.7j), 2), (0.3 - 0.2j, 1), (-0.5 + 0.1j, 1)))
    yield THETA_TWO_FOURFOLD


def test_divisor_subspaces_match_the_range_of_phi_of_the_shift():
    worst = 0.0
    for theta in oracle_families():
        space = ModelSpace(theta)
        for phi in blaschke.divisors(theta):
            if 0 < phi.degree < theta.degree:
                oracle = svd_divisor_subspace(space, phi)
                worst = max(worst, distance(space.divisor_subspace(phi), oracle))
    assert worst <= 1e-13


def test_a_failed_reorder_is_a_verification_error(monkeypatch):
    reorder = scipy.linalg.lapack.ztrsen
    monkeypatch.setattr(
        scipy.linalg.lapack, "ztrsen", lambda *args, **kw: (*reorder(*args, **kw)[:-1], 1)
    )
    # a prefix divisor runs the reorder too, with no swap; the intertwiner
    # split's fallback is tests/test_jordan.py's failed-reorder test
    for phi in (elementary(0.5), BlaschkeProduct(((-0.3 + 0.2j, 1),))):
        with pytest.raises(VerificationError, match="could not reorder"):
            divisor_subspace(THETA_MIXED, phi)


# --- zeros near the boundary and of high multiplicity ---------------------------------------

@pytest.mark.parametrize("r", [0.9999, 0.99999, 1 - 1e-7])
def test_near_boundary_double_zero(r):
    theta = BlaschkeProduct(((r * np.exp(0.7j), 2), (0.3 - 0.2j, 1), (-0.5 + 0.1j, 1)))
    assert op_norm(compressed_shift(theta).matrix) <= 1.0 + 1e-9
    assert suites.prop14_suite(trials=2, seed=0, inputs=(theta,)).passed
    assert suites.meetjoin_suite(trials=8, seed=0, inputs=(theta,)).passed


def test_two_fourfold_zeros_accepted():
    assert op_norm(compressed_shift(THETA_TWO_FOURFOLD).matrix) <= 1.0 + 1e-9


# --- lattice enumeration ----------------------------------------------------------------

def test_enumerate_monomial_square():
    entries = enumerate_lattice(monomial(2))
    assert len(entries) == 3
    assert sorted(s.dim for _, s in entries) == [0, 1, 2]


def test_enumerate_three_distinct_zeros():
    theta = BlaschkeProduct(((0.3 + 0j, 1), (-0.2 + 0.4j, 1), (0.1 - 0.5j, 1)))
    entries = enumerate_lattice(theta)
    assert len(entries) == 8
    for phi_a, s_a in entries:
        for phi_b, s_b in entries:
            assert equals(s_a, s_b) == blaschke.equiv(phi_a, phi_b)


def test_enumerated_subspaces_are_invariant():
    theta = THETA_MIXED
    s_matrix = compressed_shift(theta).matrix
    for _, s in enumerate_lattice(theta):
        verdict = is_invariant(s_matrix, s)
        assert verdict.residual <= 1e-8


def test_enumerate_cap():
    points = random_unit_disk_points(np.random.default_rng(0), 13, radius=0.6, min_separation=0.01)
    theta = BlaschkeProduct(tuple((z, 1) for z in points))
    with pytest.raises(LatticeCapError):
        enumerate_lattice(theta)


# --- meet/join formulas and inclusion reversal ----------------------------------------------

def test_meet_join_divisor_formulas():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = random_blaschke(rng, 5, radius=0.85)
        space = ModelSpace(theta)
        phi1, phi2 = random_divisor(rng, theta), random_divisor(rng, theta)
        m1, m2 = space.divisor_subspace(phi1), space.divisor_subspace(phi2)
        assert distance(meet(m1, m2), space.divisor_subspace(blaschke.lcm(phi1, phi2))) <= 1e-7
        assert distance(join(m1, m2), space.divisor_subspace(blaschke.gcd(phi1, phi2))) <= 1e-7


def test_inclusion_reverses_divisibility():
    rng = np.random.default_rng(12)
    for _ in range(25):
        theta = random_blaschke(rng, 5, radius=0.85)
        space = ModelSpace(theta)
        phi1, phi2 = random_divisor(rng, theta), random_divisor(rng, theta)
        m1, m2 = space.divisor_subspace(phi1), space.divisor_subspace(phi2)
        assert contains(m2, m1) == blaschke.divides(phi2, phi1)
        assert contains(m1, m2) == blaschke.divides(phi1, phi2)


# --- the symbol annihilates its shift --------------------------------------------------------

def test_symbol_annihilates_shift():
    rng = np.random.default_rng(13)
    for _ in range(10):
        theta = random_blaschke(rng, 6, radius=0.85)
        s = compressed_shift(theta).matrix
        assert op_norm(apply_blaschke(s, theta)) <= 1e-7
        for z, _ in theta.zeros:
            phi = blaschke.divide(theta, BlaschkeProduct(((z, 1),)))
            assert op_norm(apply_blaschke(s, phi)) > 1e-3
