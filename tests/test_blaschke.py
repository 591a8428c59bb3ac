"""Blaschke-product arithmetic: examples, lattice laws, boundary behavior."""

import cmath
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c0lat import blaschke
from c0lat.blaschke import (
    BlaschkeProduct,
    DegreeCapError,
    NotADivisorError,
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

# a small pool of exact complex points so multisets can genuinely collide
POOL = (0j, 0.5 + 0j, -0.3 + 0.2j, 0.1 - 0.6j, 0.72j, -0.45 - 0.18j)


def pool_products(max_mult=2):
    """Strategy: products with multiplicities over the shared pool."""
    return st.builds(
        lambda mults: BlaschkeProduct(
            tuple((z, m) for z, m in zip(POOL, mults) if m > 0)
        ),
        st.tuples(*[st.integers(0, max_mult) for _ in POOL]),
    )


def multiset(b: BlaschkeProduct) -> Counter:
    return Counter(dict(b.zeros))


# --- construction -----------------------------------------------------------

def test_unit_disk_point_rejects_boundary():
    with pytest.raises(ValueError):
        UnitDiskPoint(1.0)
    with pytest.raises(ValueError):
        UnitDiskPoint(1.0 - 1e-13)
    assert UnitDiskPoint(0.999).value == 0.999


def test_constant_must_be_unimodular():
    with pytest.raises(ValueError):
        BlaschkeProduct((), 0.5)
    b = BlaschkeProduct((), np.exp(0.3j))
    assert b.degree == 0 and b.is_constant


def test_zeros_merge_and_sort_canonically():
    b = BlaschkeProduct(((0.5 + 0j, 1), (-0.3 + 0j, 2), (0.5 + 0j, 1)))
    assert b.zeros == ((-0.3 + 0j, 2), (0.5 + 0j, 2))
    assert b == BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0j, 2)))
    assert hash(b) == hash(BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0j, 2))))


def test_degree_cap():
    BlaschkeProduct(((0j, 64),))
    with pytest.raises(DegreeCapError):
        BlaschkeProduct(((0j, 65),))


def test_zeros_come_in_pairs_with_integer_multiplicities():
    # a float multiplicity used to be truncated by int() and a string parsed
    point = UnitDiskPoint(0.5)
    assert BlaschkeProduct(((point, np.int64(2)),)).zeros == ((0.5 + 0j, 2),)
    assert type(BlaschkeProduct(((0.5, np.int32(2)),)).zeros[0][1]) is int
    for mult in (2.7, 2.0, "3", True, np.True_, np.float64(2.0), 0, -1):
        with pytest.raises(ValueError, match=r"zero \(0.5\+0j\): multiplicity must be a positive"):
            BlaschkeProduct(((0.5, mult),))
    for bare in (point, 0.5):
        with pytest.raises(TypeError):
            BlaschkeProduct((bare,))


def test_json_round_trip():
    b = BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0.2j, 1)), np.exp(0.4j))
    again = BlaschkeProduct.from_json_dict(b.to_json_dict())
    assert again == b


# --- evaluation -------------------------------------------------------------

def test_evaluate_identity_factor():
    assert evaluate(monomial(1), 0.5) == pytest.approx(0.5)


def test_evaluate_constant():
    c = np.exp(1.1j)
    assert evaluate(BlaschkeProduct((), c), 0.3 + 0.2j) == pytest.approx(c)


def test_evaluate_vanishes_at_zero():
    assert abs(evaluate(elementary(0.5), 0.5)) < 1e-15


def test_evaluate_normalization_at_origin():
    # the factor convention makes b_a(0) = |a| > 0
    a = -0.3 + 0.4j
    assert evaluate(elementary(a), 0.0) == pytest.approx(0.5)


def test_evaluate_outside_disk_rejected():
    with pytest.raises(ValueError):
        evaluate(monomial(1), 1.5)


def test_evaluate_unimodular_on_circle():
    rng = np.random.default_rng(7)
    nodes = np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        zeros = rng.uniform(-0.65, 0.65, (k, 2))
        b = BlaschkeProduct(tuple((complex(x, y), 1) for x, y in zeros))
        assert np.max(np.abs(np.abs(evaluate(b, nodes)) - 1.0)) < 1e-9


def test_evaluate_bounded_inside():
    rng = np.random.default_rng(8)
    b = BlaschkeProduct(((0.4 + 0.1j, 2), (-0.2 - 0.5j, 1)))
    pts = rng.uniform(-0.7, 0.7, (50, 2))
    vals = evaluate(b, np.array([complex(x, y) for x, y in pts]))
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


# --- multiplication / division ----------------------------------------------

def test_multiply_monomials():
    assert multiply(monomial(1), monomial(1)) == monomial(2)


def test_multiply_identity():
    b = BlaschkeProduct(((0.5 + 0j, 1),), np.exp(0.2j))
    assert multiply(b, BlaschkeProduct(())) == b


def test_multiply_union():
    prod = multiply(elementary(0.5), elementary(-0.3))
    assert multiset(prod) == Counter({0.5 + 0j: 1, -0.3 + 0j: 1})
    assert prod.degree == 2


def test_divides_examples():
    b_a, b_c = elementary(0.5), elementary(-0.3)
    big = multiply(multiply(b_a, b_a), b_c)
    assert divides(b_a, big)
    assert not divides(multiply(b_a, b_a), b_a)
    assert divides(BlaschkeProduct((), np.exp(0.9j)), big)


def test_divide_examples():
    assert equiv(divide(monomial(2), monomial(1)), monomial(1))
    b = BlaschkeProduct(((0.5 + 0j, 1),), np.exp(0.3j))
    assert divide(b, b).is_constant
    with pytest.raises(NotADivisorError):
        divide(monomial(1), monomial(2))


def test_divide_reproduces_numerator():
    num = BlaschkeProduct(((0.5 + 0j, 2), (0.72j, 1)), np.exp(0.8j))
    den = BlaschkeProduct(((0.5 + 0j, 1),), np.exp(-0.4j))
    back = multiply(den, divide(num, den))
    assert equiv(back, num)  # zero multisets agree exactly
    assert abs(back.constant - num.constant) < 1e-12


# --- gcd / lcm / equiv --------------------------------------------------------

def test_gcd_lcm_examples():
    z, z2 = monomial(1), monomial(2)
    zb = multiply(z, elementary(0.5))
    assert equiv(gcd(z2, zb), z)
    assert equiv(lcm(z2, zb), multiply(z2, elementary(0.5)))
    b = BlaschkeProduct(((0.3 + 0.4j, 2),))
    assert equiv(gcd(b, b), b)


def test_equiv_ignores_constants():
    z2 = monomial(2)
    assert equiv(BlaschkeProduct(((0j, 2),), np.exp(2.2j)), z2)
    assert not equiv(monomial(1), z2)


@settings(max_examples=150, deadline=None)
@given(pool_products(), pool_products())
def test_gcd_lcm_multiset_oracle(b1, b2):
    # oracle: independent multiset arithmetic with Counter
    m1, m2 = multiset(b1), multiset(b2)
    assert multiset(gcd(b1, b2)) == m1 & m2
    assert multiset(lcm(b1, b2)) == m1 | m2
    assert gcd(b1, b2).degree + lcm(b1, b2).degree == b1.degree + b2.degree
    assert multiset(multiply(gcd(b1, b2), lcm(b1, b2))) == multiset(multiply(b1, b2))
    # canonical form: the same zeros tuple and constant as the public constructor gives
    for result in (gcd(b1, b2), lcm(b1, b2)):
        canonical = BlaschkeProduct(result.zeros)
        assert result.zeros == canonical.zeros and result.constant == canonical.constant


def test_lcm_keeps_the_degree_cap():
    b1 = BlaschkeProduct(((0.5 + 0j, 40),))
    b2 = BlaschkeProduct(((-0.5 + 0j, 40),))
    assert gcd(b1, b2).degree == 0
    assert lcm(b1, b1) == b1
    with pytest.raises(DegreeCapError, match="degree 80 exceeds cap 64"):
        lcm(b1, b2)


@settings(max_examples=150, deadline=None)
@given(pool_products(), pool_products(), pool_products())
def test_lattice_laws(b1, b2, b3):
    assert equiv(gcd(b1, b2), gcd(b2, b1))
    assert equiv(lcm(b1, b2), lcm(b2, b1))
    assert equiv(gcd(gcd(b1, b2), b3), gcd(b1, gcd(b2, b3)))
    assert equiv(lcm(lcm(b1, b2), b3), lcm(b1, lcm(b2, b3)))
    assert equiv(gcd(b1, lcm(b1, b2)), b1)
    assert equiv(lcm(b1, gcd(b1, b2)), b1)


@settings(max_examples=150, deadline=None)
@given(pool_products(), pool_products())
def test_divides_equiv_biconditional(b1, b2):
    assert (divides(b1, b2) and divides(b2, b1)) == equiv(b1, b2)


@settings(max_examples=100, deadline=None)
@given(pool_products(), pool_products())
def test_quotient_identity(b1, b2):
    # divide(lcm, b1) is equivalent to divide(b2, gcd): multiset identity
    assert equiv(divide(lcm(b1, b2), b1), divide(b2, gcd(b1, b2)))


# --- divisors / almost_equiv --------------------------------------------------

def test_divisor_enumeration():
    b = multiply(monomial(2), elementary(0.5))
    ds = divisors(b)
    assert len(ds) == blaschke.divisor_count(b) == 6
    assert ds[0].is_constant and equiv(ds[-1], b)
    assert all(divides(d, b) for d in ds)
    degrees = [d.degree for d in ds]
    assert degrees == sorted(degrees)


def test_almost_equiv():
    b1 = BlaschkeProduct(((0.5 + 0j, 2),))
    b2 = BlaschkeProduct(((0.5 + 1e-9j, 1), (0.5 - 1e-9j, 1)))
    assert almost_equiv(b1, b2, 1e-7)
    assert not almost_equiv(b1, b2, 1e-12)
    assert not almost_equiv(b1, monomial(2))
    assert almost_equiv(BlaschkeProduct(()), BlaschkeProduct((), np.exp(1j)))


def _product(zeros) -> BlaschkeProduct:
    return BlaschkeProduct(tuple((z, 1) for z in zeros))


def _matched_within(b1, b2, tol) -> bool:
    """The oracle: some ordering of b2's zeros puts each within ``tol`` of b1's."""
    s1, s2 = b1.zero_sequence(), b2.zero_sequence()
    return len(s1) == len(s2) and any(
        all(abs(a - b) <= tol for a, b in zip(s1, perm)) for perm in itertools.permutations(s2)
    )


def test_almost_equiv_matches_permutation_oracle():
    # zeros at three points, half of them jittered: exact repeats, near
    # repeats and unequal degrees, with tolerances on both sides of the verdict
    rng = np.random.default_rng(5)
    points = (0.1 + 0.2j, -0.3 + 0j, 0.25 - 0.35j)

    def near(labels):
        jitter = rng.normal(0, 0.05, (len(labels), 2)) * (rng.random((len(labels), 1)) < 0.5)
        return [points[p] + complex(*d) for p, d in zip(labels, jitter)]

    verdicts = Counter()
    for _ in range(400):
        labels = rng.integers(3, size=int(rng.integers(0, 7)))
        b1 = _product(near(labels))
        if rng.random() < 0.8:  # the same points, jittered and reordered
            labels = rng.permutation(labels)
        else:  # fresh points, of any degree
            labels = rng.integers(3, size=int(rng.integers(0, 7)))
        b2 = _product(near(labels))
        tol = float(rng.uniform(0, 0.15))
        verdict = almost_equiv(b1, b2, tol)
        assert verdict == _matched_within(b1, b2, tol), (b1, b2, tol)
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) >= 100


def test_almost_equiv_is_not_a_min_sum_assignment():
    # the identity pairing has the least total distance (0 + 0.6) but a pair
    # at 0.6; the crossed pairing's two pairs are both at 0.4
    b1 = _product([0j, 0.4 * cmath.exp(2j * math.asin(0.75))])
    b2 = _product([0j, 0.4 + 0j])
    assert almost_equiv(b1, b2, 0.45)
    assert not almost_equiv(b1, b2, 0.39)


def test_almost_equiv_edges():
    half = _product([0.5 + 0j])
    assert not almost_equiv(half, _product([0.5 + 0j, 0.5 + 0j]), 1.0)
    assert not almost_equiv(BlaschkeProduct(()), half, 1.0)
    assert almost_equiv(BlaschkeProduct(()), BlaschkeProduct(()), 0.0)
    # a pair at exactly tol is within it: 0.5 - 0.25 is exact in binary
    assert almost_equiv(half, _product([0.25 + 0j]), 0.25)
    assert not almost_equiv(half, _product([0.25 + 0j]), np.nextafter(0.25, 0))


def test_almost_equiv_at_the_degree_cap():
    rng = np.random.default_rng(2)
    radii, angles = rng.random((2, blaschke.DEGREE_CAP))
    zeros = 0.9 * radii * np.exp(2j * np.pi * angles)
    moved = rng.permutation(zeros) + 1e-9
    assert almost_equiv(_product(zeros), _product(moved), 1e-8)
    moved[0] = -moved[0]
    assert not almost_equiv(_product(zeros), _product(moved), 1e-8)
