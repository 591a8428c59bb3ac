"""Subspace lattice numerics and the abstract finite-lattice checkers."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from c0lat import subspace
from c0lat.blaschke import BlaschkeProduct, elementary, gcd, lcm
from c0lat.calculus import is_c0
from c0lat.jordan import cyclic_multiplicity, lattice_preimage
from c0lat.modelspace import ModelSpace, compressed_shift, enumerate_lattice
from c0lat.sampling import (
    certifiable_c0,
    pseudo_hyperbolic,
    random_unit_disk_points,
    sample_invariant_subspaces,
)
from c0lat.subspace import (
    TOL_EQUALS,
    TOL_ORTHO,
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
    meet_join_verdicts,
    op_norm,
)


def line(n, k):
    v = np.zeros((n, 1), dtype=complex)
    v[k, 0] = 1.0
    return Subspace(n, v)


def span_of(*columns):
    cols = np.column_stack([np.asarray(c, dtype=complex) for c in columns])
    return Subspace.from_span(cols)


def random_subspace(rng, n, k):
    return Subspace.from_span(
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    )


NILPOTENT = np.array([[0, 0], [1, 0]], dtype=complex)  # e1 -> e2 -> 0


# --- construction -------------------------------------------------------------

def test_orthonormality_enforced():
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(2, np.array([[1.0], [1.0]]))
    Subspace(2, np.array([[1.0], [0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_non_finite_basis_is_refused_before_the_gram_product(entry):
    # the Gram product of an infinite basis is inf * 0 = NaN, which numpy
    # reports as a RuntimeWarning; the finiteness check comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            Subspace(2, np.array([[entry], [0.0]]))


def test_from_span_drops_dependent_columns():
    s = span_of([1, 0, 0], [2, 0, 0], [0, 1, 0])
    assert s.dim == 2


def column_sweep(rng, n):
    """n-row column sets: full rank, rank-deficient, zero, empty, nearly
    dependent and wide (more columns than rows)."""
    for k in range(n + 3):
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        yield g
        yield np.zeros((n, k), dtype=complex)
        if min(n, k) >= 2:
            r = int(rng.integers(1, min(n, k)))
            yield g[:, :r] @ (rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k)))
        if k >= 2:
            near = g.copy()
            near[:, -1] = near[:, 0] + 1e-12 * near[:, -1]
            yield near


def assert_orthonormal(s):
    gram = s.basis.conj().T @ s.basis
    assert np.max(np.abs(gram - np.eye(s.dim)), initial=0.0) <= TOL_ORTHO


def test_internal_builders_return_orthonormal_bases():
    # these builders skip the public constructor's Gram check, so their
    # bases are held to TOL_ORTHO here instead
    rng = np.random.default_rng(20)
    theta = BlaschkeProduct(((0.3, 2), (-0.4j, 1), (0.5 + 0.2j, 1)))
    for s in (Subspace.zero(0), Subspace.full(0)):
        assert_orthonormal(s)
    for n in range(1, 7):
        spans = [Subspace.from_span(cols, n) for cols in column_sweep(rng, n)]
        spans += [Subspace.zero(n), Subspace.full(n)]
        for _ in range(60):
            a, b = (spans[i] for i in rng.integers(len(spans), size=2))
            spans += [meet(a, b), join(a, b)]
        spans += [  # X: C^k -> C^n of any rank and width
            lattice_preimage(cols, spans[int(rng.integers(len(spans)))])
            for cols in column_sweep(rng, n)
        ]
        t = certifiable_c0(rng, n, structured=n > 1)
        operators = (t, np.zeros((n, n)), np.eye(n), np.eye(n, k=-1))
        for op in operators:
            for v in (np.zeros(n), np.eye(n)[0], np.eye(n)[-1], rng.standard_normal(n)):
                spans.append(cyclic_subspace(op, v))
        spans += sample_invariant_subspaces(t, 12, rng)  # Schur prefixes among them
        for s in spans:
            assert_orthonormal(s)
    for _, s in enumerate_lattice(theta):
        assert_orthonormal(s)


def test_zero_and_full():
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).dim == 3
    assert contains(Subspace.full(3), Subspace.zero(3))


def test_json_payload_lists_the_basis_column_by_column():
    s = Subspace(3, np.array([[0.0, 1.0], [1j, 0.0], [0.0, 0.0]]))
    assert s.to_json_dict() == {
        "ambient": 3,
        "basis": [[[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    }
    assert Subspace.zero(2).to_json_dict() == {"ambient": 2, "basis": []}


# --- join / meet / contains ----------------------------------------------------

def test_join_with_zero_is_identity():
    rng = np.random.default_rng(1)
    m = random_subspace(rng, 4, 2)
    assert equals(join(m, Subspace.zero(4)), m)


def test_join_of_coordinate_lines():
    j = join(line(3, 0), line(3, 1))
    assert j.dim == 2
    assert contains(j, line(3, 0)) and contains(j, line(3, 1))


def test_meet_with_full_is_identity():
    rng = np.random.default_rng(2)
    m = random_subspace(rng, 5, 3)
    assert equals(meet(m, Subspace.full(5)), m)


def test_meet_of_distinct_lines_is_zero():
    a = span_of([1, 0])
    b = span_of([1, 1])
    assert meet(a, b).dim == 0


def test_meet_contained_in_both():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_subspace(rng, 6, int(rng.integers(1, 6)))
        b = random_subspace(rng, 6, int(rng.integers(1, 6)))
        m = meet(a, b)
        assert contains(a, m) and contains(b, m)


def test_dimension_formula():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = random_subspace(rng, 7, int(rng.integers(0, 8)))
        b = random_subspace(rng, 7, int(rng.integers(0, 8)))
        assert join(a, b).dim + meet(a, b).dim == a.dim + b.dim


def test_contains_examples():
    assert contains(Subspace.full(3), line(3, 1))
    assert not contains(Subspace.zero(3), line(3, 1))
    rng = np.random.default_rng(5)
    a, b = random_subspace(rng, 5, 2), random_subspace(rng, 5, 2)
    assert contains(join(a, b), a)


def planted(rng, n, p, sines):
    """``A`` of dimension ``p`` and ``B`` whose containment residual in ``A``
    has the singular values ``sines``: column j of ``B`` leans off the j-th
    basis vector of ``A`` towards the j-th vector of its complement."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    k = len(sines)
    angles = np.arcsin(sines)
    b = np.cos(angles) * q[:, :k] + np.sin(angles) * q[:, p : p + k]
    return Subspace(n, q[:, :p]), Subspace(n, b)


def spectral_contains(a, b):
    return op_norm(b.basis - a.project(b.basis)) <= TOL_EQUALS


def test_contains_and_equals_agree_with_the_spectral_residual():
    # residuals below TOL_EQUALS, inside the Frobenius gap (TOL, sqrt(k) TOL]
    # and above it; the verdicts must be the SVD's in all three, for the
    # scalar contains and equals, for the stacked rule on each shape's
    # residuals at once, and for the order of meet_join_verdicts over all
    # pairs in one call
    rng = np.random.default_rng(11)
    regions = set()
    zero, line_9 = Subspace.zero(9), line(9, 4)
    pairs = [(zero, zero), (zero, line_9), (line_9, zero)]
    expected = [True, False, False]
    for _ in range(300):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(k, 6))
        sines = TOL_EQUALS * rng.uniform(0.0, 1.5, k) ** 2
        a, b = planted(rng, 9, p, sines)
        frob = np.linalg.norm(b.basis - a.project(b.basis))
        region = int(frob > TOL_EQUALS) + int(frob > np.sqrt(k) * TOL_EQUALS)
        regions.add((region, spectral_contains(a, b)))
        assert contains(a, b) == spectral_contains(a, b)
        pairs.append((a, b))  # unequal dimensions unless p == k
        expected.append(p == k and spectral_contains(a, b) and spectral_contains(b, a))
        square, b = planted(rng, 9, k, sines)  # equal dimensions
        same = spectral_contains(square, b) and spectral_contains(b, square)
        assert equals(square, b) == same == equals(b, square)
        pairs += [(square, b), (b, square)]
        expected += [same, same]
    # the gap holds residuals on both sides of the tolerance
    assert regions == {(0, True), (1, True), (1, False), (2, False)}
    assert [equals(a, b) for a, b in pairs] == expected
    for k in range(1, 5):
        inside = [(a, b) for a, b in pairs[3:] if b.dim == k]
        resid = np.stack([b.basis - a.project(b.basis) for a, b in inside])
        assert subspace._insides(resid).tolist() == [spectral_contains(a, b) for a, b in inside]
    # b <= a for each pair, then a <= b
    members = [s for pair in pairs for s in pair]
    outer, inner = np.arange(0, len(members), 2), np.arange(1, len(members), 2)
    leq = subspace._order(subspace._stack(members), [(inner, outer), (outer, inner)])
    assert leq[inner, outer].tolist() == [spectral_contains(a, b) for a, b in pairs]
    assert (leq[inner, outer] & leq[outer, inner]).tolist() == expected


def test_contains_decides_clear_cases_without_an_svd(monkeypatch):
    def no_svd(m):
        raise AssertionError("op_norm called")

    monkeypatch.setattr(subspace, "op_norm", no_svd)
    rng = np.random.default_rng(3)
    assert contains(Subspace.full(3), line(3, 1))
    assert not contains(Subspace.zero(3), line(3, 1))
    a, b = random_subspace(rng, 6, 2), random_subspace(rng, 6, 3)
    assert contains(join(a, b), a) and contains(join(a, b), b)
    assert not contains(a, b) and not contains(b, a)
    assert contains(*planted(rng, 6, 3, [1e-9, 1e-9, 1e-9]))
    assert not contains(*planted(rng, 6, 3, [1e-6, 0.0, 0.0]))
    assert equals(a, Subspace.from_span(a.basis @ rng.standard_normal((2, 2))))
    assert not equals(a, b) and not equals(a, join(a, b))


def test_equals_rejects_mismatched_ambients():
    with pytest.raises(ValueError):
        equals(line(2, 0), line(3, 0))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        meet_join_verdicts([line(3, 0), line(3, 1), line(2, 0)], [0], [1], [0], [1])


@pytest.mark.parametrize("mults", [(1, 1, 2, 3), (1, 1, 1, 1, 2)])
def test_meet_join_verdicts_are_the_scalar_equals(mults):
    # every ordered pair of an enumerated lattice, the zero (theta) and full
    # (constant) members among them, so every shape of stack and every
    # count of kept principal directions; against the lcm/gcd members and
    # planted wrong ones: the next member, a member of another dimension,
    # and another member of the same dimension, which only the order rejects
    rng = np.random.default_rng(len(mults))
    points = random_unit_disk_points(rng, len(mults), radius=0.85, min_separation=0.2)
    entries = enumerate_lattice(BlaschkeProduct(tuple(zip(points, mults))))
    phis, spaces = zip(*entries)
    assert {s.dim for s in spaces} == set(range(sum(mults) + 1))
    index = {phi.zeros: k for k, phi in enumerate(phis)}
    rows, cols = np.divmod(np.arange(len(spaces) ** 2), len(spaces))
    lo = np.array([index[lcm(phis[a], phis[b]).zeros] for a, b in zip(rows, cols)])
    hi = np.array([index[gcd(phis[a], phis[b]).zeros] for a, b in zip(rows, cols)])
    meets = [meet(spaces[a], spaces[b]) for a, b in zip(rows, cols)]
    joins = [join(spaces[a], spaces[b]) for a, b in zip(rows, cols)]
    dims = np.array([s.dim for s in spaces])
    other_dim = np.argmax(dims[None, :] != dims[:, None], axis=1)  # a member of another dimension
    nxt = (np.arange(len(spaces)) + 1) % len(spaces)
    # the next member of the same dimension, cyclically; itself when alone
    same_dim = np.array([
        next(j for j in np.roll(np.arange(len(spaces)), -k - 1) if dims[j] == dims[k])
        for k in range(len(spaces))
    ])
    assert meet_join_verdicts(spaces, rows, cols, lo, hi).all()
    for want_lo, want_hi in [
        (nxt[lo], hi), (lo, nxt[hi]), (other_dim[lo], hi), (lo, other_dim[hi]),
        (same_dim[lo], hi), (lo, same_dim[hi]),
    ]:
        scalar = [
            equals(m, spaces[e]) and equals(j, spaces[f])
            for m, j, e, f in zip(meets, joins, want_lo, want_hi)
        ]
        assert meet_join_verdicts(spaces, rows, cols, want_lo, want_hi).tolist() == scalar
        assert not all(scalar)


def test_divisor_lines_of_two_zeros_meet_at_the_pseudo_hyperbolic_angle():
    # H(b_a b_b) is two-dimensional, and its divisor lines b_a H(b_b) and
    # b_b H(b_a) are the orthocomplements of the kernel lines k_a and k_b.
    # The sine of the angle between k_a and k_b is rho(a, b), because
    # 1 - rho^2 = (1 - |a|^2)(1 - |b|^2) / |1 - conj(a) b|^2 (Garnett,
    # Bounded Analytic Functions, ch. I), and the sum map [u v] of two unit
    # vectors at that angle has sigma_min = sqrt(1 - sqrt(1 - rho^2)).
    rng = np.random.default_rng(20)
    lines = []
    for _ in range(200):
        a, b = random_unit_disk_points(rng, 2)
        space = ModelSpace(BlaschkeProduct(((a, 1), (b, 1))))
        u, v = space.divisor_subspace(elementary(a)), space.divisor_subspace(elementary(b))
        rho = pseudo_hyperbolic(a, b)
        assert abs(distance(u, v) - rho) <= 1e-12
        sigma_min = np.linalg.svd(np.hstack([u.basis, v.basis]), compute_uv=False)[-1]
        assert abs(sigma_min - np.sqrt(1 - np.sqrt(1 - rho**2))) <= 1e-12
        assert meet(u, v).dim == 0 and join(u, v).dim == 2
        lines += [u, v]
    # the stacked kernel puts every meet on the zero space and every join on C^2
    members = lines + [Subspace.zero(2), Subspace.full(2)]
    rows, cols = np.arange(0, len(lines), 2), np.arange(1, len(lines), 2)
    lo, hi = np.full(len(rows), len(lines)), np.full(len(rows), len(lines) + 1)
    assert meet_join_verdicts(members, rows, cols, lo, hi).all()
    with pytest.raises(ValueError):
        equals(Subspace.zero(2), line(3, 0))


def one_scale_holds(a, b):
    """The order, meet and join of ``a`` and ``b`` at one scale: ``b <= a``
    iff ``a ∧ b = b`` iff ``a ∨ b = a``, and the dimension formula."""
    m, j = meet(a, b), join(a, b)
    assert contains(a, b) == equals(m, b) == equals(j, a)
    assert m.dim + j.dim == a.dim + b.dim
    return contains(a, b), m.dim, j.dim


def test_order_meet_and_join_decide_at_one_scale():
    # B leans off A at principal sines whose largest sits 1 % above or below
    # TOL_EQUALS; contains, meet and join must draw the line at the same
    # sine, in both argument orders, and the batched kernel with them
    rng = np.random.default_rng(25)
    members, verdicts = [], []
    for _ in range(200):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(k, 6))
        sines = TOL_EQUALS * rng.uniform(0.0, 0.98, k)
        sines[rng.integers(k)] = TOL_EQUALS * (1 + 1e-2 * rng.choice([-1, 1]))
        if rng.random() < 0.5:  # more sines at the border
            sines = np.where(rng.random(k) < 0.5, TOL_EQUALS * (1 + 1e-2 * rng.choice([-1, 1], k)), sines)
        a, b = planted(rng, 9, p, sines)
        below = int(np.sum(sines <= TOL_EQUALS))
        assert one_scale_holds(a, b) == (below == k, below, p + k - below)
        assert one_scale_holds(b, a) == (below == k == p, below, p + k - below)
        members += [a, b]
        verdicts.append(below == k)
    assert 0 < sum(verdicts) < len(verdicts)
    rows, cols = np.arange(0, len(members), 2), np.arange(1, len(members), 2)
    # meet(a, b) = b and join(a, b) = a exactly when b <= a
    assert meet_join_verdicts(members, rows, cols, cols, rows).tolist() == verdicts


def test_meet_counts_are_the_scalar_meets_and_redecide_only_the_band(monkeypatch):
    # the kernel counts each pair's kept sines from a values-only SVD and
    # hands back to _meet_svd, the scalar meet's vector SVD, exactly the
    # pairs with a sine within _MEET_BAND of TOL_EQUALS: sines planted well
    # off the scale, 1 % off it, and 1e-13 off it, inside the band
    rng = np.random.default_rng(31)
    factors = [np.exp(-0.7), np.exp(0.7), 1 - 1e-2, 1 + 1e-2, 1 - 1e-5, 1 + 1e-5]
    members, band = [], []
    for p in range(60):
        factor = factors[p % len(factors)]
        a, b = planted(rng, 9, 2, [TOL_EQUALS * factor, rng.choice([0.0, 0.5])])
        members += [a, b, meet(a, b), join(a, b)]
        if abs(factor - 1) < 1e-3:
            band.append(p)
    a, b = members[0::4], members[1::4]
    counts = [meet(x, y).dim for x, y in zip(a, b)]
    assert set(counts) == {0, 1, 2}
    stack_a, stack_b = np.stack([x.basis for x in a]), np.stack([y.basis for y in b])
    assert subspace._meet_counts(stack_a, stack_b).tolist() == counts
    redecided, meet_svd = [], subspace._meet_svd

    def recording(x, y):
        redecided.extend(basis.tobytes() for basis in y)
        return meet_svd(x, y)

    monkeypatch.setattr(subspace, "_meet_svd", recording)
    # dim(A ∧ B) = count is the first thing each verdict asks of its meet
    rows = np.arange(0, len(members), 4)
    assert meet_join_verdicts(members, rows, rows + 1, rows + 2, rows + 3).all()
    owner = {y.basis.tobytes(): p for p, y in enumerate(b)}
    assert sorted(owner[y] for y in redecided) == band


def test_divisor_lines_of_close_zeros_decide_at_one_scale():
    # the divisor lines u, v of b_a b_(a + d) sit at principal sine
    # rho(a, a + d); through the band around TOL_EQUALS the order, meet and
    # join of the two lines must agree, u = v exactly when rho <= TOL_EQUALS
    for d in [1e-6, 1e-7, 4e-8, 2e-8, 1e-8, 7e-9, 3e-9, 1e-9, 1e-10]:
        a = 0.5 + 0j
        space = ModelSpace(BlaschkeProduct(((a, 1), (a + d, 1))))
        u = space.divisor_subspace(elementary(a))
        v = space.divisor_subspace(elementary(a + d))
        same = pseudo_hyperbolic(a, a + d) <= TOL_EQUALS
        assert one_scale_holds(u, v) == (same, int(same), 2 - same)
        assert equals(u, v) == same


def test_distance():
    assert distance(line(2, 0), line(2, 0)) < 1e-15
    assert distance(line(2, 0), line(2, 1)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 5), (5, 1), (0, 4), (4, 0), (3, 3), (4, 7), (9, 2), (16, 16)]
)
def test_op_norm_is_the_numpy_spectral_norm_bit_for_bit(shape):
    rng = np.random.default_rng(list(shape))
    for _ in range(20):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert op_norm(m) == float(np.linalg.norm(m, 2))


# --- invariance / cyclic -------------------------------------------------------

def test_invariance_full_space():
    verdict = is_invariant(NILPOTENT, Subspace.full(2))
    assert verdict.invariant and verdict.residual == 0.0


def test_invariance_of_jordan_chain_image():
    assert is_invariant(NILPOTENT, line(2, 1)).invariant
    assert not is_invariant(NILPOTENT, line(2, 0)).invariant


def test_cyclic_subspace_examples():
    assert cyclic_subspace(NILPOTENT, np.zeros(2)).dim == 0
    full = cyclic_subspace(NILPOTENT, np.array([1.0, 0.0]))
    assert full.dim == 2
    rng = np.random.default_rng(6)
    t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    t /= 2 * np.linalg.norm(t, 2)
    for _ in range(5):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = cyclic_subspace(t, x)
        assert is_invariant(t, s).invariant


@pytest.mark.parametrize(
    "t, x, message",
    [
        (np.zeros((2, 3)), np.ones(2), "must be square"),
        (NILPOTENT, np.ones(3), "operator of size 2"),
        (NILPOTENT, np.ones((2, 1)), "operator of size 2"),
        (NILPOTENT, [np.nan, 1.0], "must be finite"),
        (np.array([[np.inf, 0], [0, 0]]), np.ones(2), "must be finite"),
    ],
    ids=["non-square", "wrong-size", "column", "nan-vector", "inf-operator"],
)
def test_cyclic_subspace_rejects_bad_input(t, x, message):
    with pytest.raises(ValueError, match=message):
        cyclic_subspace(t, x)


def test_cyclic_subspace_is_the_krylov_span():
    # the span of x, Tx, ..., T^(n-1) x, for cyclic and non-cyclic vectors of
    # operators with one Jordan chain, with distinct eigenvalues and with a
    # repeated eigenvalue (where no vector is cyclic)
    rng = np.random.default_rng(9)
    shift, e = np.eye(5, k=-1), np.eye(5)
    vectors = (*e, e[0] + e[2], rng.standard_normal(5) + 1j * rng.standard_normal(5))
    for t in (shift, np.diag([0.1, -0.2, 0.3j, 0.4, -0.5j]), np.diag([0.3, 0.3, 0.1, -0.2, 0.5])):
        for x in vectors:
            s = cyclic_subspace(t, x)
            krylov = np.column_stack([np.linalg.matrix_power(t, k) @ x for k in range(5)])
            assert_orthonormal(s)
            assert equals(s, Subspace.from_span(krylov))
    assert [cyclic_subspace(shift, v).dim for v in e] == [5, 4, 3, 2, 1]


def test_cyclic_multiplicity_zero_matrix():
    assert cyclic_multiplicity(np.zeros((2, 2))) == 2


def test_cyclic_multiplicity_single_chain():
    assert cyclic_multiplicity(NILPOTENT) == 1


def test_cyclic_multiplicity_mixed_blocks():
    # one chain of length 1 and one of length 2 at the same eigenvalue
    t = np.zeros((3, 3), dtype=complex)
    t[2, 1] = 1.0
    assert cyclic_multiplicity(t) == 2


# --- modular / distributive triples ---------------------------------------------

def test_modular_requires_containment():
    with pytest.raises(ValueError):
        check_modular_triple(line(3, 0), line(3, 1), line(3, 2))


def test_modular_on_chains():
    l = span_of([1, 0, 0], [0, 1, 0], [0, 0, 1])
    m = span_of([1, 0, 0], [0, 1, 0])
    n = span_of([1, 0, 0])
    assert check_modular_triple(l, m, n).passed


def test_modular_law_random_triples():
    # the whole subspace lattice of a finite-dimensional space is modular
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_amb = int(rng.integers(2, 9))
        l = random_subspace(rng, n_amb, int(rng.integers(1, n_amb + 1)))
        m = random_subspace(rng, n_amb, int(rng.integers(0, n_amb + 1)))
        n_sub = meet(l, random_subspace(rng, n_amb, int(rng.integers(0, n_amb + 1))))
        verdict = check_modular_triple(l, m, n_sub)
        assert verdict.passed, verdict.residual


def test_modular_degenerate_n_zero():
    rng = np.random.default_rng(8)
    l, m = random_subspace(rng, 4, 2), random_subspace(rng, 4, 3)
    assert check_modular_triple(l, m, Subspace.zero(4)).passed


def test_distributive_violation_three_lines():
    # non-vacuity control: left side is L, right side is {0}
    l, m, n = span_of([1, 0]), span_of([0, 1]), span_of([1, 1])
    verdict = check_distributive_triple(l, m, n)
    assert not verdict.passed
    assert equals(meet(l, join(m, n)), l)
    assert join(meet(l, m), meet(l, n)).dim == 0


def test_distributive_on_chain():
    l = span_of([1, 0, 0])
    m = span_of([1, 0, 0], [0, 1, 0])
    n = span_of([1, 0, 0], [0, 1, 0], [0, 0, 1])
    assert check_distributive_triple(l, m, n).passed


# --- finite lattices -------------------------------------------------------------

def test_pentagon_not_modular_with_witness():
    verdict = lattice_is_modular(FiniteLattice.pentagon())
    assert not verdict.passed
    assert verdict.witness is not None and "triple" in verdict.witness


def test_diamond_modular_not_distributive():
    m3 = FiniteLattice.diamond()
    assert lattice_is_modular(m3).passed
    verdict = lattice_is_distributive(m3)
    assert not verdict.passed and verdict.witness is not None


def test_pentagon_not_distributive_either():
    assert not lattice_is_distributive(FiniteLattice.pentagon()).passed


def test_leq_validation():
    bad = np.array([[1, 1], [1, 1]], dtype=bool)  # not antisymmetric
    with pytest.raises(ValueError):
        FiniteLattice(("a", "b"), bad)
    not_transitive = np.eye(3, dtype=bool)
    not_transitive[0, 1] = not_transitive[1, 2] = True
    with pytest.raises(ValueError):
        FiniteLattice(("a", "b", "c"), not_transitive)


def test_poset_without_meets_rejected():
    # two incomparable atoms with two incomparable tops: no unique join
    leq = np.eye(4, dtype=bool)
    leq[0, 2] = leq[0, 3] = leq[1, 2] = leq[1, 3] = True
    with pytest.raises(ValueError):
        FiniteLattice(("a", "b", "c", "d"), leq)


def test_from_subspaces_closure_and_agreement():
    # chain plus an extra line: closure stays finite, checkers agree with
    # the subspace-level triple checks
    elems = [
        Subspace.zero(3),
        span_of([1, 0, 0]),
        span_of([1, 0, 0], [0, 1, 0]),
        span_of([0, 0, 1]),
        Subspace.full(3),
    ]
    lat, closed = FiniteLattice.from_subspaces(elems)
    assert lat.n == len(closed)
    assert lattice_is_modular(lat).passed
    for i in range(lat.n):
        for j in range(lat.n):
            assert equals(closed[lat.meet_of(i, j)], meet(closed[i], closed[j]))
            assert equals(closed[lat.join_of(i, j)], join(closed[i], closed[j]))


def test_from_subspaces_finds_generic_line_violation():
    lines = [span_of([1, 0]), span_of([0, 1]), span_of([1, 1])]
    lat, closed = FiniteLattice.from_subspaces(lines)
    assert not lattice_is_distributive(lat).passed
    assert lattice_is_modular(lat).passed  # M3-shaped: modular, not distributive


def test_from_subspaces_raises_when_the_closure_passes_the_cap(monkeypatch):
    # three lines in C^2 close to five members: themselves, 0 and C^2
    lines = [span_of([1, 0]), span_of([0, 1]), span_of([1, 1])]
    monkeypatch.setattr(FiniteLattice, "MAX_ELEMENTS", 5)
    lat, closed = FiniteLattice.from_subspaces(lines)
    assert lat.n == len(closed) == 5
    monkeypatch.setattr(FiniteLattice, "MAX_ELEMENTS", 4)
    with pytest.raises(ValueError, match="lattice closure exceeds cap 4"):
        FiniteLattice.from_subspaces(lines)


def test_derogatory_c0_lattice_is_modular_not_distributive():
    # Brickman-Fillmore negative control: T = 0.5 I_2 (+) S(b_0.3) is C0 and
    # derogatory, so every line of its 0.5-eigenspace is invariant and three
    # of them close to the diamond M3
    t = scipy.linalg.block_diag(0.5 * np.eye(2), compressed_shift(elementary(0.3)).matrix)
    assert is_c0(t)
    lines = [span_of([1, 0, 0]), span_of([0, 1, 0]), span_of([1, 1, 0])]
    assert all(is_invariant(t, m).invariant for m in lines)
    lat, closed = FiniteLattice.from_subspaces(lines)
    assert lat.n == 5
    assert lattice_is_modular(lat).passed
    verdict = lattice_is_distributive(lat)
    assert not verdict.passed and verdict.witness is not None
