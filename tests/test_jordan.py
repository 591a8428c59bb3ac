"""Intertwiners, quasiaffinities, lattice maps, Jordan models, verifiers."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from c0lat import blaschke, calculus, jordan, sampling, subspace
from c0lat.blaschke import BlaschkeProduct, almost_equiv, elementary, equiv, monomial, multiply
from c0lat.calculus import NotC0Error, minimal_function
from c0lat.cli import report_render
from c0lat.jordan import (
    JordanModel,
    NonIntertwinerError,
    RankDeficientError,
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
from c0lat.modelspace import compressed_shift, enumerate_lattice
from c0lat.sampling import (
    certifiable_c0,
    complex_gaussian,
    random_contraction,
    random_structured_c0,
    random_unit_disk_points,
    random_well_conditioned,
    sample_invariant_subspaces,
)
from c0lat.serialize import stable_json_bytes
from c0lat.subspace import (
    TOL_INTERTWINE,
    TOL_ORTHO,
    TOL_RANK,
    Subspace,
    equals,
    is_invariant,
    op_norm,
)
from c0lat.suites import jordan_model_suite, thm97_suite, x3_suite

NILPOTENT = np.array([[0, 0], [1, 0]], dtype=complex)


def similarity_pair(seed, n=5):
    rng = np.random.default_rng(seed)
    t1 = random_structured_c0(rng, n)
    q = random_well_conditioned(rng, n, cond_cap=5.0)
    return t1, q @ t1 @ np.linalg.inv(q), q


# --- intertwiner space -----------------------------------------------------------

def test_commutant_of_zero_is_everything():
    space = intertwiner_space(np.zeros((2, 2)), np.zeros((2, 2)))
    assert space.dimension == 4
    assert space.max_rank == 2


@pytest.mark.parametrize("n1, n2", [(0, 0), (0, 2), (2, 0)])
def test_an_empty_side_has_only_the_empty_intertwiner(n1, n2):
    t1, t2 = np.diag([0.1, 0.5][:n1]), np.diag([0.1, 0.5][:n2])
    space = intertwiner_space(t1, t2)
    assert (space.dimension, space.max_rank, space.rank_witness) == (0, 0, None)


def test_distinct_scalars_force_zero():
    space = intertwiner_space(np.array([[0.3]]), np.array([[0.7]]))
    assert space.dimension == 0
    assert space.max_rank == 0


def test_intertwiner_residuals_and_rank_witness():
    t1, t2, q = similarity_pair(0)
    space = intertwiner_space(t1, t2)
    scale = max(1.0, op_norm(t1), op_norm(t2))
    for x in space.basis:
        assert op_norm(x @ t1 - t2 @ x) <= 1e-9 * scale
    assert space.max_rank == t1.shape[0]
    assert space.rank_witness is not None


def test_commutant_contains_identity_and_t():
    rng = np.random.default_rng(1)
    t = random_contraction(rng, 4, 0.7)
    space = intertwiner_space(t, t)
    basis_matrix = np.column_stack([x.reshape(-1) for x in space.basis])
    for member in (np.eye(4, dtype=complex), t):
        vec = member.reshape(-1)
        coeffs, *_ = np.linalg.lstsq(basis_matrix, vec, rcond=None)
        assert np.linalg.norm(basis_matrix @ coeffs - vec) < 1e-9


def test_size_cap():
    with pytest.raises(ValueError):
        intertwiner_space(np.zeros((17, 17)), np.zeros((17, 17)))


def frobenius_gantmacher(s1, s2) -> int:
    """dim{X : X T1 = T2 X} for Jordan structures [(eigenvalue, block sizes)]:
    the sum over shared eigenvalues of sum_{i,j} min(p_i, q_j) (Gantmacher,
    Theory of Matrices, ch. VIII)."""
    sizes2 = dict(s2)
    return sum(min(p, q) for lam, ps in s1 for p in ps for q in sizes2.get(lam, ()))


def jordan_pair_member(rng, eigenvalues, superdiagonal=1.0):
    """A random Jordan structure over eigenvalues[0] and up to two of the
    others, with one or two blocks of size 1 to 6 at each (redrawn until it
    has at most SIZE_CAP rows), and a similarity by a conditioner with
    cond <= 3 of the matrix it describes, with the given superdiagonal."""
    while True:
        others = rng.permutation(range(1, len(eigenvalues)))[: int(rng.integers(0, 3))]
        structure = [
            (eigenvalues[k], sorted(rng.integers(1, 7, size=rng.integers(1, 3)), reverse=True))
            for k in (0, *others)
        ]
        if sum(sum(sizes) for _, sizes in structure) <= jordan.SIZE_CAP:
            break
    blocks = [
        lam * np.eye(p) + superdiagonal * np.eye(p, k=1) for lam, sizes in structure for p in sizes
    ]
    j = scipy.linalg.block_diag(*blocks).astype(complex)
    q = random_well_conditioned(rng, j.shape[0], cond_cap=3.0)
    return q @ j @ np.linalg.inv(q), structure


def kronecker_null_space(t1, t2) -> list:
    """The reference intertwiner basis: the null space of the whole
    (n1*n2) x (n1*n2) Kronecker matrix of X -> X T1 - T2 X."""
    n1, n2 = t1.shape[0], t2.shape[0]
    lhs = np.kron(t1.T, np.eye(n2)) - np.kron(np.eye(n1), t2)
    _, sv, vh = np.linalg.svd(lhs)
    scale = max(1.0, op_norm(t1), op_norm(t2))
    return [v.reshape((n1, n2)).T for v in vh[sv <= TOL_RANK * scale].conj()]


def span(matrices, ambient_dim) -> Subspace:
    return Subspace.from_span(np.column_stack([x.reshape(-1) for x in matrices]), ambient_dim)


@pytest.mark.parametrize("seed", range(40))
def test_intertwiner_dimension_matches_frobenius_gantmacher(seed):
    """Conjugated Jordan pairs, square and rectangular, with one to three
    eigenvalues (most split into clusters, some a single cluster): the basis
    spans the undivided Kronecker null space, has the Frobenius–Gantmacher
    dimension, and every element intertwines."""
    rng = np.random.default_rng(seed)
    eigenvalues = (0.3, -0.2 + 0.4j, -0.5j)
    superdiagonal = (1.0, 0.3)[seed % 2]
    t1, s1 = jordan_pair_member(rng, eigenvalues, superdiagonal)
    t2, s2 = jordan_pair_member(rng, eigenvalues, superdiagonal)
    expected = frobenius_gantmacher(s1, s2)
    assert expected > 0  # eigenvalues[0] is shared
    space = intertwiner_space(t1, t2)
    assert space.dimension == expected
    scale = max(1.0, op_norm(t1), op_norm(t2))
    for x in space.basis:
        assert op_norm(x @ t1 - t2 @ x) <= TOL_INTERTWINE * scale
    n = t1.shape[0] * t2.shape[0]
    assert equals(span(space.basis, n), span(kronecker_null_space(t1, t2), n))


def test_a_single_cluster_pair_keeps_the_kronecker_basis_bit_for_bit():
    t1, _ = jordan_pair_member(np.random.default_rng(3), (0.3,))
    t2, _ = jordan_pair_member(np.random.default_rng(4), (0.3,))
    space = intertwiner_space(t1, t2)
    assert space.dimension > 0
    assert np.array(space.basis).tobytes() == np.array(kronecker_null_space(t1, t2)).tobytes()


@pytest.mark.parametrize("gap, undivided", [(3.2e-3, True), (0.2, False)])
def test_a_just_separated_pair_is_solved_undivided(monkeypatch, gap, undivided):
    """0.3 and 0.3 + gap are two clusters, but just past the clustering
    radius their spectral basis has condition number about 2 / gap, and the
    pair is solved as one Kronecker system; far apart it splits in two."""
    t = np.array([[0.3, 1.0], [0.0, 0.3 + gap]], dtype=complex)
    shapes = []
    kernel = jordan._sylvester_null

    def recorded(a1, a2, threshold):
        shapes.append((a1.shape[0], a2.shape[0]))
        return kernel(a1, a2, threshold)

    monkeypatch.setattr(jordan, "_sylvester_null", recorded)
    space = intertwiner_space(t, t)
    assert (space.dimension, space.max_rank) == (2, 2)
    assert shapes == ([(2, 2)] if undivided else [(1, 1), (1, 1)])
    if undivided:
        assert np.array(space.basis).tobytes() == np.array(kronecker_null_space(t, t)).tobytes()


def test_a_failed_reorder_leaves_the_pair_undivided(monkeypatch):
    t1, t2, _ = similarity_pair(0)
    scale = max(1.0, op_norm(t1), op_norm(t2))
    assert jordan._split_null(t1, t2, TOL_RANK * scale) is not None
    reorder = scipy.linalg.lapack.ztrsen
    monkeypatch.setattr(
        scipy.linalg.lapack, "ztrsen", lambda *args, **kw: (*reorder(*args, **kw)[:-1], 1)
    )
    space = intertwiner_space(t1, t2)
    assert np.array(space.basis).tobytes() == np.array(kronecker_null_space(t1, t2)).tobytes()


def first_draw_zero():
    """complex_gaussian, except that its first draw is zeroed."""
    calls = []

    def gaussian(rng, *shape):
        calls.append(shape)
        draw = complex_gaussian(rng, *shape)
        return 0 * draw if len(calls) == 1 else draw

    return gaussian


def sequential_max_rank(basis, seed, gaussian):
    """The reference certificate: one combination at a time, at most 32,
    stopping at full rank; the witness is the first to reach the maximum."""
    n2, n1 = basis[0].shape
    rng = np.random.default_rng(seed)
    max_rank, witness = 0, None
    for _ in range(32):
        candidate = sum(c * b for c, b in zip(gaussian(rng, len(basis)), basis))
        sv = np.linalg.svd(candidate, compute_uv=False)
        rank = int(np.sum(sv > TOL_RANK * sv[0]))
        if rank > max_rank:
            max_rank, witness = rank, candidate
        if max_rank == min(n1, n2):
            break
    return max_rank, witness


@pytest.mark.parametrize("zero_first", [False, True])
@pytest.mark.parametrize(
    "pair",
    [
        similarity_pair(0)[:2],
        (np.diag([0.3, 0.3, 0.5]), np.diag([0.3, 0.7, 0.7])),
        (np.diag([0.3, -0.2, 0.1, 0.5]), np.diag([0.3, 0.3, -0.2])),
    ],
    ids=["full-rank", "rank-1", "rectangular"],
)
def test_stacked_draws_pick_the_sequential_max_rank_and_witness(monkeypatch, pair, zero_first):
    t1, t2 = pair
    gaussian = first_draw_zero() if zero_first else complex_gaussian
    monkeypatch.setattr(jordan, "complex_gaussian", gaussian)
    space = intertwiner_space(t1, t2, seed=5)
    reference = first_draw_zero() if zero_first else complex_gaussian
    max_rank, witness = sequential_max_rank(space.basis, 5, reference)
    assert space.max_rank == max_rank > 0
    assert np.allclose(space.rank_witness, witness, rtol=0, atol=1e-12)


# --- quasiaffinity / quasisimilarity ------------------------------------------------

def test_identity_is_found():
    t = np.diag([0.2, -0.4]).astype(complex)
    x = find_quasiaffinity(t, t)
    assert x is not None and np.linalg.matrix_rank(x) == 2


def test_no_quasiaffinity_between_distinct_scalars():
    assert find_quasiaffinity(np.array([[0.3]]), np.array([[0.7]])) is None


def test_similar_pair_has_two_sided_certificates():
    t1, t2, _ = similarity_pair(2)
    x = find_quasiaffinity(t1, t2)
    assert x is not None
    assert op_norm(x @ t1 - t2 @ x) <= 1e-9
    assert are_quasisimilar(t1, t2)


def test_the_zero_space_is_quasisimilar_to_itself():
    empty = np.zeros((0, 0), dtype=complex)
    x = find_quasiaffinity(empty, empty)
    assert x is not None and x.shape == (0, 0)
    assert are_quasisimilar(empty, empty)
    assert jordan_model(empty).thetas == ()


def test_shifts_of_different_degree_not_quasisimilar():
    s1 = compressed_shift(monomial(1)).matrix
    s2 = compressed_shift(monomial(2)).matrix
    assert not are_quasisimilar(s1, s2)


def test_equivalent_symbols_give_quasisimilar_shifts():
    a, c = 0.4 + 0.1j, -0.3 + 0.2j
    theta = multiply(elementary(a), elementary(c))
    s = compressed_shift(theta).matrix
    assert are_quasisimilar(s, np.diag([a, c]).astype(complex))


# --- lattice maps ---------------------------------------------------------------------

def test_lattice_map_identity_and_zero():
    rng = np.random.default_rng(3)
    m = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    assert equals(lattice_map(np.eye(4), m), m)
    assert lattice_map(np.eye(4), Subspace.zero(4)).dim == 0


def test_lattice_map_full_rank_preserves_dimension():
    rng = np.random.default_rng(4)
    x = random_well_conditioned(rng, 5, 3.0)
    m = Subspace.from_span(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    assert lattice_map(x, m).dim == 3


def test_lattice_preimage_examples():
    rng = np.random.default_rng(5)
    x = random_well_conditioned(rng, 4, 3.0)
    assert lattice_preimage(x, Subspace.full(4)).dim == 4
    n = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    pre = lattice_preimage(x, n)
    assert pre.dim == 2
    assert equals(lattice_map(x, pre), n)


def test_lattice_preimage_is_the_orthonormal_null_space_of_the_residual():
    # X^{-1}(N) is ker (I - P_N) X: X maps it into N, and its dimension is
    # the column count less the residual's rank; any X, wide, tall or rank
    # deficient
    rng = np.random.default_rng(8)
    for rows, cols, rank in ((4, 4, 4), (4, 4, 2), (3, 5, 3), (6, 3, 2), (5, 5, 0)):
        x = complex_gaussian(rng, rows, rank) @ complex_gaussian(rng, rank, cols)
        for k in range(rows + 1):
            n = Subspace.from_span(complex_gaussian(rng, rows, k), rows)
            pre = lattice_preimage(x, n)
            gram = pre.basis.conj().T @ pre.basis
            assert np.max(np.abs(gram - np.eye(pre.dim)), initial=0.0) <= TOL_ORTHO
            assert op_norm(x @ pre.basis - n.project(x @ pre.basis)) <= 1e-10
            assert pre.dim == cols - np.linalg.matrix_rank(x - n.project(x), tol=1e-10)


def test_preimage_invariance_transfer():
    t1, t2, q = similarity_pair(6)
    pool = sample_invariant_subspaces(t2, 6, np.random.default_rng(7))
    for n_sub in pool:
        m = lattice_preimage(q, n_sub)
        assert is_invariant(t1, m).invariant


def test_pool_takes_the_norm_of_t_once(monkeypatch):
    # every Krylov draw of one pool stops at the same scale max(1, ||T||)
    t = similarity_pair(6)[0]
    normed = []

    def counted(m):
        normed.append(np.array_equal(m, t))
        return op_norm(m)

    monkeypatch.setattr(sampling, "op_norm", counted)
    monkeypatch.setattr(subspace, "op_norm", counted)
    pool = sample_invariant_subspaces(t, 20, np.random.default_rng(3))
    assert len(pool) == 22 and sum(normed) == 1


# --- lattice isomorphism evidence ------------------------------------------------------

def test_injectivity_maps_each_pool_member_once(monkeypatch):
    t1, t2, q = similarity_pair(8)
    mapped = []

    def recording(x, m):
        mapped.append(id(m))
        return lattice_map(x, m)

    monkeypatch.setattr(jordan, "lattice_map", recording)
    evidence, pairs = jordan._injectivity_evidence(q / op_norm(q), t1, 12, np.random.default_rng(1))
    assert evidence == 1.0
    assert len(mapped) == len(set(mapped)) < 2 * pairs


def test_injectivity_decides_each_pair_once(monkeypatch):
    # redrawn pool pairs reuse their equals verdicts, for the members and
    # for their images
    t1, t2, q = similarity_pair(8)
    decided = {}

    def counting(a, b):
        key = frozenset((id(a), id(b)))
        decided[key] = decided.get(key, 0) + 1
        return subspace.equals(a, b)

    monkeypatch.setattr(jordan, "equals", counting)
    for samples, seed in [(12, 1), (20, 2), (20, 3)]:
        decided.clear()
        jordan._injectivity_evidence(q / op_norm(q), t1, samples, np.random.default_rng(seed))
        assert decided and max(decided.values()) == 1


def test_identity_isomorphism_evidence():
    t = np.zeros((4, 4), dtype=complex)
    report = check_lattice_isomorphism(np.eye(4), t, t, samples=10, seed=0)
    assert report.surjective_evidence == 1.0
    assert report.injective_evidence == 1.0
    assert report.adjoint_surjective_evidence == 1.0
    assert report.adjoint_injective_evidence == 1.0


def test_full_rank_intertwiner_evidence():
    t1, t2, q = similarity_pair(8)
    report = check_lattice_isomorphism(q / op_norm(q), t1, t2, samples=12, seed=1)
    assert report.surjective_evidence == 1.0
    assert report.injective_evidence == 1.0
    assert report.adjoint_injective_evidence == 1.0


def test_rank_deficient_duality_agreement():
    rng = np.random.default_rng(9)
    a = random_contraction(rng, 3, 0.7)
    b = random_contraction(rng, 2, 0.7)
    t1, t2 = a, scipy.linalg.block_diag(a, b).astype(complex)
    x = np.vstack([np.eye(3), np.zeros((2, 3))]).astype(complex)
    report = check_lattice_isomorphism(x, t1, t2, samples=12, seed=2)
    assert report.surjective_evidence < 1.0
    assert report.adjoint_injective_evidence < 1.0
    assert report.injective_evidence == 1.0
    assert report.adjoint_surjective_evidence == 1.0


def test_non_intertwiner_rejected():
    with pytest.raises(NonIntertwinerError):
        check_lattice_isomorphism(np.eye(2), np.diag([0.1, 0.2]), np.diag([0.3, 0.4]))


# --- Jordan models ---------------------------------------------------------------------

def test_model_zero_matrix():
    model = jordan_model(np.zeros((2, 2)))
    assert [equiv(t, monomial(1)) for t in model.thetas] == [True, True]


def test_model_nilpotent_block():
    model = jordan_model(NILPOTENT)
    assert len(model.thetas) == 1 and equiv(model.thetas[0], monomial(2))


def test_model_repeated_diagonal_with_certificates():
    t = np.diag([0.5, 0.5]).astype(complex)
    model = jordan_model(t, verify=False)
    assert [th.degree for th in model.thetas] == [1, 1]
    assert all(equiv(th, elementary(0.5)) for th in model.thetas)
    op = model.operator()
    for a, b in ((t, op), (op, t)):
        x = find_quasiaffinity(a, b)
        assert x is not None and op_norm(x @ a - b @ x) <= 1e-7


def test_model_chain_and_head():
    rng = np.random.default_rng(10)
    t = certifiable_c0(rng, 6, structured=True)
    model = jordan_model(t)
    for cur, nxt in zip(model.thetas, model.thetas[1:]):
        assert blaschke.divides(nxt, cur)
    assert equiv(model.thetas[0], minimal_function(t))
    assert model.dimension == 6


def test_model_certifies_the_eigenstructure_once(monkeypatch):
    calls = []
    original = calculus.eigenstructure

    def counted(t):
        calls.append(1)
        return original(t)

    # jordan imports eigenstructure by name; classify_c0 reaches it through calculus
    monkeypatch.setattr(calculus, "eigenstructure", counted)
    monkeypatch.setattr(jordan, "eigenstructure", counted)
    t = certifiable_c0(np.random.default_rng(10), 6, structured=True)
    jordan_model(t)
    assert len(calls) == 1


def test_model_requires_c0():
    with pytest.raises(NotC0Error):
        jordan_model(np.eye(2))


def test_model_chain_validation():
    with pytest.raises(ValueError):
        JordanModel((monomial(1), monomial(2)))
    trimmed = JordanModel((monomial(2), monomial(1), BlaschkeProduct(())))
    assert len(trimmed.thetas) == 2


def test_model_operator_head_is_minimal_function():
    # the head of a hand-built model generates the annihilator of its operator
    head = multiply(BlaschkeProduct(((0.3 - 0.2j, 2),)), elementary(-0.4j))
    tail = elementary(0.3 - 0.2j)
    model = JordanModel((head, tail))
    mf = minimal_function(model.operator())
    assert almost_equiv(mf, head, 1e-7)


def test_compressed_shift_is_multiplicity_free():
    theta = BlaschkeProduct(((0.3 + 0j, 2), (-0.2 + 0.4j, 1)))
    assert cyclic_multiplicity(compressed_shift(theta).matrix) == 1


# --- theorem verifiers -------------------------------------------------------------------

def test_thm97_on_shift():
    theta = BlaschkeProduct(((0.3 + 0j, 2), (-0.2 + 0.4j, 1)))
    s = compressed_shift(theta).matrix
    report = theorem97_verifier(s, triples=40, seed=0)
    assert report.passed, report.violations
    assert report.max_residual <= 1e-8


def test_thm97_on_zero_matrix():
    report = theorem97_verifier(np.zeros((3, 3)), triples=30, seed=1)
    assert report.passed


def test_thm97_suite_passes_on_an_uncertifiable_c0_draw():
    # trial 1 draws a C0 matrix whose eigenstructure cannot be certified;
    # the modular law does not need it
    report = thm97_suite(trials=2, seed=641838304)
    assert report.passed


def test_thm97_requires_c0():
    with pytest.raises(NotC0Error):
        theorem97_verifier(np.eye(2), triples=5)


def test_x3_identity_transfer():
    t = np.diag([0.1, -0.3, 0.2j]).astype(complex)
    report = theorem_x3_verifier(t, t, np.eye(3), samples=15, seed=0)
    assert report.passed


def test_x3_similarity_transfer():
    t1, t2, q = similarity_pair(11, n=5)
    report = theorem_x3_verifier(t1, t2, q / op_norm(q), samples=25, seed=1)
    assert report.passed, report.violations
    assert report.max_residual <= 1e-8


@pytest.mark.parametrize("seed", [0, 7])
def test_verifier_cache_never_changes_report_bytes(monkeypatch, seed):
    # forced tolerances give every trial violations to replay
    def reports():
        return (
            stable_json_bytes(thm97_suite(trials=2, seed=seed, modular=1e-16).to_json_dict()),
            stable_json_bytes(x3_suite(trials=2, seed=seed, transfer=1e-18).to_json_dict()),
        )

    cached = reports()
    assert b'"violations":[]' not in cached[0] and b'"violations":[]' not in cached[1]
    # without the cache every draw reruns its checks
    monkeypatch.setattr(jordan, "cache", lambda fn: fn)
    assert reports() == cached


def test_triple_draws_are_prefix_stable_across_counts():
    # row i of the one (count, 3) draw is trial i's, whatever the count
    t = similarity_pair(11, n=5)[0]
    short_members, short = jordan._triples(t, 10, seed=4)
    members, draws = jordan._triples(t, 60, seed=4)
    assert draws[:10] == short
    for a, b in zip(short_members, members):
        assert a.basis.tobytes() == b.basis.tobytes()
    assert jordan._triples(t, 10, seed=5)[1] != short


def test_equal_pool_members_share_one_label(monkeypatch):
    line = Subspace.from_span(np.array([[1.0], [1.0], [0.0]]))
    turned = Subspace(3, line.basis * 1j)
    assert equals(line, turned) and line.basis.tobytes() != turned.basis.tobytes()
    pool = [Subspace.zero(3), line, turned, Subspace.full(3)]
    monkeypatch.setattr(jordan, "sample_invariant_subspaces", lambda *args: pool)
    members, draws = jordan._triples(np.zeros((3, 3)), 20, seed=3)
    # the first of each class represents it
    assert [id(m) for m in members] == [id(pool[0]), id(line), id(pool[3])]
    labels, drawn = [0, 1, 1, 2], set()
    rows = np.random.default_rng([3, 1]).integers(len(pool), size=(20, 3))
    for (trial, i, j, k), (p, q, r) in zip(draws, rows):
        assert (i, j) == (labels[p], labels[q])
        assert equals(members[k], jordan.meet(pool[p], pool[r]))
        drawn |= {p, q}
    assert {1, 2} <= drawn


@pytest.mark.parametrize(
    "shapes",
    [
        ((2, 2), (3, 3)),
        ((0, 0), (2, 2)),
        ((3, 1), (2, 0)),
        ((2, 3), (1, 1)),
        ((2, 2), (1, 3), (3, 3)),
        ((2, 2), (0, 3), (1, 2)),
        ((0, 0), (0, 0), (2, 1)),
    ],
)
def test_direct_sum_is_block_diag_bit_for_bit(shapes):
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    # the last block complex, then real
    for case in (blocks, blocks[:-1] + [np.eye(blocks[-1].shape[0])]):
        got, expected = subspace._direct_sum(*case), scipy.linalg.block_diag(*case)
        assert got.shape == expected.shape and got.tobytes() == expected.astype(complex).tobytes()


def test_empty_jordan_model_operator_is_zero_by_zero():
    # block_diag of no blocks is 1 x 0; the direct sum of none is 0 x 0
    op = JordanModel(()).operator()
    assert op.shape == (0, 0) and op.dtype == complex


def test_verifiers_check_each_distinct_triple_once(monkeypatch):
    t1, t2, q = similarity_pair(11, n=5)
    seen = []

    # thm97 also passes its memoised M ∨ N and L ∧ M
    def recording(l, m, n, *known):
        seen.append((id(l), id(m), id(n)))
        return modular(l, m, n, *known)

    modular = jordan._modular
    monkeypatch.setattr(jordan, "_modular", recording)
    distinct = {tuple(d[1:]) for d in jordan._triples(t1, 100, 5)[1]}
    theorem97_verifier(t1, triples=100, seed=5)
    assert len(seen) == len(set(seen)) == len(distinct) < 100
    seen.clear()
    distinct = {tuple(d[1:]) for d in jordan._triples(t2, 50, 1)[1]}
    theorem_x3_verifier(t1, t2, q / op_norm(q), samples=50, seed=1)
    # the source and the target side of each triple
    assert len(seen) == len(set(seen)) == 2 * len(distinct)


def test_thm97_builds_each_sum_map_once(monkeypatch):
    # the sum map depends on (M2, M3) alone; its rank stands for the rest
    t = similarity_pair(11, n=5)[0]
    ranked = []

    def recording(s):
        ranked.append(s.shape)
        return rank(s)

    rank = jordan._rank
    monkeypatch.setattr(jordan, "_rank", recording)
    members, draws = jordan._triples(t, 100, 5)
    pairs = {(j, k) for _, _, j, k in draws if members[j].dim + members[k].dim}
    theorem97_verifier(t, triples=100, seed=5)
    # each nonzero pair needs one, so as many calls as pairs is one each
    assert len(ranked) == len(pairs) < len({tuple(d[1:]) for d in draws})


@pytest.mark.parametrize("residual", [float("nan"), float("inf")])
def test_non_finite_residual_is_a_violation_that_renders(residual):
    tally = jordan._Tally()
    tally.check(0, "kind", 0.5, 1e-6)
    tally.check(1, "kind", residual, 1e-6)
    report = tally.report("suite", 0, 2)
    assert [v.trial for v in report.violations] == [0, 1]
    payload = json.loads(report_render(report, "json"))
    assert payload["passed"] is False and payload["violations"][1]["residual"] is None
    assert f"trial 1: kind residual {residual}" in report_render(report).decode()


def test_x3_pulls_each_subspace_back_once(monkeypatch):
    pulled = []

    def recording(x, n, scale):
        pulled.append((n.basis.shape, n.basis.tobytes()))
        return preimage(x, n, scale)

    preimage = jordan._preimage
    monkeypatch.setattr(jordan, "_preimage", recording)
    t1, t2, q = similarity_pair(11, n=5)
    samples = 50
    theorem_x3_verifier(t1, t2, q / op_norm(q), samples=samples, seed=1)
    assert pulled and len(set(pulled)) == len(pulled)
    assert len(pulled) < 3 * samples


def test_x3_maps_each_label_pair_once(monkeypatch):
    # onto-instance maps each target's preimage once; the product identity
    # Y_*(M1 ∧ M2) against N1 ∧ N2 depends on the label pair (i, j) alone
    mapped = []

    def recording(x, m):
        mapped.append(m)
        return image(x, m)

    image = jordan.lattice_map
    monkeypatch.setattr(jordan, "lattice_map", recording)
    t1, t2, q = similarity_pair(11, n=5)
    targets, draws = jordan._triples(t2, 50, 1)
    pairs = {(i, j) for _, i, j, _ in draws}
    theorem_x3_verifier(t1, t2, q / op_norm(q), samples=50, seed=1)
    assert len(mapped) == len(targets) + len(pairs)
    assert len(pairs) < len({tuple(d[1:]) for d in draws})


def test_x3_requires_c0_t1():
    # T1 = diag(2, 0.1) is no contraction; T2 = Q T1 Q^{-1} is only checked
    # through the intertwining
    t1 = np.diag([2.0, 0.1]).astype(complex)
    q = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotC0Error):
        theorem_x3_verifier(t1, q @ t1 @ np.linalg.inv(q), q / op_norm(q), samples=2)


def test_x3_rejects_rank_deficient():
    t = np.diag([0.1, 0.2]).astype(complex)
    with pytest.raises(RankDeficientError):
        theorem_x3_verifier(t, t, np.zeros((2, 2)), samples=2)
    with pytest.raises(NonIntertwinerError):
        theorem_x3_verifier(np.diag([0.1, 0.2]), np.diag([0.3, 0.4]), np.eye(2), samples=2)


def test_non_derogatory_draw_beyond_four_blocks_is_refused():
    # n = 13 > 4 * max_block used to loop forever; in a subprocess a hang
    # fails the test at the timeout instead of stalling the run
    script = (
        "import numpy as np\n"
        "from c0lat.sampling import random_structured_c0\n"
        "random_structured_c0(np.random.default_rng(0), 12, derogatory=False)\n"
        "try:\n"
        "    random_structured_c0(np.random.default_rng(0), 13, derogatory=False)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    package_root = os.path.dirname(os.path.dirname(sampling.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "a non-derogatory draw has at most 4 blocks of size 3; n = 13 exceeds 4 * max_block = 12\n"
    )


# --- brute force lattice ---------------------------------------------------------------------

def test_brute_force_scalar():
    out = brute_force_lat(np.array([[0.5]], dtype=complex))
    assert [s.dim for s in out] == [0, 1]


def test_brute_force_diag():
    out = brute_force_lat(np.diag([0.1, 0.2]).astype(complex))
    assert len(out) == 4
    dims = sorted(s.dim for s in out)
    assert dims == [0, 1, 1, 2]


def test_brute_force_rejects_repeated():
    with pytest.raises(ValueError):
        brute_force_lat(np.diag([0.1, 0.1]).astype(complex))


def test_brute_force_matches_enumeration():
    points = random_unit_disk_points(np.random.default_rng(13), 3, radius=0.8, min_separation=0.2)
    theta = BlaschkeProduct(tuple((z, 1) for z in points))
    oracle = brute_force_lat(compressed_shift(theta).matrix)
    entries = enumerate_lattice(theta)
    assert len(oracle) == len(entries) == 8
    used = [False] * 8
    for _, s in entries:
        hit = next(
            k for k, cand in enumerate(oracle)
            if not used[k] and cand.dim == s.dim and equals(s, cand)
        )
        used[hit] = True
    assert all(used)


def test_multiplicity_counts_the_nonconstant_jordan_model_functions():
    # the multiplicity of a C0 operator is the number of nonconstant
    # functions in its Jordan model (Bercovici, Operator Theory and
    # Arithmetic in H-infinity, 1988), which is the largest number of
    # Jordan blocks at one eigenvalue: T = Q J Q^-1 is built from chosen
    # partitions, so the expected count never comes from jordan_model
    rng = np.random.default_rng(2026)
    spectra = (
        {0.3: (3,)},
        {0.3: (2, 1), -0.4j: (1,)},
        {0.0: (1, 1, 1), 0.5: (2, 2)},
        {0.2 + 0.3j: (2, 1, 1, 1), -0.5: (3, 1), 0.6j: (1,)},
        {-0.1: (3, 3), 0.5 - 0.2j: (2, 2, 1, 1)},
    )
    for partitions in spectra:
        blocks = [(lam, size) for lam, sizes in partitions.items() for size in sizes]
        n = sum(size for _, size in blocks)
        j = np.zeros((n, n), dtype=complex)
        pos = 0
        for lam, size in blocks:
            j[pos : pos + size, pos : pos + size] = lam * np.eye(size) + 0.3 * np.eye(size, k=-1)
            pos += size
        q = random_well_conditioned(rng, n, cond_cap=3.0)
        t = q @ j @ np.linalg.inv(q)
        t *= min(1.0, 0.95 / op_norm(t))
        expected = max(len(sizes) for sizes in partitions.values())
        assert cyclic_multiplicity(t) == expected, partitions


def test_cyclic_multiplicity_refuses_a_matrix_that_is_not_c0():
    with pytest.raises(NotC0Error):
        cyclic_multiplicity(2 * np.eye(2))


# --- report plumbing ----------------------------------------------------------------------

def test_jordan_model_suite_redraws_an_uncertifiable_spectrum():
    # trial 0's first draw has an eigenstructure the clustering ladder rejects
    report = jordan_model_suite(trials=3, seed=13297595)
    assert report.passed


def test_report_json_shape():
    report = VerificationReport(
        suite="x",
        seed=7,
        trials=3,
        violations=(Violation(1, "kind", 0.5, {"a": 1}),),
        max_residual=0.5,
    )
    data = report.to_json_dict()
    assert data["passed"] is False
    assert data["violations"][0]["witness"] == {"a": 1}
