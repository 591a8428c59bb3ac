"""Intertwiners, quasiaffinities, lattice maps, Jordan models, and the
modularity verifiers.

The intertwining equation X T1 = T2 X splits over the eigenvalue clusters
that T1 and T2 share.  Complex Schur forms, reordered by the kernel that
also gives the divisor subspaces (``calculus._spectral_basis``), give each
cluster's spectral subspaces V1_c and V2_c, the restrictions A1_c and A2_c,
and T1's spectral coordinates Π1_c; each cluster's equation Z A1_c = A2_c Z
is flattened into a small Kronecker system whose numerical null space (SVD
threshold 1e-10 relative) gives the elements V2_c Z Π1_c.  A pair with a
single cluster, or an ill-conditioned spectral basis, is flattened whole
into one (n1*n2) x (n1*n2) system.  The maximal rank over the space is
certified by random combinations: the full-rank locus of a matrix space is
Zariski-open, so a random element attains the maximum with probability 1;
32 seeded draws guard against unlucky ones.

Quasisimilarity at matrix scale collapses to similarity, but the
verifiers still run the two-sided quasiaffinity search so the code paths
match the general hypotheses.

The two theorem verifiers replay proofs on concrete samples:

* ``theorem97_verifier`` checks the modular law on sampled invariant
  triples with M3 inside M1, and reconstructs the sum map
  X(a2, a3) = a2 + a3 from the external direct sum M2 (+) M3 onto
  M2 v M3 as an explicit matrix, checking that it intertwines the
  restrictions, has dense range, and that the preimage of
  M1 ∩ (M2 v M3) is (M1 ∩ M2) (+) M3.
* ``theorem_x3_verifier`` pulls invariant triples back through a
  quasiaffinity Y, checks Y_*(Y^{-1} N) = N on each, the product identity
  Y_*(M1 ∩ M2) = Y_*(M1) ∩ Y_*(M2), and that modularity transfers.

Both verifiers run one sampled-triple loop (``_triples``): a pool of
invariant subspaces reduced to its distinct members, each labelled by
its index (``subspace._label``; equal subspaces share one basis), and
label triples (L, M, N) with N = L ∧ R ⊆ L, drawn as the rows of one
integer array from one generator, so row i is trial i's draw whatever
the count.  A verifier checks each distinct triple once, in a cached
function that records into a tally of its own (``_Tally``, the recorder
every suite trial in :mod:`c0lat.suites` uses too), and replays that
tally under every trial that drew the triple; the two sides of the
modular law come from :func:`c0lat.subspace._modular`, the kernel of
``check_modular_triple``.  thm97 also caches M2 ∨ M3, M1 ∧ M2 and the sum map
by label pair; x3 takes the product identity's meets from the law's L ∧ M.

In finite dimensions Lat(T) is a sublattice of the lattice of all
subspaces of C^n, which is modular, so neither verifier can find a
counterexample to modularity at matrix scale.  What they test is the
numerics and the proof objects: the sum map and the preimage identity,
and the onto instances and product identity of the transfer.  The
paper's infinite-dimensional content, where a join is the closure of a
sum, is out of their reach.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import blaschke
from .calculus import (
    CLUSTER_LADDER,
    NotC0Error,
    VerificationError,
    _model_function,
    _single_linkage_clusters,
    _spectral_basis,
    eigenstructure,
    is_c0,
)
from .modelspace import compressed_shift
from .sampling import complex_gaussian, sample_invariant_subspaces
from .subspace import (
    TOL_INTERTWINE,
    TOL_INVARIANT,
    TOL_RANK,
    Subspace,
    _direct_sum,
    _label,
    _matrix,
    _modular,
    _project,
    _rank,
    distance,
    equals,
    is_invariant,
    join,
    meet,
    op_norm,
)

__all__ = [
    "IntertwinerSpace",
    "JordanModel",
    "LatticeMapReport",
    "NonIntertwinerError",
    "RankDeficientError",
    "VerificationReport",
    "Violation",
    "are_quasisimilar",
    "brute_force_lat",
    "check_lattice_isomorphism",
    "cyclic_multiplicity",
    "find_quasiaffinity",
    "intertwiner_space",
    "jordan_model",
    "lattice_map",
    "lattice_preimage",
    "theorem97_verifier",
    "theorem_x3_verifier",
]

SIZE_CAP = 16
_MAX_RANK_DRAWS = 32
# spectral bases above this condition number leave a pair undivided: two
# eigenvalues d apart in one Jordan-coupled pair give about 2 / d, so pairs
# within about twice the clustering radius (3e-3) of each other stay whole
_SPLIT_COND = 3e2


class NonIntertwinerError(ValueError):
    """The given X does not intertwine the pair within tolerance."""


class RankDeficientError(ValueError):
    """A full-rank (quasiaffinity) operator was required."""


def _require_intertwiner(x, t1, t2, what):
    """``||X T1 - T2 X||`` for ``what``, an n2 x n1 intertwiner within tolerance."""
    n1, n2 = t1.shape[0], t2.shape[0]
    if x.shape != (n2, n1):
        raise ValueError(f"{what} has shape {x.shape}; an intertwiner from T1 to T2 is {n2} x {n1}")
    scale = max(1.0, op_norm(t1), op_norm(t2))
    resid = op_norm(x @ t1 - t2 @ x)
    if resid > TOL_INTERTWINE * scale:
        raise NonIntertwinerError(
            f"intertwining residual {resid:.3g} exceeds {TOL_INTERTWINE:g} * {scale:.3g}"
        )
    return resid


@dataclass(frozen=True)
class IntertwinerSpace:
    """Basis of the solution space of X T1 = T2 X, with rank diagnostics.

    The basis is Frobenius-orthonormal when the pair was solved undivided.
    Split over shared eigenvalue clusters, each element is V2_c Z Π1_c with
    Z from an orthonormal basis, so elements are neither of unit norm nor
    orthogonal, within a cluster or across clusters.
    """

    basis: tuple
    max_rank: int
    rank_witness: np.ndarray | None

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _sylvester_null(t1, t2, threshold) -> np.ndarray:
    """Null space of Z -> Z T1 - T2 Z as a stack (d, n2, n1): the right
    singular vectors of its Kronecker matrix with singular value at most
    ``threshold``, Frobenius-orthonormal."""
    n1, n2 = t1.shape[0], t2.shape[0]
    # vec is column-major over Z (n2 x n1): Z T1 -> (T1^T ⊗ I), T2 Z -> (I ⊗ T2);
    # the products are np.kron's, broadcast without its per-call overhead
    eye1, eye2 = np.eye(n1)[:, None, :, None], np.eye(n2)[None, :, None, :]
    lhs = (t1.T[:, None, :, None] * eye2 - eye1 * t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    _, sv, vh = np.linalg.svd(lhs)
    null = vh[sv <= threshold].conj()
    return null.reshape(len(null), n1, n2).transpose(0, 2, 1)


def _spectral_split(s, q, parts) -> dict | None:
    """Spectral pieces of T = Q S Q^H (S upper triangular) over groups of
    its eigenvalues: ``{c: (V_c, A_c, Π_c)}`` for each nonempty array
    ``parts[c]`` of positions on the diagonal of S.  V_c is an orthonormal
    basis of the spectral subspace and A_c the restriction (T V_c = V_c A_c),
    both from :func:`~c0lat.calculus._spectral_basis`, and Π_c the rows of
    inv([V_1 V_2 ...]) that give the coordinates along V_c.  None when a
    reorder fails or [V_1 V_2 ...] has condition number above
    ``_SPLIT_COND``."""
    pieces = {c: _spectral_basis(s, q, picked) for c, picked in enumerate(parts) if picked.size}
    if None in pieces.values():
        return None
    v = np.hstack([vc for vc, _ in pieces.values()])
    if np.linalg.cond(v) > _SPLIT_COND:
        return None
    ends = np.cumsum([vc.shape[1] for vc, _ in pieces.values()])
    coords = np.vsplit(np.linalg.inv(v), ends[:-1])
    return {c: (vc, ac, pi) for (c, (vc, ac)), pi in zip(pieces.items(), coords)}


def _split_null(t1, t2, threshold) -> np.ndarray | None:
    """The intertwiner basis as a stack (d, n2, n1), one Sylvester null
    space Z A1_c = A2_c Z per eigenvalue cluster c that T1 and T2 share,
    each element V2_c Z Π1_c; None when the pair has a single cluster or a
    spectral split is unusable (see :func:`_spectral_split`)."""
    n1, n2 = t1.shape[0], t2.shape[0]
    if n1 * n2 == 0:
        return None
    import scipy.linalg

    (s1, q1), (s2, q2) = (scipy.linalg.schur(t, output="complex") for t in (t1, t2))
    clusters = _single_linkage_clusters(
        np.concatenate([np.diag(s1), np.diag(s2)]), CLUSTER_LADDER[0]
    )
    if len(clusters) < 2:
        return None
    split1 = _spectral_split(s1, q1, [idx[idx < n1] for idx in clusters])
    split2 = _spectral_split(s2, q2, [idx[idx >= n1] - n1 for idx in clusters])
    if split1 is None or split2 is None:
        return None
    stacks = [np.zeros((0, n2, n1), dtype=complex)]
    for c, (_, a1, pi1) in split1.items():
        if c in split2:
            v2, a2, _ = split2[c]
            stacks.append(v2 @ _sylvester_null(a1, a2, threshold) @ pi1)
    return np.concatenate(stacks)


def _max_rank(stack, seed):
    """The largest rank over seeded random combinations of the basis
    ``stack`` and the first combination that reaches it (None when it is
    0): at most ``_MAX_RANK_DRAWS`` draws, stopping at full rank.  The
    full-rank locus of a matrix space is Zariski-open, so the first draw
    reaches the maximum with probability 1; when it falls short of full
    rank, every later draw is ranked in one stacked SVD."""
    d, n2, n1 = stack.shape
    if d == 0:
        return 0, None
    rng = np.random.default_rng(seed)
    candidates = np.tensordot(complex_gaussian(rng, 1, d), stack, 1)
    ranks = _rank(np.linalg.svd(candidates, compute_uv=False))
    if ranks[0] < min(n1, n2):
        coeffs = np.array([complex_gaussian(rng, d) for _ in range(_MAX_RANK_DRAWS - 1)])
        more = np.tensordot(coeffs, stack, 1)
        candidates = np.concatenate([candidates, more])
        ranks = np.concatenate([ranks, _rank(np.linalg.svd(more, compute_uv=False))])
    best = int(np.argmax(ranks))
    return int(ranks[best]), (candidates[best] if ranks[best] else None)


def intertwiner_space(t1, t2, seed: int = 0) -> IntertwinerSpace:
    """Null space of X -> X T1 - T2 X, plus a certified maximal rank.

    X maps each generalized eigenspace of T1 into that of T2 for the same
    eigenvalue, so the equation splits over the eigenvalue clusters (single
    linkage at ``CLUSTER_LADDER[0]``) that T1 and T2 share, and each
    cluster's much smaller system is solved on its own.  A pair with one
    cluster, or whose spectral bases cannot be trusted, is solved undivided,
    as one (n1*n2) x (n1*n2) Kronecker system.  Either way the null-space
    threshold is ``TOL_RANK * max(1, ||T1||, ||T2||)``.  Sizes stay capped at
    ``SIZE_CAP`` (16), because a single-cluster pair still builds that
    system.
    """
    t1, t2 = _matrix(t1, "T1", square=True), _matrix(t2, "T2", square=True)
    n1, n2 = t1.shape[0], t2.shape[0]
    if n1 > SIZE_CAP or n2 > SIZE_CAP:
        raise ValueError(f"matrix sizes {n1}, {n2} exceed cap {SIZE_CAP}")
    # threshold against the problem scale, not sigma_max of the Sylvester
    # operator: for near-zero T1, T2 the whole spectrum is roundoff
    threshold = TOL_RANK * max(1.0, op_norm(t1), op_norm(t2))
    stack = _split_null(t1, t2, threshold)
    if stack is None:
        stack = _sylvester_null(t1, t2, threshold)
    return IntertwinerSpace(tuple(stack), *_max_rank(stack, seed))


def find_quasiaffinity(t1, t2, seed: int = 0) -> np.ndarray | None:
    """A full-rank intertwiner from T1 to T2, or None.

    At matrix scale injective with dense range means square and
    invertible, so this requires equal sizes and a max rank equal to them;
    on the zero space it is the empty identity.
    """
    t1, t2 = _matrix(t1, "T1", square=True), _matrix(t2, "T2", square=True)
    if t1.shape[0] != t2.shape[0]:
        return None
    if t1.shape[0] == 0:  # the identity of the zero space
        return np.eye(0, dtype=complex)
    space = intertwiner_space(t1, t2, seed=seed)
    if space.max_rank != t1.shape[0] or space.rank_witness is None:
        return None
    witness = space.rank_witness
    return witness / op_norm(witness)


def are_quasisimilar(t1, t2, seed: int = 0) -> bool:
    """Quasiaffinities exist both ways."""
    return (
        find_quasiaffinity(t1, t2, seed=seed) is not None
        and find_quasiaffinity(t2, t1, seed=seed) is not None
    )


def lattice_map(x, m: Subspace) -> Subspace:
    """X_*(M): the (automatically closed) image of M under X."""
    x = _matrix(x, "X")
    if x.shape[1] != m.ambient_dim:
        raise ValueError("column count of X does not match the ambient of M")
    return Subspace.from_span(x @ m.basis, x.shape[0])


def lattice_preimage(x, n: Subspace) -> Subspace:
    """X^{-1}(N): the null space of (I - P_N) X."""
    x = _matrix(x, "X")
    if x.shape[0] != n.ambient_dim:
        raise ValueError("row count of X does not match the ambient of N")
    return _preimage(x, n, max(1.0, op_norm(x)))


def _preimage(x: np.ndarray, n: Subspace, scale: float) -> Subspace:
    """:func:`lattice_preimage` of a checked complex X, given ``scale = max(1, ||X||)``."""
    resid = x - _project(n.basis, x)
    _, sv, vh = np.linalg.svd(resid)
    mask = np.ones(x.shape[1], dtype=bool)
    mask[: sv.size] = sv <= TOL_RANK * scale
    # right singular vectors: orthonormal by construction
    return Subspace._trusted(x.shape[1], vh.conj().T[:, mask])


@dataclass(frozen=True)
class LatticeMapReport:
    """Sampled evidence that X_* is a lattice isomorphism, with the adjoint
    duality evidence alongside."""

    samples: int
    surjective_evidence: float
    injective_evidence: float
    adjoint_surjective_evidence: float
    adjoint_injective_evidence: float
    max_residual: float


def _surjectivity_evidence(x, t_target, samples, rng):
    """Fraction of sampled N in Lat(T_target) with X_*(X^{-1} N) = N."""
    pool = sample_invariant_subspaces(t_target, samples, rng)
    scale = max(1.0, op_norm(x))
    hits, worst = 0, 0.0
    for n_sub in pool[:samples]:
        image = lattice_map(x, _preimage(x, n_sub, scale))
        if equals(image, n_sub):
            hits += 1
            worst = max(worst, distance(image, n_sub))
    return hits / samples, worst


def _injectivity_evidence(x, t_source, samples, rng):
    """Fraction of sampled distinct pairs M != M' with X_*(M) != X_*(M').

    The kernel of X is itself invariant and collapses onto the image of
    the zero subspace, so the pair (ker X, 0) is probed first whenever the
    kernel is nontrivial; random pool pairs fill the remaining samples.
    """
    pool = sample_invariant_subspaces(t_source, samples, rng)
    kernel = lattice_preimage(x, Subspace.zero(x.shape[0]))
    pool.append(kernel)
    images = cache(lambda i: lattice_map(x, pool[i]))  # X_*(M) by pool index
    # equals is symmetric, so each verdict is kept by sorted index pair
    same = cache(lambda i, j: equals(pool[i], pool[j]))
    same_image = cache(lambda i, j: equals(images(i), images(j)))
    queued = []
    if kernel.dim > 0:
        queued.append((len(pool) - 1, 0))  # pool[0] is the zero subspace
    pairs = 0
    separated = 0
    attempts = 0
    while (queued or pairs < samples) and attempts < 20 * samples:
        attempts += 1
        if queued:
            i, j = queued.pop()
        else:
            i, j = rng.integers(len(pool)), rng.integers(len(pool))
        i, j = min(i, j), max(i, j)
        if i == j or same(i, j):
            continue
        pairs += 1
        if not same_image(i, j):
            separated += 1
    return (separated / pairs if pairs else 1.0), pairs


def check_lattice_isomorphism(x, t1, t2, samples: int = 20, seed: int = 0) -> LatticeMapReport:
    """Sampled surjectivity/injectivity evidence for X_*, plus the adjoint
    duality: X_* onto pairs with (X*)_* one-to-one and vice versa, so the
    report carries both directions for comparison."""
    x = _matrix(x, "X")
    t1, t2 = _matrix(t1, "T1", square=True), _matrix(t2, "T2", square=True)
    resid = _require_intertwiner(x, t1, t2, "X")
    rng = np.random.default_rng(seed)
    surj, worst = _surjectivity_evidence(x, t2, samples, rng)
    inj, _ = _injectivity_evidence(x, t1, samples, rng)
    xh = x.conj().T
    adj_surj, adj_worst = _surjectivity_evidence(xh, t1.conj().T, samples, rng)
    adj_inj, _ = _injectivity_evidence(xh, t2.conj().T, samples, rng)
    return LatticeMapReport(
        samples=samples,
        surjective_evidence=surj,
        injective_evidence=inj,
        adjoint_surjective_evidence=adj_surj,
        adjoint_injective_evidence=adj_inj,
        max_residual=max(resid, worst, adj_worst),
    )


@dataclass(frozen=True)
class JordanModel:
    """Divisibility chain theta_1, theta_2, ... with theta_{j+1} | theta_j.

    Trailing constants are trimmed at construction; an empty chain models
    the operator on the zero space.
    """

    thetas: tuple

    def __post_init__(self):
        thetas = tuple(self.thetas)
        while thetas and thetas[-1].is_constant:
            thetas = thetas[:-1]
        for current, following in zip(thetas, thetas[1:]):
            if not blaschke.divides(following, current):
                raise ValueError("Jordan model requires theta_{j+1} | theta_j")
        object.__setattr__(self, "thetas", thetas)

    @property
    def dimension(self) -> int:
        return sum(t.degree for t in self.thetas)

    def operator(self) -> np.ndarray:
        """The model matrix: the direct sum of the compressed shifts (0 x 0
        for the empty chain)."""
        return _direct_sum(*(compressed_shift(t).matrix for t in self.thetas))

    def to_json_dict(self) -> dict:
        return {"thetas": [t.to_json_dict() for t in self.thetas]}


def jordan_model(t, seed: int = 0, verify: bool = True) -> JordanModel:
    """The Jordan model of a C0 matrix.

    Per eigenvalue cluster with block sizes s_1 >= s_2 >= ..., the j-th
    model function is the product of b_lambda^{s_j(lambda)}.  The
    divisibility chain holds by construction, and theta_1 is the minimal
    function by construction (both come from one certified
    :func:`~c0lat.calculus.eigenstructure` call, which raises
    :class:`~c0lat.calculus.VerificationError` when it cannot certify).
    With ``verify`` the model is also certified by a two-sided
    quasiaffinity search against the model operator; a failed search
    raises :class:`~c0lat.calculus.VerificationError` too.
    """
    t = _matrix(t, "operator", square=True)
    n = t.shape[0]
    if n > 12:
        raise ValueError("jordan_model is capped at size 12")
    if not is_c0(t):
        raise NotC0Error("jordan_model requires a C0 matrix")
    structure = eigenstructure(t)
    depth = max((len(sizes) for _, sizes in structure), default=0)
    model = JordanModel(tuple(_model_function(structure, j) for j in range(depth)))
    if verify and not are_quasisimilar(t, model.operator(), seed=seed):
        raise VerificationError(
            "could not certify quasisimilarity between the matrix and its model"
        )
    return model


def cyclic_multiplicity(t) -> int:
    """Smallest number of vectors whose joint orbit spans the space: for a
    C0 matrix, the number of functions in its certified Jordan model
    (Bercovici, *Operator Theory and Arithmetic in H-infinity*, 1988), with
    :func:`jordan_model`'s size cap and :class:`~c0lat.calculus.NotC0Error`."""
    return len(jordan_model(t).thetas)


def _finite(x):
    """``x``, or None when it is NaN or infinite, which JSON lacks."""
    return x if np.isfinite(x) else None


@dataclass(frozen=True)
class Violation:
    trial: int
    kind: str
    residual: float
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "kind": self.kind,
            "residual": _finite(self.residual),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a randomized suite: seed, trial count, violations."""

    suite: str
    seed: int
    trials: int
    violations: tuple
    max_residual: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "violations": [v.to_json_dict() for v in self.violations],
            "max_residual": _finite(self.max_residual),
            "passed": self.passed,
        }


def _restriction(t, s: Subspace) -> np.ndarray:
    return s.basis.conj().T @ t @ s.basis


def _triples(t, count, seed):
    """The distinct members of a pool of invariant subspaces of T, and
    ``(trial, i, j, k)`` for ``count`` triples (L, M, N) of members with
    N = L ∧ R ⊆ L.  The pool of ``max(12, n + 4)`` comes from
    ``default_rng(seed)``; the pool indices of L, M and R are the rows of
    one ``(count, 3)`` draw from ``default_rng([seed, 1])``, so trial i's
    draw is row i for every ``count``.  The first pool member of each
    ``equals`` class represents it; a meet L ∧ R is labelled by the member
    it equals, or becomes a new one."""
    pool = sample_invariant_subspaces(t, max(12, t.shape[0] + 4), np.random.default_rng(seed))
    members = []
    labels = np.array([_label(members, s) for s in pool])
    meets = cache(lambda i, r: _label(members, meet(members[i], members[r])))
    drawn = labels[np.random.default_rng([seed, 1]).integers(len(pool), size=(count, 3))]
    return members, [(trial, i, j, meets(i, r)) for trial, (i, j, r) in enumerate(drawn.tolist())]


class _Tally:
    """The violations and the largest residual of one suite trial, one suite
    run, one verifier call or one triple's checks."""

    def __init__(self):
        self.violations = []
        self.max_residual = 0.0

    def check(self, trial, kind, residual, tol, witness=None):
        """Fold ``residual`` into the maximum; unless it is at most ``tol``
        (a NaN is not) it is a violation."""
        self.fold(residual)
        if not residual <= tol:
            self.flag(trial, kind, residual, witness)

    def flag(self, trial, kind, residual, witness=None):
        """Record a violation without folding its residual into the maximum."""
        self.violations.append(Violation(trial, kind, residual, witness or {}))

    def fold(self, residual):
        self.max_residual = max(self.max_residual, residual)

    def absorb(self, part, trial=None):
        """Merge another tally or a report.  Given ``trial``, each violation
        is recorded as that trial's, and one that had a trial keeps it as
        ``inner_trial``."""
        for v in part.violations:
            if trial is not None:
                inner = {} if v.trial is None else {"inner_trial": v.trial}
                v = Violation(trial, v.kind, v.residual, {**v.witness, **inner})
            self.violations.append(v)
        self.fold(part.max_residual)

    def report(self, suite, seed, trials) -> VerificationReport:
        return VerificationReport(suite, seed, trials, tuple(self.violations), self.max_residual)


def theorem97_verifier(
    t,
    triples: int = 100,
    seed: int = 0,
    tol_modular: float = 1e-6,
    tol_intertwine: float = 1e-8,
    tol_preimage: float = 1e-7,
) -> VerificationReport:
    """Modular-law trials on sampled invariant triples of a C0 matrix,
    with the sum-map proof objects rebuilt and checked on every trial.

    Per trial: invariant M1, M2 from the sampling pool and M3 = M1 ∧ R
    for a pool member R (so M3 ⊆ M1 holds by construction).  Checks, in
    order: the modular identity; that X(a2, a3) = a2 + a3 intertwines
    (T|M2) (+) (T|M3) with T|M2∨M3 and is onto; and that the X-preimage
    of M1 ∩ (M2 ∨ M3) is (M1 ∩ M2) (+) M3.
    """
    t = _matrix(t, "operator", square=True)
    n = t.shape[0]
    if n > 10:
        raise ValueError("theorem97_verifier is capped at size 10")
    if not is_c0(t):
        raise NotC0Error("theorem97_verifier requires a C0 matrix")
    members, draws = _triples(t, triples, seed)
    joins = cache(lambda j, k: join(members[j], members[k]))
    meets = cache(lambda i, j: meet(members[i], members[j]))

    @cache
    def sum_map(j, k):
        """X(a2, a3) = a2 + a3 in M2 ∨ M3's basis, its residual, rank and max(1, ||X||)."""
        m2, m3, joined = members[j], members[k], joins(j, k)
        x_mat = joined.basis.conj().T @ np.hstack([m2.basis, m3.basis])
        t23 = _direct_sum(_restriction(t, m2), _restriction(t, m3))
        resid = op_norm(x_mat @ t23 - _restriction(t, joined) @ x_mat)
        sv = np.linalg.svd(x_mat, compute_uv=False)
        return x_mat, resid, int(_rank(sv)), max(1.0, float(sv[0]))

    @cache
    def checks(i, j, k):
        m1, m2, m3 = members[i], members[j], members[k]
        tally = _Tally()
        inter, rhs, joined, m1m2 = _modular(m1, m2, m3, joins(j, k), meets(i, j))
        dims = {"dims": [m1.dim, m2.dim, m3.dim]}
        tally.check(None, "modular-identity", distance(inter, rhs), tol_modular, dims)
        if m2.dim + m3.dim == 0:
            return tally
        x_mat, resid_int, rank, scale = sum_map(j, k)
        dims = {"dims": [m2.dim, m3.dim, joined.dim]}
        tally.check(None, "sum-map-intertwine", resid_int, tol_intertwine, dims)
        if rank != joined.dim:
            witness = {"rank": rank, "target": joined.dim}
            tally.flag(None, "sum-map-range", float(joined.dim - rank), witness)

        embedded = Subspace.from_span(joined.basis.conj().T @ inter.basis, joined.dim)
        preimage = _preimage(x_mat, embedded, scale)
        expected_cols = _direct_sum(m2.basis.conj().T @ m1m2.basis, np.eye(m3.dim))
        expected = Subspace.from_span(expected_cols, m2.dim + m3.dim)
        resid_pre = distance(preimage, expected)
        dims = {"dims": [preimage.dim, expected.dim]}
        tally.check(None, "preimage-identity", resid_pre, tol_preimage, dims)
        return tally

    tally = _Tally()
    for trial, *labels in draws:
        tally.absorb(checks(*labels), trial)
    return tally.report("modular-thm97", seed, triples)


def theorem_x3_verifier(
    t1,
    t2,
    y,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-6,
) -> VerificationReport:
    """Modularity-transfer trials along a quasiaffinity Y with Y_* onto.

    Per trial: invariant N1, N2, N3 for T2 with N3 ⊆ N1; preimages
    M_i = Y^{-1}(N_i) are checked invariant for T1; the onto instances
    Y_*(M_i) = N_i and the product identity
    Y_*(M1 ∩ M2) = Y_*(M1) ∩ Y_*(M2) are verified; finally the modular
    law is checked on both triples and must transfer from the T1 side to
    the T2 side.  T1 must be C0; T2, similar to T1, need not be a
    contraction.
    """
    t1, t2 = _matrix(t1, "T1", square=True), _matrix(t2, "T2", square=True)
    y = _matrix(y, "Y", square=True)
    if not is_c0(t1):
        raise NotC0Error("theorem_x3_verifier requires a C0 matrix T1")
    _require_intertwiner(y, t1, t2, "Y")
    if _rank(np.linalg.svd(y, compute_uv=False)) != y.shape[0]:
        raise RankDeficientError("theorem_x3_verifier requires a full-rank square Y")
    tol_invariant = TOL_INVARIANT * max(1.0, op_norm(t1))
    targets, draws = _triples(t2, samples, seed)
    scale = max(1.0, op_norm(y))
    sources = [_preimage(y, n_i, scale) for n_i in targets]
    invariance = [is_invariant(t1, m_i).residual for m_i in sources]
    onto = [distance(lattice_map(y, m_i), n_i) for m_i, n_i in zip(sources, targets)]
    spaces = (sources, targets)
    # M2 ∨ M3 and M1 ∧ M2 by side (0 for T1, 1 for T2) and label pair, and the
    # product identity Y_*(M1 ∩ M2) = N1 ∩ N2 by label pair
    joins = cache(lambda s, j, k: join(spaces[s][j], spaces[s][k]))
    meets = cache(lambda s, i, j: meet(spaces[s][i], spaces[s][j]))
    products = cache(lambda i, j: distance(lattice_map(y, meets(0, i, j)), meets(1, i, j)))

    @cache
    def checks(i, j, k):
        tally = _Tally()
        for index, a in enumerate((i, j, k), 1):
            tally.check(None, "preimage-invariance", invariance[a], tol_invariant, {"index": index})
            tally.check(None, "onto-instance", onto[a], tol, {"index": index})
        sides = [
            _modular(c[i], c[j], c[k], joins(s, j, k), meets(s, i, j))
            for s, c in enumerate(spaces)
        ]
        tally.check(None, "product-identity", products(i, j), tol)
        source, target = (distance(*side[:2]) for side in sides)
        tally.fold(source)
        tally.fold(target)
        if source <= tol < target:
            tally.flag(None, "transfer", target, {"source_residual": source})
        return tally

    tally = _Tally()
    for trial, *labels in draws:
        tally.absorb(checks(*labels), trial)
    return tally.report("x3-transfer", seed, samples)


def _distinct_eig(t):
    """``np.linalg.eig(t)``, refusing eigenvalues closer than 1e-6: the
    eigenvectors brute_force_lat spans, and the rule it takes them by."""
    values, vectors = np.linalg.eig(t)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < 1e-6:
                raise ValueError(
                    f"eigenvalues {values[i]:.8g} and {values[j]:.8g} closer than 1e-06"
                )
    return values, vectors


def brute_force_lat(t) -> list[Subspace]:
    """All invariant subspaces of a matrix with distinct eigenvalues: the
    2^n spans of eigenvector subsets.

    This is the independent oracle for the divisor-lattice enumeration;
    it refuses matrices with (numerically) repeated eigenvalues, closer
    than 1e-6, where the eigenvector-subset description is wrong.
    """
    t = _matrix(t, "operator", square=True)
    n = t.shape[0]
    if n > 10:
        raise ValueError("brute_force_lat is capped at size 10")
    _, vectors = _distinct_eig(t)
    out = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        out.append(Subspace.from_span(vectors[:, idx], n))
    out.sort(key=lambda s: s.dim)
    return out
