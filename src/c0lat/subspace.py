"""Numerical subspace-lattice operations and finite abstract lattices.

Subspaces carry an ambient dimension and an orthonormal column basis.
``calculus``, ``jordan`` and ``blaschke`` keep thresholds of their own
(the README lists them all).  The subspace tolerances live here;
``jordan`` imports the rank, invariance and intertwining ones:

* ``TOL_EQUALS``  the one scale of the lattice: order, meet and join
* ``TOL_RANK``    relative singular-value cut ``_rank`` of spans and null spaces
* ``TOL_INVARIANT`` invariance residual scale
* ``TOL_INTERTWINE`` intertwining residual scale

The public constructor ``Subspace(n, basis)`` checks that the basis is
finite and orthonormal to ``TOL_ORTHO``.  Internal builders whose bases
are orthonormal by construction (``from_span``, ``zero``, ``full``,
``meet``, ``join``, ``cyclic_subspace``, the Schur prefixes of
:func:`~c0lat.sampling.sample_invariant_subspaces` and the reorder kernel
``calculus._spectral_basis`` behind ``ModelSpace.divisor_subspace``) skip
that check; the test suite holds them to ``TOL_ORTHO`` instead.
One rule admits a matrix: every public function of the package takes its
operators, X, Y, bases and spans through ``_matrix`` (complex, 2-d, finite,
square for an operator), which raises a ValueError naming the argument.
``op_norm``, which runs on checked arrays far more often than on a
caller's, takes the same ValueError from ``_matrix`` only when its input
is not 2-d or its SVD fails or comes back non-finite; ``Subspace.project``
checks its vectors.  Kernels on checked arrays, such as ``_krylov`` and
``_project``, check nothing.

``contains`` decides ``||B - P_A B||_2 <= TOL_EQUALS`` from the Frobenius
norm of the residual, which brackets the spectral norm within a factor
``sqrt(dim B)``; it takes an SVD only when the Frobenius norm falls in that
gap, so its verdicts are the SVD's.  ``equals`` takes one containment, and
none for unequal dimensions.  Every reported residual (``distance``,
``is_invariant``) keeps the SVD.

``meet_join_verdicts`` is the batched entry point, for ``distributive``:
for many index pairs of one member list it says whether each meet and
join equals a named member, from the meet's dimension and one order
matrix over the members (``_order``, with ``_insides``, ``_inside`` on a
stack of residuals).  The dimension comes from ``_meet_counts``: the
singular values alone of the stacked residuals, and ``meet``'s own
``_meet_svd`` again for the pairs with a sine near ``TOL_EQUALS``, so it
is ``meet``'s dimension on every pair.

:mod:`c0lat.jordan` and :mod:`c0lat.suites` share three more helpers:
``_modular`` (both sides of the modular law from given M ∨ N and L ∧ M,
with no check of N ⊆ L, which only ``check_modular_triple`` makes),
``_label`` (the first ``equals`` member of a list, appending when there is
none) and ``_direct_sum`` (block sums).

A meet takes one SVD, of the projection residual ``R = B - P_A B``
(Bjorck and Golub, Math. Comp. 1973; Knyazev and Argentati, SIAM J. Sci.
Comput. 2002): its singular values are the principal sines s, and ``B V``
over the right singular vectors with s <= ``TOL_EQUALS`` spans ``A ∧ B``,
off by about eps/rho for the smallest discarded sine rho.  A join takes
one SVD, of ``[A B]``, with singular values ``sqrt(1 ± sqrt(1 - s^2))``,
cut at s = ``TOL_EQUALS`` (``_JOIN_CUT``).  So ``a <= b`` iff ``a ∧ b = a``
iff ``a ∨ b = b``, and ``dim(a ∧ b) + dim(a ∨ b) = dim a + dim b``.
"""

import math
from typing import NamedTuple

import numpy as np

from .serialize import encode_matrix

__all__ = [
    "TOL_EQUALS",
    "TOL_INTERTWINE",
    "TOL_INVARIANT",
    "TOL_ORTHO",
    "TOL_RANK",
    "FiniteLattice",
    "InvarianceVerdict",
    "LatticeVerdict",
    "Subspace",
    "TripleVerdict",
    "check_distributive_triple",
    "check_modular_triple",
    "contains",
    "cyclic_subspace",
    "distance",
    "equals",
    "is_invariant",
    "join",
    "lattice_is_distributive",
    "lattice_is_modular",
    "law_failures",
    "meet",
    "meet_join_verdicts",
    "op_norm",
]

TOL_RANK = 1e-10
TOL_ORTHO = 1e-10
TOL_EQUALS = 1e-8
_JOIN_CUT = TOL_EQUALS / math.sqrt(1 + math.sqrt(1 - TOL_EQUALS**2))
TOL_INVARIANT = 1e-8
TOL_INTERTWINE = 1e-9


def op_norm(m) -> float:
    """Spectral norm; 0 for empty matrices.  A matrix that is not 2-d or
    not finite is the contract's ValueError, decided on the result: a
    finite matrix pays no scan of its entries."""
    m = np.asarray(m)
    if m.ndim != 2:
        _matrix(m, "matrix")
    if m.size == 0:
        return 0.0
    try:
        top = float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError:
        _matrix(m, "matrix")
        raise
    if not math.isfinite(top):
        _matrix(m, "matrix")
    return top


def _matrix(m, what: str, square: bool = False) -> np.ndarray:
    """``m`` as a complex 2-d array with finite entries, square when
    ``square`` is set; otherwise a ValueError that names ``what``."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be {'square' if square else '2-d'}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


class Subspace:
    """A subspace of C^n held as an orthonormal coordinate basis.

    ``basis`` is an ``ambient_dim x k`` complex matrix with orthonormal
    columns (``k`` may be 0 for the zero subspace).  Instances are
    immutable; the stored array is marked read-only.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis):
        basis = _matrix(basis, "basis")
        if basis.shape[0] != ambient_dim:
            raise ValueError(
                f"basis has {basis.shape[0]} rows for ambient dimension {ambient_dim}"
            )
        k = basis.shape[1]
        if k > ambient_dim:
            raise ValueError(f"basis has {k} columns in ambient dimension {ambient_dim}")
        if k and np.max(np.abs(basis.conj().T @ basis - np.eye(k))) > TOL_ORTHO:
            raise ValueError("basis columns are not orthonormal")
        self._store(ambient_dim, basis)

    def _store(self, ambient_dim: int, basis: np.ndarray):
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _trusted(cls, ambient_dim: int, basis) -> "Subspace":
        """A subspace on a basis that is ``ambient_dim`` rows tall with
        orthonormal columns by construction: the same read-only copy as the
        public constructor, without its shape and Gram checks."""
        s = object.__new__(cls)
        s._store(ambient_dim, np.asarray(basis, dtype=complex))
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_span(cls, columns, ambient_dim: int | None = None) -> "Subspace":
        """Orthonormalize the column span, dropping directions with singular
        value below ``TOL_RANK * sigma_max``."""
        a = _matrix(columns, "columns")
        n = ambient_dim if ambient_dim is not None else a.shape[0]
        if a.shape[0] != n:
            raise ValueError("column length does not match ambient dimension")
        if a.shape[1] == 0:
            return cls.zero(n)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return Subspace._trusted(n, u[:, :_rank(s)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._trusted(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._trusted(ambient_dim, np.eye(ambient_dim, dtype=complex))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, vectors) -> np.ndarray:
        """``P_M v`` for a finite vector of the ambient length, or for each
        column of a finite matrix with ambient rows."""
        v = np.asarray(vectors, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[0] != self.ambient_dim:
            raise ValueError(
                f"vectors must have {self.ambient_dim} rows, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("vectors must be finite")
        return _project(self.basis, v)

    def to_json_dict(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": encode_matrix(self.basis.T)["entries"]}

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


# The scalar operations and the batched kernel meet_join_verdicts share
# the helpers below.  _project and _meet_svd take one basis (n x k) or a
# (P, n, k) stack of them and work slice by slice: a slice of a stacked
# matmul or SVD is bitwise the 2-D call on that slice, so _meet_counts,
# which hands _meet_svd the pairs its values-only SVD cannot settle, reads
# the scalar meet's dimension.  _inside judges one containment residual,
# _insides a stack of them.

def _rank(s):
    """How many of the singular values ``s`` (last axis, largest first)
    exceed ``TOL_RANK`` times the largest."""
    return (s > TOL_RANK * s[..., :1]).sum(-1)


def _project(a, v):
    """``P_A v``, the projection of ``v`` onto the span of the basis ``a``."""
    return a @ (a.conj().swapaxes(-1, -2) @ v)


def _meet_svd(a, b):
    """``(vh, kept)`` from one SVD of ``R = B - P_A B``: the right singular
    vectors, and how many singular values, the sines of the principal
    angles, are at most ``TOL_EQUALS``.  ``A ∧ B`` is spanned by ``B V``
    over the last ``kept`` right singular vectors."""
    _, sines, vh = np.linalg.svd(b - _project(a, b), full_matrices=False)
    return vh, (sines <= TOL_EQUALS).sum(-1)


# Half-width of the band around TOL_EQUALS in which _meet_counts hands a
# pair back to _meet_svd.  Both SVDs are backward stable, so by Weyl their
# sines of one R (||R||_2 <= 1) differ by O(eps); spreads measured on stacks
# of divisor-subspace pairs stayed below 6e-15, and the band is about 4500 eps.
_MEET_BAND = 1e-12


def _meet_counts(a, b):
    """``kept`` of ``_meet_svd`` for each pair of a ``(P, n, ka)`` and a
    ``(P, n, kb)`` stack, from one values-only SVD of the residuals: a pair
    with a sine within ``_MEET_BAND`` of ``TOL_EQUALS`` is counted again by
    ``_meet_svd``, so every count is the scalar ``meet``'s."""
    sines = np.linalg.svd(b - _project(a, b), compute_uv=False)
    kept = (sines <= TOL_EQUALS).sum(-1)
    near = (np.abs(sines - TOL_EQUALS) <= _MEET_BAND).any(-1)
    if near.any():
        kept[near] = _meet_svd(a[near], b[near])[1]
    return kept


def _inside(resid) -> bool:
    """Whether one containment residual ``R`` (n x k) has spectral norm at
    most ``TOL_EQUALS``.

    ``||R||_2 <= ||R||_F <= sqrt(k) ||R||_2``, so the Frobenius norm
    decides every case outside the gap ``(TOL_EQUALS, sqrt(k) TOL_EQUALS]``;
    only there is the SVD taken.
    """
    frob = math.sqrt(np.vdot(resid, resid).real)
    if frob <= TOL_EQUALS:
        return True
    if frob > math.sqrt(resid.shape[1]) * TOL_EQUALS:
        return False
    return op_norm(resid) <= TOL_EQUALS


def _insides(resid) -> np.ndarray:
    """``_inside`` for each residual of a ``(P, n, k)`` stack with ``k >= 1``:
    the same Frobenius bracket, and one stacked SVD for the residuals in the gap."""
    flat = resid.reshape(len(resid), 1, -1)
    frob = np.sqrt((flat.conj() @ flat.swapaxes(-1, -2)).real.reshape(-1))
    out = frob <= TOL_EQUALS
    gap = ~out & (frob <= math.sqrt(resid.shape[-1]) * TOL_EQUALS)
    if gap.any():
        out[gap] = np.linalg.svd(resid[gap], compute_uv=False)[:, 0] <= TOL_EQUALS
    return out


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed span of the union: the left singular vectors of ``[A B]``
    whose singular values exceed ``_JOIN_CUT``."""
    _check_same_ambient(a, b)
    u, s, _ = np.linalg.svd(np.concatenate([a.basis, b.basis], axis=1), full_matrices=False)
    return Subspace._trusted(a.ambient_dim, u[:, :(s > _JOIN_CUT).sum()])


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection from one SVD: the directions of ``b`` whose principal
    angle to ``a`` is at most ``TOL_EQUALS`` (``_meet_svd``)."""
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    vh, kept = _meet_svd(a.basis, b.basis)
    return Subspace._trusted(a.ambient_dim, b.basis @ vh[vh.shape[0] - kept:].conj().T)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff ``b`` lies inside ``a``: the residual ``R = B - P_A B`` of
    ``b``'s basis has spectral norm at most ``TOL_EQUALS`` (decided by
    ``_inside``, with an SVD only where the Frobenius norm cannot)."""
    _check_same_ambient(a, b)
    if b.dim == 0:
        return True
    return _inside(b.basis - _project(a.basis, b.basis))


def equals(a: Subspace, b: Subspace) -> bool:
    """Equal dimension and ``b`` inside ``a``: a larger subspace has a unit
    vector orthogonal to a smaller one, and for equal dimensions
    ``||(I - P_A) P_B|| = ||(I - P_B) P_A|| = sin θ_max``, with equal Frobenius
    norms too (Stewart and Sun, *Matrix Perturbation Theory*, 1990, §I.5;
    Knyazev and Argentati, SIAM J. Sci. Comput. 2002), so one containment decides."""
    _check_same_ambient(a, b)
    return a.dim == b.dim and contains(a, b)


# Pairs per chunk of the meet counts of meet_join_verdicts.  One distributive
# trial on the 256 divisors of 8 simple zeros (32896 pairs, 2 CPUs, values-only
# SVDs) peaked at 63.0, 63.0, 63.4, 65.0 and 72.0 MiB with budgets of 512,
# 1024, 2048 and 4096 pairs and none, and a second trial in the same process
# took 0.16 to 0.21 s at each; a 48-divisor trial (1176 pairs) runs in one
# chunk.
PAIR_BUDGET = 2048


def _stack(members) -> tuple:
    """``(dims, slot, stacks)`` for ``members`` of one ambient dimension:
    ``stacks[d]`` stacks the bases of dimension ``d`` and member ``i`` is
    ``stacks[dims[i]][slot[i]]``.  Members of different ambient dimensions
    are a ValueError."""
    ambients = sorted({m.ambient_dim for m in members})
    if len(ambients) > 1:
        raise ValueError(f"ambient dimension mismatch: {ambients}")
    dims = np.array([m.dim for m in members], dtype=int)
    stacks = {d: np.stack([m.basis for m in members if m.dim == d]) for d in set(dims.tolist())}
    slot = np.zeros(len(members), dtype=int)
    for d, stack in stacks.items():
        slot[dims == d] = np.arange(len(stack))
    return dims, slot, stacks


def _groups(x, y):
    """``(x[i], y[i])`` and the ascending indices ``i`` that share it, for
    each distinct pair of the nonnegative int arrays ``x`` and ``y``, in
    lexicographic order: one stable sort of a combined key."""
    if not len(x):
        return
    key = x * (y.max() + 1) + y
    order = np.argsort(key, kind="stable")
    for p in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        yield (x[p[0]], y[p[0]]), p


def _order(stacked, asked) -> np.ndarray:
    """The ``(D, D)`` order matrix of the members ``_stack`` holds:
    ``leq[e, a]`` is ``contains(members[a], members[e])`` at each pair of
    the index arrays ``(e, a)`` in ``asked``, each distinct pair decided
    once, and False elsewhere.  The zero member lies inside every member,
    none inside one of smaller dimension; the other pairs take
    ``_insides``, stacked by pair of dimensions."""
    dims, slot, stacks = stacked
    leq = np.zeros((len(dims), len(dims)), dtype=bool)
    for e, a in asked:
        leq[e, a] = True
    leq &= dims[:, None] <= dims
    e, a = np.nonzero(leq & (dims[:, None] > 0))
    for (de, da), p in _groups(dims[e], dims[a]):
        x, y = stacks[de][slot[e[p]]], stacks[da][slot[a[p]]]
        leq[e[p], a[p]] = _insides(x - _project(y, x))
    return leq


def meet_join_verdicts(members, rows, cols, lo, hi) -> np.ndarray:
    """For each pair ``p``, whether ``meet(members[rows[p]], members[cols[p]])``
    equals ``members[lo[p]]`` and their ``join`` equals ``members[hi[p]]``.

    With ``A``, ``B`` the pair and ``kept = dim(A ∧ B)`` from ``_meet_counts``
    (one stacked values-only SVD per shape of nonzero pair, and
    ``_meet_svd``, the scalar ``meet``'s, for the pairs with a sine within
    ``_MEET_BAND`` of ``TOL_EQUALS``; 0 with a zero member),
    ``E = A ∧ B`` iff ``dim E = kept``, ``E <= A`` and ``E <= B``, and
    ``F = A ∨ B`` iff ``dim F = dim A + dim B - kept``, ``A <= F`` and
    ``B <= F``, the order from one ``_order`` matrix.  Meet, join and order
    decide at the one scale ``TOL_EQUALS``, so the dimension formula holds
    for ``join``.  No Subspace is built per pair.  Members of different
    ambient dimensions are a ValueError.
    """
    dims, slot, stacks = stacked = _stack(members)
    rows, cols, lo, hi = (np.asarray(x, dtype=int).reshape(-1) for x in (rows, cols, lo, hi))
    kept = np.zeros(len(rows), dtype=int)
    for start in range(0, len(rows), PAIR_BUDGET):
        part = np.arange(start, min(start + PAIR_BUDGET, len(rows)))
        part = part[(dims[rows[part]] > 0) & (dims[cols[part]] > 0)]
        for (ka, kb), q in _groups(dims[rows[part]], dims[cols[part]]):
            p = part[q]
            kept[p] = _meet_counts(stacks[ka][slot[rows[p]]], stacks[kb][slot[cols[p]]])
    sides = ((lo, rows), (lo, cols), (rows, hi), (cols, hi))  # E <= A, E <= B, A <= F, B <= F
    leq = _order(stacked, sides)
    out = (dims[lo] == kept) & (dims[hi] == dims[rows] + dims[cols] - kept)
    for e, a in sides:
        out &= leq[e, a]
    return out


def _label(members: list, s: Subspace) -> int:
    """The index of the first of ``members`` that ``equals`` ``s``; ``s`` is
    appended, and labelled, when none does."""
    for k, member in enumerate(members):
        if equals(member, s):
            return k
    members.append(s)
    return len(members) - 1


def _direct_sum(*blocks) -> np.ndarray:
    """The complex block-diagonal matrix of ``blocks``; 0 x 0 for none."""
    out = np.zeros([sum(d) for d in zip((0, 0), *(b.shape for b in blocks))], dtype=complex)
    r = c = 0
    for b in blocks:
        h, w = b.shape
        out[r:r + h, c:c + w] = b
        r, c = r + h, c + w
    return out


def distance(a: Subspace, b: Subspace) -> float:
    """Projector-gap distance ``|| P_a - P_b ||`` (the sine of the largest
    principal angle for equal dimensions; 1 when dimensions differ)."""
    _check_same_ambient(a, b)
    return op_norm(a.projector() - b.projector())


class InvarianceVerdict(NamedTuple):
    invariant: bool
    residual: float


class TripleVerdict(NamedTuple):
    passed: bool
    residual: float


class LatticeVerdict(NamedTuple):
    passed: bool
    witness: dict | None


def is_invariant(t, m: Subspace) -> InvarianceVerdict:
    """Residual ``||(I - P_M) T P_M||`` and the verdict at ``TOL_INVARIANT * max(1, ||T||)``."""
    t = _matrix(t, "operator", square=True)
    if t.shape[0] != m.ambient_dim:
        raise ValueError("operator size does not match ambient dimension")
    if m.dim == 0:
        return InvarianceVerdict(True, 0.0)
    tb = t @ m.basis
    resid = op_norm(tb - _project(m.basis, tb))
    return InvarianceVerdict(resid <= TOL_INVARIANT * max(1.0, op_norm(t)), resid)


def cyclic_subspace(t, x) -> Subspace:
    """Krylov span ``{x, Tx, T^2 x, ...}``, stopped when the rank stabilizes.

    Raises ValueError unless ``t`` is a finite square matrix and ``x`` a
    finite vector of its size."""
    t = _matrix(t, "operator", square=True)
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.shape[0],):
        raise ValueError(f"vector of shape {x.shape} for an operator of size {t.shape[0]}")
    _matrix(x[None], "vector")
    return _krylov(t, x, max(1.0, op_norm(t)))


def _krylov(t: np.ndarray, x, scale: float) -> Subspace:
    """:func:`cyclic_subspace` of a complex matrix, given ``scale = max(1, ||t||)``."""
    n = t.shape[0]
    x = np.asarray(x, dtype=complex).reshape(n)
    nx = np.linalg.norm(x)
    if nx <= TOL_RANK:
        return Subspace.zero(n)
    basis = np.empty((n, n), dtype=complex)
    basis[:, 0] = x / nx
    k = 1
    while k < n:
        w, prior = t @ basis[:, k - 1], basis[:, :k]
        for _ in range(2):  # reorthogonalize for stability
            w = w - prior @ (prior.conj().T @ w)
        nw = np.linalg.norm(w)
        if nw <= TOL_RANK * scale:
            break
        basis[:, k] = w / nw
        k += 1
    return Subspace._trusted(n, basis[:, :k])


def _modular(l: Subspace, n: Subspace, joined: Subspace, lm: Subspace) -> tuple:
    """``L ∧ (M ∨ N)`` and ``(L ∧ M) ∨ N``, from ``joined = M ∨ N``, ``lm = L ∧ M``;
    it does not check N ⊆ L (``check_modular_triple`` does)."""
    return meet(l, joined), join(lm, n)


def check_modular_triple(l: Subspace, m: Subspace, n: Subspace) -> TripleVerdict:
    """Both sides of ``L ∩ (M ∨ N) = (L ∩ M) ∨ N``; a ValueError unless ``contains(L, N)``."""
    if not contains(l, n):
        raise ValueError("modular-triple precondition violated: N is not contained in L")
    lhs, rhs = _modular(l, n, join(m, n), meet(l, m))
    return TripleVerdict(equals(lhs, rhs), distance(lhs, rhs))


def check_distributive_triple(l: Subspace, m: Subspace, n: Subspace) -> TripleVerdict:
    """Both sides of ``L ∩ (M ∨ N) = (L ∩ M) ∨ (L ∩ N)``."""
    _check_same_ambient(l, m)
    _check_same_ambient(l, n)
    lhs = meet(l, join(m, n))
    rhs = join(meet(l, m), meet(l, n))
    return TripleVerdict(equals(lhs, rhs), distance(lhs, rhs))


class FiniteLattice:
    """A finite lattice given by opaque element labels and a ≤ relation.

    The relation is validated to be a partial order at construction, and
    the meet and join tables are built row by row.  Column ``j`` of
    ``leq & leq[:, [i]]`` marks the common lower bounds of ``(i, j)``; the
    candidate meet is the one of greatest height (the column sum of
    ``leq``, which rises strictly along the order), and the pair has a
    meet iff every common lower bound lies below it, that is, iff their
    count is the candidate's height.  The join is the same rule on
    ``leq.T``.  A pair without a meet or join is a ValueError naming the
    first such pair ``i <= j`` in row-major order.  Builds on products of
    chains took 0.4 ms for 18 elements, 1 ms for 32, 10–25 ms for 128,
    35–85 ms for 256 and 1.7 s for 1024 (2 CPUs, outside load), so
    ``MAX_ELEMENTS`` = 4096 bounds the size but builds slowly.
    """

    MAX_ELEMENTS = 4096

    def __init__(self, labels, leq):
        labels = tuple(labels)
        leq = np.asarray(leq, dtype=bool)
        n = len(labels)
        if n > self.MAX_ELEMENTS:
            raise ValueError(f"lattice size {n} exceeds cap {self.MAX_ELEMENTS}")
        if leq.shape != (n, n):
            raise ValueError("leq must be a square boolean matrix matching labels")
        if not np.all(np.diag(leq)):
            raise ValueError("leq is not reflexive")
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise ValueError("leq is not antisymmetric")
        # path counts of at most n <= MAX_ELEMENTS < 2**24 are exact in float32,
        # whose BLAS product runs far faster than an integer one
        steps = leq.astype(np.float32)
        if np.any((steps @ steps > 0) & ~leq):
            raise ValueError("leq is not transitive")
        self.labels = labels
        self.leq = leq.copy()
        self.leq.flags.writeable = False
        self._meet = np.empty((n, n), dtype=np.int64)
        self._join = np.empty((n, n), dtype=np.int64)
        sides = []
        for table, order in ((self._meet, leq), (self._join, leq.T)):
            height = order.sum(0)
            rank = np.argsort(-height, kind="stable")  # greatest height first
            sides.append((table, order[rank], rank, height))
        for i in range(n):
            holds = []
            for table, ranked, rank, height in sides:
                common = ranked[:, i:] & ranked[:, [i]]  # bounds of i and i + c, by rank
                table[i, i:] = table[i:, i] = best = rank[common.argmax(0)]
                count = common.sum(0)
                holds += [count > 0, count == height[best]]
            fails = ~np.array(holds)
            if fails.any():
                c = np.flatnonzero(fails.any(0))[0]
                fault = ("have no common lower bound", "do not have a unique meet",
                         "have no common upper bound", "do not have a unique join")
                raise ValueError(f"elements {i}, {i + c} {fault[fails[:, c].argmax()]}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def meet_of(self, i: int, j: int) -> int:
        return int(self._meet[i, j])

    def join_of(self, i: int, j: int) -> int:
        return int(self._join[i, j])

    @classmethod
    def pentagon(cls) -> "FiniteLattice":
        """N5: 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c."""
        leq = np.eye(5, dtype=bool)
        leq[0, :] = leq[:, 4] = leq[1, 3] = True
        return cls(("0", "a", "b", "c", "1"), leq)

    @classmethod
    def diamond(cls) -> "FiniteLattice":
        """M3: three pairwise-incomparable atoms between 0 and 1."""
        leq = np.eye(5, dtype=bool)
        leq[0, :] = leq[:, 4] = True
        return cls(("0", "a", "b", "c", "1"), leq)

    @classmethod
    def from_subspaces(cls, subspaces):
        """Close a list of subspaces under meet and join, then build the lattice.

        Returns ``(lattice, elements)`` where ``elements[i]`` is the
        :class:`Subspace` behind label ``i``.  Identification of computed
        meets/joins with existing elements uses :func:`equals`; the order
        is one ``_order`` matrix over all pairs, the :func:`contains` verdicts.
        """
        elements: list[Subspace] = []
        for s in subspaces:
            _label(elements, s)
        if not elements:
            raise ValueError("cannot build a lattice from no subspaces")
        # each round pairs every element with the ones the last round added
        start = 0
        while start < len(elements):
            end = len(elements)
            for i in range(end):
                for j in range(max(i, start), end):
                    for combo in (meet(elements[i], elements[j]), join(elements[i], elements[j])):
                        if _label(elements, combo) >= cls.MAX_ELEMENTS:
                            raise ValueError(f"lattice closure exceeds cap {cls.MAX_ELEMENTS}")
            start = end
        n = len(elements)
        leq = _order(_stack(elements), [np.indices((n, n))])
        return cls(tuple(range(n)), leq), elements


def law_failures(meet_idx, join_idx, leq=None):
    """Every failing triple ``(l, m, n, lhs, rhs)`` of a lattice law, in
    row-major order, from meet and join index tables.

    With ``leq`` the law is the modular one, ``L ∧ (M ∨ N) = (L ∧ M) ∨ N``
    for ``N ≤ L``; without it the distributive one,
    ``L ∧ (M ∨ N) = (L ∧ M) ∨ (L ∧ N)``.  ``lhs`` and ``rhs`` are the
    indices of the two sides.
    """
    for l in range(len(meet_idx)):
        lhs = meet_idx[l, join_idx]                 # lhs[m, n] = L ∧ (M ∨ N)
        below = meet_idx[l, :]                      # below[m] = L ∧ M
        if leq is None:
            rhs = join_idx[below[:, None], below[None, :]]
            bad = lhs != rhs
        else:
            rhs = join_idx[below, :]
            bad = (lhs != rhs) & leq[:, l][None, :]
        for m, n in np.argwhere(bad):
            yield l, int(m), int(n), int(lhs[m, n]), int(rhs[m, n])


def _first_failure(lat: FiniteLattice, failures) -> LatticeVerdict:
    failure = next(failures, None)
    if failure is None:
        return LatticeVerdict(True, None)
    i, j, k, lhs, rhs = failure
    return LatticeVerdict(
        False,
        {
            "triple": (i, j, k),
            "labels": (lat.labels[i], lat.labels[j], lat.labels[k]),
            "lhs": lat.labels[lhs],
            "rhs": lat.labels[rhs],
        },
    )


def lattice_is_modular(lat: FiniteLattice) -> LatticeVerdict:
    """Exhaustive modular-law check; returns the first violating triple as witness."""
    return _first_failure(lat, law_failures(lat._meet, lat._join, lat.leq))


def lattice_is_distributive(lat: FiniteLattice) -> LatticeVerdict:
    """Exhaustive distributive-law check; returns the first violating triple."""
    return _first_failure(lat, law_failures(lat._meet, lat._join))
