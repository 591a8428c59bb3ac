"""H-infinity functional calculus on matrices: polynomials, finite
Blaschke products, C0 classification and minimal functions.

For a matrix with spectral radius < 1 every Blaschke factor is evaluated
in closed form,

    b_a(T) = (|a|/a) (aI - T)(I - conj(a) T)^{-1},      b_0(T) = T,

and the factors commute, so products are order-independent.  A square
matrix is C0 exactly when it is a contraction with spectral radius
strictly below 1 (:func:`is_c0`, a norm-and-spectrum test that needs no
certification).  The minimal function of a C0 matrix is the Blaschke
product over eigenvalue clusters with the largest Jordan block size as
multiplicity; only minimal functions and Jordan models need the certified
:func:`eigenstructure` below.

Eigenvalue clustering is single-linkage over a short ladder of radii,
walked coarse to fine: a backward-stable eigensolver splits a defective
eigenvalue of multiplicity k by roughly eps**(1/k), so defective clusters
must be merged at a coarse radius, while over-merging of genuinely
distinct eigenvalues is rejected by a Jordan-partition consistency check
and by the annihilation/maximality certificate, which then sends the
search to the next finer radius.
"""

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, divide
from .subspace import op_norm

__all__ = [
    "C0Certificate",
    "NotC0Error",
    "SingularResolventError",
    "VerificationError",
    "apply_blaschke",
    "apply_polynomial",
    "classify_c0",
    "eigenstructure",
    "is_c0",
    "minimal_function",
    "radial_validate",
    "spectral_radius",
]

ANNIHILATION_TOL = 1e-7
MAXIMALITY_FLOOR = 1e-3
CLUSTER_LADDER = (3e-3, 1e-4, 1e-6, 1e-8)
_JORDAN_RANK_TOL = 1e-7
_RESOLVENT_CAP = 1e12


class NotC0Error(ValueError):
    """Operation requires a C0 matrix (contraction, spectral radius < 1)."""


class SingularResolventError(ValueError):
    """A resolvent (I - conj(a) T)^{-1} is numerically singular."""


class VerificationError(RuntimeError):
    """Internal certification failed; signals eigenstructure numerical trouble."""


def _as_matrix(t) -> np.ndarray:
    a = np.asarray(t, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class C0Certificate:
    is_c0: bool
    spectral_radius: float
    minimal_function: BlaschkeProduct | None
    annihilation_residual: float

    def to_json_dict(self) -> dict:
        return {
            "is_c0": self.is_c0,
            "spectral_radius": self.spectral_radius,
            "minimal_function": (
                None if self.minimal_function is None else self.minimal_function.to_json_dict()
            ),
            # the residual of a matrix that is not C0 is inf, which JSON lacks
            "annihilation_residual": self.annihilation_residual if self.is_c0 else None,
        }


def spectral_radius(t) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_as_matrix(t))), initial=0.0))


def is_c0(t) -> bool:
    """Contraction (norm <= 1 + 1e-9) with spectral radius < 1 - 1e-9; the
    0x0 matrix is C0."""
    t = _as_matrix(t)
    return t.shape[0] == 0 or (op_norm(t) <= 1.0 + 1e-9 and spectral_radius(t) < 1.0 - 1e-9)


def apply_polynomial(t, coefficients) -> np.ndarray:
    """Horner evaluation of ``sum a_k T^k`` (coefficients in ascending order)."""
    t = _as_matrix(t)
    coeffs = np.asarray(coefficients, dtype=complex).reshape(-1)
    n = t.shape[0]
    if coeffs.size == 0:
        return np.zeros_like(t)
    result = coeffs[-1] * np.eye(n, dtype=complex)
    for a in coeffs[-2::-1]:
        result = result @ t + a * np.eye(n, dtype=complex)
    return result


def _blaschke_factor(t: np.ndarray, a: complex) -> np.ndarray:
    n = t.shape[0]
    eye = np.eye(n, dtype=complex)
    if a == 0 or n == 0:
        return t.copy()
    resolvent_matrix = eye - np.conj(a) * t
    sv = np.linalg.svd(resolvent_matrix, compute_uv=False)
    if sv[-1] <= 0 or 1.0 / sv[-1] > _RESOLVENT_CAP:
        raise SingularResolventError(
            f"resolvent norm exceeds {_RESOLVENT_CAP:g} for factor at {a}"
        )
    return (abs(a) / a) * np.linalg.solve(resolvent_matrix.T, (a * eye - t).T).T


def apply_blaschke(t, b: BlaschkeProduct) -> np.ndarray:
    """Closed-form evaluation of a finite Blaschke product at a matrix.

    Requires spectral radius < 1 so every resolvent exists; raises
    :class:`SingularResolventError` when a resolvent is numerically
    singular.
    """
    t = _as_matrix(t)
    if t.shape[0] and spectral_radius(t) >= 1.0:
        raise NotC0Error("apply_blaschke requires spectral radius < 1")
    return _blaschke_product(t, b, {})


def _blaschke_product(t: np.ndarray, b: BlaschkeProduct, factors: dict) -> np.ndarray:
    """B(T) as the product of the factors b_a(T) in B's zero order, each
    taken from ``factors`` (keyed by zero) or evaluated once into it."""
    out = b.constant * np.eye(t.shape[0], dtype=complex)
    for a, m in b.zeros:
        if a not in factors:
            factors[a] = _blaschke_factor(t, a)
        for _ in range(m):
            out = out @ factors[a]
    return out


def radial_validate(t, b: BlaschkeProduct, r_sequence) -> list[float]:
    """Residuals ``||B(rT) - B(T)||`` for each radius in ``r_sequence``.

    For inner B the residuals decrease to 0 as r -> 1; suites assert the
    decrease (with 10% slack) rather than this function.
    """
    t = _as_matrix(t)
    rs = [float(r) for r in r_sequence]
    if any(not 0.0 < r < 1.0 for r in rs):
        raise ValueError("radii must lie in (0, 1)")
    limit = apply_blaschke(t, b)
    return [float(op_norm(apply_blaschke(r * t, b) - limit)) for r in rs]


def _single_linkage_clusters(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of a nonempty array of eigenvalues: the
    connected components of the graph joining values at most ``radius``
    apart, each as ascending indices, sorted by mean (real part, then
    imaginary part, then smallest index)."""
    near = np.abs(values[:, None] - values[None, :]) <= radius
    # each product doubles the length of the paths closed so far
    while not np.array_equal(reach := near @ near.astype(float) > 0, near):
        near = reach
    clusters = [np.flatnonzero(near[i]) for i in np.unique(near.argmax(axis=1))]
    means = np.array([values[idx].mean() for idx in clusters])
    return [clusters[k] for k in np.lexsort((means.imag, means.real))]


def _spectral_basis(s, q, picked) -> tuple | None:
    """Invariant subspace of T = Q S Q^H (S upper triangular) over the diagonal
    positions ``picked`` of S: ``(V, A)``, V an orthonormal basis and A the
    leading block of the reordered S (T V = V A), from one LAPACK ``ztrsen``
    reorder (Bai and Demmel, LAA 186, 1993); None when the reorder fails."""
    import scipy.linalg

    select = np.zeros(s.shape[0], dtype=np.int32)
    select[picked] = 1
    ts, qs, _, m, _, _, info = scipy.linalg.lapack.ztrsen(select, s, q, job="N")
    return (qs[:, :m], ts[:m, :m]) if info == 0 else None


def _nullity(mat: np.ndarray, scale: float) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv <= _JORDAN_RANK_TOL * max(1.0, scale)))


def _cluster_partition(t: np.ndarray, mean: complex, size: int, scale: float) -> tuple | None:
    """Jordan block sizes at ``mean`` from the nullity sequence of powers at
    ``scale = max(1, ||T||)``, or None when it is inconsistent with algebraic
    multiplicity ``size`` (the signal that the clustering radius was wrong)."""
    n = t.shape[0]
    a = t - mean * np.eye(n, dtype=complex)
    power = np.eye(n, dtype=complex)
    nullities = [0]
    for _ in range(size):
        power = power @ a
        nullities.append(_nullity(power, scale))
        if nullities[-1] == size:
            break
    if nullities[-1] != size:
        return None
    counts = np.diff(nullities)  # counts[j] = number of blocks of size > j
    if np.any(counts <= 0) or np.any(np.diff(counts) > 0):
        return None
    sizes = []
    for j in range(len(counts) - 1, -1, -1):
        extra = counts[j] - (counts[j + 1] if j + 1 < len(counts) else 0)
        sizes.extend([j + 1] * int(extra))
    return tuple(sizes)


def _model_function(structure, j=0) -> BlaschkeProduct:
    """The product of b_lambda to the (j + 1)-th largest block size over the
    clusters of ``structure`` that have one; j = 0 is the minimal function."""
    return BlaschkeProduct(tuple((mean, sizes[j]) for mean, sizes in structure if j < len(sizes)))


def eigenstructure(t) -> list[tuple[complex, tuple]]:
    """Eigenvalue clusters with descending Jordan block sizes.

    Deterministic for a given matrix; used by both the minimal function
    and the Jordan model so the two agree exactly.  Raises
    :class:`NotC0Error`, before the ladder, at spectral radius 1 or more,
    and :class:`VerificationError` when no clustering radius on the ladder
    yields a certified structure; in particular, distinct spectral
    clusters whose pseudo-hyperbolic separation is below the maximality
    floor (1e-3) are not certifiable, by design.  Each factor b_a(T) is
    evaluated once per call, and each product multiplies the shared factors
    in its own zero order, so its bits are :func:`apply_blaschke`'s.
    """
    t = _as_matrix(t)
    n = t.shape[0]
    if n == 0:
        return []
    eig = np.linalg.eigvals(t)
    if np.max(np.abs(eig)) >= 1.0:  # apply_blaschke's guard, on this spectrum
        raise NotC0Error("eigenstructure requires spectral radius < 1")
    scale = max(1.0, op_norm(t))
    factors = {}  # b_a(T) by zero a, shared by every product below
    for radius in CLUSTER_LADDER:
        clusters = _single_linkage_clusters(eig, radius)
        structure = []
        for idx in clusters:
            mean = complex(np.mean(eig[idx]))
            partition = _cluster_partition(t, mean, idx.size, scale)
            if partition is None:
                structure = None
                break
            structure.append((mean, partition))
        if structure is None:
            continue
        candidate = _model_function(structure)
        if op_norm(_blaschke_product(t, candidate, factors)) > ANNIHILATION_TOL * scale:
            continue
        # every maximal proper divisor must leave ||phi(T)|| above the floor
        trimmed = (divide(candidate, BlaschkeProduct(((mean, 1),))) for mean, _ in structure)
        if all(op_norm(_blaschke_product(t, phi, factors)) > MAXIMALITY_FLOOR for phi in trimmed):
            return structure
    raise VerificationError("could not certify an eigenstructure on the clustering ladder")


def minimal_function(t) -> BlaschkeProduct:
    """The inner generator of the annihilator: product of ``b_lambda`` to the
    largest Jordan-block size, over eigenvalue clusters.

    The certification (annihilation at 1e-7, no proper divisor below 1e-3)
    happens inside :func:`eigenstructure`.
    """
    t = _as_matrix(t)
    if not is_c0(t):
        raise NotC0Error(
            f"minimal_function requires a C0 matrix (norm <= 1, spectral radius < 1); "
            f"got norm {op_norm(t):.6g}, radius {spectral_radius(t):.6g}"
        )
    return _model_function(eigenstructure(t))


def classify_c0(t) -> C0Certificate:
    """Contraction with spectrum inside the disk?  If so, attach the minimal
    function and its annihilation residual, from one :func:`eigenstructure`
    call past the C0 test."""
    t = _as_matrix(t)
    radius = spectral_radius(t)
    if not is_c0(t):
        return C0Certificate(False, radius, None, float("inf"))
    mf = _model_function(eigenstructure(t))
    return C0Certificate(True, radius, mf, float(op_norm(_blaschke_product(t, mf, {}))))
