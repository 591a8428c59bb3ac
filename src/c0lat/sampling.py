"""Seeded random instances for the verification suites.

Everything here is driven by an explicit numpy Generator so that suites
are reproducible from a 64-bit seed.  Invariant subspaces are sampled as
cyclic subspaces of Gaussian vectors, closed under a bounded number of
meet/join compositions, plus leading-column spans of a complex Schur
decomposition (exactly invariant even for defective matrices).
"""

import numpy as np

from .blaschke import BlaschkeProduct
from .subspace import Subspace, _krylov, _matrix, join, meet, op_norm

__all__ = [
    "certifiable_c0",
    "maximality_floor",
    "pseudo_hyperbolic",
    "random_blaschke",
    "random_blaschke_with_divisor_cap",
    "random_contraction",
    "random_divisor",
    "random_structured_c0",
    "random_unit_disk_points",
    "random_unitary",
    "random_well_conditioned",
    "sample_invariant_subspaces",
]


def complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_disk_points(rng, count, radius=0.9, min_separation=0.1):
    """Points in the disk of the given radius, pairwise at least
    ``min_separation`` apart (plain euclidean distance)."""
    points: list[complex] = []
    while len(points) < count:
        z = complex(*rng.uniform(-radius, radius, 2))
        if abs(z) > radius:
            continue
        if all(abs(z - w) >= min_separation for w in points):
            points.append(z)
    return points


def random_blaschke(rng, max_degree=6, radius=0.9, pool=None):
    """A random product of degree 1..max_degree in which zeros may repeat.

    ``pool`` (a list of points) makes several draws share zeros, which keeps
    gcd/lcm interesting.
    """
    degree = int(rng.integers(1, max_degree + 1))
    counts: dict[complex, int] = {}
    remaining = degree
    while remaining > 0:
        if pool is not None:
            z = pool[int(rng.integers(len(pool)))]
        else:
            z = random_unit_disk_points(rng, 1, radius=radius, min_separation=0.0)[0]
        m = 1
        if remaining > 1 and rng.random() < 0.3:
            m = int(rng.integers(2, remaining + 1))
        counts[z] = counts.get(z, 0) + m
        remaining -= m
    constant = np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5 else 1.0
    return BlaschkeProduct(tuple(counts.items()), constant)


def random_blaschke_with_divisor_cap(rng):
    """A random product with at most 12 divisors and zeros of modulus at
    most 0.85.

    The cap comes from the hard-coded multiplicity profiles, a selection of
    those with prod(m_i + 1) <= 12; it is not a parameter.
    """
    profiles = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1), (5, 1)]
    profile = profiles[int(rng.integers(len(profiles)))]
    points = random_unit_disk_points(rng, len(profile), radius=0.85)
    return BlaschkeProduct(tuple(zip(points, profile)))


def random_divisor(rng, theta: BlaschkeProduct) -> BlaschkeProduct:
    """A uniformly random inner divisor (independent multiplicity per zero)."""
    zeros = tuple(
        (z, k) for z, m in theta.zeros if (k := int(rng.integers(0, m + 1))) > 0
    )
    return BlaschkeProduct(zeros)


def random_contraction(rng, n, spectral_radius=0.8, norm_cap=1.0) -> np.ndarray:
    """Scaled Ginibre matrix with spectral radius and norm under the caps."""
    t = complex_gaussian(rng, n, n) / np.sqrt(n)
    rho = np.max(np.abs(np.linalg.eigvals(t)))
    sigma = np.linalg.norm(t, 2)
    scale = min(spectral_radius / max(rho, 1e-12), norm_cap / max(sigma, 1e-12))
    return t * scale


def random_unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_well_conditioned(rng, n, cond_cap=10.0) -> np.ndarray:
    """Invertible matrix with condition number at most ``cond_cap``."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    spread = np.sqrt(rng.uniform(1.0, cond_cap))
    sigmas = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return (u * sigmas) @ v


def pseudo_hyperbolic(a: complex, b: complex) -> float:
    """|a - b| / |1 - conj(a) b|, the disk-automorphism-invariant distance."""
    return abs(a - b) / abs(1.0 - np.conj(a) * b)


def maximality_floor(points_with_mult) -> float:
    """min over points p of prod_{q != p} rho(p, q)^mult_q.

    Lower-bounds the norm of the minimal function divided by one factor at
    p, evaluated at p; spectra below ~1e-3 here are not certifiable by the
    annihilation/maximality checks, so generators keep a margin above it.
    """
    pts = list(points_with_mult)
    if len(pts) <= 1:
        return 1.0
    worst = 1.0
    for p, _ in pts:
        prod = 1.0
        for q, mq in pts:
            if q != p:
                prod *= pseudo_hyperbolic(p, q) ** mq
        worst = min(worst, prod)
    return worst


def random_structured_c0(
    rng,
    n,
    spectral_radius=0.8,
    max_block=3,
    distinct_cap=3,
    derogatory=True,
    return_structure=False,
):
    """C0 matrix with nontrivial Jordan structure: random blocks conjugated
    by a mildly non-normal similarity, then scaled into the disk.

    Distinct eigenvalues are few and at least 0.45 apart, and the
    similarity has condition number at most 3, so the
    annihilation/maximality certificate stays comfortably above its floor.

    With ``derogatory=False`` every block gets its own eigenvalue, so the
    invariant-subspace lattice is finite with well-separated members;
    derogatory spectra carry continuum families of invariant subspaces
    whose mutual angles can be arbitrarily small, which no fixed-threshold
    meet/join verification can decide consistently.  It then draws at most
    4 blocks, so that their eigenvalues still fit 0.45 apart, and
    ``n > 4 * max_block`` is a ValueError.
    """
    if not derogatory and n > 4 * max_block:
        raise ValueError(
            f"a non-derogatory draw has at most 4 blocks of size {max_block}; "
            f"n = {n} exceeds 4 * max_block = {4 * max_block}"
        )
    sizes = []
    while sum(sizes) < n:
        cap = min(max_block, n - sum(sizes))
        floor_size = 1
        if not derogatory:
            # each block is large enough that the rest fits in the blocks left
            floor_size = max(1, int(np.ceil((n - sum(sizes)) / (4 - len(sizes)))))
        sizes.append(int(rng.integers(floor_size, cap + 1)))
    if derogatory:
        distinct = int(rng.integers(1, min(len(sizes), distinct_cap) + 1))
    else:
        distinct = len(sizes)
    points = random_unit_disk_points(
        rng, distinct, radius=0.75 * spectral_radius, min_separation=0.45
    )
    j = np.zeros((n, n), dtype=complex)
    blocks_at: dict[complex, list[int]] = {}
    pos = 0
    for i, size in enumerate(sizes):
        lam = points[i % distinct]
        blocks_at.setdefault(lam, []).append(size)
        for k in range(size):
            j[pos + k, pos + k] = lam
            if k + 1 < size:
                j[pos + k + 1, pos + k] = 0.3
        pos += size
    q = random_well_conditioned(rng, n, cond_cap=3.0)
    t = q @ j @ np.linalg.inv(q)
    rho = np.max(np.abs(np.linalg.eigvals(t)))
    sigma = np.linalg.norm(t, 2)
    scale = min(spectral_radius / max(rho, 1e-12), 0.98 / max(sigma, 1e-12), 1.0)
    if not return_structure:
        return t * scale
    structure = {
        complex(scale * lam): max(blocks) for lam, blocks in blocks_at.items()
    }
    return t * scale, structure


def certifiable_c0(
    rng,
    n,
    structured=False,
    spectral_radius=0.8,
    norm_cap=0.9,
    max_block=3,
    distinct_cap=3,
    derogatory=True,
):
    """A random C0 matrix whose spectrum keeps the maximality certificate
    at or above 3e-3, resampling up to 500 times, then a RuntimeError.
    Unstructured draws fail at n >= 10: n eigenvalues within the default
    radius 0.8 leave it below 3e-3.  It shrinks with the norm cap too
    (pseudo-hyperbolic distances scale roughly linearly); callers that need
    hard scaling should also tighten ``distinct_cap``/``max_block``.
    """
    for _ in range(500):
        if structured:
            t, structure = random_structured_c0(
                rng,
                n,
                spectral_radius=spectral_radius,
                max_block=max_block,
                distinct_cap=distinct_cap,
                derogatory=derogatory,
                return_structure=True,
            )
            extra = min(1.0, norm_cap / max(np.linalg.norm(t, 2), 1e-12))
            t = t * extra
            points = [(lam * extra, mult) for lam, mult in structure.items()]
        else:
            t = random_contraction(rng, n, spectral_radius=spectral_radius, norm_cap=norm_cap)
            points = [(complex(lam), 1) for lam in np.linalg.eigvals(t)]
        if maximality_floor(points) >= 3e-3:
            return t
    raise RuntimeError(f"could not draw a certifiable C0 spectrum of size {n} (maximality floor 3e-3)")


def _schur_prefixes(t: np.ndarray) -> list[np.ndarray]:
    import scipy.linalg

    schur_t, z = scipy.linalg.schur(t, output="complex")
    return [z[:, :k] for k in range(1, t.shape[0])]


def sample_invariant_subspaces(t, count, rng) -> list[Subspace]:
    """A pool of invariant subspaces for ``t``: the zero and full subspaces,
    then ``count`` more.

    Mix of: cyclic subspaces of Gaussian vectors, meets/joins of earlier
    pool members (composition depth capped at 3), and Schur leading-column
    spans.
    """
    t = _matrix(t, "operator", square=True)
    n = t.shape[0]
    prefixes = _schur_prefixes(t) if n > 1 else []
    scale = max(1.0, op_norm(t))  # the Krylov stopping scale of every draw
    pool = [Subspace.zero(n), Subspace.full(n)]
    depth = [0, 0]
    while len(pool) < count + 2:
        kind = rng.random()
        if kind < 0.5:
            s = _krylov(t, complex_gaussian(rng, n), scale)
            d = 0
        elif kind < 0.65 and prefixes:
            s = Subspace._trusted(n, prefixes[int(rng.integers(len(prefixes)))])
            d = 0
        else:
            i, j = rng.integers(len(pool)), rng.integers(len(pool))
            if depth[i] + depth[j] >= 3:
                continue
            op = meet if rng.random() < 0.5 else join
            s = op(pool[i], pool[j])
            d = depth[i] + depth[j] + 1
        pool.append(s)
        depth.append(d)
    return pool
