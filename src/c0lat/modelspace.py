"""Model spaces H(theta), their rational orthonormal basis, and the
compressed shift matrix.

For a finite Blaschke product theta with zeros a_1, ..., a_d (repeated by
multiplicity, in canonical order) the space H^2 ⊖ theta H^2 is
d-dimensional and carries the Takenaka-Malmquist basis

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z)
             * prod_{j<k} (z - a_j) / (1 - conj(a_j) z).

In this basis the compressed shift is lower triangular and exact in
closed form: the zeros a_j sit on the diagonal and, below it,

    S[j, k] = d_j d_k prod_{k<i<j} (-conj a_i),    d = sqrt(1 - |a|^2)

(Garcia-Mashreghi-Ross, *Introduction to Model Spaces and their
Operators*, 2016; Nikolski, *Treatise on the Shift Operator*).
``ModelOperator(theta)``, which :func:`compressed_shift` returns, holds this
matrix read-only; it takes theta alone, so it cannot pair theta with any
other matrix.  A divisor subspace phi H^2 ⊖ theta H^2 is the one invariant
subspace of the cyclic S(theta) with spectrum the zeros of theta/phi, so it
comes from one reorder of the triangular S(theta)
(:func:`~c0lat.calculus._spectral_basis`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import blaschke
from .blaschke import BlaschkeProduct
from .calculus import VerificationError, _spectral_basis
from .subspace import FiniteLattice, Subspace

__all__ = [
    "LatticeCapError",
    "ModelOperator",
    "ModelSpace",
    "compressed_shift",
    "divisor_subspace",
    "enumerate_lattice",
]

_QUAD_FLOOR = 64
_QUAD_CAP = 1 << 15


class LatticeCapError(ValueError):
    """Divisor enumeration would exceed the configured cap."""


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


# No computation here uses a quadrature grid.  The benchmark's
# modelspace.grid_points counter still reads ModelSpace.quadrature_points and
# its tests call default_quadrature_points; the benchmark PR (ROADMAP item 4)
# retires both.
def default_quadrature_points(theta: BlaschkeProduct) -> int:
    """Smallest power of two at least max(4d, 64) that pushes rmax^N below
    1e-16 for the largest zero modulus rmax (capped at 2^15)."""
    d = theta.degree
    need = max(4 * d, _QUAD_FLOOR)
    rmax = max((abs(z) for z, _ in theta.zeros), default=0.0)
    if rmax > 0.5:
        need = max(need, int(np.ceil(np.log(1e-16) / np.log(rmax))))
    return min(_next_pow2(need), _QUAD_CAP)


def _shift_matrix(zero_order) -> np.ndarray:
    """The closed-form e-basis matrix of S(theta) for zeros in canonical order."""
    a = np.asarray(zero_order, dtype=complex)
    d = np.sqrt(1.0 - np.abs(a) ** 2)
    s = np.diag(a)
    for k in range(a.size - 1):
        carried = np.cumprod(np.concatenate(([1.0], -np.conj(a[k + 1 : -1]))))
        s[k + 1 :, k] = d[k] * d[k + 1 :] * carried
    return s


class ModelSpace:
    """H(theta) with an explicit orthonormal basis, its compressed shift and
    divisor subspaces."""

    def __init__(self, theta: BlaschkeProduct):
        if theta.degree < 1:
            raise ValueError("model space requires a nonconstant inner function")
        self.theta = theta
        self.zero_order = theta.zero_sequence()
        # S(theta) reversed to upper triangular, the reversal itself, and each
        # zero's first position and multiplicity there (the occurrences of a
        # zero are adjacent in canonical order), built once for every divisor
        self._flipped = _shift_matrix(self.zero_order)[::-1, ::-1]
        self._flipped.flags.writeable = False
        self._flip = np.eye(self.dim, dtype=complex)[::-1]
        self._flip.flags.writeable = False
        self._runs, first = {}, 0
        for z, m in reversed(theta.zeros):
            self._runs[z], first = (first, m), first + m
        self.quadrature_points = default_quadrature_points(theta)

    @property
    def dim(self) -> int:
        return len(self.zero_order)

    def basis_eval(self, k: int, z):
        """Value of e_k (mathematical indexing, 1 <= k <= d) at ``z``."""
        if not 1 <= k <= self.dim:
            raise IndexError(f"basis index {k} outside 1..{self.dim}")
        za = np.asarray(z, dtype=complex)
        if np.any(np.abs(za) > 1.0 + 1e-12):
            raise ValueError("basis evaluation point outside the closed disk")
        *before, a = self.zero_order[:k]
        carried = np.ones_like(za)
        for b in before:
            carried = carried * (za - b) / (1.0 - np.conj(b) * za)
        value = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * za) * carried
        return complex(value) if za.ndim == 0 else value

    def divisor_subspace(self, phi: BlaschkeProduct) -> Subspace:
        """Coordinates of ``phi H^2 ⊖ theta H^2`` inside H(theta): the invariant
        subspace of the reversed, upper triangular S(theta) over the leading
        occurrences of theta/phi's zeros there, so the first k canonical zeros
        give exactly span(e_{k+1}, ..., e_d) with no swap.  theta/phi's
        multiplicities are theta's less phi's; a phi that does not divide
        theta is a :class:`~c0lat.blaschke.NotADivisorError`."""
        if not blaschke.divides(phi, self.theta):
            raise blaschke.NotADivisorError(f"{phi} does not divide {self.theta}")
        taken, runs = dict(phi.zeros), self._runs.items()
        picked = [k for z, (first, m) in runs for k in range(first, first + m - taken.get(z, 0))]
        split = _spectral_basis(self._flipped, self._flip, picked)
        if split is None:
            raise VerificationError(f"could not reorder S(theta) onto the zeros of theta / {phi}")
        return Subspace._trusted(self.dim, split[0])


@dataclass(frozen=True)
class ModelOperator:
    """The compressed shift S(theta) as a read-only matrix in the e-basis,
    M[j, k] = <z e_{k+1}, e_{j+1}>, derived from theta alone."""

    theta: BlaschkeProduct
    matrix: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        # ModelSpace refuses a constant theta and holds S(theta) reversed; the
        # benchmark's modelspace.grid_points counter counts the one built here
        m = ModelSpace(self.theta)._flipped[::-1, ::-1].copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta.to_json_dict(),
            "matrix": [
                [[float(x.real), float(x.imag)] for x in row] for row in self.matrix
            ],
        }


def compressed_shift(theta: BlaschkeProduct) -> ModelOperator:
    """The compressed shift S(theta) in the Takenaka-Malmquist basis."""
    return ModelOperator(theta)


def divisor_subspace(theta: BlaschkeProduct, phi: BlaschkeProduct) -> Subspace:
    """Subspace of H(theta) spanned by ``phi * (basis of H(theta/phi))``."""
    return ModelSpace(theta).divisor_subspace(phi)


def enumerate_lattice(theta: BlaschkeProduct):
    """One ``(divisor, Subspace)`` entry per inner divisor of theta.

    Entries are sorted by divisor degree (so by *reverse* inclusion of the
    subspaces: larger divisors give smaller subspaces).  Raises
    :class:`LatticeCapError` when the divisor count exceeds
    ``FiniteLattice.MAX_ELEMENTS`` (4096).
    """
    count = blaschke.divisor_count(theta)
    cap = FiniteLattice.MAX_ELEMENTS
    if count > cap:
        raise LatticeCapError(f"theta has {count} divisors, exceeding cap {cap}")
    space = ModelSpace(theta)
    return [(phi, space.divisor_subspace(phi)) for phi in blaschke.divisors(theta)]
