"""Finite Blaschke products: evaluation and divisor arithmetic.

A finite Blaschke product is a multiset of zeros in the open unit disk
together with a unimodular constant.  The elementary factor convention is

    b_a(z) = (|a|/a) * (a - z) / (1 - conj(a) * z)    for a != 0,
    b_0(z) = z,

so that b_a(0) = |a| > 0 and the constant sitting in front of a given zero
multiset is canonical.  Divisibility, gcd and lcm reduce to multiset
arithmetic on the zeros; two products are *equivalent* when their zero
multisets agree, i.e. when they differ by a unimodular constant only.

Zero equality is exact complex equality: nearby-but-distinct zeros are
never merged, because silent merging corrupts divisibility.  Code that
compares products coming out of two independent numerical computations
should use :func:`almost_equiv` instead of :func:`equiv`; it asks for a
one-to-one matching of the two zero sequences with every pair within a
tolerance, decided by augmenting paths on the within-tolerance pairs.
"""

import itertools
import json
import numbers
from dataclasses import dataclass

__all__ = [
    "DEGREE_CAP",
    "BlaschkeProduct",
    "DegreeCapError",
    "NotADivisorError",
    "UnitDiskPoint",
    "almost_equiv",
    "divide",
    "divides",
    "divisor_count",
    "divisors",
    "elementary",
    "equiv",
    "evaluate",
    "gcd",
    "lcm",
    "monomial",
    "multiply",
]

#: Default cap on the total zero count; bounds downstream matrix sizes.
DEGREE_CAP = 64

_UNIT_TOL = 1e-12
_BOUNDARY_TOL = 1e-12


class DegreeCapError(ValueError):
    """Construction would exceed the configured degree cap."""


class NotADivisorError(ValueError):
    """Requested quotient does not exist in the inner-divisor order."""


@dataclass(frozen=True)
class UnitDiskPoint:
    """A point strictly inside the open unit disk.

    Rejected at construction unless ``|value| < 1 - 1e-12`` (so NaN is
    rejected); zeros that close to the boundary are numerically
    indistinguishable from boundary points.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not abs(v) < 1.0 - _UNIT_TOL:
            raise ValueError(
                f"unit-disk point must satisfy |z| < 1 - {_UNIT_TOL:g}; got |z| = {abs(v):.17g}"
            )
        object.__setattr__(self, "value", v)


def _json_field(data, key: str, kind, payload: str, path: str = ""):
    """``data[key]`` from the object at ``path`` of a decoded JSON
    ``payload``, checked to be a ``kind``: ``dict``, ``list``, ``int`` or
    ``float`` (any JSON number, returned as a float); a boolean is neither
    number.  A missing or mistyped field is a ValueError naming it."""
    if not isinstance(data, dict):
        where = f"{payload}: {path}" if path else payload
        raise ValueError(f"{where} must be a JSON object; got {json.dumps(data)}")
    field = f"{path}.{key}" if path else key
    if key not in data:
        raise ValueError(f"{payload} has no field {field}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        wanted = {dict: "an object", list: "a list", int: "an integer", float: "a number"}[kind]
        raise ValueError(f"{payload}: {field} must be {wanted}; got {json.dumps(value)}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{payload}: {field} is too large for a float") from None
    return value


def _complex_field(data, payload: str, path: str) -> complex:
    """The complex number ``{"re": x, "im": y}`` at ``path`` of ``payload``."""
    return complex(
        _json_field(data, "re", float, payload, path), _json_field(data, "im", float, payload, path)
    )


def _canonical(zm) -> tuple:
    """Sort key of a ``(zero, multiplicity)`` pair: real, then imaginary part."""
    return zm[0].real, zm[0].imag


def _coerce_zeros(zeros):
    """Merge ``(zero, multiplicity)`` pairs into a canonically sorted tuple; a
    zero is a number or a UnitDiskPoint, a multiplicity a positive Python or
    numpy integer, both ``numbers.Integral`` (a bool, float or string is a
    ValueError naming the zero)."""
    counts: dict[complex, int] = {}
    for z, m in zeros:
        z = z.value if isinstance(z, UnitDiskPoint) else complex(z)
        # int first: the ABC check costs several times as much
        integral = isinstance(m, int) or isinstance(m, numbers.Integral)
        if isinstance(m, bool) or not integral or m < 1:
            raise ValueError(f"zero {z}: multiplicity must be a positive integer; got {m!r}")
        UnitDiskPoint(z)  # validates the disk invariant
        counts[z] = counts.get(z, 0) + int(m)
    return tuple(sorted(counts.items(), key=_canonical))


@dataclass(frozen=True)
class BlaschkeProduct:
    """A finite Blaschke product ``constant * prod b_a(z)^mult``.

    ``zeros`` is stored as a tuple of ``(zero, multiplicity)`` pairs in a
    canonical order (lexicographic by real then imaginary part), with exact
    duplicates merged, so structural equality and hashing are well defined.
    ``constant`` must be unimodular.  Degree 0 means a plain constant.
    """

    zeros: tuple = ()
    constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        merged = _coerce_zeros(self.zeros)
        c = complex(self.constant)
        if not abs(abs(c) - 1.0) <= _UNIT_TOL:
            raise ValueError(f"constant must be unimodular; got |c| = {abs(c):.17g}")
        degree = sum(m for _, m in merged)
        if degree > DEGREE_CAP:
            raise DegreeCapError(f"degree {degree} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "zeros", merged)
        object.__setattr__(self, "constant", c)

    @classmethod
    def _trusted(cls, zeros: tuple) -> "BlaschkeProduct":
        """The product with constant 1 on ``(zero, multiplicity)`` pairs that
        are validated, merged and in canonical order already, without
        re-running the coercion and the degree cap."""
        b = object.__new__(cls)
        object.__setattr__(b, "zeros", zeros)
        object.__setattr__(b, "constant", 1.0 + 0.0j)
        return b

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    @property
    def is_constant(self) -> bool:
        return not self.zeros

    def zero_multiset(self) -> dict:
        """Zeros as a ``{zero: multiplicity}`` dict (a fresh copy)."""
        return dict(self.zeros)

    def zero_sequence(self) -> tuple:
        """Zeros repeated by multiplicity, in canonical order."""
        return tuple(z for z, m in self.zeros for _ in range(m))

    def to_json_dict(self) -> dict:
        return {
            "zeros": [
                {"re": z.real, "im": z.imag, "mult": m} for z, m in self.zeros
            ],
            "constant": {"re": self.constant.real, "im": self.constant.imag},
        }

    @classmethod
    def from_json_dict(cls, data) -> "BlaschkeProduct":
        """The product of a ``to_json_dict`` payload; ``constant`` may be
        left out.  A payload of the wrong shape (not an object, a
        non-numeric ``re`` or ``im``, a ``mult`` that is not a JSON
        integer) is a ValueError naming the field."""
        payload = "Blaschke payload"
        zeros = tuple(
            (
                _complex_field(item, payload, f"zeros[{k}]"),
                _json_field(item, "mult", int, payload, f"zeros[{k}]"),
            )
            for k, item in enumerate(_json_field(data, "zeros", list, payload))
        )
        if "constant" not in data:
            return cls(zeros)
        return cls(zeros, _complex_field(data["constant"], payload, "constant"))

    def __str__(self):
        if not self.zeros:
            return f"B[{self.constant:.4g}]"
        parts = []
        for z, m in self.zeros:
            head = "z" if z == 0 else f"b({z:.4g})"
            parts.append(head if m == 1 else f"{head}^{m}")
        prefix = "" if self.constant == 1 else f"{self.constant:.4g}*"
        return "B[" + prefix + "*".join(parts) + "]"


def elementary(a, constant=1.0 + 0.0j) -> BlaschkeProduct:
    """The degree-one product with a single zero at ``a``."""
    return BlaschkeProduct(((complex(a), 1),), constant)


def monomial(n: int, constant=1.0 + 0.0j) -> BlaschkeProduct:
    """``z**n``: a zero at the origin with multiplicity ``n`` (``n = 0`` gives a constant)."""
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    return BlaschkeProduct(((0.0 + 0.0j, n),) if n else (), constant)


def evaluate(b: BlaschkeProduct, z):
    """Evaluate ``b`` at a point (or ndarray of points) of the closed disk.

    Raises a domain error unless ``|z| <= 1 + 1e-12`` (so NaN is rejected).
    The result satisfies ``|evaluate(b, z)| <= 1`` on the closed disk and
    ``= 1`` on the circle, up to roundoff.
    """
    # numpy's complex arithmetic, not Python's: the two differ in the last bits at
    # 16,268 of 20,000 random (product, point) pairs, and the report bytes show it
    import numpy as np

    za = np.asarray(z, dtype=complex)
    if not np.all(np.abs(za) <= 1.0 + _BOUNDARY_TOL):
        worst = float(np.max(np.abs(za)))
        raise ValueError(f"evaluation point outside the closed disk: |z| = {worst:.17g}")
    out = np.full_like(za, b.constant)
    for a, m in b.zeros:
        if a == 0:
            factor = za
        else:
            factor = (abs(a) / a) * (a - za) / (1.0 - np.conj(a) * za)
        out = out * factor**m
    if za.ndim == 0:
        return complex(out)
    return out


def multiply(b1: BlaschkeProduct, b2: BlaschkeProduct) -> BlaschkeProduct:
    """Product: multiset union of zeros, product of constants.  Degree is additive."""
    return BlaschkeProduct(b1.zeros + b2.zeros, b1.constant * b2.constant)


def divides(b1: BlaschkeProduct, b2: BlaschkeProduct) -> bool:
    """True iff the zero multiset of ``b1`` is contained in that of ``b2``.

    Constants are ignored: units divide everything.
    """
    big = b2.zero_multiset()
    return all(big.get(z, 0) >= m for z, m in b1.zeros)


def gcd(b1: BlaschkeProduct, b2: BlaschkeProduct) -> BlaschkeProduct:
    """Greatest common inner divisor: pointwise minimum of multiplicities, constant 1."""
    other = b2.zero_multiset()
    # a subsequence of b1's canonical zeros, of degree at most b1's
    zeros = tuple(
        (z, min(m, other[z])) for z, m in b1.zeros if other.get(z, 0) > 0
    )
    return BlaschkeProduct._trusted(zeros)


def lcm(b1: BlaschkeProduct, b2: BlaschkeProduct) -> BlaschkeProduct:
    """Least common inner multiple: pointwise maximum of multiplicities, constant 1.

    Raises :class:`DegreeCapError` when that degree exceeds ``DEGREE_CAP``.
    """
    counts = b1.zero_multiset()
    for z, m in b2.zeros:
        counts[z] = max(counts.get(z, 0), m)
    degree = sum(counts.values())
    if degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    return BlaschkeProduct._trusted(tuple(sorted(counts.items(), key=_canonical)))


def equiv(b1: BlaschkeProduct, b2: BlaschkeProduct) -> bool:
    """Equality up to a unimodular constant: exact zero-multiset equality."""
    return b1.zeros == b2.zeros


def divide(numerator: BlaschkeProduct, divisor: BlaschkeProduct) -> BlaschkeProduct:
    """Quotient ``phi`` with ``divisor * phi == numerator`` (exactly, constants included).

    Raises :class:`NotADivisorError` when ``divisor`` does not divide
    ``numerator``.
    """
    if not divides(divisor, numerator):
        raise NotADivisorError(f"{divisor} does not divide {numerator}")
    counts = numerator.zero_multiset()
    for z, m in divisor.zeros:
        counts[z] -= m
    zeros = tuple((z, m) for z, m in counts.items() if m > 0)
    return BlaschkeProduct(zeros, numerator.constant / divisor.constant)


def almost_equiv(b1: BlaschkeProduct, b2: BlaschkeProduct, tol: float = 1e-7) -> bool:
    """Numerical equivalence: same degree and a one-to-one matching of the two
    zero sequences with every matched pair within ``tol``.

    This is the comparison to use across independent numerical computations,
    where :func:`equiv`'s exact complex equality is too strict.
    """
    s1, s2 = b1.zero_sequence(), b2.zero_sequence()
    if len(s1) != len(s2):
        return False
    # abs of a complex difference is hypot, as numpy's abs is
    return _has_perfect_matching([[abs(a - b) <= tol for b in s2] for a in s1])


def _has_perfect_matching(adjacent) -> bool:
    """Whether the square boolean matrix ``adjacent``, a list of rows (rows
    against columns), admits a perfect matching.

    Kuhn's augmenting paths: each row in turn takes a free column, or one
    whose row can move to another.  A path visits each column at most once,
    so the recursion is at most ``DEGREE_CAP`` deep.
    """
    neighbours = [[j for j, near in enumerate(row) if near] for row in adjacent]
    row_of = [-1] * len(neighbours)  # the row matched to each column

    def try_row(i, seen):
        for j in neighbours[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] < 0 or try_row(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    return all(try_row(i, set()) for i in range(len(neighbours)))


def divisor_count(b: BlaschkeProduct) -> int:
    """Number of inner divisors of ``b``: the product of (multiplicity + 1)."""
    count = 1
    for _, m in b.zeros:
        count *= m + 1
    return count


def divisors(b: BlaschkeProduct):
    """All inner divisors of ``b`` (constant 1), sorted by degree then zeros;
    callers cap the count through :func:`divisor_count` first."""
    points = [z for z, _ in b.zeros]
    ranges = [range(m + 1) for _, m in b.zeros]
    out = []
    for mults in itertools.product(*ranges):
        zeros = tuple((z, m) for z, m in zip(points, mults) if m > 0)
        out.append(BlaschkeProduct(zeros))
    out.sort(key=lambda d: (d.degree, tuple((z.real, z.imag, m) for z, m in d.zeros)))
    return out
