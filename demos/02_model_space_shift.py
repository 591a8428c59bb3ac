"""
Model spaces and the compressed shift
=====================================

For a finite Blaschke product theta of degree d, the model space
H^2 (-) theta H^2 is d-dimensional.  In its Takenaka-Malmquist basis the
compressed shift is an exact, closed-form lower-triangular matrix with
theta's zeros on the diagonal, and each divisor phi of theta gives the
invariant subspace phi H^2 (-) theta H^2 of dimension deg theta - deg phi.
Nothing below touches a quadrature grid.
"""

import numpy as np

from c0lat import BlaschkeProduct, ModelSpace, compressed_shift, elementary, is_invariant, monomial
from c0lat.calculus import apply_blaschke

# The simplest case: theta = z^2 gives the 2x2 nilpotent Jordan block.
op = compressed_shift(monomial(2))
print("S(z^2) =")
print(np.round(op.matrix.real, 12))

# A mixed symbol: a double zero and two simple ones.
theta = BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0.2j, 1), (0.1 - 0.6j, 1)))
space = ModelSpace(theta)
print("\ndegree:", theta.degree)

# S(theta) is a contraction.
s = compressed_shift(theta)
print("||S(theta)||_2 =", np.linalg.norm(s.matrix, 2))

# The divisor b_0.5 gives an invariant subspace of codimension 1.
phi = elementary(0.5 + 0j)
sub = space.divisor_subspace(phi)
print("dim of phi H^2 (-) theta H^2:", sub.dim, "= deg theta - deg phi =", theta.degree - phi.degree)
ok, residual = is_invariant(s.matrix, sub)
print("invariant:", ok, " residual:", residual)

# Lower triangular, zeros on the diagonal.
print("diagonal:", np.round(np.diag(s.matrix), 6))
print("above-diagonal mass:", np.max(np.abs(np.triu(s.matrix, 1))))

# The symbol annihilates its own shift; no proper divisor comes close.
print("||theta(S)|| =", np.linalg.norm(apply_blaschke(s.matrix, theta), 2))
