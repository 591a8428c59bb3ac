"""
Model spaces and the compressed shift
=====================================

For a finite Blaschke product theta of degree d, the model space
H^2 (-) theta H^2 is d-dimensional.  In its Takenaka-Malmquist basis the
compressed shift is an exact, closed-form lower-triangular matrix with
theta's zeros on the diagonal.  Uniform quadrature on the circle is used
only for inner products of functions given by their values, such as the
Gram matrix check below.
"""

import numpy as np

from c0lat import BlaschkeProduct, ModelSpace, compressed_shift, monomial
from c0lat.calculus import apply_blaschke

# The simplest case: theta = z^2 gives the 2x2 nilpotent Jordan block.
op = compressed_shift(monomial(2))
print("S(z^2) =")
print(np.round(op.matrix.real, 12))

# A mixed symbol: a double zero and two simple ones.
theta = BlaschkeProduct(((0.5 + 0j, 2), (-0.3 + 0.2j, 1), (0.1 - 0.6j, 1)))
space = ModelSpace(theta)
print("\ndegree:", theta.degree, " quadrature nodes:", space.quadrature_points)

# The basis is orthonormal under the grid inner product.
gram = np.array(
    [
        [space.inner_product([int(i == k) for k in range(space.dim)],
                             [int(j == k) for k in range(space.dim)])
         for j in range(space.dim)]
        for i in range(space.dim)
    ]
)
print("Gram deviation from identity:", np.max(np.abs(gram - np.eye(space.dim))))

# Lower triangular, zeros on the diagonal.
s = compressed_shift(theta)
print("diagonal:", np.round(np.diag(s.matrix), 6))
print("above-diagonal mass:", np.max(np.abs(np.triu(s.matrix, 1))))

# The symbol annihilates its own shift; no proper divisor comes close.
print("||theta(S)|| =", np.linalg.norm(apply_blaschke(s.matrix, theta), 2))
