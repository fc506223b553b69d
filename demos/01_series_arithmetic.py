"""Dirichlet polynomial arithmetic and the Bohr lift.

Builds small Dirichlet polynomials, multiplies them (multiplicative
convolution), exponentiates a zero-constant polynomial, and walks a
coefficient vector across the Bohr correspondence to the polytorus and back.
"""

import numpy as np

import dirspaces as d

N = 32

# zeta truncated at N times the truncated Moebius inverse recovers 1 up to N
zeta_trunc = d.from_terms({n: 1.0 for n in range(1, N + 1)}, N)
mobius = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1, 11: -1, 13: -1,
          14: 1, 15: 1, 17: -1, 19: -1, 21: 1, 22: 1, 23: -1, 26: 1, 29: -1,
          30: -1, 31: -1}
mob = d.from_terms({n: float(v) for n, v in mobius.items()}, N)
prod = d.multiply(zeta_trunc, mob, N)
print("zeta * mu coefficients (1..10):", np.round(prod.coeffs[:10].real, 12))

# exp of a polynomial with zero constant term, against its pointwise value
f = d.from_terms({2: 0.5, 3: -0.25}, N)
g = d.exp_series(f, N)
for s in (2.0, 3.0 + 1.0j):
    direct = np.exp(d.evaluate(f, s))
    print(f"exp(f)({s}) = {d.evaluate(g, s):.10f}  (pointwise {direct:.10f})")

# Bohr lift: 12 = 2^2 * 3 becomes the monomial z1^2 z2 over the primes
# (2, 3) that occur; 7^{-s} adds the axis of 7 and no axis for 5.
poly = d.from_terms({1: 1.0, 2: 2.0, 12: -1.0, 7: 0.5j}, N)
lifted = d.bohr_lift(poly)
print("primes of the lift:", lifted.primes.tolist())
for n, row in zip(lifted.indices.tolist(), lifted.exponents.tolist()):
    print(f"  {n:>2} -> exponents {row}")
# inverse_lift rebuilds each index as the product of primes^exponents
back = d.inverse_lift(lifted, N)
print("round trip exact:", np.array_equal(back.coeffs, poly.coeffs))
