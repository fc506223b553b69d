"""Reproducing kernels of the weighted Bergman spaces.

The kernel K(s, w) = sum_n n^{-conj(s) - w} / w_h(n) represents point
evaluation: <f, K(s, .)> = f(s) for every polynomial once the truncation
covers the polynomial's support.  The tail of the kernel value is bounded by
integral comparison and reported alongside the partial sum.
"""

import numpy as np

import dirspaces as d

mu = d.AlphaMeasure(0.0)

kv = d.kernel(mu, 1.0, 1.0, 256)
print(f"K(1, 1) = {kv.value.real:.6f} + tail <= {kv.tail:.2e}")

# exact reproduction of a polynomial from the truncated kernel
rng = np.random.default_rng(5)
f = d.from_terms({1: 0.3, 2: -1.2, 6: 0.7 + 0.4j}, 32)
for s in (0.8, 1.5 + 2.0j, 2.5 - 1.0j):
    k = d.kernel_series(mu, s, 32)
    lhs = d.inner_a2(f, k, mu)
    rhs = d.evaluate(f, s)
    print(f"<f, K({s}, .)> = {lhs:.12f}   f({s}) = {rhs:.12f}   "
          f"|diff| = {abs(lhs - rhs):.1e}")

# the kernel series diverges for Re s + Re w at or below the abscissa of the
# measure, 1 + 2 sigma_min with sigma_min the left end of its support (1 here)
print("abscissa of the measure:", mu.abscissa)
try:
    d.kernel(mu, 0.4, 0.5, 64)
except d.DivergenceError as e:
    print("divergence detected as expected:", e)
