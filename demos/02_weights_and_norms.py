"""Weights w_h(n), Hardy-space and Bergman-space norms.

Compares the closed-form weights of the Gamma-type measures with quadrature,
computes H^p norms by the exact convolution route (even p) and the torus
integral (other p), and A^p norms: by the weights at the support of f^(p/2)
at even p, and by integrating the translated H^p norms over sigma at p = 3.
"""

import numpy as np

import dirspaces as d
from dirspaces.norms import point_eval_sum

mu0 = d.AlphaMeasure(0.0)
mu1 = d.AlphaMeasure(1.0)

print("weights of alpha(0), closed form vs quadrature:")
ns = np.arange(1, 9)
closed = mu0.weights(8)
quad = mu0.weights_by_quadrature(ns)
for n, c, q in zip(ns, closed, quad):
    print(f"  w({n}) = {c:.12f}   quadrature {q:.12f}")

f = d.from_terms({1: 1.0, 2: 1.0}, 64)
print(f"\n||1 + 2^-s||_H2      = {d.norm_h2(f):.6f}  (sqrt 2 = {np.sqrt(2):.6f})")
print(f"||1 + 2^-s||_H4      = {d.norm_hp(f, 4.0):.6f}  (6^(1/4) = {6 ** 0.25:.6f})")
value, stderr = d.qmc_norm_hp(f, 3.0)
print(f"||1 + 2^-s||_H3      = {value:.6f} +- {stderr:.1e}  (torus integral)")

g = d.from_terms({1: 1.0, 2: 0.5}, 2)
for mu in (mu0, mu1):
    a2, a3, a4 = (d.norm_ap(g, p, mu) for p in (2.0, 3.0, 4.0))
    print(f"||1 + 2^-s/2||_Ap[{mu.alpha:g}] at p = 2, 3, 4: {a2:.6f} <= {a3:.6f} <= {a4:.6f}"
          f"  (A^2 by norm_a2 {d.norm_a2(g, mu):.6f}, A^3 by the sigma-integral)")

# point evaluations: the bound S(sigma) for A^1 functionals and the H^p functional norm
for sigma in (2.0, 6.0, 12.0):
    partial, tail = point_eval_sum(mu0, sigma, 4096)
    print(f"S({sigma:g}) = {partial + tail:.6f}  (tail bound {tail:.1e})")
print("||delta_2||_{H^2*} =", f"{d.point_eval_norm_hp(2.0, 2.0).value:.6f}",
      f"(zeta(4)^(1/2) = {d.zeta(4.0) ** 0.5:.6f})")
