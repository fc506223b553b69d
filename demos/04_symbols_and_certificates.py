"""Symbols Phi(s) = c0 s + phi(s) and their admissibility certificates.

Certificates are three-valued: CertifiedYes by coefficient domination,
CertifiedNo by an explicit witness point where the half-plane mapping fails,
or Unknown.  The half-plane lower bound and Schwarz margin quantify how far a
symbol is from the vertical-translation boundary case.
"""

import dirspaces as d
from dirspaces import symbol

examples = [
    ("vertical translation s + 2i", symbol(1, 2j)),
    ("dilation 2s", symbol(2, {})),
    ("s + 1 + (1/2) 2^-s", symbol(1, {1: 1.0, 2: 0.5})),
    ("s + (1/2) 2^-s (refutable)", symbol(1, {2: 0.5})),
    ("constant 1 (c0 = 0)", symbol(0, 1.0)),
    ("constant 0.4 (c0 = 0, too small)", symbol(0, 0.4)),
]

for label, sym in examples:
    tau = d.is_vertical_translation(sym)
    if sym.c0 >= 1:
        cert = d.check_theorem1(sym)
    else:
        cert = d.check_theorem2(sym)
    line = f"{label:38s} -> {cert.verdict.value:12s} (method {cert.method})"
    if tau is not None:
        line += f"  [translation tau = {tau:g}]"
    if cert.witness is not None:
        line += f"  witness {cert.witness:.4f}"
    print(line)

print()
sym = symbol(2, {2: 1.0})
for eps in (0.0, 0.25, 1.0):
    print(f"half-plane lower bound of Re Phi - c0 s on Re s > {eps:g}: "
          f"{d.halfplane_lower_bound(sym, eps):.4f}")
print(f"Schwarz margin at sigma = 1, s = 1: {d.schwarz_margin(sym, 1.0, 1.0):.4f}")
res = d.lemma1_region(sym)
print(f"containment region: status {res.status}, eps = {res.eps}, eta = {res.eta}")
res = d.lemma1_region(symbol(2, {}))
print(f"containment region for 2s: status {res.status}, eps = {res.eps}, "
      f"eta = {res.eta:.2f}")
