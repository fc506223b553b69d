"""The main equivalence, end to end.

For a gallery of symbols, classify() decides Isometry/Invertible/Fredholm
(exactly the vertical translations), NotIsometry (stabilized defect above
threshold), or Inconclusive, and attaches the numeric evidence: isometry
defect, finite-section norm, norm profile, and the contraction lower bound
for c0 = 0 symbols.  A translation's evidence is in closed form, with no
section built: column n is n^{-i tau} e_n, so its defect is exactly 0 and
its section norm 1.  The closing profile takes the numeric route for both
symbols.
"""

import dirspaces as d
from dirspaces import symbol

mu = d.AlphaMeasure(0.0)

gallery = [
    ("s (identity)", symbol(1, {})),
    ("s - 3i", symbol(1, -3j)),
    ("s + 1", symbol(1, 1.0)),
    ("2s", symbol(2, {})),
    ("s + 1 + (1/2) 2^-s", symbol(1, {1: 1.0, 2: 0.5})),
    ("constant 1", symbol(0, 1.0)),
    ("s - 1 (refuted)", symbol(1, -1.0)),
]

for label, sym in gallery:
    rep = d.classify(sym, mu, 32)
    print(f"{label:22s} -> {rep.verdict}")
    if rep.isometry_defect is not None:
        print(f"{'':22s}    defect {rep.isometry_defect:.3e}, "
              f"section norm {rep.contraction_bound:.4f}")
    if rep.prop1 is not None:
        print(f"{'':22s}    norm lower bound {rep.prop1:.4f}")
    for note in rep.notes:
        print(f"{'':22s}    note: {note}")

print("\nnorm profile of 2^{-Phi(sigma+.)} vs the translation reference 2^{-sigma}:")
for label, sym in [("s + 5i", symbol(1, 5j)), ("2s", symbol(2, {}))]:
    pts = d.two_norm_profile(sym, 2.0, [0.25, 0.5, 1.0, 2.0])
    rows = "  ".join(f"{pt.value:.4f}/{pt.reference:.4f}" for pt in pts)
    print(f"  {label:8s} {rows}")
