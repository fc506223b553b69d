"""Factorization by trial division.

Factorization keeps no state: `factorize` divides by 2 and then by odd p
with p^2 <= n, which takes at most 512 steps up to the CLI's index cap of
2^20.  Its one caller in the package is the Bohr lift (`series.bohr_lift`),
which factorizes each index of a support once.
"""

from __future__ import annotations


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, exponent), ...] with p increasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
