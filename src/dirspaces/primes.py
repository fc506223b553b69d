"""Prime tables and factorization helpers.

A smallest-prime-factor sieve is built once and cached, the largest table
asked for so far; `factorize` reads it.  Its one caller in the package is
the Bohr lift (`series.bohr_lift`), which factorizes each index of a
support once.
"""

from __future__ import annotations

import threading

import numpy as np

_SPF_CACHE: dict[int, np.ndarray] = {}
_LOCK = threading.Lock()


def spf_table(n_max: int) -> np.ndarray:
    """Smallest prime factor of every integer up to n_max (spf[1] = 1)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    with _LOCK:
        for key, table in _SPF_CACHE.items():
            if key >= n_max:
                return table
        spf = np.arange(n_max + 1, dtype=np.int64)
        for p in range(2, int(n_max**0.5) + 1):
            if spf[p] == p:  # p prime
                block = spf[p * p :: p]
                np.minimum(block, p, out=block)
        # keep only the largest table around
        _SPF_CACHE.clear()
        _SPF_CACHE[n_max] = spf
        return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, exponent), ...] with p increasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spf = spf_table(n)
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out

