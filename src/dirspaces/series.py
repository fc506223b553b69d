"""Truncated Dirichlet series arithmetic and the Bohr correspondence.

A series sum a_n n^{-s} is stored as its coefficient vector a_1..a_N.
Coefficients beyond the truncation N are unknown, never assumed zero,
unless the series carries the `exact` flag marking a genuine Dirichlet
polynomial.  All operations are pure; results are immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .primes import factorize, primes_upto, spf_table

BohrMonomial = tuple[int, ...]  # exponents over the first k primes


@dataclass(frozen=True)
class DirichletSeries:
    """Coefficients a_1..a_N of sum a_n n^{-s}; index 1 is the constant term."""

    coeffs: np.ndarray
    exact: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("coefficient vector must be 1-d and nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation(self) -> int:
        return self.coeffs.size

    @property
    def degree(self) -> int:
        """Largest index with a nonzero coefficient (1 for the zero series)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) + 1 if nz.size else 1

    def coeff(self, n: int) -> complex:
        if n < 1:
            raise InvalidInputError(f"index {n} is invalid, indices start at 1")
        if n > self.truncation:
            if self.exact:
                return 0.0 + 0.0j
            raise InvalidInputError(f"coefficient {n} beyond truncation {self.truncation}")
        return complex(self.coeffs[n - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.truncation == other.truncation
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )


@dataclass(frozen=True)
class PolytorusPolynomial:
    """Bohr lift of a Dirichlet polynomial: monomial multi-index -> coefficient."""

    terms: dict[BohrMonomial, complex] = field(default_factory=dict)
    dimension: int = 0


def from_terms(terms: dict[int, complex], N: int) -> DirichletSeries:
    """Exact polynomial with the given index -> coefficient map, truncated at N."""
    if N < 1:
        raise InvalidInputError("truncation must be >= 1")
    coeffs = np.zeros(N, dtype=np.complex128)
    for n, c in terms.items():
        if n < 1:
            raise InvalidInputError(f"index {n} is invalid, indices start at 1")
        if n > N:
            raise InvalidInputError(f"index {n} exceeds truncation {N}")
        coeffs[n - 1] = c
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("coefficients must be finite")
    return DirichletSeries(coeffs, exact=True)


def zero(N: int) -> DirichletSeries:
    return from_terms({}, N)


def one(N: int) -> DirichletSeries:
    return from_terms({1: 1.0}, N)


def linear(f: DirichletSeries, g: DirichletSeries, a: complex = 1.0, b: complex = 1.0) -> DirichletSeries:
    """Coefficientwise a*f + b*g up to the minimum truncation."""
    N = min(f.truncation, g.truncation)
    return DirichletSeries(a * f.coeffs[:N] + b * g.coeffs[:N], exact=f.exact and g.exact)


def multiply(f: DirichletSeries, g: DirichletSeries, N: int | None = None) -> DirichletSeries:
    """Dirichlet convolution: coefficient at n is sum over d|n of f_d g_{n/d}."""
    if N is None:
        N = min(f.truncation, g.truncation)
    if N > min(f.truncation, g.truncation):
        raise InvalidInputError("requested truncation exceeds operand truncations")
    fa = f.coeffs[:N]
    ga = g.coeffs[:N]
    out = np.zeros(N, dtype=np.complex128)
    for d0 in np.nonzero(fa)[0]:
        d = int(d0) + 1
        m = N // d
        out[d - 1 :: d][:m] += fa[d0] * ga[:m]
    return DirichletSeries(out, exact=f.exact and g.exact)


def power(f: DirichletSeries, q: int, N: int | None = None) -> DirichletSeries:
    """f convolved with itself q times (q >= 0)."""
    if q < 0:
        raise InvalidInputError("exponent must be nonnegative")
    if N is None:
        N = f.truncation
    out = one(N)
    for _ in range(q):
        base = DirichletSeries(_padded(f, N), exact=f.exact)
        out = multiply(out, base, N)
    return out


def _padded(f: DirichletSeries, N: int) -> np.ndarray:
    if f.truncation >= N:
        return f.coeffs[:N]
    if not f.exact:
        raise InvalidInputError("cannot extend a non-exact series beyond its truncation")
    out = np.zeros(N, dtype=np.complex128)
    out[: f.truncation] = f.coeffs
    return out


@functools.lru_cache(maxsize=128)
def _exp_plan(support: tuple[int, ...], N: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Indices 2..N that the multiplicative semigroup generated by `support`
    (sorted, all >= 2) reaches, ascending, each with the elements of
    `support` that divide it, ascending.

    Every other coefficient of exp(f) with supp(f) = support is exactly 0.
    """
    reach = [False] * (N + 1)
    reach[1] = True
    found = [1]
    for r in found:  # grows while it is walked: breadth-first over products
        for d in support:
            m = r * d
            if m > N:
                break
            if not reach[m]:
                reach[m] = True
                found.append(m)
    divisors: dict[int, list[int]] = {n: [] for n in sorted(found[1:])}
    for d in support:
        for m in range(d, N + 1, d):
            if reach[m]:
                divisors[m].append(d)
    return tuple((n, tuple(ds)) for n, ds in divisors.items())


def exp(f: DirichletSeries, N: int | None = None) -> DirichletSeries:
    """Exponential of a series with no constant term.

    Since supp(f) is contained in {2, 3, ...}, supp(f^m) lies above 2^m and
    the exponential series is finite up to any truncation.  Computed by the
    logarithmic-derivative recurrence
        g_n log n = sum over d|n, d>1 of f_d log d g_{n/d},  g_1 = 1,
    which is exact up to N for exact f.  Only indices in the multiplicative
    semigroup generated by supp(f) can be nonzero, so the recurrence visits
    only those, and each sums only over the d in supp(f) dividing it.
    """
    if N is None:
        N = f.truncation
    if f.coeff(1) != 0:
        raise InvalidInputError("exp requires a zero constant term; factor it out first")
    fa = _padded(f, N)
    g = np.zeros(N, dtype=np.complex128)
    g[0] = 1.0
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    support = tuple(int(i) + 1 for i in np.nonzero(fa)[0])
    for n, ds in _exp_plan(support, N):
        acc = 0.0 + 0.0j
        for d in ds:
            acc += fa[d - 1] * logs[d - 1] * g[n // d - 1]
        g[n - 1] = acc / logs[n - 1]
    return DirichletSeries(g, exact=f.exact)


def translate(f: DirichletSeries, sigma: float) -> DirichletSeries:
    """Vertical translate f(sigma + s): coefficient a_n -> a_n n^{-sigma}."""
    if sigma < 0:
        raise InvalidInputError("translation requires sigma >= 0")
    n = np.arange(1, f.truncation + 1, dtype=np.float64)
    return DirichletSeries(f.coeffs * n**-sigma, exact=f.exact)


def evaluate(f: DirichletSeries, s: complex) -> complex:
    """Partial sum of a_n n^{-s} over the available coefficients."""
    logs = np.log(np.arange(1, f.truncation + 1, dtype=np.float64))
    return complex(np.sum(f.coeffs * np.exp(-complex(s) * logs)))


def monomial_of_index(n: int) -> BohrMonomial:
    """Prime-exponent multi-index of n over the first k primes (k minimal)."""
    if n < 1:
        raise InvalidInputError("index must be >= 1")
    if n == 1:
        return ()
    fac = factorize(n)
    plist = primes_upto(fac[-1][0])
    pos = {p: i for i, p in enumerate(plist)}
    exps = [0] * len(plist)
    for p, e in fac:
        exps[pos[p]] = e
    return tuple(exps)


def index_of_monomial(mono: BohrMonomial) -> int:
    """Inverse of monomial_of_index: product of p_i^{alpha_i}."""
    if not mono:
        return 1
    plist = primes_upto(_nth_prime_bound(len(mono)))
    n = 1
    for e, p in zip(mono, plist):
        if e < 0:
            raise InvalidInputError("exponents must be nonnegative")
        n *= p**e
    return n


def _nth_prime_bound(k: int) -> int:
    if k < 6:
        return 13
    return int(k * (math.log(k) + math.log(math.log(k)))) + 2


def bohr_lift(f: DirichletSeries) -> PolytorusPolynomial:
    """Bohr lift: n^{-s} -> z_1^{alpha_1} ... z_k^{alpha_k} via the factorization of n."""
    if not f.exact:
        raise InvalidInputError("bohr_lift requires an exact polynomial")
    spf_table(max(f.truncation, 2))  # fill the cache once; factorize reuses it
    raw: dict[BohrMonomial, complex] = {}
    dim = 0
    for n0 in np.nonzero(f.coeffs)[0]:
        n = int(n0) + 1
        mono = monomial_of_index(n)
        raw[mono] = complex(f.coeffs[n0])
        dim = max(dim, len(mono))
    terms = {m + (0,) * (dim - len(m)): c for m, c in raw.items()} if dim else raw
    return PolytorusPolynomial(terms=terms, dimension=dim)


def inverse_lift(poly: PolytorusPolynomial, N: int | None = None) -> DirichletSeries:
    """Drop a polytorus polynomial back to its Dirichlet polynomial."""
    terms = {index_of_monomial(m): c for m, c in poly.terms.items()}
    if N is None:
        N = max(terms, default=1)
    return from_terms(terms, N)


def to_json(f: DirichletSeries) -> dict:
    """JSON form {"N": int, "exact": bool, "terms": [[n, re, im], ...]} sorted by n."""
    nz = np.nonzero(f.coeffs)[0]
    return {
        "N": f.truncation,
        "exact": bool(f.exact),
        "terms": [[int(i) + 1, float(f.coeffs[i].real), float(f.coeffs[i].imag)] for i in nz],
    }


def from_json(obj: dict) -> DirichletSeries:
    try:
        terms = {int(n): complex(re, im) for n, re, im in obj["terms"]}
        N = int(obj.get("N") or max(terms, default=1))
        exact = bool(obj.get("exact", True))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed series JSON: {e}") from e
    f = from_terms(terms, N)
    return f if exact else DirichletSeries(f.coeffs, exact=False)
