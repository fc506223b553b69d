"""Truncated Dirichlet series arithmetic and the Bohr correspondence.

A series sum a_n n^{-s} is stored as its coefficient vector a_1..a_N.
Coefficients beyond the truncation N are unknown, never assumed zero,
unless the series carries the `exact` flag marking a genuine Dirichlet
polynomial.  All operations are pure; results are immutable.

The Bohr lift of a polynomial is held as arrays from one factorization of
its support: the indices, their exponent rows over the primes that occur,
those primes and the coefficients.  It is the only place in the package
that factorizes a support; the torus norms and the block structure of the
finite section both read it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .primes import factorize


def _size(n, what: str = "truncation", least: int = 1) -> int:
    """n as an int: every size and index is an integer >= 1 (>= least)."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {n!r}") from None
    if n < least:
        raise InvalidInputError(f"{what} must be >= {least}")
    return n


def _finite_point(s, what: str = "s") -> complex:
    """complex(s), refused unless both of its parts are finite."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidInputError(f"{what} must be a finite point, got {s!r}")
    return s


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
        n = _size(n, "index")
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
    """Bohr lift of a Dirichlet polynomial: the term c n^{-s} with
    n = prod p_j^{e_j} becomes c z^e on the polytorus.

    `indices` is the support, ascending; row i of the (terms, k) int64 matrix
    `exponents` holds the exponents of indices[i] over `primes`, the k primes
    that divide some index, ascending; `coeffs` holds the coefficients.
    """

    indices: np.ndarray
    exponents: np.ndarray
    primes: np.ndarray
    coeffs: np.ndarray


def from_terms(terms: dict[int, complex], N: int) -> DirichletSeries:
    """Exact polynomial with the given index -> coefficient map, truncated at N."""
    N = _size(N)
    try:
        coeffs = np.zeros(N, dtype=np.complex128)
    except (ValueError, MemoryError) as e:  # past numpy's largest dimension, or the memory
        raise InvalidInputError(f"truncation {N} cannot be allocated: {e}") from None
    for n, c in terms.items():
        n = _size(n, "index")
        if n > N:
            raise InvalidInputError(f"index {n} exceeds truncation {N}")
        coeffs[n - 1] = c
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("coefficients must be finite")
    return DirichletSeries(coeffs, exact=True)


def one(N: int) -> DirichletSeries:
    return from_terms({1: 1.0}, N)


def linear(f: DirichletSeries, g: DirichletSeries, a: complex = 1.0, b: complex = 1.0) -> DirichletSeries:
    """Coefficientwise a*f + b*g up to the minimum truncation."""
    N = min(f.truncation, g.truncation)
    return DirichletSeries(a * f.coeffs[:N] + b * g.coeffs[:N], exact=f.exact and g.exact)


def multiply(f: DirichletSeries, g: DirichletSeries, N: int | None = None) -> DirichletSeries:
    """Dirichlet convolution: coefficient at n is sum over d|n of f_d g_{n/d}."""
    N = min(f.truncation, g.truncation) if N is None else _size(N)
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
    """f convolved with itself q times (q >= 0): f padded to N, then q - 1
    convolutions with it."""
    q = _size(q, "exponent", least=0)
    N = f.truncation if N is None else _size(N)
    if q == 0:
        return one(N)
    base = DirichletSeries(_padded(f, N), exact=f.exact)
    out = base
    for _ in range(q - 1):
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


# a - b is a + (-b) exactly, and x * -0.0 is -(x * 0.0)
_MINUS_PLUS = np.array([-1.0, 1.0])
_ZERO_MINUS_ZERO = np.array([0.0, -0.0])


@functools.lru_cache(maxsize=128)
def _exp_plan(support: tuple[int, ...], N: int):
    """The schedule of the exp recurrence up to N for supp(f) = `support`
    (sorted, all >= 2): (idx, log_d, waves).

    `idx` holds the indices 1..N that the multiplicative semigroup generated
    by `support` reaches, 1 first and ascending; every other coefficient of
    exp(f) is exactly 0.  `log_d` is log d for each d in `support`.  With
    b = min(support), an index in (b^{j-1}, b^j] only divides down to
    indices <= b^{j-1}, so one wave computes all of them from the earlier
    waves.  A wave (lo, hi, src, slot, inv_log) fills rows lo..hi-1 of idx,
    where inv_log is 1 / log idx[row].  src and slot are (ranks, hi - lo):
    at rank r, row i reads row src[r, i] at support slot slot[r, i], for
    the r-th smallest d in `support` dividing idx[lo + i].  A quotient that
    the semigroup does not reach reads row len(idx), which stays zero, and a
    row with fewer divisors pads with that row at slot len(support), whose
    coefficient is zero.
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
    idx = np.array(sorted(found), dtype=np.int64)
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    zero_row = idx.size
    row_of = np.full(N + 1, zero_row, dtype=np.int64)
    row_of[idx] = np.arange(idx.size)
    waves = []
    lo, top = 1, support[0] if support else N
    while lo < idx.size:
        hi = int(np.searchsorted(idx, top, side="right"))
        n = idx[lo:hi]
        src = np.full((len(support), n.size), zero_row, dtype=np.int64)
        slot = np.full((len(support), n.size), len(support), dtype=np.int64)
        rank = np.zeros(n.size, dtype=np.int64)
        for j, d in enumerate(support):
            hit = np.flatnonzero(n % d == 0)
            src[rank[hit], hit] = row_of[n[hit] // d]
            slot[rank[hit], hit] = j
            rank[hit] += 1
        inv_log = 1.0 / logs[n - 1, None, None]
        for arr in (src, slot, inv_log):
            arr.setflags(write=False)  # the cache shares them with every call
        waves.append((lo, hi, src[: rank.max()], slot[: rank.max()], inv_log))
        lo, top = hi, top * support[0]
    log_d = logs[np.asarray(support, dtype=np.int64) - 1, None]
    idx.setflags(write=False)  # exp(..., t=...) returns it
    log_d.setflags(write=False)
    return idx, log_d, tuple(waves)


def exp(f: DirichletSeries, N: int | None = None, t=None):
    """Exponential of a series with no constant term.

    Since supp(f) is contained in {2, 3, ...}, supp(f^m) lies above 2^m and
    the exponential series is finite up to any truncation.  Computed by the
    logarithmic-derivative recurrence
        g_n log n = sum over d|n, d>1 of f_d log d g_{n/d},  g_1 = 1,
    which is exact up to N for exact f.  Only indices in the multiplicative
    semigroup generated by supp(f) can be nonzero, so the recurrence visits
    only those, and each sums only over the d in supp(f) dividing it.

    With `t`, a 1-d array of reals, one pass of the recurrence computes the
    whole family exp(t_i f) and returns (idx, G): the reached indices (1
    first, ascending) and G[r, i], the coefficient of exp(t_i f) at idx[r].
    `N` may then be one truncation per member, a sequence as long as `t` in
    any order.  The recurrence runs up to the largest, and each wave only
    over the members whose truncation reaches its first index: a member's
    column is exact at every index up to its truncation, and zero from the
    first wave that starts past it.  Without `t` the result is exp(f) as a
    series, from the same loop with t = (1,).  The complex products are
    written out in real arithmetic, in the order numpy's scalar complex
    arithmetic takes, so each column is bitwise the scalar recurrence of
    t_i f, whatever the other members and their truncations.
    """
    if f.coeff(1) != 0:
        raise InvalidInputError("exp requires a zero constant term; factor it out first")
    ts = np.ones(1) if t is None else np.asarray(t, dtype=np.float64)
    if ts.ndim != 1:
        raise InvalidInputError("t must be a 1-d array of reals")
    tops = None
    if np.ndim(N):
        tops = np.asarray(N)
        if tops.size and tops.dtype.kind not in "iu":  # a float, or an int past int64
            raise InvalidInputError(f"each truncation must be an integer, got {N!r}")
        tops = tops.astype(np.int64, copy=False)  # a uint past int64 turns negative
        if t is None or tops.shape != ts.shape or not tops.size or tops.min() < 1:
            raise InvalidInputError("exp takes one truncation >= 1 per member of t")
        # the members by decreasing truncation, so that each wave's are a prefix
        order = np.argsort(-tops, kind="stable")
        ts, tops, N = ts[order], tops[order], int(tops.max())
    else:
        N = f.truncation if N is None else _size(N)
    fa = _padded(f, N)
    support = tuple(int(i) + 1 for i in np.nonzero(fa)[0])
    idx, log_d, waves = _exp_plan(support, N)
    # each wave serves the members whose truncation reaches its first index
    served = [ts.size] * len(waves)
    if tops is not None:
        firsts = idx[[lo for lo, *_ in waves]]
        served = np.searchsorted(-tops, -firsts, side="right").tolist()
    # (t f_d) log d for each support slot, then a zero slot for padding, as
    # (real, imaginary) pairs on the last axis; g likewise at each reached index
    fd = fa[np.asarray(support, dtype=np.int64) - 1, None]
    tr, ti = ts * fd.real, ts * fd.imag
    a = np.zeros((len(support) + 1, ts.size, 2))
    a[:-1, :, 0] = tr * log_d - ti * 0.0
    a[:-1, :, 1] = tr * 0.0 + ti * log_d
    g = np.zeros((idx.size + 1, ts.size, 2))
    g[0, :, 0] = 1.0  # g_1 = 1; the last row stays 0
    for (lo, hi, src, slot, inv_log), k in zip(waves, served):
        if not k:
            break
        c, q = a[slot, :k], g[src, :k]  # (ranks, rows, members, 2)
        # (c_r q_r - c_i q_i, c_r q_i + c_i q_r) for each divisor, added to 0
        # rank by rank, as numpy reduces over a leading axis
        terms = c[..., :1] * q + c[..., 1:] * q[..., ::-1] * _MINUS_PLUS
        acc = np.add.reduce(terms, axis=0, initial=0.0)
        # numpy's complex division by a real multiplies by its reciprocal
        g[lo:hi, :k] = (acc + acc[..., ::-1] * _ZERO_MINUS_ZERO) * inv_log
    G = g[:-1].view(np.complex128)[..., 0]
    if tops is not None and np.any(np.diff(order) != 1):
        G = G[:, np.argsort(order)]  # back to the members' own order
    if t is not None:
        return idx, G
    out = np.zeros(N, dtype=np.complex128)
    out[idx - 1] = G[:, 0]
    return DirichletSeries(out, exact=f.exact)


def translate(f: DirichletSeries, sigma: float) -> DirichletSeries:
    """Vertical translate f(sigma + s): coefficient a_n -> a_n n^{-sigma}."""
    if not sigma >= 0:
        raise InvalidInputError("translation requires sigma >= 0")
    n = np.arange(1, f.truncation + 1, dtype=np.float64)
    return DirichletSeries(f.coeffs * n**-sigma, exact=f.exact)


def evaluate(f: DirichletSeries, s: complex) -> complex:
    """Partial sum of a_n n^{-s} over the available coefficients."""
    s = _finite_point(s)
    logs = np.log(np.arange(1, f.truncation + 1, dtype=np.float64))
    return complex(np.sum(f.coeffs * np.exp(-s * logs)))


def bohr_lift(f: DirichletSeries) -> PolytorusPolynomial:
    """Bohr lift: n^{-s} -> z^e via the factorization of n, one per index."""
    if not f.exact:
        raise InvalidInputError("bohr_lift requires an exact polynomial")
    nz = np.flatnonzero(f.coeffs)
    factors = [factorize(int(n) + 1) for n in nz]
    primes = sorted({p for fac in factors for p, _ in fac})
    column = {p: j for j, p in enumerate(primes)}
    exponents = np.zeros((nz.size, len(primes)), dtype=np.int64)
    for i, fac in enumerate(factors):
        for p, e in fac:
            exponents[i, column[p]] = e
    return PolytorusPolynomial(
        indices=nz + 1,
        exponents=exponents,
        primes=np.array(primes, dtype=np.int64),
        coeffs=f.coeffs[nz],
    )


def inverse_lift(poly: PolytorusPolynomial, N: int | None = None) -> DirichletSeries:
    """Drop a polytorus polynomial back to its Dirichlet polynomial: each
    index is rebuilt as prod primes^exponents."""
    indices = np.prod(poly.primes**poly.exponents, axis=1).tolist()
    if N is None:
        N = max(indices, default=1)
    return from_terms(dict(zip(indices, poly.coeffs.tolist())), N)


def to_json(f: DirichletSeries) -> dict:
    """JSON form {"N": int, "exact": bool, "terms": [[n, re, im], ...]} sorted by n."""
    nz = np.nonzero(f.coeffs)[0]
    return {
        "N": f.truncation,
        "exact": bool(f.exact),
        "terms": [[int(i) + 1, float(f.coeffs[i].real), float(f.coeffs[i].imag)] for i in nz],
    }


def _integer(x) -> int:
    if isinstance(x, bool) or int(x) != x:
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def from_json(obj: dict) -> DirichletSeries:
    try:
        terms = {_integer(n): complex(re, im) for n, re, im in obj["terms"]}
        N = _integer(obj.get("N") or max(terms, default=1))
        exact = obj.get("exact", True)
        if not isinstance(exact, bool):
            raise ValueError(f"exact is {exact!r}, not a boolean")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed series JSON: {e}") from e
    f = from_terms(terms, N)
    return f if exact else DirichletSeries(f.coeffs, exact=False)
