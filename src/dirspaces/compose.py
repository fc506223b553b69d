"""The composition operator C_Phi: exact coefficients of f(Phi(s)), its matrix
on the weighted orthonormal basis e_n = n^{-s}/sqrt(w_h(n)) of A^2, and the
Gram-based isometry and contraction diagnostics.

The finite section is held as its nonzero entries, from which the spectrum
is taken block by block.  Truncation is honest: a column only carries
coefficients up to N, so Gram diagonals are lower-biased; basis indices
whose image starts beyond N are omitted entirely rather than zero-padded (a
zero column would fake non-isometry).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericError, TruncationError
from .measures import Measure, measure_tag
from .series import DirichletSeries
from . import series as ds
from .symbols import Certificate, Symbol, Verdict, check_theorem1, check_theorem2


def compose_basis(sym: Symbol, n, N: int):
    """Exact coefficients up to N of n^{-Phi(s)}, for one index or a batch.

    n^{-Phi(s)} = n^{-c1} exp(-(log n) psi(s)) n^{-c0 s} with psi = phi - c1,
    so the result is the exponential series dilated by n^{c0}: coefficient j
    of exp(-(log n) psi) lands at index j n^{c0}.  For an int n the result
    is a series.  For a sequence of indices n_i, one pass of the exp
    recurrence serves every exp(-(log n_i) psi), and the result is the
    nonzero coefficients of every n_i^{-Phi} as (rows, cols, values):
    coefficient `values[j]` of n_{cols[j]}^{-Phi} sits at index `rows[j]`,
    column by column, rows ascending within each.
    """
    if N < 1:
        raise InvalidInputError("truncation must be >= 1")
    scalar = np.ndim(n) == 0
    ns = [int(n)] if scalar else [int(i) for i in n]
    if not ns:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.complex128)
    if min(ns) < 1:
        raise InvalidInputError("basis index must be >= 1")
    c0 = int(sym.c0)
    top = max(ns)
    if c0 and top > _column_count(c0, N):  # the largest index has the largest n^{c0}
        raise TruncationError(
            f"image of {top}^(-s) has no support at truncation {N} (needs N >= {top}^{c0})"
        )
    steps = np.array([i**c0 for i in ns], dtype=np.int64)  # each <= N
    M = N // int(steps.min())
    psi = np.zeros(M, dtype=np.complex128)
    K = min(M, sym.phi.truncation)
    psi[:K] = sym.phi.coeffs[:K]
    psi[0] = 0.0
    logn = np.array([math.log(i) for i in ns])
    idx, G = ds.exp(DirichletSeries(psi, exact=True), M, t=-logn)
    # column i keeps the exp coefficients whose dilated index fits in N
    counts = np.searchsorted(idx, N // steps, side="right")
    cols = np.repeat(np.arange(len(ns)), counts)
    r = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    scale = np.exp(-complex(sym.c1) * logn)[cols]
    g = G[r, cols]
    values = np.empty(cols.size, dtype=np.complex128)
    values.real = scale.real * g.real - scale.imag * g.imag
    values.imag = scale.real * g.imag + scale.imag * g.real
    keep = values != 0
    rows, cols, values = idx[r[keep]] * steps[cols[keep]], cols[keep], values[keep]
    if not scalar:
        return rows, cols, values
    out = np.zeros(N, dtype=np.complex128)
    out[rows - 1] = values
    return DirichletSeries(out, exact=True)


def apply(sym: Symbol, f: DirichletSeries, N: int) -> DirichletSeries:
    """Exact coefficients up to N of f(Phi(s)) for an exact polynomial f."""
    if not f.exact:
        raise InvalidInputError("apply requires an exact polynomial")
    ns = np.flatnonzero(f.coeffs) + 1
    rows, cols, values = compose_basis(sym, ns, N)
    out = np.zeros(N, dtype=np.complex128)
    np.add.at(out, rows - 1, f.coeffs[ns[cols] - 1] * values)
    return DirichletSeries(out, exact=True)


@dataclass(frozen=True)
class OperatorMatrix:
    """Finite section of C_Phi: column n holds the weighted coefficients of
    C_Phi(e_n), i.e. M[m, n] = g_m sqrt(w_h(m)/w_h(n)) with g = n^{-Phi}.

    Held as its nonzero entries M[rows[j], ns[cols[j]]] = values[j] (rows
    from 1, column positions from 0, column by column, rows ascending).  The
    dense (N, n_cols) `entries` is scattered from them on first read.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    ns: tuple[int, ...]  # basis indices of the columns
    N: int
    measure: str
    symbol: dict

    @cached_property
    def entries(self) -> np.ndarray:
        out = np.zeros((self.N, len(self.ns)), dtype=np.complex128, order="F")
        out[self.rows - 1, self.cols] = self.values
        return out

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.entries, axis=0)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "columns": list(self.ns),
            "measure": self.measure,
            "symbol": self.symbol,
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }

    def to_csv(self) -> str:
        """CSV of |entries| with a header row of column indices."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m"] + [f"n={n}" for n in self.ns])
        for m, row in enumerate(np.abs(self.entries), start=1):
            writer.writerow([m] + [f"{v:.12g}" for v in row])
        return buf.getvalue()


def admissibility_certificate(sym: Symbol) -> Certificate:
    """Boundedness certificate: theorem-1 route for c0 >= 1, theorem-2 for c0 = 0."""
    if sym.c0 >= 1:
        return check_theorem1(sym)
    return check_theorem2(sym)


def _column_count(c0: int, N: int) -> int:
    """The largest n with n^{c0} <= N (N itself when c0 = 0), in exact integers."""
    c0 = int(c0)
    if c0 == 0:
        return N
    if c0 >= N.bit_length():  # 2^{c0} > N
        return 1
    k = int(round(N ** (1.0 / c0)))
    while k**c0 > N:
        k -= 1
    while (k + 1) ** c0 <= N:
        k += 1
    return k


def _section_columns(sym: Symbol, N: int) -> tuple[int, ...]:
    """Basis indices n whose image n^{-Phi} has support up to N, i.e. n^{c0} <= N."""
    return tuple(range(1, _column_count(sym.c0, N) + 1))


def operator_matrix(
    sym: Symbol,
    mu: Measure | None,
    N: int,
    *,
    require_admissible: bool = True,
) -> OperatorMatrix:
    """Truncated matrix of C_Phi; mu=None means the unweighted H^2 basis.

    Columns n with n^{c0} > N are omitted.
    """
    if N < 2:
        raise InvalidInputError("truncation must be >= 2")
    if require_admissible:
        cert = admissibility_certificate(sym)
        if cert.verdict is not Verdict.CERTIFIED_YES:
            raise InvalidInputError(
                f"symbol not certified admissible ({cert.verdict.value}); "
                "pass require_admissible=False to override"
            )
    w = np.ones(N) if mu is None else mu.weights(N)
    sqw = np.sqrt(w)
    ns = _section_columns(sym, N)
    rows, cols, values = compose_basis(sym, ns, N)
    values = values * sqw[rows - 1] / sqw[cols]  # column j is n = j + 1
    return OperatorMatrix(
        rows, cols, values, ns=ns, N=N, measure=measure_tag(mu), symbol=sym.to_json()
    )


def gram(matrix: OperatorMatrix) -> np.ndarray:
    """G = M* M; Hermitian positive semidefinite.

    The product is hermitized to strip BLAS roundoff asymmetry.
    """
    g = matrix.entries.conj().T @ matrix.entries
    return 0.5 * (g + g.conj().T)


@dataclass(frozen=True)
class DefectReport:
    """Spectral norm of G - I at truncation N, with the value at N/2 for
    stabilization assessment and the largest singular value of the section."""

    value: float
    value_half: float
    N: int
    s_max: float

    @property
    def stabilization_delta(self) -> float:
        return abs(self.value - self.value_half)


def _gram_defect(s: np.ndarray) -> float:
    # G = M* M has eigenvalues s_i^2, one per column
    return float(np.max(np.abs(s * s - 1.0)))


def _coprime_part(sym: Symbol, N: int) -> np.ndarray:
    """r(i) for i = 1..N: i with every prime of the Bohr lift of phi (every
    prime dividing an index of supp(phi)) divided out."""
    r = np.arange(1, N + 1)
    for p in ds.bohr_lift(sym.phi).primes.tolist():
        top = p  # the largest power of p up to N; gcd(r, top) is the p-part of r <= N
        while top * p <= N:
            top *= p
        r //= np.gcd(r, top)
    return r


def _section_spectra(
    m: OperatorMatrix, sym: Symbol, sizes: list[tuple[int, int]]
) -> list[np.ndarray]:
    """Every singular value of each leading section, the rows up to R of the
    first C columns, for (R, C) in `sizes`, from one grouping of the entries.

    n^{-Phi} = n^{-c1} n^{-c0 s} exp(-(log n) psi) is supported on n^{c0}
    times the semigroup generated by supp(psi), so column n only meets rows
    m with r(m) = r(n)^{c0} (r from _coprime_part) and the section is block
    diagonal under that grouping.  x -> x^{c0} is injective and increasing,
    so the blocks are keyed by r(n) itself (by 1 at c0 = 0), which gives the
    same blocks in the same order without forming r(n)^{c0}.  Each block is
    taken dense over the rows and columns its entries occupy.  A block with one row or one column has
    one singular value, the norm of that vector, and one vectorized norm
    takes all of them; the blocks of each other shape, from every size,
    share one batched SVD.  G = M* M has one eigenvalue per column, so each
    size's values are padded with zeros up to C: that one rule covers empty
    columns and blocks with more columns than rows.
    """
    span = m.N + 1  # above every row index and column position
    key = _coprime_part(sym, m.N)[np.asarray(m.ns) - 1] ** min(sym.c0, 1)  # <= N, as r(n) <= n
    picks = [np.flatnonzero((m.rows <= R) & (m.cols < C)) for R, C in sizes]
    size_of = np.repeat(np.arange(len(sizes)), [p.size for p in picks])
    pick = np.concatenate(picks)
    rows, cols, values = m.rows[pick], m.cols[pick], m.values[pick]
    # one block per (size, key); each entry's rank among its block's rows and columns
    tags, block = np.unique(size_of * span + key[cols], return_inverse=True)
    at, shape = [], []
    for x in (rows, cols):
        pairs, inv = np.unique(block * span + x, return_inverse=True)
        count = np.bincount(pairs // span, minlength=tags.size)
        at.append(inv - (np.cumsum(count) - count)[block])
        shape.append(count)
    rank = np.minimum(*shape)  # >= 1
    order = np.lexsort((shape[1], shape[0], rank > 1))  # the vectors, then the rest by shape
    n_rows, n_cols, rank = shape[0][order], shape[1][order], rank[order]
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    e = np.argsort(slot[block], kind="stable")  # block by block, each in its own order
    block, row_at, col_at, v = slot[block[e]], at[0][e], at[1][e], values[e]
    bounds = np.searchsorted(block, np.arange(order.size + 1))  # each block's run of entries
    hi = int(np.count_nonzero(rank == 1))
    s = np.empty(int(rank.sum()))  # the singular values of each block in turn
    if hi:
        s[:hi] = np.hypot.reduceat(np.abs(v[: bounds[hi]]), bounds[:hi])
        if np.isnan(s[:hi]).any():  # where an SVD would not converge
            raise NumericError("section spectrum: the section is not finite")
    start = np.cumsum(rank) - rank
    cuts = np.flatnonzero((np.diff(n_rows[hi:]) != 0) | (np.diff(n_cols[hi:]) != 0)) + hi + 1
    for j0, j1 in zip([hi, *cuts.tolist()], [*cuts.tolist(), rank.size]):
        if j0 == j1:
            continue
        run = slice(bounds[j0], bounds[j1])
        stack = np.zeros((j1 - j0, n_rows[j0], n_cols[j0]), dtype=np.complex128)
        stack[block[run] - j0, row_at[run], col_at[run]] = v[run]
        try:
            sv = np.linalg.svd(stack, compute_uv=False)
        except np.linalg.LinAlgError as err:  # as on a section that overflowed
            raise NumericError(f"section spectrum: {err}") from None
        s[start[j0] : start[j0] + sv.size] = sv.ravel()
    keep = np.repeat(tags[order] // span, rank)  # the size of each singular value
    return [
        np.concatenate([s[keep == i], np.zeros(C - np.count_nonzero(keep == i))])
        for i, (_, C) in enumerate(sizes)
    ]


def isometry_defect(
    sym: Symbol, mu: Measure | None, N: int, *, require_admissible: bool = True
) -> DefectReport:
    """||G - I||_2 restricted to the columns present; 0 exactly for vertical translations.

    One section build and one spectrum pass serve both truncations: the N/2
    section is the leading block of the N section (rows up to N/2, columns
    n with n^{c0} <= N/2), since coefficients and weights up to N/2 do not
    depend on N, and _section_spectra takes both block by block.
    """
    if N < 4:
        raise InvalidInputError("need N >= 4 to compare against the N/2 section")
    m = operator_matrix(sym, mu, N, require_admissible=require_admissible)
    half = N // 2
    s, s_half = _section_spectra(m, sym, [(N, len(m.ns)), (half, _column_count(sym.c0, half))])
    return DefectReport(
        value=_gram_defect(s), value_half=_gram_defect(s_half), N=N, s_max=float(np.max(s))
    )


def contraction_lower_bound(
    sym: Symbol, mu: Measure | None, N: int, *, require_admissible: bool = True
) -> float:
    """Largest singular value of the finite section: a lower bound for ||C_Phi||.

    The same spectrum pass as isometry_defect, on the N section only.
    """
    m = operator_matrix(sym, mu, N, require_admissible=require_admissible)
    (s,) = _section_spectra(m, sym, [(N, len(m.ns))])
    return float(np.max(s))
