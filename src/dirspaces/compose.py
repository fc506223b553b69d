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

import math
import operator
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
    N = ds._size(N)
    scalar = np.ndim(n) == 0
    try:  # a builtin per index: a Python call each would add ~0.1 ms at 1024 columns
        ns = [operator.index(n)] if scalar else list(map(operator.index, n))
    except TypeError:
        raise InvalidInputError(f"basis indices must be integers, got {n!r}") from None
    if not ns:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.complex128)
    ds._size(min(ns), "basis index")
    c0 = int(sym.c0)
    top = max(ns)
    if c0 and top > _column_count(c0, N):  # the largest index has the largest n^{c0}
        raise TruncationError(
            f"image of {top}^(-s) has no support at truncation {N} (needs N >= {top}^{c0})"
        )
    if c0:  # each n^{c0} <= N, so past c0 = 62 every n is 1
        steps = np.asarray(ns, dtype=np.int64) ** min(c0, 62)
    else:  # any index, past the int64 range too
        steps = np.ones(len(ns), dtype=np.int64)
    tops = N // steps  # column i reads exp up to its own truncation
    M = int(tops.max())
    psi = np.zeros(M, dtype=np.complex128)
    K = min(M, sym.phi.truncation)
    psi[:K] = sym.phi.coeffs[:K]
    psi[0] = 0.0
    # math.log, whose bits every call has used: np.log differs on 57 of the first 2^20 n
    logn = np.fromiter(map(math.log, ns), np.float64, len(ns))
    # a list: bench/spans.py records this argument in spans written as JSON
    idx, G = ds.exp(DirichletSeries(psi, exact=True), tops.tolist(), t=-logn)
    # column i keeps the exp coefficients whose dilated index fits in N
    counts = np.searchsorted(idx, tops, side="right")
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
    dense (N, n_cols) `entries` is scattered from them on first read.  Every
    array is read-only, as the section is frozen.
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
        out.setflags(write=False)
        return out

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.entries, axis=0)


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
    N = ds._size(N)
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
    for a in (rows, cols, values):
        a.setflags(write=False)
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
    s_max: float

    @property
    def stabilization_delta(self) -> float:
        return abs(self.value - self.value_half)


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
) -> list[tuple[np.ndarray, float]]:
    """Every eigenvalue of G = M* M, and the largest singular value of M, for
    each leading section M, the rows up to R of the first C columns, for
    (R, C) in `sizes`, from one grouping of the rows and columns.

    n^{-Phi} = n^{-c1} n^{-c0 s} exp(-(log n) psi) is supported on n^{c0}
    times the semigroup generated by supp(psi), so column n only meets rows
    m with r(m) = r(n)^{c0} (r from _coprime_part) and the section is block
    diagonal under that grouping: column n is in group r(n), and row m in
    group u where u^{c0} = r(m) (all are in group 1 at c0 = 0).  Each
    size's block of a group takes every column of the group, and the rows
    of the group that hold an entry of the section, each ranked in order by
    one stable sort over all the rows or all the columns; an empty column
    or row only adds a zero eigenvalue.  G has one eigenvalue per column,
    so each size's values are padded with zeros up to C: that one rule
    covers empty columns and blocks with more columns than rows.
    """
    span = m.N + 1  # above every row index, column position and group
    picks = [np.flatnonzero((m.rows <= R) & (m.cols < C)) for R, C in sizes]
    size_of = np.repeat(np.arange(len(sizes)), [p.size for p in picks])
    pick = np.concatenate(picks)
    rows, cols, values = m.rows[pick], m.cols[pick], m.values[pick]
    if not np.isfinite(values).all():
        raise NumericError("section spectrum: the section is not finite")
    r = _coprime_part(sym, m.N) if sym.c0 else np.ones(m.N, dtype=np.int64)
    col_ids, col_group = np.arange(len(m.ns)), r[: len(m.ns)]  # column c is n = c + 1
    root = np.zeros(span, dtype=np.int64)  # group 0 holds no column
    root[col_group ** min(sym.c0, 62)] = col_group  # r(n)^{c0} <= n^{c0} <= N
    held = np.zeros(span, dtype=bool)
    held[m.rows] = True
    row_ids = np.flatnonzero(held)  # the rows that hold an entry, ascending
    row_group = root[r[row_ids - 1]]
    place = []  # each row's and each column's rank in its group
    for ids, group in ((row_ids, row_group), (col_ids, col_group)):
        count = np.bincount(group, minlength=span)
        order = np.argsort(group, kind="stable")
        at = np.empty(span, dtype=np.int64)
        at[ids[order]] = np.arange(order.size) - (np.cumsum(count) - count)[group[order]]
        place.append(at)
    # each size's blocks, the groups with both rows and columns, in one order
    shape = np.array([
        (np.bincount(row_group[row_ids <= R], minlength=span),
         np.bincount(col_group[:C], minlength=span))
        for R, C in sizes
    ])  # (sizes, 2, span)
    size_of_block, group_of_block = np.nonzero(shape.min(axis=1))
    n_rows, n_cols = np.moveaxis(shape[size_of_block, :, group_of_block], 1, 0)
    rank, length = np.minimum(n_rows, n_cols), np.maximum(n_rows, n_cols)
    order = np.lexsort((length, rank))  # the vectors, then the rest by shape
    size_of_block, group_of_block, tall, rank, length = (
        x[order] for x in (size_of_block, group_of_block, n_rows >= n_cols, rank, length)
    )
    slot = np.zeros((len(sizes), span), dtype=np.int64)
    slot[size_of_block, group_of_block] = np.arange(order.size)
    block = slot[size_of, col_group[cols]]
    # each entry's place along its block's long side and across its short side
    row_at, col_at = place[0][rows], place[1][cols]
    along = np.where(tall[block], row_at, col_at)
    across = np.where(tall[block], col_at, row_at)
    lam, top = _gram_eigenvalues(values, block, along, across, rank, length)
    keep = np.repeat(size_of_block, rank)  # the size of each eigenvalue
    return [
        (
            np.concatenate([lam[keep == i], np.zeros(C - np.count_nonzero(keep == i))]),
            float(top[size_of_block == i].max(initial=0.0)),
        )
        for i, (_, C) in enumerate(sizes)
    ]


def _gram_eigenvalues(values, block, along, across, rank, length):
    """The eigenvalues of each block's Gram, ascending block by block, and
    each block's largest singular value.  The entry values[j] sits in block
    block[j] at (along[j], across[j]) on its long side by its short side;
    the blocks are ordered by (rank, length), so the vectors come first.

    A block with one row or one column has one eigenvalue, the squared norm
    of that vector.  Every block is scaled by the power of two that brings
    its largest modulus into [1/2, 1), as norms._homogeneous does, so that
    its Gram stays in the floats, and the Gram is taken on its short side:
    B* B and B B* share their nonzero eigenvalues.  Grams of two columns
    have theirs in closed form, and the Grams of each larger size share one
    batched eigvalsh.  The largest singular value is read from the scaled
    eigenvalues, so it stays finite where its square would not.
    """
    peak = np.zeros(rank.size)
    np.maximum.at(peak, block, np.abs(values))
    shift = np.frexp(peak)[1]  # peak / 2^shift lies in [1/2, 1)
    pairs = np.ldexp(values.view(np.float64).reshape(-1, 2), -shift[block, None])
    v = pairs.view(np.complex128).ravel()
    hi = int(np.count_nonzero(rank == 1))
    vec = block < hi
    parts = [np.bincount(block[vec], weights=v.real[vec] ** 2 + v.imag[vec] ** 2, minlength=hi)]
    # every other block dense, one after another
    cells = length[hi:] * rank[hi:]
    base = np.cumsum(cells) - cells
    b = block[~vec] - hi
    dense = np.zeros(int(cells.sum()), dtype=np.complex128)
    dense[base[b] + along[~vec] * rank[hi:][b] + across[~vec]] = v[~vec]
    grams = {}  # rank -> the Grams of that size, block by block
    cuts = np.flatnonzero((np.diff(rank[hi:]) != 0) | (np.diff(length[hi:]) != 0)) + 1
    for j0, j1 in zip([0, *cuts.tolist()], [*cuts.tolist(), cells.size]):
        if j0 == j1:
            continue
        k = int(rank[hi + j0])
        stack = dense[base[j0] : base[j0] + (j1 - j0) * cells[j0]].reshape(j1 - j0, -1, k)
        grams.setdefault(k, []).append(stack.conj().transpose(0, 2, 1) @ stack)
    for k, g in grams.items():
        g = np.concatenate(g)
        if k == 2:
            mid = 0.5 * (g[:, 0, 0].real + g[:, 1, 1].real)
            rad = np.hypot(0.5 * (g[:, 0, 0].real - g[:, 1, 1].real), np.abs(g[:, 1, 0]))
            parts.append(np.stack([mid - rad, mid + rad], axis=1).ravel())
        else:
            parts.append(np.linalg.eigvalsh(g).ravel())
    scaled = np.concatenate(parts)
    top = np.ldexp(np.sqrt(np.maximum(scaled[np.cumsum(rank) - 1], 0.0)), shift)
    return np.ldexp(scaled, np.repeat(2 * shift, rank)), top


def _halvable(N) -> int:
    """N as a size with an N/2 section to compare against."""
    N = ds._size(N)
    if N < 4:
        raise InvalidInputError("need N >= 4 to compare against the N/2 section")
    return N


def isometry_defect(
    sym: Symbol, mu: Measure | None, N: int, *, require_admissible: bool = True
) -> DefectReport:
    """||G - I||_2 restricted to the columns present; 0 exactly for vertical translations.

    One section build and one spectrum pass serve both truncations: the N/2
    section is the leading block of the N section (rows up to N/2, columns
    n with n^{c0} <= N/2), since coefficients and weights up to N/2 do not
    depend on N, and _section_spectra takes both block by block.
    """
    N = _halvable(N)
    m = operator_matrix(sym, mu, N, require_admissible=require_admissible)
    half = N // 2
    (lam, s_max), (lam_half, _) = _section_spectra(
        m, sym, [(N, len(m.ns)), (half, _column_count(sym.c0, half))]
    )
    # the eigenvalues of G are the squared singular values, one per column
    return DefectReport(
        value=float(np.max(np.abs(lam - 1.0))),
        value_half=float(np.max(np.abs(lam_half - 1.0))),
        s_max=s_max,
    )


def contraction_lower_bound(
    sym: Symbol, mu: Measure | None, N: int, *, require_admissible: bool = True
) -> float:
    """Largest singular value of the finite section: a lower bound for ||C_Phi||.

    The same spectrum pass as isometry_defect, on the N section only.
    """
    m = operator_matrix(sym, mu, N, require_admissible=require_admissible)
    ((_, s_max),) = _section_spectra(m, sym, [(N, len(m.ns))])
    return s_max
