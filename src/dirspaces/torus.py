"""Integrals of |f|^p over the Bohr polytorus: the H^p norms at p not an even
integer, of f and of its vertical translates f(sigma + .).

_torus_moments is the one entry.  The derivation, stated here once:

- Translating by sigma scales the coefficient of n^{-s} by n^{-sigma}, so
  one Bohr lift serves every sigma.  Each sigma's coefficients are divided
  by their largest modulus in log scale, and a term whose scaled modulus is
  below eps / (p * terms) at every sigma moves no integral by more than a
  rounding error, so it is left out, with every coordinate only it uses.
- Axes.  With integer vectors u_1..u_r, linearly independent, whose integer
  span holds every difference alpha_t - alpha_0 = sum_i x_{t,i} u_i,
  sum_t c_t z^{alpha_t} = z^{alpha_0} sum_t c_t w^{x_t} for
  w = (z^{u_1}, ..., z^{u_r}).  z -> w carries Haar measure on the k-torus
  to Haar measure on the r-torus (the character w^m pulls back to
  z^{sum m_i u_i}, which is trivial only at m = 0), and |z^{alpha_0}| = 1,
  so |f|^p has the same integral over the x as over the alpha.  The u_i
  are the differences themselves, smallest first, wherever they raise the
  rank, and each axis is shifted to start at 0, which multiplies f by a
  character.  Where they give no smaller first grid, the lift's own
  coordinates stay: 1 + c 6^{-s} is a 1-D integral, and three terms on
  three primes a 2-D one.
- Tensor trapezoid rule.  |f_sigma|^p is periodic, and analytic where
  f_sigma has no zero, so there the tensor trapezoid rule converges
  geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014).  Axis a
  starts on the grid j / M_a, M_a the least power of two above 4 d_a with
  d_a its largest exponent, so that the grids of M_a, M_a / 2 and M_a / 4
  points all integrate |f|^2 exactly; the points of the first grid whose
  indices are all even, or all multiples of 4, form the other two, so one
  evaluation gives the three rules.  The root index of every point and
  the masks of the two sub-grids depend on the grid alone: one shared
  read-only plan per grid (_grid_plan) holds them.  Every M_a doubles
  while the grid fits QMC_REPLICATES * QMC_POINTS = 2^17 points.  The
  first evaluation of a ladder goes up to two doublings further, while its
  rows hold at most _LOOKAHEAD_VALUES = 2^10 values there, as a call that
  small costs its overhead, not its points; the rungs below are its
  sub-grids of the points whose indices are all multiples of 2 or 4.  At
  such a point z^alpha has twice (four times) the root index it has on
  the coarser grid, and the table of L roots taken at every second
  (fourth) entry is the table of L/2 (L/4) roots, bit for bit, so every
  rung keeps the bits of its own evaluation.  A sigma
  is done, with the gap between the first two rules as its error bar, once
  that gap is below _TORUS_REL_TOL of the value and the gap between the
  last two below its square root, as geometric convergence has them: a
  phase of f that cancels the leading alias of one gap does not cancel it
  in the other.
- A sigma still open at the budget, or whose gap, squared once per
  doubling left, would stay above the tolerance (f_sigma vanishes on the
  torus, or there are too many axes), or whose rule overflows, runs the
  same loop again on the lift's own coordinates where the axes differ from
  them: for 1.824 + c 4^{-s} + c' 18^{-s} the lift's exponents (2, 0) and
  (1, 2) become two unit axes, on which |f|^3 converges more slowly than on
  the lift's own two coordinates.
- Shifted rank-1 lattices.  A sigma left open or stuck on both is
  integrated on QMC_REPLICATES uniform random shifts of the rank-1 lattice
  {i z / n : i < n} (Dick, Kuo and Sloan, Acta Numer. 22, 2013) on the
  reduced axes and the same terms, n doubling from 2^10 to QMC_POINTS.
  At the point i z / n, z^alpha is the n-th root of unity of index
  (alpha.z mod n) i, so the lattice rule is the 1-D trapezoid rule on
  those exponents, and a shift by Delta multiplies c_t by
  e^{2 pi i alpha_t.Delta}: the trapezoid kernel evaluates every point.
  The error of one shift is a sum of the integrand's Fourier coefficients
  on the dual lattice with independent uniform phases, so an alias the
  lattice misses shows as spread between the shifts, and the error bar is
  their standard error.  z is, per dimension, the odd vector of least
  worst-case error P_2 in the Korobov space of smoothness 1 among 64
  fixed-seed candidates; the shifts come from a fixed-seed generator, so
  every call gives the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericError
from .series import PolytorusPolynomial

QMC_POINTS = 2**14
QMC_REPLICATES = 8
QMC_MAX_REL_SPREAD = 0.2
# A torus integral is done once the trapezoid rules on the grids of M and M/2
# points per axis agree to this relative gap.
_TORUS_REL_TOL = 1e-12
# A tensor grid of this many values, rows x points, costs about its per-call
# overhead: on a 2-vCPU x86-64 machine one call of 3 terms and one row took
# about 30, 35 and 55 us on 64, 256 and 1024 points.
_LOOKAHEAD_VALUES = 2**10


def _torus_moments(
    lift: PolytorusPolynomial, p: float, sigmas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """||f_sigma||_{H^p}^p for each sigma, with its error bar, where
    f_sigma = f(sigma + .) and `lift` is the Bohr lift of f: the gap between
    the two finest trapezoid rules, or the replicate standard error of the
    shifted lattices.  Raises NumericError where the lattice estimate is
    not positive, or not finite, or its spread is above QMC_MAX_REL_SPREAD
    of it.
    """
    alphas, coeffs = lift.exponents, lift.coeffs
    # Each row is divided by its largest modulus in log scale: at sigma in
    # the hundreds the moduli, and their p-th powers sooner, underflow.
    log_mods = np.log(np.abs(coeffs)) - sigmas[:, None] * np.log(lift.indices)
    log_peak = np.max(log_mods, axis=1)
    # numpy divides by a modulus through its reciprocal, which overflows for
    # a subnormal one; such a coefficient is scaled by a power of two first,
    # which keeps its phase, and the others keep their bits.
    phases = coeffs.copy()
    phases[np.abs(coeffs) < np.finfo(np.float64).tiny] *= 2.0**64
    scaled = phases / np.abs(phases) * np.exp(log_mods - log_peak[:, None])
    live = np.any(np.abs(scaled) >= np.finfo(np.float64).eps / (p * len(alphas)), axis=0)
    alphas, scaled = alphas[live], scaled[:, live]
    alphas = alphas[:, alphas.any(axis=0)]
    if not alphas.shape[1]:
        # only the constant term, of scaled modulus 1, is left
        return np.exp(p * log_peak), np.zeros(sigmas.size)
    axes = _difference_axes(alphas)
    integral, err, done = _tensor_moments(axes, scaled, p)
    if not done.all() and not np.array_equal(axes, alphas):
        # the lift's own axes can converge where the reduced ones do not
        retry = np.flatnonzero(~done)
        i, e, ok = _tensor_moments(alphas, scaled[retry], p)
        integral[retry[ok]], err[retry[ok]], done[retry[ok]] = i[ok], e[ok], True
    if not done.all():
        integral[~done], err[~done] = _qmc_moments(axes, scaled[~done], p)
    scale = np.exp(p * log_peak)
    return integral * scale, err * scale


def _tensor_moments(
    alphas: np.ndarray, coeffs: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor trapezoid means of |sum_t c_t z^{alpha_t}|^p over the k-torus
    for each row c of `coeffs`, with their error bars, and which rows are
    done: a row is left open at the budget, or as soon as it is stuck."""
    budget, k = QMC_REPLICATES * QMC_POINTS, alphas.shape[1]
    integral, err = np.zeros(len(coeffs)), np.zeros(len(coeffs))
    finished = np.zeros(len(coeffs), dtype=bool)
    todo = np.arange(len(coeffs))
    grid = _start_grid(alphas)
    # The first evaluation runs up to two doublings up, while the rows hold
    # at most _LOOKAHEAD_VALUES values there, and the rungs below are read
    # from its sub-grids: a call on such a grid costs its overhead, not its
    # points.
    rungs, values = 1, len(coeffs) * math.prod(grid.tolist())
    while rungs < 3 and values << k * rungs <= _LOOKAHEAD_VALUES:
        rungs += 1
    while todo.size and grid.prod() <= budget:
        ladder = _trapezoid_rules(alphas, coeffs[todo], p, grid << (rungs - 1), rungs=rungs)
        # each of fine, half and quarter holds one row per rung
        fine, half, quarter = ladder.reshape(rungs, 3, -1).transpose(1, 0, 2)
        gap = np.abs(fine - half)
        done = (
            (fine > 0)
            & (gap <= _TORUS_REL_TOL * fine)
            & (np.abs(half - quarter) <= math.sqrt(_TORUS_REL_TOL) * fine)
        )
        # Each doubling squares the gap of a geometric rule; a row whose gap
        # would still be above the tolerance at the budget is stuck, as is
        # one whose rule overflows: every finer grid holds this one.
        left = int(math.log2(budget / grid.prod())) // k
        squared = [q ** 2.0 ** (left - rung) for rung, q in enumerate(gap / fine)]
        stuck = ~done & ((np.array(squared) > _TORUS_REL_TOL) | np.isinf(fine))
        # a row ends at the first rung where it is done or stuck
        ends = done | stuck
        first = ends.argmax(axis=0), np.arange(todo.size)
        closed = done[first]
        integral[todo[closed]], err[todo[closed]] = fine[first][closed], gap[first][closed]
        finished[todo[closed]] = True
        todo = todo[~ends.any(axis=0)]
        grid, rungs = grid << rungs, 1
    return integral, err, finished


def _start_grid(alphas: np.ndarray) -> np.ndarray:
    """Points per axis of the first trapezoid grid: the least power of two
    above 4 times the axis's largest exponent."""
    return np.array([1 << int(4 * d).bit_length() for d in alphas.max(axis=0)])


def _difference_axes(alphas: np.ndarray) -> np.ndarray:
    """The exponents of |sum_t c_t z^{alpha_t}| over one axis per
    independent direction of the differences alpha_t - alpha_0, or
    `alphas` itself where those give no smaller start grid.  Cached per
    exponent matrix; the result is read-only."""
    return _axes_of(alphas.tobytes(), alphas.shape)


@lru_cache(maxsize=256)
def _axes_of(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    """_difference_axes of the int64 exponent matrix with these bytes.

    The basis is the differences taken smallest first (in l^1, then in term
    order), found by exact integer elimination.  The coordinates are solved
    in floats, rounded, and kept only if they give every difference exactly
    in integers.
    """
    alphas = np.frombuffer(data, dtype=np.int64).reshape(shape)
    axes = alphas
    diffs = alphas[1:] - alphas[0]
    basis = _independent_rows(diffs[np.argsort(np.abs(diffs).sum(axis=1), kind="stable")])
    if len(basis):
        x = np.rint(np.linalg.lstsq(basis.T, diffs.T)[0]).astype(np.int64).T
        if np.array_equal(x @ basis, diffs):
            x = np.vstack([np.zeros((1, len(basis)), dtype=np.int64), x])
            x -= x.min(axis=0)
            if _start_grid(x).prod() < _start_grid(alphas).prod():
                axes = x
    axes = axes.copy()
    axes.flags.writeable = False
    return axes


def _independent_rows(rows: np.ndarray) -> np.ndarray:
    """The rows that raise the rank of the ones before them, by fraction-free
    Gaussian elimination in Python integers, so the test is exact."""
    echelon, chosen = [], []
    for row in rows.tolist():
        v = row
        for pivot, e in echelon:
            if v[pivot]:
                a, b = e[pivot], v[pivot]
                v = [a * vi - b * ei for vi, ei in zip(v, e)]
                g = math.gcd(*v)
                v = [vi // g for vi in v] if g > 1 else v
        lead = next((j for j, vj in enumerate(v) if vj), None)
        if lead is not None:
            echelon.append((lead, v))
            chosen.append(row)
    return np.array(chosen, dtype=np.int64).reshape(len(chosen), rows.shape[1])


@lru_cache(maxsize=None)
def _roots_of_unity(L: int) -> np.ndarray:
    """exp(2 pi i j / L) for j < L, read-only: each grid size L is one table."""
    roots = np.exp(2j * np.pi / L * np.arange(L))
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=32)
def _grid_plan(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """What the trapezoid rules on the grid of `sizes` points per axis take
    from the grid alone, read-only: (index, offsets, masks).

    The points go in chunks of step = min(size, QMC_POINTS) in C order.  The
    grid sizes and the step are powers of two, so the flat index of a
    point is the bitwise or of its chunk's start and its place r in the
    chunk, and its grid index j_a on each axis is j_a(start) + j_a(r).
    index[a, r] is j_a(r) L/n_a, L the largest grid size, and offsets[c, a]
    is j_a(start) L/n_a for chunk c: alpha.(index[:, r] + offsets[c]) mod L
    is the root index of z^alpha at the point.  masks[c] holds the three
    rules' masks over chunk c: True (every point), the points whose j_a are
    all even (the grid/2 rule) and those whose j_a are all multiples of 4
    (grid/4); where the start of chunk c has a j_a that is odd, or not a
    multiple of 4, that mask is False.
    """
    size, L = math.prod(sizes), max(sizes)
    step = min(size, QMC_POINTS)
    scale = np.array([L // n for n in sizes])[:, None]
    local = np.array(np.unravel_index(np.arange(step), sizes))
    starts = np.array(np.unravel_index(np.arange(0, size, step), sizes))
    index, offsets = local * scale, (starts * scale).T
    low = np.bitwise_or.reduce(local & 3, axis=0)  # j_0 | j_1 | ... mod 4
    half, quarter = (low & 1) == 0, low == 0
    for a in (index, offsets, half, quarter):
        a.flags.writeable = False
    masks = tuple(
        (True, half if j & 1 == 0 else False, quarter if j & 3 == 0 else False)
        for j in np.bitwise_or.reduce(starts, axis=0).tolist()
    )
    return index, offsets, masks


def _trapezoid_rules(
    alphas: np.ndarray,
    coeffs: np.ndarray,
    p: float,
    grid: np.ndarray,
    rules: int = 3,
    rungs: int = 1,
) -> np.ndarray:
    """Means of |sum_t c_t z^{alpha_t}|^p over the grids of `grid`, grid/2 and
    grid/4 points per axis of the k-torus, for each row c of `coeffs`: the
    first `rules` of those three, as a (rules, rows) array.  With rungs > 1,
    on a grid of one chunk, the same for the ladder grid / 2^(rungs-1), ...,
    grid / 2, grid, as a (rungs, rules, rows) array, coarsest first.

    z^alpha at j/grid is the root of unity of index sum_a alpha_a j_a L/grid_a
    mod L, L the largest grid size, taken from one table per L, and the
    terms are added one by one in a fixed order, so every sigma gets the
    same bits whatever batch it is in.  Points and sigmas go in chunks, so
    that no array outgrows terms x QMC_POINTS entries.  The grid's root
    indices and rule masks come from _grid_plan, shared by every call on
    the same grid: here each chunk's indices are alphas @ index plus its
    offset, an exact integer sum.

    A coarser rung's points are those of `grid` whose indices are all
    multiples of its stride s, and there the index of z^alpha is s times
    its own, while the table of L points taken at every s-th entry is the
    table of L/s points, bit for bit.  So its |.|^p values are the ones a
    call on its grid computes, and each rung sums a C-order copy of them
    with the masks of its own plan, in the order that call would.
    """
    terms, k = alphas.shape
    sizes = tuple(grid.tolist())
    size, L = math.prod(sizes), max(sizes)
    roots = _roots_of_unity(L)
    index, offsets, masks = _grid_plan(sizes)
    rows = max(1, terms * QMC_POINTS // index.shape[1])
    # each coarser rung: the cut of the points whose indices are all
    # multiples of its stride, and the rule masks of its own plan
    strides = [1 << r for r in range(rungs - 1, 0, -1)]
    cuts = [(slice(None),) + (slice(None, None, s),) * k for s in strides]
    below = [_grid_plan(tuple(n // s for n in sizes))[2][0] for s in strides]
    sums = np.zeros((rungs, rules, len(coeffs)))
    for shift, on in zip(offsets @ alphas.T, masks):
        # alphas @ index + shift, one axis at a time: numpy's integer matmul
        # takes no fast path
        phases = shift[:, None] + alphas[:, :1] * index[0]
        for axis in range(1, k):
            phases += alphas[:, axis, None] * index[axis]
        chars = np.take(roots, phases & (L - 1))
        for lo in range(0, len(coeffs), rows):
            c = coeffs[lo : lo + rows]
            values = c[:, :1] * chars[0]
            for t in range(1, terms):
                values += c[:, t, None] * chars[t]
            mags = np.abs(values) ** p
            grids = [mags.reshape(-1, *sizes)[cut] for cut in cuts]
            subs = [np.ascontiguousarray(g).reshape(len(c), -1) for g in grids] + [mags]
            for rung, (sub, rung_masks) in enumerate(zip(subs, below + [on])):
                rung_sums = [sub.sum(axis=1, where=m) for m in rung_masks[:rules]]
                sums[rung, :, lo : lo + rows] += rung_sums
    points = size >> k * np.arange(rungs - 1, -1, -1)
    means = sums * np.array([1, 2**k, 4**k])[:rules, None] / points[:, None, None]
    return means if rungs > 1 else means[0]


def _qmc_moments(
    alphas: np.ndarray, coeffs: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized QMC estimates of the means of |sum_t c_t z^{alpha_t}|^p
    over the k-torus, for each row c of `coeffs`, with their replicate
    standard errors.

    A row is done once its standard error is below _TORUS_REL_TOL of its
    mean, once its mean or its standard error overflows (each lattice holds
    the points of the coarser ones, and such a row can only fail the spread
    check), or at QMC_POINTS.
    """
    terms, k = alphas.shape
    z = _lattice_vector(k)
    shifts = np.random.default_rng(0).random((QMC_REPLICATES, k))
    rotated = coeffs[:, None, :] * np.exp(2j * np.pi * (alphas @ shifts.T)).T
    integral, se = np.zeros(len(coeffs)), np.zeros(len(coeffs))
    todo, n = np.arange(len(coeffs)), 2**10
    while todo.size:
        g = (alphas @ z % n)[:, None]
        rows = rotated[todo].reshape(-1, terms)
        means = _trapezoid_rules(g, rows, p, np.array([n]), rules=1)[0].reshape(todo.size, -1)
        mean = np.mean(means, axis=1)
        err = np.std(means, axis=1, ddof=1) / math.sqrt(QMC_REPLICATES)
        # a mean past the floats has a NaN spread
        done = (err <= _TORUS_REL_TOL * mean) | (n >= QMC_POINTS) | ~np.isfinite(err)
        for i, s in zip(mean[done].tolist(), err[done].tolist()):
            if i <= 0:
                raise NumericError("QMC integral estimate is nonpositive")
            # an overflowing mean has a NaN spread, which no comparison catches
            if not (math.isfinite(i) and s <= QMC_MAX_REL_SPREAD * i):
                raise NumericError(f"QMC did not converge: integral {i!r} with spread {s!r}")
        integral[todo[done]], se[todo[done]] = mean[done], err[done]
        todo, n = todo[~done], 2 * n
    return integral, se


# _lattice_search(k) for k = 1, ..., 8, so that no request pays the search.
_LATTICE_VECTORS = (
    (4421,),
    (6151, 5083),
    (5537, 12463, 6417),
    (8109, 13785, 10235, 1093),
    (14779, 11009, 14589, 3269, 12423),
    (9341, 6629, 16329, 3253, 15507, 1487),
    (12709, 131, 5061, 16117, 4421, 8355, 14141),
    (15233, 1031, 11619, 11893, 4441, 1437, 5215, 6473),
)


@lru_cache(maxsize=None)
def _lattice_vector(k: int) -> np.ndarray:
    """Generating vector of the QMC_POINTS-point rank-1 lattice in k
    dimensions, read-only: from _LATTICE_VECTORS up to k = 8, and from
    _lattice_search above."""
    if k <= len(_LATTICE_VECTORS):
        z = np.array(_LATTICE_VECTORS[k - 1], dtype=np.int64)
    else:
        z = _lattice_search(k)
    z.flags.writeable = False
    return z


def _lattice_search(k: int) -> np.ndarray:
    """Of 64 odd vectors from a fixed-seed generator, the one of least P_2,
    the worst-case error in the Korobov space of smoothness 1 of the
    QMC_POINTS-point rank-1 lattice it generates: the mean over the points x
    of prod_a (1 + 2 pi^2 B_2(x_a)) minus 1, B_2(x) = x^2 - x + 1/6.  The
    lattices of n < QMC_POINTS points take it mod n.
    """
    n = QMC_POINTS
    candidates = 2 * np.random.default_rng(0).integers(n // 2, size=(64, k)) + 1
    i, x = np.arange(n), np.arange(n) / n
    factor = 1.0 + 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)

    def p2(z):
        return np.mean(math.prod(factor[i * za % n] for za in z.tolist()))

    return min(candidates, key=p2)
