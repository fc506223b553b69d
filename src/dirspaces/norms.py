"""Norms of the Hardy and weighted Bergman spaces, reproducing kernels, and
point-evaluation functionals.

H^2 and A^2 norms are exact coefficient sums.  Even-integer H^p norms reduce
exactly to convolution powers (||f||_p = ||f^{p/2}||_2^{2/p}).  Other p
integrate |f|^p over the polytorus through the Bohr lift: by a node-doubled
tensor trapezoid rule over the coordinates the lift uses, while its grid fits
QMC_REPLICATES * QMC_POINTS = 2^17 points, and where that rule does not
converge within the budget by randomized quasi-Monte Carlo on QMC_REPLICATES
random shifts of a rank-1 lattice of up to QMC_POINTS points, whose points
the same trapezoid kernel evaluates.  The error bar is the doubling residual
on the first route and the replicate standard error on the second.  A^p
norms integrate the translated H^p norms against the measure.  Every norm is
computed on f scaled by a power of two, so that tiny and huge coefficients
keep their norm.  Kernels and point evaluations are one sum of n^{-z}/w_h(n),
refused at or below the measure's abscissa.  Its tail is in closed form for
the Gamma family; density measures integrate it by scipy.integrate.quad, the
one scipy call of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericError, PoleError
from .measures import AlphaMeasure, Measure
from .series import DirichletSeries, PolytorusPolynomial, bohr_lift, index_of_monomial, power

QMC_POINTS = 2**14
QMC_REPLICATES = 8
QMC_MAX_REL_SPREAD = 0.2
# Even-p norms form f^{p/2} by convolution only up to this many coefficients.
_POWER_CAP = 4_000_000
# A torus integral is done once the trapezoid rules on the grids of M and M/2
# points per axis agree to this relative gap (see _torus_moments).
_TORUS_REL_TOL = 1e-12

# Bernoulli numbers B_2, B_4, ..., B_18 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
)


def zeta(x: float) -> float:
    """Riemann zeta on (1, inf) by Euler-Maclaurin, absolute error below 1e-12."""
    if not x > 1:
        raise PoleError("zeta(x) requires x > 1")
    M = 20
    total = float(np.sum(np.arange(1, M + 1, dtype=np.float64) ** -x))
    total += M ** (1.0 - x) / (x - 1.0) - 0.5 * M**-x
    poch = x  # x (x+1) ... (x + 2k - 2)
    mpow = M ** (-x - 1.0)
    fact = 2.0  # (2k)!
    for k, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * poch * mpow
        poch *= (x + 2 * k - 1) * (x + 2 * k)
        mpow /= M * M
        fact *= (2 * k + 1) * (2 * k + 2)
    return total


@dataclass(frozen=True)
class FunctionalNormEstimate:
    """Norm (or bound) of a point-evaluation functional."""

    value: float
    kind: str  # "exact" | "upper-bound" | "ratio-up-to-constant"
    space: str
    point: complex
    tail: float = 0.0
    lower: float | None = None
    stderr: float | None = None


def _homogeneous(norm):
    """Compute `norm` on f / 2^e, e = log2 of the largest modulus of f
    truncated toward zero, and multiply the norm (and its error bar) by 2^e.

    The quotient's largest modulus lies in (1/2, 2), so its p-th powers stay
    in the float range: 1e-200 + 3e-201 2^{-s} has norm about 1.04e-200,
    although its squares underflow.  A power of two scales every coefficient
    exactly, and an f already in that range keeps every bit of its norm.
    """

    @wraps(norm)
    def scaled(f: DirichletSeries, *args, **kwargs):
        peak = float(np.abs(f.coeffs).max())
        e = int(math.log2(peak)) if 0 < peak < math.inf else 0
        if e == 0:
            return norm(f, *args, **kwargs)
        quotient = np.ldexp(f.coeffs.view(np.float64), -e).view(np.complex128)
        out = norm(DirichletSeries(quotient, exact=f.exact), *args, **kwargs)
        if isinstance(out, tuple):
            return tuple(x if x is None else float(np.ldexp(x, e)) for x in out)
        return float(np.ldexp(out, e))

    return scaled


@_homogeneous
def norm_h2(f: DirichletSeries) -> float:
    """(sum |a_n|^2)^{1/2}; Parseval on the polytorus."""
    if not f.exact:
        raise InvalidInputError("H^2 norm is defined here for exact polynomials only")
    return float(np.linalg.norm(f.coeffs))


def _even_q(p: float) -> int | None:
    q = p / 2.0
    if abs(q - round(q)) < 1e-12 and round(q) >= 1:
        return int(round(q))
    return None


@_homogeneous
def _norm(f: DirichletSeries, p: float, mu: Measure | None = None) -> tuple[float, float | None]:
    """(||f||, error bar) in H^p, or in A^p_mu given mu, with no error bar
    where the value is exact (even p) or not estimated (A^p).

    sigma -> ||f(sigma + .)||^p_{H^p} is built once: at p = 2q the sum of
    |b_m|^2 m^{-2 sigma} over f^q = sum b_m m^{-s}, at other p the torus
    integral of the Bohr lift.  H^p reads it at sigma = 0, A^p integrates it
    against mu.  One term a n^{-s} has the norm |a| ||n^{-s}||, with no power
    of |a| formed: 1 in H^p, and the p-th root of the integral of n^{-p sigma}
    d mu in A^p.
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if not f.exact:
        raise InvalidInputError("H^p and A^p norms are defined here for exact polynomials only")
    q = _even_q(p)
    support = np.flatnonzero(f.coeffs)
    if support.size <= 1:
        value = float(np.abs(f.coeffs[support]).sum())
        if mu is not None and support.size and support[0] > 0:
            log_n = math.log(support[0] + 1.0)
            value *= mu.integrate(lambda sig: np.exp(-p * log_n * sig)) ** (1.0 / p)
        return value, (None if q is not None else 0.0)
    if q is not None:
        D = f.degree  # f^q has degree D^q, checked before that huge integer is formed
        if q * math.log(D) > math.log(_POWER_CAP) + 1.0 or D**q > _POWER_CAP:
            raise InvalidInputError(f"convolution power f^{q:.6g} too large (degree {D})")
        fq = power(f, q, D**q)
        mags = np.abs(fq.coeffs) ** 2
        nz = np.nonzero(mags)[0]
        logs = np.log(nz + 1.0)
        mags = mags[nz]

        def moments(sig):
            return np.exp(-2.0 * np.outer(sig, logs)) @ mags, None

    else:
        lift = bohr_lift(f)

        def moments(sig):
            return _torus_moments(lift, p, sig)

    if mu is not None:
        return mu.integrate(lambda sig: moments(sig)[0]) ** (1.0 / p), None
    (integral,), err = moments(np.zeros(1))
    value = float(integral) ** (1.0 / p)
    return value, (None if err is None else float(err[0]) * value / (p * float(integral)))


def norm_hp(f: DirichletSeries, p: float) -> float:
    """H^p norm of an exact polynomial: exact via ||f^{p/2}||_2^{2/p} at even
    integer p, at other p as qmc_norm_hp."""
    return _norm(f, p)[0]


def qmc_norm_hp(f: DirichletSeries, p: float) -> tuple[float, float]:
    """Estimate of the H^p norm with its error bar, for any p >= 1.

    Integrates |D(f)|^p over the polytorus (see _torus_moments): by a
    node-doubled tensor trapezoid rule where it converges within 2^17 points,
    and then `stderr` is the gap between its last two grids; otherwise on
    QMC_REPLICATES random shifts of one rank-1 lattice, and then it is the
    standard error of the mean of the shifted rules, whose spread is the
    alias error of the lattice.  Either is propagated through the 1/p-th
    root.  At even p the value is exact and `stderr` is 0.
    """
    value, stderr = _norm(f, p)
    return value, stderr or 0.0


def _torus_moments(
    lift: PolytorusPolynomial, p: float, sigmas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """||f_sigma||_{H^p}^p for each sigma, with its error bar, where
    f_sigma = f(sigma + .) and `lift` is the Bohr lift of f.

    |f_sigma|^p is periodic on the polytorus, and analytic where f_sigma has
    no zero, so there the tensor trapezoid rule converges geometrically
    (Trefethen and Weideman, SIAM Rev. 56, 2014).  Terms below rounding at
    every sigma are left out, and only the k coordinates the other monomials
    use are integrated; the rest integrate to 1.  Axis a starts on the grid
    j/M_a with M_a the least power of two above 4 d_a, d_a the largest
    exponent on it, so that the grids of M_a, M_a/2 and M_a/4 points, which
    one evaluation gives (see _trapezoid_rules), all integrate |f|^2 exactly.
    Every M_a doubles while their product fits QMC_REPLICATES * QMC_POINTS
    points.  A sigma is done, with the gap between the first two rules as
    its error bar, once that gap is below _TORUS_REL_TOL and the gap between
    the last two below its square root, as geometric convergence has them:
    a phase of f that cancels the leading alias of one gap does not cancel
    it in the other.  A sigma still open at the budget, or whose gap squared
    once per doubling left would be (f_sigma vanishes on the torus, or k is
    too large), or whose rule overflows (|f_sigma|^p past the floats), goes
    to _qmc_moments: shifted rank-1 lattices on the same k coordinates and
    terms, with the replicate standard error as its error bar.
    """
    alphas = np.array(list(lift.terms), dtype=np.int64)
    # Translating by sigma scales the coefficient of n^{-s} by n^{-sigma}.
    # Each row is divided by its largest modulus in log scale: at sigma in
    # the hundreds the moduli, and their p-th powers sooner, underflow.
    coeffs = np.array(list(lift.terms.values()), dtype=np.complex128)
    ns = np.array([index_of_monomial(m) for m in lift.terms], dtype=np.float64)
    log_mods = np.log(np.abs(coeffs)) - sigmas[:, None] * np.log(ns)
    log_peak = np.max(log_mods, axis=1)
    # numpy divides by a modulus through its reciprocal, which overflows for
    # a subnormal one; such a coefficient is scaled by a power of two first,
    # which keeps its phase, and the others keep their bits.
    phases = coeffs.copy()
    phases[np.abs(coeffs) < np.finfo(np.float64).tiny] *= 2.0**64
    scaled = phases / np.abs(phases) * np.exp(log_mods - log_peak[:, None])
    # Terms of modulus below eps / (p * terms) of the largest move each
    # integral by less than a rounding error.
    live = np.any(np.abs(scaled) >= np.finfo(np.float64).eps / (p * len(alphas)), axis=0)
    alphas, scaled = alphas[live], scaled[:, live]
    alphas = alphas[:, alphas.any(axis=0)]
    if not alphas.shape[1]:
        # only the constant term, of scaled modulus 1, is left
        return np.exp(p * log_peak), np.zeros(sigmas.size)
    budget, k = QMC_REPLICATES * QMC_POINTS, alphas.shape[1]
    integral, err = np.zeros(sigmas.size), np.zeros(sigmas.size)
    qmc = np.zeros(sigmas.size, dtype=bool)
    todo = np.arange(sigmas.size)
    grid = np.array([1 << int(4 * d).bit_length() for d in alphas.max(axis=0)])
    while todo.size and grid.prod() <= budget:
        fine, half, quarter = _trapezoid_rules(alphas, scaled[todo], p, grid)
        gap = np.abs(fine - half)
        done = (
            (fine > 0)
            & (gap <= _TORUS_REL_TOL * fine)
            & (np.abs(half - quarter) <= math.sqrt(_TORUS_REL_TOL) * fine)
        )
        integral[todo[done]], err[todo[done]] = fine[done], gap[done]
        # Each doubling squares the gap of a geometric rule; a sigma whose gap
        # would still be above the tolerance at the budget goes to QMC now,
        # as does one whose rule overflows: every finer grid holds this one.
        left = int(math.log2(budget / grid.prod())) // k
        stuck = ~done & (((gap / fine) ** (2.0**left) > _TORUS_REL_TOL) | np.isinf(fine))
        qmc[todo[stuck]] = True
        todo = todo[~done & ~stuck]
        grid = 2 * grid
    qmc[todo] = True
    if qmc.any():
        integral[qmc], err[qmc] = _qmc_moments(alphas, scaled[qmc], p)
    scale = np.exp(p * log_peak)
    return integral * scale, err * scale


def _trapezoid_rules(
    alphas: np.ndarray, coeffs: np.ndarray, p: float, grid: np.ndarray
) -> np.ndarray:
    """Means of |sum_t c_t z^{alpha_t}|^p over the grids of `grid`, grid/2 and
    grid/4 points per axis of the k-torus, for each row c of `coeffs`.

    The points j of the first grid whose indices are all multiples of 2, or
    of 4, form the other two.  z^alpha at j/grid is the root of unity of index
    sum_a alpha_a j_a L/grid_a mod L, L the largest grid size, taken from one
    table, and the terms are added one by one in a fixed order, so every
    sigma gets the same bits whatever batch it is in.  Points and sigmas go
    in chunks, so that no array outgrows terms x QMC_POINTS entries.
    """
    terms, k = alphas.shape
    size, L = int(grid.prod()), int(grid.max())
    roots = np.exp(2j * np.pi / L * np.arange(L))
    step = min(size, QMC_POINTS)
    rows = max(1, terms * QMC_POINTS // step)
    sums = np.zeros((3, len(coeffs)))
    for start in range(0, size, step):
        j = np.unravel_index(np.arange(start, start + step), tuple(grid))
        phases = np.zeros((terms, step), dtype=np.int64)
        for axis in range(k):
            phases += alphas[:, axis, None] * (j[axis] * (L // int(grid[axis])))
        chars = roots[phases % L]
        on = [True] + [np.all([ja % stride == 0 for ja in j], axis=0) for stride in (2, 4)]
        for lo in range(0, len(coeffs), rows):
            c = coeffs[lo : lo + rows]
            values = c[:, :1] * chars[0]
            for t in range(1, terms):
                values += c[:, t, None] * chars[t]
            mags = np.abs(values) ** p
            for rule, mask in enumerate(on):
                sums[rule, lo : lo + rows] += mags.sum(axis=1, where=mask)
    return sums * np.array([1, 2**k, 4**k])[:, None] / size


def _qmc_moments(
    alphas: np.ndarray, coeffs: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized QMC estimates of the means of |sum_t c_t z^{alpha_t}|^p
    over the k-torus, for each row c of `coeffs`, with their replicate
    standard errors.

    The rule is the rank-1 lattice {i z / n : i < n} (Dick, Kuo and Sloan,
    Acta Numer. 22, 2013), z from _lattice_vector, under QMC_REPLICATES
    uniform random shifts from a fixed-seed generator, so every call gives
    the same bits.  At the point i z / n the
    monomial z^alpha is the n-th root of unity of index (alpha.z mod n) i, so
    the lattice rule is the 1-D trapezoid rule on those exponents, and a
    shift by Delta multiplies c_t by e^{2 pi i alpha_t.Delta}: every point is
    evaluated by _trapezoid_rules.  n doubles from 2^10 to QMC_POINTS, and a
    row is done once its standard error is below _TORUS_REL_TOL of its mean,
    once its mean overflows (each lattice holds the points of the coarser
    ones), or at QMC_POINTS.  The error of one shift is a sum of the integrand's
    Fourier coefficients on the dual lattice with independent uniform
    phases, so an alias the lattice misses shows as spread between shifts.
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
        means = _trapezoid_rules(g, rows, p, np.array([n]))[0].reshape(todo.size, -1)
        mean = np.mean(means, axis=1)
        err = np.std(means, axis=1, ddof=1) / math.sqrt(QMC_REPLICATES)
        done = (err <= _TORUS_REL_TOL * mean) | (n >= QMC_POINTS) | np.isinf(mean)
        integral[todo[done]], se[todo[done]] = mean[done], err[done]
        todo, n = todo[~done], 2 * n
    for i, s in zip(integral.tolist(), se.tolist()):
        if i <= 0:
            raise NumericError("QMC integral estimate is nonpositive")
        if s > QMC_MAX_REL_SPREAD * i:
            raise NumericError(f"QMC did not converge: integral {i!r} with spread {s!r}")
    return integral, se


@lru_cache(maxsize=None)
def _lattice_vector(k: int) -> np.ndarray:
    """Generating vector of the QMC_POINTS-point rank-1 lattice in k
    dimensions; the lattices of n < QMC_POINTS points take it mod n.

    Of 64 odd vectors from a fixed-seed generator, the one of least P_2, the
    worst-case error in the Korobov space of smoothness 1: the mean over the
    points x of prod_a (1 + 2 pi^2 B_2(x_a)) minus 1, B_2(x) = x^2 - x + 1/6.
    """
    n = QMC_POINTS
    candidates = 2 * np.random.default_rng(0).integers(n // 2, size=(64, k)) + 1
    i, x = np.arange(n), np.arange(n) / n
    factor = 1.0 + 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)

    def p2(z):
        return np.mean(math.prod(factor[i * za % n] for za in z.tolist()))

    z = min(candidates, key=p2)
    z.flags.writeable = False
    return z


@_homogeneous
def norm_a2(f: DirichletSeries, mu: Measure) -> float:
    """(sum |a_n|^2 w_h(n))^{1/2}."""
    if not f.exact:
        raise InvalidInputError("norm_a2 requires an exact polynomial")
    w = mu.weights(f.truncation)
    return float(math.sqrt(np.sum(np.abs(f.coeffs) ** 2 * w)))


def norm_ap(f: DirichletSeries, p: float, mu: Measure) -> float:
    """(integral of ||f_sigma||_{H^p}^p d mu(sigma))^{1/p}: the translate-then-
    integrate route, independent of norm_a2, so the two cross-check at p = 2."""
    return _norm(f, p, mu)[0]


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tail: float  # bound on the dropped part of the series


def kernel_series(mu: Measure, s: complex, N: int) -> DirichletSeries:
    """Coefficients n^{-conj(s)}/w_h(n) of the reproducing kernel K(s, .),
    in A^2 exactly for 2 Re s above mu.abscissa."""
    if 2.0 * s.real <= mu.abscissa:
        raise PoleError(f"reproducing kernel requires 2 Re s above the abscissa {mu.abscissa!r}")
    w = mu.weights(N)
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    coeffs = np.exp(-np.conjugate(complex(s)) * logs) / w
    return DirichletSeries(coeffs, exact=False)


def inner_a2(f: DirichletSeries, g: DirichletSeries, mu: Measure) -> complex:
    """<f, g> in A^2: sum f_n conj(g_n) w_h(n) over the common truncation."""
    N = min(f.truncation, g.truncation)
    w = mu.weights(N)
    return complex(np.sum(f.coeffs[:N] * np.conjugate(g.coeffs[:N]) * w))


def _kernel_tail(mu: Measure, a: float, N: int) -> float:
    """Bound on the tail sum over n > N of f(n) = n^{-a}/w_h(n).

    log f(e^t) = -a t - log w_h(e^t) is concave in t, since w_h(e^t) is a
    Laplace transform in t, so f is unimodal and the tail is at most the
    integral of f from N upward plus max over x >= N of f(x), for a above
    mu.abscissa, where the sum converges.

    For the Gamma family 1/w_h(x) = (1 + log x)^{alpha+1}: the integral is
    e^{a-1} (a-1)^{-(alpha+2)} Gamma(alpha+2, (a-1)(1 + log N)) and the peak
    sits at log x* = (alpha+1)/a - 1.  Other measures integrate by quad and
    take f(N) for the maximum, which assumes N is past the peak; an integral
    that quad does not converge is no bound, and raises NumericError.
    """
    if isinstance(mu, AlphaMeasure):
        b = mu.alpha + 1.0
        log_integral = (
            (a - 1.0)
            - (b + 1.0) * math.log(a - 1.0)
            + _log_upper_gamma(b + 1.0, (a - 1.0) * (1.0 + math.log(N)))
        )
        u = max(math.log(N), b / a - 1.0)
        log_peak = -a * u + b * math.log1p(u)
        try:
            val = math.exp(log_integral) + math.exp(log_peak)
        except OverflowError:
            val = math.inf
    else:
        from scipy.integrate import quad

        def summand(x):
            w = mu.weight(x)
            if not w > 0:
                raise NumericError(f"weight w_h({x:g}) of the kernel tail underflows")
            return x**-a / w

        integral, _, *failed = quad(
            summand, N, np.inf, limit=200, epsabs=0.0, epsrel=1e-10, full_output=1
        )
        if len(failed) > 1:  # quad appends its message when it does not converge
            raise NumericError(f"kernel tail integral did not converge at Re z = {a!r}")
        val = N**-a / mu.weight(N) + integral
    if not math.isfinite(val):
        raise DivergenceError(f"kernel tail overflows at abscissa {a!r}")
    return val


def _log_upper_gamma(s: float, x: float) -> float:
    """log Gamma(s, x), the upper incomplete gamma function, for s >= 1, x > 0.

    Below x = s + 1, Gamma(s) minus the series of the lower function: there
    Gamma(s, x) >= Gamma(s, s + 1) >= e^{-2} Gamma(s), so the difference
    keeps its digits.  Above it, the continued fraction by the modified
    Lentz method (Numerical Recipes, gser and gcf).
    """
    eps, tiny = 1e-16, 1e-300
    if x < s + 1.0:
        term = total = 1.0 / s
        for k in range(1, 100_000):
            term *= x / (s + k)
            total += term
            if term < total * eps:
                break
        else:
            raise NumericError(f"incomplete gamma series did not converge at s={s!r}, x={x!r}")
        lower = math.exp(s * math.log(x) - x - math.lgamma(s) + math.log(total))
        return math.lgamma(s) + math.log1p(-lower)
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1.0 / d
        h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    else:
        raise NumericError(f"incomplete gamma fraction did not converge at s={s!r}, x={x!r}")
    return s * math.log(x) - x + math.log(h)


def _weighted_sum(mu: Measure, z: complex, N: int) -> tuple[complex, float]:
    """Partial sum over n <= N of n^{-z}/w_h(n), and a bound on the rest.
    The sum converges exactly for Re z above mu.abscissa."""
    z = complex(z)
    if z.real <= mu.abscissa:
        raise DivergenceError(
            f"sum n^(-z)/w_h(n) diverges at Re z = {z.real!r}, "
            f"not above the abscissa {mu.abscissa!r} of the measure"
        )
    wh = mu.weights(N)
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    return complex(np.sum(np.exp(-z * logs) / wh)), _kernel_tail(mu, z.real, N)


def kernel(mu: Measure, s: complex, w: complex, N: int) -> KernelValue:
    """Truncated kernel sum over n <= N of n^{-conj(s)-w}/w_h(n), with a tail bound."""
    value, tail = _weighted_sum(mu, complex(s).conjugate() + complex(w), N)
    return KernelValue(value=value, tail=tail)


def point_eval_norm_hp(s: complex, p: float) -> FunctionalNormEstimate:
    """||delta_s|| on H^p: zeta(2 Re s)^{1/p} (exact)."""
    s = complex(s)
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if s.real <= 0.5:
        raise PoleError("point evaluation is unbounded for Re s <= 1/2")
    return FunctionalNormEstimate(
        value=zeta(2.0 * s.real) ** (1.0 / p), kind="exact", space=f"H^{p:g}", point=s
    )


def point_eval_sum(mu: Measure, sigma: float, N: int) -> tuple[float, float]:
    """S(sigma), the partial sum over n <= N of n^{-sigma}/w_h(n), and its tail
    bound: the kernel at (sigma/2, sigma/2)."""
    value, tail = _weighted_sum(mu, sigma, N)
    return value.real, tail


def point_eval_bound_a1(mu: Measure, s: complex, N: int) -> FunctionalNormEstimate:
    """Upper bound sum n^{-Re s}/w_h(n) for ||delta_s|| on A^1, with trivial lower bound 1."""
    s = complex(s)
    partial, tail = point_eval_sum(mu, s.real, N)
    return FunctionalNormEstimate(
        value=partial + tail,
        kind="upper-bound",
        space="A^1",
        point=s,
        tail=tail,
        lower=1.0,
    )


def point_eval_ratio_alpha(alpha: float, p: float, s: complex) -> FunctionalNormEstimate:
    """Growth ratio (Re s / (2 Re s - 1))^{(2+alpha)/p}, up to an unspecified constant."""
    s = complex(s)
    if alpha <= -1:
        raise InvalidInputError("alpha must exceed -1")
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if s.real <= 0.5:
        raise PoleError("ratio has a pole at Re s = 1/2")
    value = (s.real / (2.0 * s.real - 1.0)) ** ((2.0 + alpha) / p)
    return FunctionalNormEstimate(
        value=value, kind="ratio-up-to-constant", space=f"A^{p:g}_alpha", point=s
    )
