"""Norms of the Hardy and weighted Bergman spaces, reproducing kernels, and
point-evaluation functionals.

H^2 and A^2 norms are exact coefficient sums.  Even-integer H^p norms reduce
exactly to convolution powers (||f||_p = ||f^{p/2}||_2^{2/p}); other p are
estimated by randomized quasi-Monte Carlo on the polytorus through the Bohr
lift.  A^p norms integrate the translated H^p norms against the measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import qmc

from .errors import DivergenceError, InvalidInputError, NumericError, PoleError
from .measures import Measure
from .series import DirichletSeries, PolytorusPolynomial, bohr_lift, index_of_monomial, power

QMC_POINTS = 2**14
QMC_REPLICATES = 8
QMC_MAX_REL_SPREAD = 0.2

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


def _power_truncation(f: DirichletSeries, q: int) -> int:
    D = f.degree
    N = D**q
    if N > 4_000_000:
        raise InvalidInputError(f"convolution power truncation {N} too large (degree {D}, q={q})")
    return N


def norm_hp(f: DirichletSeries, p: float, *, seed: int = 0) -> float:
    """H^p norm of an exact polynomial.

    Even integer p is computed exactly via ||f^{p/2}||_2^{2/p}; other p by
    quasi-Monte Carlo on the torus (see qmc_norm_hp for the error bar).
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if not f.exact:
        raise InvalidInputError("norm_hp requires an exact polynomial")
    q = _even_q(p)
    if q is not None:
        fq = power(f, q, _power_truncation(f, q))
        return norm_h2(fq) ** (1.0 / q)
    value, _ = qmc_norm_hp(f, p, seed=seed)
    return value


def qmc_norm_hp(f: DirichletSeries, p: float, *, seed: int = 0) -> tuple[float, float]:
    """Randomized-QMC estimate of the H^p norm with its standard error.

    Integrates |D(f)|^p over the polytorus with QMC_REPLICATES independently
    scrambled Sobol sequences; the estimate is the mean and the uncertainty
    the replicate standard error, propagated through the 1/p-th root.
    """
    (integral,), (se,) = _qmc_moments(bohr_lift(f), p, np.zeros(1), seed)
    value = float(integral) ** (1.0 / p)
    # The zero polynomial has integral 0 and no spread.
    stderr = float(se) * value / (p * float(integral)) if integral else 0.0
    return value, stderr


def _qmc_moments(
    lift: PolytorusPolynomial, p: float, sigmas: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """QMC estimates of ||f_sigma||_{H^p}^p for each sigma, with their replicate
    standard errors, where f_sigma = f(sigma + .) and `lift` is the Bohr lift of f.

    Translating by sigma scales the coefficient of n^{-s} by n^{-sigma} and
    leaves the monomials alone, so each replicate draws its scrambled Sobol
    points and builds the terms x points character matrix exp(2 pi i alpha.u)
    once for every sigma.
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    coeffs = np.array(list(lift.terms.values()), dtype=np.complex128)
    if lift.dimension == 0:
        return np.full(sigmas.size, abs(coeffs.sum()) ** p), np.zeros(sigmas.size)
    ns = np.array([index_of_monomial(m) for m in lift.terms], dtype=np.float64)
    # Each translate is integrated with its coefficients a_n n^{-sigma}
    # divided by their largest modulus, and scaled back at the end, all in
    # log scale: at sigma in the hundreds the moduli, and their p-th powers
    # sooner, underflow.
    log_mods = np.log(np.abs(coeffs)) - sigmas[:, None] * np.log(ns)
    log_peak = np.max(log_mods, axis=1)
    scaled = coeffs / np.abs(coeffs) * np.exp(log_mods - log_peak[:, None])
    alphas = np.array(list(lift.terms), dtype=np.float64)
    means = np.empty((sigmas.size, QMC_REPLICATES))
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(QMC_REPLICATES)):
        sob = qmc.Sobol(d=lift.dimension, scramble=True, seed=np.random.default_rng(ss))
        chars = np.exp(2j * np.pi * (alphas @ sob.random(QMC_POINTS).T))
        for j, c in enumerate(scaled):
            # Summed term by term rather than by a BLAS product: the replicate
            # spread cancels about six digits of the means, so the standard
            # error would otherwise move with the summation order.
            values = sum(row * ck for row, ck in zip(chars, c))
            means[j, r] = np.mean(np.abs(values) ** p)
    integral = np.mean(means, axis=1)
    se = np.std(means, axis=1, ddof=1) / math.sqrt(QMC_REPLICATES)
    for i, s in zip(integral.tolist(), se.tolist()):
        if i <= 0:
            raise NumericError("QMC integral estimate is nonpositive")
        if s > QMC_MAX_REL_SPREAD * i:
            raise NumericError(f"QMC did not converge: integral {i!r} with spread {s!r}")
    scale = np.exp(p * log_peak)
    return integral * scale, se * scale


def norm_a2(f: DirichletSeries, mu: Measure) -> float:
    """(sum |a_n|^2 w_h(n))^{1/2}."""
    if not f.exact:
        raise InvalidInputError("norm_a2 requires an exact polynomial")
    w = mu.weights(f.truncation)
    return float(math.sqrt(np.sum(np.abs(f.coeffs) ** 2 * w)))


def norm_ap(
    f: DirichletSeries,
    p: float,
    mu: Measure,
    *,
    seed: int = 0,
) -> float:
    """(integral of ||f_sigma||_{H^p}^p d mu(sigma))^{1/p}.

    This is the translate-then-integrate route, kept independent of norm_a2
    so the two can cross-check each other at p = 2.
    """
    if not f.exact:
        raise InvalidInputError("norm_ap requires an exact polynomial")
    q = _even_q(p)
    if q is not None:
        fq = power(f, q, _power_truncation(f, q))
        mags = np.abs(fq.coeffs) ** 2
        nz = np.nonzero(mags)[0]
        logs = np.log(nz + 1.0)
        mags = mags[nz]

        def g(sig):
            sig = np.asarray(sig, dtype=np.float64)
            return np.exp(-2.0 * np.outer(sig, logs)) @ mags

        return mu.integrate(g) ** (1.0 / p)

    lift = bohr_lift(f)
    return mu.integrate(lambda sig: _qmc_moments(lift, p, sig, seed)[0]) ** (1.0 / p)


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tail: float  # bound on the dropped part of the series


def kernel_series(mu: Measure, s: complex, N: int) -> DirichletSeries:
    """Coefficients n^{-conj(s)}/w_h(n) of the reproducing kernel K(s, .)."""
    if s.real <= 0.5:
        raise PoleError("reproducing kernel requires Re s > 1/2")
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
    """Integral-comparison bound on sum over n > N of n^{-a}/w_h(n).

    The summand n^{-a}/w_h(n) is eventually decreasing for a past the
    convergence abscissa, so the tail is bounded by term(N) plus the
    integral from N upward.
    """
    term_N = N**-a / mu.weight(N)
    val, _ = quad(lambda x: x**-a / mu.weight(x), N, np.inf, limit=200)
    if not math.isfinite(val):
        raise DivergenceError(f"kernel tail diverges at abscissa {a!r}")
    return term_N + val


def kernel(mu: Measure, s: complex, w: complex, N: int) -> KernelValue:
    """Truncated kernel sum over n <= N of n^{-conj(s)-w}/w_h(n), with a tail bound."""
    s, w = complex(s), complex(w)
    a = s.real + w.real
    if a <= 1.0:
        raise DivergenceError("kernel series diverges for Re s + Re w <= 1")
    wh = mu.weights(N)
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    value = complex(np.sum(np.exp(-(np.conjugate(s) + w) * logs) / wh))
    return KernelValue(value=value, tail=_kernel_tail(mu, a, N))


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


def _dyadic_blocks_decreasing(terms: np.ndarray) -> bool:
    N = terms.size
    if N < 8:
        return True
    b2 = float(np.sum(terms[N // 2 :]))
    b1 = float(np.sum(terms[N // 4 : N // 2]))
    return b2 < b1


def point_eval_sum(mu: Measure, sigma: float, N: int) -> tuple[float, float]:
    """Partial sum over n <= N of n^{-sigma}/w_h(n) and its tail estimate.

    Raises DivergenceError naming the smallest convergent abscissa found on
    a coarse upward search when the dyadic block ratio indicates divergence.
    """
    wh = mu.weights(N)
    ns = np.arange(1, N + 1, dtype=np.float64)

    def blocks_ok(sig: float) -> bool:
        return _dyadic_blocks_decreasing(ns**-sig / wh)

    if not blocks_ok(sigma):
        probe = sigma
        for _ in range(200):
            probe += 0.25
            if blocks_ok(probe):
                break
        raise DivergenceError(
            f"sum n^(-sigma)/w_h(n) diverges at sigma={sigma!r}; "
            f"smallest convergent abscissa found: {probe!r}"
        )
    partial = float(np.sum(ns**-sigma / wh))
    tail = _kernel_tail(mu, sigma, N)
    return partial, tail


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
