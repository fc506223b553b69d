"""Norms of the Hardy and weighted Bergman spaces, reproducing kernels, and
point-evaluation functionals.

H^2 and A^2 norms are exact coefficient sums.  Even-integer H^p norms reduce
exactly to convolution powers (||f||_p = ||f^{p/2}||_2^{2/p}).  Other p
integrate |f|^p over the polytorus through the Bohr lift (see torus).  A^p
norms integrate the translated H^p norms against the measure: at p = 2q, by
Fubini, that integral is sum |b_m|^2 w_h(m) over f^q = sum b_m m^{-s}, with
the weights read at the support of f^q only; f^q is one plain array of
D^q coefficients (D the degree of f), q - 1 passes of series._convolve,
and at p = 2 it is the support of f itself, with no convolution.  At
other p it is the measure's quadrature of the torus integrals.  Every norm
is computed on f scaled by a power of two, so that tiny and huge coefficients
keep their norm.  Kernels and point evaluations are one sum of n^{-z}/w_h(n),
refused at or below the measure's abscissa, with the measure's bound on
its tail (Measure.kernel_tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import torus
from .errors import DivergenceError, InvalidInputError, NumericError, PoleError
from .measures import Measure
from .series import DirichletSeries, _convolve, _finite_point, _size, bohr_lift

# The benchmark's spans (bench/spans.py) size a qmc_norm_hp call from these.
QMC_POINTS, QMC_REPLICATES = torus.QMC_POINTS, torus.QMC_REPLICATES
# Even-p norms form f^{p/2} by convolution only up to this many coefficients.
_POWER_CAP = 4_000_000

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
        if mpow == 0.0:  # so is every later term, while poch may overflow
            break
        total += b / fact * poch * mpow
        poch *= (x + 2 * k - 1) * (x + 2 * k)
        mpow /= M * M
        fact *= (2 * k + 1) * (2 * k + 2)
    return total


@dataclass(frozen=True)
class FunctionalNormEstimate:
    """Norm of a point-evaluation functional."""

    value: float
    kind: str  # "exact"
    space: str
    point: complex


def _check_p(p: float) -> None:
    """Refuse p unless 1 <= p < inf, NaN included: the one rule for p."""
    if not p >= 1:
        raise InvalidInputError("p must be >= 1")
    if p == math.inf:
        raise InvalidInputError("p must be finite")


def _homogeneous(norm):
    """Refuse an inexact f, compute `norm` on f / 2^e, e = log2 of the largest
    modulus of f truncated toward zero, and multiply the norm (and its error
    bar) by 2^e.

    The quotient's largest modulus lies in (1/2, 2), so its p-th powers stay
    in the float range: 1e-200 + 3e-201 2^{-s} has norm about 1.04e-200,
    although its squares underflow.  A power of two scales every coefficient
    exactly, and an f already in that range keeps every bit of its norm.
    """

    @wraps(norm)
    def scaled(f: DirichletSeries, *args, **kwargs):
        if not f.exact:
            raise InvalidInputError("norms are defined here for exact polynomials only")
        peak = float(np.abs(f.coeffs).max())
        e = int(math.log2(peak)) if 0 < peak < math.inf else 0
        if e == 0:
            return norm(f, *args, **kwargs)
        quotient = np.ldexp(f.coeffs.view(np.float64), -e).view(np.complex128)
        out = norm(DirichletSeries(quotient, exact=True), *args, **kwargs)

        def back(x):  # x 2^e, an array kept as one
            return x if x is None else np.ldexp(x, e) if np.ndim(x) else float(np.ldexp(x, e))

        return tuple(map(back, out)) if isinstance(out, tuple) else back(out)

    return scaled


@_homogeneous
def norm_h2(f: DirichletSeries) -> float:
    """(sum |a_n|^2)^{1/2}; Parseval on the polytorus."""
    return float(np.linalg.norm(f.coeffs))


def _even_q(p: float) -> int | None:
    q = p / 2.0
    if abs(q - round(q)) < 1e-12 and round(q) >= 1:
        return int(round(q))
    return None


@_homogeneous
def _norm(
    f: DirichletSeries, p: float, mu: Measure | None = None, sigmas=None
) -> tuple[float | np.ndarray, float | None]:
    """(||f||, error bar) in H^p, or in A^p_mu given mu, with no error bar
    where the value is exact (even p) or not estimated (A^p).  Given
    `sigmas`, all finite and >= 0, in place of mu, the H^p norms of the
    translates f(sigma + .) instead, as an array, with no error bar.

    sigma -> ||f(sigma + .)||^p_{H^p} is built once: at p = 2q the sum of
    |b_m|^2 m^{-2 sigma} over f^q = sum b_m m^{-s}, at other p the torus
    integral of the Bohr lift.  H^p reads it at sigma = 0, or at `sigmas` in
    one evaluation.  A^p integrates it against mu, which at p = 2q is
    sum |b_m|^2 w_h(m), read from mu.weights_at.  One term a n^{-s} has the
    norm |a| ||n^{-s}||, with no power of |a| formed: 1 in H^p (n^{-sigma}
    for its translate), and in A^p the p-th root of the integral of
    n^{-p sigma} d mu, which is the weight w_h(n^{p/2}).
    """
    _check_p(p)
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if not np.all((sigmas >= 0) & (sigmas < math.inf)):
            raise InvalidInputError("translation requires a finite sigma >= 0")
    q = _even_q(p)
    support = f.coeffs.nonzero()[0]
    if support.size <= 1:
        value = float(np.abs(f.coeffs[support]).sum())
        if sigmas is not None:
            n = support[0] + 1.0 if support.size else 1.0
            return value * n**-sigmas, None
        if mu is not None and support.size and support[0] > 0:
            try:
                x = float(support[0] + 1) ** (p / 2.0)
            except OverflowError:
                raise NumericError(f"{support[0] + 1}^(p/2) at p = {p!r} is past the floats") from None
            value *= mu.weight(x) ** (1.0 / p)
        return value, (None if q is not None else 0.0)
    if q is not None:
        D = f.degree  # f^q has degree D^q, checked before that huge integer is formed
        if q * math.log(D) > math.log(_POWER_CAP) + 1.0 or D**q > _POWER_CAP:
            raise InvalidInputError(f"convolution power f^{q:.6g} too large (degree {D})")
        if q == 1:  # f^1 is f: its terms are the support's
            nz, b = support, f.coeffs[support]
        else:  # f padded with zeros to D^q, convolved with itself q - 1 times
            base = np.zeros(D**q, dtype=np.complex128)
            base[:D] = f.coeffs[:D]
            fq = base
            for _ in range(q - 1):
                fq = _convolve(fq, base, D**q)
            nz = fq.nonzero()[0]
            b = fq[nz]
        mags = np.abs(b) ** 2
        keep = mags.nonzero()[0]
        if keep.size < mags.size:  # a term whose square underflows adds nothing
            nz, mags = nz[keep], mags[keep]
        if mu is not None:  # Fubini: m^{-2 sigma} integrates to w_h(m)
            return float(mags @ mu.weights_at(nz + 1)) ** (1.0 / p), None
        logs = np.log(nz + 1.0)

        def moments(sig):
            return np.exp(-2.0 * np.outer(sig, logs)) @ mags, None

    else:
        lift = bohr_lift(f)

        def moments(sig):
            return torus._torus_moments(lift, p, sig)

    if sigmas is not None:
        return moments(sigmas)[0] ** (1.0 / p), None
    if mu is not None:
        return mu.integrate(lambda sig: moments(sig)[0]) ** (1.0 / p), None
    (integral,), err = moments(np.zeros(1))
    value = float(integral) ** (1.0 / p)
    return value, (None if err is None else float(err[0]) * value / (p * float(integral)))


def norm_hp(f: DirichletSeries, p: float, sigmas=None) -> float | np.ndarray:
    """H^p norm of an exact polynomial: exact via ||f^{p/2}||_2^{2/p} at even
    integer p, at other p as qmc_norm_hp.  Given `sigmas`, all finite and
    >= 0, the norms of the translates f(sigma + .) instead, as an array, from
    one evaluation of the moment function."""
    return _norm(f, p, sigmas=sigmas)[0]


def qmc_norm_hp(f: DirichletSeries, p: float) -> tuple[float, float]:
    """Estimate of the H^p norm with its error bar, for any p >= 1.

    At even p the value is exact and `stderr` is 0.  At other p it is the
    torus integral of the Bohr lift (see torus), and `stderr` is that
    integral's error bar propagated through the 1/p-th root.  The error bar
    is the gap between the trapezoid rules on the final grid and on the
    grid of half as many points per axis, each the mean of its own points
    in C order, with the bits a call on that grid gives; or, where the
    grids do not converge, the standard error of the shifted lattice
    rules.  Raises NumericError where the lattice rules do not converge.
    """
    value, stderr = _norm(f, p)
    return value, stderr or 0.0


@_homogeneous
def norm_a2(f: DirichletSeries, mu: Measure) -> float:
    """(sum |a_n|^2 w_h(n))^{1/2}."""
    w = mu.weights(f.truncation)
    return float(math.sqrt(np.sum(np.abs(f.coeffs) ** 2 * w)))


def norm_ap(f: DirichletSeries, p: float, mu: Measure) -> float:
    """(integral of ||f_sigma||_{H^p}^p d mu(sigma))^{1/p}.  At p = 2q it is
    (sum |b_m|^2 w_h(m))^{1/p} over f^q = sum b_m m^{-s}, so at p = 2 it is
    norm_a2; at other p the measure's quadrature of the translated H^p norms."""
    return _norm(f, p, mu)[0]


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tail: float  # bound on the dropped part of the series


def kernel_series(mu: Measure, s: complex, N: int) -> DirichletSeries:
    """Coefficients n^{-conj(s)}/w_h(n) of the reproducing kernel K(s, .),
    in A^2 exactly for 2 Re s above mu.abscissa."""
    s = _finite_point(s)
    if 2.0 * s.real <= mu.abscissa:
        raise PoleError(f"reproducing kernel requires 2 Re s above the abscissa {mu.abscissa!r}")
    return DirichletSeries(_kernel_terms(mu, s.conjugate(), N), exact=False)


def inner_a2(f: DirichletSeries, g: DirichletSeries, mu: Measure) -> complex:
    """<f, g> in A^2: sum f_n conj(g_n) w_h(n) over the common truncation."""
    N = min(f.truncation, g.truncation)
    w = mu.weights(N)
    return complex(np.sum(f.coeffs[:N] * np.conjugate(g.coeffs[:N]) * w))


def _kernel_terms(mu: Measure, z: complex, N: int) -> np.ndarray:
    """n^{-z}/w_h(n) for n = 1..N, real at a real z."""
    wh = mu.weights(N)
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    if z.imag == 0:  # the real exp is several times faster than the complex one
        return np.exp(-z.real * logs) / wh
    return np.exp(-z * logs) / wh


def _weighted_sum(mu: Measure, z: complex, N: int) -> tuple[complex, float]:
    """Partial sum over n <= N of n^{-z}/w_h(n), and a bound on the rest.
    The sum converges exactly for Re z above mu.abscissa."""
    N = _size(N, "the truncation N")
    z = _finite_point(z, "the exponent z")
    if z.real <= mu.abscissa:
        raise DivergenceError(
            f"sum n^(-z)/w_h(n) diverges at Re z = {z.real!r}, "
            f"not above the abscissa {mu.abscissa!r} of the measure"
        )
    return complex(np.sum(_kernel_terms(mu, z, N))), mu.kernel_tail(z.real, N)


def kernel(mu: Measure, s: complex, w: complex, N: int) -> KernelValue:
    """Truncated kernel sum over n <= N of n^{-conj(s)-w}/w_h(n), with a tail bound."""
    value, tail = _weighted_sum(mu, complex(s).conjugate() + complex(w), N)
    return KernelValue(value=value, tail=tail)


def point_eval_norm_hp(s: complex, p: float) -> FunctionalNormEstimate:
    """||delta_s|| on H^p: zeta(2 Re s)^{1/p} (exact)."""
    s = _finite_point(s)
    _check_p(p)
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

