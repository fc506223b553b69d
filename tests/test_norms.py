import cmath
import math

import mpmath
import numpy as np
import pytest

import dirspaces as d
from dirspaces import (
    AlphaMeasure,
    DensityMeasure,
    DivergenceError,
    InvalidInputError,
    PoleError,
    QuadratureSpec,
)
from dirspaces.measures import _gauss_laguerre
from dirspaces.norms import _kernel_tail, _log_upper_gamma, _torus_moments

from conftest import random_polynomial


# ---------- zeta ----------


def test_zeta_classical_values():
    assert d.zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert d.zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_direct_sum_oracle():
    # at x = 20 the direct sum converges fast enough to serve as oracle
    oracle = sum(n**-20.0 for n in range(1, 200))
    assert d.zeta(20.0) == pytest.approx(oracle, abs=1e-14)
    assert d.zeta(20.0) == pytest.approx(1.0000009540, abs=1e-9)


def test_zeta_against_mpmath():
    for x in (1.01, 1.5, 2.5, 3.0, 7.7, 30.0, 120.0):
        assert d.zeta(x) == pytest.approx(float(mpmath.zeta(x)), abs=1e-12)


def test_zeta_pole():
    with pytest.raises(PoleError):
        d.zeta(1.0)
    with pytest.raises(PoleError):
        d.zeta(0.5)


# ---------- H^p ----------


def test_norm_h2_examples():
    assert d.norm_h2(d.from_terms({1: 1.0}, 4)) == 1.0
    assert d.norm_h2(d.from_terms({1: 1.0, 2: 2.0}, 4)) == pytest.approx(math.sqrt(5))
    f = d.from_terms({n: 1.0 for n in range(1, 9)}, 8)
    assert d.norm_h2(f) == pytest.approx(math.sqrt(8))


def test_norm_hp_monomial_any_p():
    f = d.from_terms({6: 2.5j}, 8)
    for p in (1.5, 2.0, 4.0, 6.0):
        assert d.norm_hp(f, p) == pytest.approx(2.5, rel=1e-3)


def test_norm_hp_even_p_convolution_oracle():
    f = d.from_terms({1: 1.0, 2: 1.0}, 4)
    # (1 + 2^{-s})^2 has coefficients 1, 2, 1 -> sixth root of 6 squared
    assert d.norm_hp(f, 4.0) == pytest.approx(6.0**0.25)
    assert d.norm_hp(f, 2.0) == pytest.approx(math.sqrt(2))


def test_norm_hp_qmc_cross_check():
    f = d.from_terms({1: 1.0, 2: 1.0}, 4)
    for p, exact in ((2.0, math.sqrt(2)), (4.0, 6.0**0.25)):
        value, stderr = d.qmc_norm_hp(f, p)
        assert abs(value - exact) <= 3 * stderr + 1e-9
        # even p takes the exact convolution route
        assert (value, stderr) == (d.norm_hp(f, p), 0.0)


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0, 4001.0, 262144.0, 2e8])
def test_one_term_norm_is_its_modulus(p, alpha0, sampled_density):
    # ||a n^{-s}|| = |a| ||n^{-s}||: no power of |a| is formed, at any p
    f = d.from_terms({1: 0.7}, 4)
    assert d.norm_hp(f, p) == d.qmc_norm_hp(f, p)[0] == 0.7
    assert d.norm_ap(f, p, alpha0) == d.norm_ap(f, p, sampled_density) == 0.7
    assert d.norm_hp(d.from_terms({5: -0.6j}, 5), p) == 0.6
    assert d.norm_hp(d.from_terms({}, 3), p) == d.norm_ap(d.from_terms({}, 3), p, alpha0) == 0.0


def test_norm_hp_validation():
    with pytest.raises(InvalidInputError):
        d.norm_hp(d.from_terms({1: 1.0}, 4), 0.5)


# ---------- A^p ----------


def test_norm_a2_examples(alpha0):
    assert d.norm_a2(d.from_terms({1: 1.0}, 4), alpha0) == pytest.approx(1.0)
    w2 = 1.0 / (1.0 + math.log(2))
    assert d.norm_a2(d.from_terms({2: 1.0}, 4), alpha0) == pytest.approx(math.sqrt(w2))
    assert d.norm_a2(d.from_terms({2: 1.0}, 4), alpha0) == pytest.approx(0.7685, abs=1e-4)
    assert d.norm_a2(d.from_terms({1: 1.0, 2: 1.0}, 4), alpha0) == pytest.approx(
        math.sqrt(1 + w2)
    )


def test_norm_ap_monomial(alpha0):
    f = d.from_terms({2: 1.0}, 4)
    assert d.norm_ap(f, 2.0, alpha0) == pytest.approx(d.norm_a2(f, alpha0), rel=1e-9)
    assert d.norm_ap(d.from_terms({1: 1.0}, 4), 4.0, alpha0) == pytest.approx(1.0)


def test_norm_ap_equals_norm_a2(alpha0, alpha1, custom_density, sampled_density):
    rng = np.random.default_rng(5)
    for mu in (alpha0, alpha1, custom_density, sampled_density):
        for _ in range(5):
            f = random_polynomial(rng, 32)
            a2 = d.norm_a2(f, mu)
            assert abs(d.norm_ap(f, 2.0, mu) - a2) / a2 < 1e-6


def test_contractive_inclusion(alpha0, alpha1, custom_density):
    rng = np.random.default_rng(9)
    for mu in (alpha0, alpha1, custom_density):
        for p in (2.0, 4.0):
            for _ in range(5):
                f = random_polynomial(rng, 16)
                assert d.norm_ap(f, p, mu) <= d.norm_hp(f, p) + 1e-9


SMALL_RULE = d.AlphaMeasure(1.0, spec=d.QuadratureSpec(nodes=12, tol=1e-6))


def test_norm_ap_noneven_matches_per_node_route():
    # Reference: one H^p estimate of the translate f(sigma + .) per node.
    f = d.from_terms({1: 1.0, 2: 0.3 - 0.1j, 6: 0.2j, 11: 0.15}, 11)
    p = 3.0
    ref = SMALL_RULE.integrate(
        lambda sig: np.array([d.norm_hp(d.translate(f, s), p) ** p for s in sig])
    ) ** (1.0 / p)
    assert d.norm_ap(f, p, SMALL_RULE) == pytest.approx(ref, rel=1e-12)


def test_norm_ap_noneven_lifts_once(monkeypatch):
    from dirspaces import norms

    calls = []

    def counting_lift(f):
        calls.append(f)
        return d.bohr_lift(f)

    monkeypatch.setattr(norms, "bohr_lift", counting_lift)
    d.norm_ap(d.from_terms({1: 1.0, 6: 0.4j}, 6), 2.5, SMALL_RULE)
    assert len(calls) == 1


def test_norm_ap_noneven_monomial_closed_form(alpha0):
    # ||13^{-sigma}||_{H^1} = 13^{-sigma}, so the A^1 norm is the weight at
    # sqrt(13).  The top nodes of the default rule lie where 13^{-sigma}
    # underflows to 0: those translates are the zero polynomial.
    f = d.from_terms({13: 1.0}, 13)
    assert d.norm_ap(f, 1.0, alpha0) == pytest.approx(d.alpha_weight(0.0, 13**0.5), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_norm_ap_noneven_without_constant_term(alpha):
    # ||2^{-sigma-s}||_{H^3}^3 = 2^{-3 sigma}, so ||2^{-s}||_{A^3}^3 is the
    # weight at 2^{3/2}.  The top nodes lie where |2^{-sigma}|^3 underflows.
    f = d.from_terms({2: 1.0}, 2)
    ref = (1.0 + 1.5 * math.log(2.0)) ** (-(alpha + 1.0) / 3.0)
    assert d.norm_ap(f, 3.0, d.AlphaMeasure(alpha)) == pytest.approx(ref, rel=1e-12)


# ---------- torus route ----------


def _torus_integral(f, p):
    (integral,), (err,) = _torus_moments(d.bohr_lift(f), p, np.zeros(1))
    return integral, err


def test_torus_route_matches_convolution_at_even_p():
    rng = np.random.default_rng(17)
    for _ in range(10):
        primes = rng.choice([2, 3, 5, 7], size=rng.integers(1, 4), replace=False)
        terms = {1: complex(*rng.uniform(-1, 1, 2))}
        for _ in range(rng.integers(1, 5)):
            exponents = rng.integers(0, 3, primes.size)
            n = int(np.prod([int(q) ** int(e) for q, e in zip(primes, exponents)]))
            terms[n] = complex(*rng.uniform(-1, 1, 2))
        f = d.from_terms(terms, max(terms))
        assert np.count_nonzero(np.any(list(d.bohr_lift(f).terms), axis=0)) <= 3
        for q in (1, 2):
            exact = d.norm_h2(d.power(f, q, f.degree**q)) ** 2
            integral, err = _torus_integral(f, 2.0 * q)
            assert integral == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert err <= 1e-12 * integral


def test_torus_route_integrates_only_active_coordinates():
    # 11^{-s} lifts to z_5 of a 5-dimensional torus, 2^{-s} to z_1 of a 1-dimensional one
    eleven = d.from_terms({1: 1.0, 11: 0.3}, 11)
    two = d.from_terms({1: 1.0, 2: 0.3}, 2)
    assert d.bohr_lift(eleven).dimension == 5
    assert d.qmc_norm_hp(eleven, 3.0) == d.qmc_norm_hp(two, 3.0)
    # a term below rounding is left out, and with it the coordinate only it uses
    tiny = d.from_terms({1: 1.0, 2: 0.3, 11: 1e-300}, 11)
    assert d.qmc_norm_hp(tiny, 3.0) == d.qmc_norm_hp(two, 3.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 7.3])
def test_torus_route_monomial(p):
    c = 0.7 - 1.9j
    integral, err = _torus_integral(d.from_terms({12: c}, 12), p)
    assert integral == pytest.approx(abs(c) ** p, rel=1e-14, abs=0.0)
    assert err <= 1e-12 * integral


@pytest.mark.parametrize(
    "terms, reference",
    [
        # z^8 is 1 on the grids of 8 and 16 points
        ({1: 1.0, 256: 0.5}, {1: 1.0, 2: 0.5}),
        # |1 + 0.5i z^4| is sqrt(1.25) on the grid of 8 points
        ({1: 1.0, 16: 0.5j}, {1: 1.0, 2: 0.5j}),
        # the phase pi/8 cancels the leading alias of the 8-versus-4 gap
        ({1: 1.0, 2: 0.5 * cmath.exp(1j * math.pi / 8)}, {1: 1.0, 2: 0.5}),
    ],
)
def test_torus_route_is_not_fooled_by_aliasing(terms, reference):
    # |g(z^m)| and |g(e^{i theta} z)| have the distribution of |g(z)| on the circle
    value, stderr = d.qmc_norm_hp(d.from_terms(terms, max(terms)), 3.0)
    ref, _ = d.qmc_norm_hp(d.from_terms(reference, max(reference)), 3.0)
    assert value == pytest.approx(ref, rel=1e-12)
    assert stderr <= 1e-12 * value


def test_torus_route_polynomial_vanishing_on_a_coarse_grid():
    # 1 - z^8 vanishes on the grid of 8 points; |1 - e^{i theta}|^3 has mean 32 / (3 pi)
    value, _ = d.qmc_norm_hp(d.from_terms({1: 1.0, 256: -1.0}, 256), 3.0)
    assert value == pytest.approx((32.0 / (3.0 * math.pi)) ** (1.0 / 3.0), rel=1e-12)


def _no_qmc(*args):
    raise AssertionError("the QMC route was taken")


def test_noneven_norms_take_the_trapezoid_route(monkeypatch):
    monkeypatch.setattr(d.norms, "_qmc_moments", _no_qmc)
    f = d.from_terms({1: 1.0, 6: 0.4j}, 6)
    mu = AlphaMeasure(0.0)
    assert d.norm_a2(f, mu) < d.norm_ap(f, 2.5, mu) < d.norm_ap(f, 4.0, mu)
    # the shape of the benchmark's requests: three terms over the primes 2, 3, 5
    g = d.from_terms({1: 1.1 - 0.2j, 6: 0.3j, 10: 0.2 - 0.1j}, 10)
    value, stderr = d.qmc_norm_hp(g, 3.0)
    assert d.norm_hp(g, 2.0) < value < d.norm_hp(g, 4.0)
    assert 0.0 <= stderr <= 1e-12 * value


def _spy_grids(monkeypatch):
    """The grid of every _trapezoid_rules call, as a list that fills as they run."""
    grids = []
    rules = d.norms._trapezoid_rules

    def spy(alphas, coeffs, p, grid):
        grids.append(tuple(int(m) for m in grid))
        return rules(alphas, coeffs, p, grid)

    monkeypatch.setattr(d.norms, "_trapezoid_rules", spy)
    return grids


def test_hopeless_sigma_goes_to_qmc_at_once(monkeypatch):
    # |0.949 + 0.346 w| on a 4-dimensional lift converges like 0.365^M; the
    # gap on the first grid, squared for the one doubling that fits in 2^17
    # points, is still far above the tolerance
    grids = _spy_grids(monkeypatch)
    value, stderr = d.qmc_norm_hp(d.from_terms({60: -0.949j, 61: 0.346}, 61), 1.0)
    assert grids[0] == (16, 8, 8, 8)
    # then only lattice rules, each a 1-D trapezoid rule
    assert len(grids) > 1 and all(len(grid) == 1 for grid in grids[1:])
    assert stderr > 0


def test_vanishing_polynomial_falls_back_to_qmc(monkeypatch):
    # |1 + z| vanishes at z = -1, so the trapezoid rule converges only
    # algebraically there and the 2^17-point budget runs out
    grids = _spy_grids(monkeypatch)
    value, stderr = d.qmc_norm_hp(d.from_terms({1: 1.0, 2: 1.0}, 2), 1.0)
    # the shifted lattices double up to QMC_POINTS without meeting the tolerance
    assert grids[-1] == (d.norms.QMC_POINTS,)
    assert stderr > 0
    assert abs(value - 4.0 / math.pi) <= 5 * stderr
    # the lattice route's estimate and standard error, bit for bit
    assert (value, stderr) == (1.2732395443497766, 6.724829076048367e-10)


# Inputs that go to QMC, with the estimate and standard error of the
# scrambled-Sobol route that the shifted lattices replaced.
_SOBOL_PANEL = [
    ({6: 1, 35: 1, 143: 0.7j, 323: -0.5}, 1.5, 1.580701994262521, 2.5060143174485654e-4),
    (
        {1: 0.3, 6: 1, 35: 1, 143: 0.7j, 323: -0.5, 23: 0.2},
        2.5,
        1.7635791248153534,
        3.1245737784287925e-4,
    ),
    ({60: -0.949j, 61: 0.346}, 1.0, 0.9807946727186968, 1.333262100829733e-4),
    ({1: 1, 2: 1, 3: 1}, 1.0, 1.57459735268306, 5.016993428484622e-7),
]


@pytest.mark.parametrize("terms, p, sobol, sobol_stderr", _SOBOL_PANEL)
def test_lattice_fallback_is_no_looser_than_sobol(terms, p, sobol, sobol_stderr):
    value, stderr = d.qmc_norm_hp(d.from_terms(terms, max(terms)), p)
    assert 0 < stderr <= sobol_stderr
    assert abs(value - sobol) <= 5 * math.hypot(stderr, sobol_stderr)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norms_are_homogeneous_past_the_float_range_of_squares(p, scale, alpha0):
    # the squares and p-th powers of f = scale * g under- or overflow
    terms = {1: 1.0, 2: 0.3 - 0.1j}
    g = d.from_terms(terms, 2)
    f = d.from_terms({n: scale * c for n, c in terms.items()}, 2)
    assert d.norm_h2(f) == pytest.approx(scale * d.norm_h2(g), rel=1e-14)
    assert d.norm_a2(f, alpha0) == pytest.approx(scale * d.norm_a2(g, alpha0), rel=1e-14)
    assert d.norm_hp(f, p) == pytest.approx(scale * d.norm_hp(g, p), rel=1e-14)
    assert d.norm_ap(f, p, alpha0) == pytest.approx(scale * d.norm_ap(g, p, alpha0), rel=1e-14)
    value, stderr = d.qmc_norm_hp(f, p)
    assert value == pytest.approx(scale * d.qmc_norm_hp(g, p)[0], rel=1e-14)
    assert 0.0 <= stderr <= 1e-12 * value


def test_subnormal_coefficient_keeps_its_phase(alpha0):
    f = d.from_terms({27: -1.9 + 5e-324j, 32: 5e-324}, 32)
    ref = d.from_terms({27: -1.9}, 27)
    assert d.norm_ap(f, 1.5, alpha0) == pytest.approx(d.norm_ap(ref, 1.5, alpha0), rel=1e-14)
    assert d.qmc_norm_hp(f, 3.0)[0] == pytest.approx(d.norm_hp(ref, 3.0), rel=1e-14)


# ---------- kernels ----------


def test_kernel_direct_sum(alpha0):
    kv = d.kernel(alpha0, 1.0, 1.0, 2)
    expected = 1.0 + 2.0**-2 * (1.0 + math.log(2))
    assert kv.value == pytest.approx(expected, rel=1e-12)
    assert kv.value.real == pytest.approx(1.4233, abs=1e-4)
    assert kv.tail > 0


def test_kernel_limit_large_re(alpha0):
    kv = d.kernel(alpha0, 30.0, 30.0, 64)
    assert abs(kv.value - 1.0) < 1e-15
    assert kv.tail < 1e-15


def test_kernel_divergence(alpha0):
    with pytest.raises(DivergenceError):
        d.kernel(alpha0, 0.4, 0.6, 16)


def _alpha_summand(alpha, a, x):
    """f(x) = x^{-a}/w(x) = x^{-a}(1 + log x)^{alpha+1} in mpmath."""
    return mpmath.mpf(x) ** -a * (1 + mpmath.log(x)) ** (alpha + 1)


def _alpha_tail_integral(alpha, a, N):
    """Integral of f over (N, inf), from mpmath.gammainc."""
    b, am1 = mpmath.mpf(alpha) + 1, mpmath.mpf(a) - 1
    return mpmath.e**am1 * am1 ** -(b + 1) * mpmath.gammainc(b + 1, am1 * (1 + mpmath.log(N)))


def test_log_upper_gamma_matches_mpmath():
    # both branches: the series below x = s + 1, the continued fraction above
    for s in (1.05, 1.5, 2.0, 3.0, 7.5, 22.0, 42.0):
        for x in (1e-3, 0.5, 1.0, 2.0, 5.0, 8.0, 20.0, 41.0, 43.0, 100.0, 200.0):
            ref = mpmath.log(mpmath.gammainc(s, x))
            assert abs(math.expm1(_log_upper_gamma(s, x) - float(ref))) < 1e-13


def test_alpha_kernel_tail_closed_form():
    # the integral plus max_{x >= N} f, at x = max(N, x*), log x* = (alpha+1)/a - 1
    with mpmath.workdps(30):
        for alpha in (-0.5, 0.0, 1.0, 5.0, 20.0, 40.0):
            mu = AlphaMeasure(alpha)
            for a in (1.05, 1.5, 2.0, 3.0, 6.0, 20.0):
                for N in (1, 2, 4, 100, 10_000):
                    peak_at = max(N, math.exp((alpha + 1) / a - 1))
                    ref = _alpha_tail_integral(alpha, a, N) + _alpha_summand(alpha, a, peak_at)
                    assert _kernel_tail(mu, a, N) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 10.0, 20.0])
@pytest.mark.parametrize("a", [2.0, 3.0])
@pytest.mark.parametrize("N", [2, 4])
def test_alpha_kernel_tail_bounds_the_sum(alpha, a, N):
    with mpmath.workdps(20):
        f = lambda n: _alpha_summand(alpha, a, n)
        true = float(mpmath.nsum(f, [N + 1, mpmath.inf], method="euler-maclaurin"))
    tail = _kernel_tail(AlphaMeasure(alpha), a, N)
    assert true <= tail
    # alpha >= 10 puts the peak x* of f past N, where f(N) is not the largest
    # term of the tail; there the terms near the peak dominate and the bound
    # is tight
    assert (math.exp((alpha + 1) / a - 1) > N) == (alpha > 0)
    if alpha > 0:
        assert tail <= 1.01 * true


def test_alpha_kernel_tail_bounds_a_narrow_peak():
    # alpha = 100, a = 60: f peaks at x* = e^{101/60 - 1} ~ 1.98, narrower
    # than the unit step, so n = 2 carries the sum and the integral plus
    # f(N) falls short of it; the peak term restores the bound
    alpha, a, N = 100.0, 60.0, 1
    with mpmath.workdps(30):
        true = mpmath.fsum(_alpha_summand(alpha, a, n) for n in range(N + 1, 400))
        assert _alpha_tail_integral(alpha, a, N) + _alpha_summand(alpha, a, N) < 0.9 * true
    assert float(true) <= _kernel_tail(AlphaMeasure(alpha), a, N)


def test_kernel_tail_diverges_at_abscissa_one(alpha0, custom_density):
    # the one divergence test, in the weighted sum that kernel and
    # point_eval_sum share, whatever N
    for mu in (alpha0, custom_density):
        assert mu.abscissa == 1.0
        for a in (0.9, 1.0):
            with pytest.raises(DivergenceError, match="abscissa 1.0"):
                d.kernel(mu, a / 2, a / 2, 10)
            with pytest.raises(DivergenceError, match="abscissa 1.0"):
                d.norms.point_eval_sum(mu, a, 4)


# A sampled density zero below sigma = 1: 1/w(n) >= n^2, so sum n^{-a}/w(n)
# diverges for a <= 3.
LATE_BUMP = [[1.0, 0.0], [1.5, 2.0], [2.0, 0.0]]


def test_sampled_density_abscissa_is_its_support_start(sampled_density):
    late = d.SampledDensityMeasure(samples=LATE_BUMP)
    assert late.abscissa == 3.0
    # the bump of conftest is zero on [0, 1/2]; a box is positive from its first sample
    assert sampled_density.abscissa == 2.0
    assert d.SampledDensityMeasure(samples=[[0.25, 2.0], [0.75, 2.0]]).abscissa == 1.5
    for a in (2.0, 3.0):
        with pytest.raises(DivergenceError, match="abscissa 3.0"):
            d.kernel(late, a / 2, a / 2, 256)
    with pytest.raises(PoleError):
        d.kernel_series(late, 1.0, 8)
    # w(n) < n^{-2}: the partial sums pass any bound near the abscissa
    assert d.kernel(late, 2.0, 2.0, 64).value.real > 1.0


@pytest.mark.parametrize("sigma", [1.02, 1.05, 1.1, 1.2])
def test_lemma2_converges_just_right_of_the_abscissa(alpha1, sigma):
    # sum n^{-sigma} (1 + log n)^2 converges for every sigma > 1
    N = 10_000
    (pt,) = d.lemma2_profile(alpha1, [sigma], N)
    assert pt.error is None and math.isfinite(pt.value) and math.isfinite(pt.tail)
    n = np.arange(N + 1, 100 * N + 1, dtype=np.float64)
    assert pt.tail >= float(np.sum(n**-sigma * (1.0 + np.log(n)) ** 2))


def test_point_eval_sum_is_the_kernel_on_the_diagonal(alpha0, alpha1, custom_density, sampled_density):
    for mu in (alpha0, alpha1, custom_density, sampled_density):
        for sigma in (2.5, 4.0, 10.0):
            kv = d.kernel(mu, sigma / 2, sigma / 2, 128)
            assert d.norms.point_eval_sum(mu, sigma, 128) == (kv.value.real, kv.tail)


@pytest.mark.parametrize("c", [2.5, 3.0, 4.0])
def test_density_kernel_tail_closed_form(c):
    # h = c e^{-c sigma} has w(x) = c/(c + 2 log x), so f(x) = x^{-a}(1 + (2/c) log x)
    mu = DensityMeasure(h=lambda s: c * np.exp(-c * np.asarray(s, dtype=np.float64)))
    for a in (2.0, 6.0):
        for N in (10, 1000):
            L, e = math.log(N), N ** (1.0 - a)
            integral = e / (a - 1) + (2 / c) * (e * L / (a - 1) + e / (a - 1) ** 2)
            ref = integral + N**-a * (1 + (2 / c) * L)
            assert _kernel_tail(mu, a, N) == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("nodes", [199, 256, 512])
def test_large_node_counts(nodes):
    mu = AlphaMeasure(1.0, spec=QuadratureSpec(nodes=nodes))
    f = d.from_terms({1: 1.0, 2: 0.5 - 0.25j, 3: 0.3j, 6: -0.2}, 6)
    assert d.norm_ap(f, 2.0, mu) == pytest.approx(d.norm_a2(f, mu), rel=1e-12)
    for m in (nodes, 2 * nodes):
        x, w = _gauss_laguerre(m, 1.0)
        for k in range(9):
            assert np.sum(w * x**k) == pytest.approx(math.gamma(2 + k) / math.gamma(2), rel=1e-12)


def test_reproducing_property(alpha0, alpha1, custom_density):
    rng = np.random.default_rng(13)
    for mu in (alpha0, alpha1, custom_density):
        f = random_polynomial(rng, 24)
        for s in (0.8 + 0.5j, 1.5 - 2.0j, 2.7):
            k = d.kernel_series(mu, complex(s), 24)
            assert d.inner_a2(f, k, mu) == pytest.approx(d.evaluate(f, s), abs=1e-12)


def test_kernel_series_requires_halfplane(alpha0):
    with pytest.raises(PoleError, match="abscissa"):
        d.kernel_series(alpha0, 0.5, 8)


# ---------- point evaluations ----------


def test_point_eval_norm_hp():
    est = d.point_eval_norm_hp(1.0, 2.0)
    assert est.kind == "exact"
    assert est.value == pytest.approx(math.sqrt(math.pi**2 / 6))
    assert est.value == pytest.approx(1.28255, abs=1e-5)
    # exponent 1/p: value tends to 1 as p grows and as Re s grows
    assert d.point_eval_norm_hp(1.0, 1000.0).value == pytest.approx(1.0, abs=1e-3)
    assert d.point_eval_norm_hp(40.0, 2.0).value == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(PoleError):
        d.point_eval_norm_hp(0.5, 2.0)


def test_point_eval_bound_a1(alpha0):
    est = d.point_eval_bound_a1(alpha0, 10.0, 10_000)
    oracle = sum(n**-10.0 * (1.0 + math.log(n)) for n in range(1, 10_001))
    assert est.value == pytest.approx(oracle, abs=1e-5)
    assert est.value == pytest.approx(1.00169, abs=1e-4)
    assert est.kind == "upper-bound" and est.lower == 1.0
    assert d.point_eval_bound_a1(alpha0, 40.0, 4096).value == pytest.approx(1.0, abs=1e-10)


def test_point_eval_bound_a1_monotone(alpha0):
    vals = [d.point_eval_bound_a1(alpha0, s, 4096).value for s in (4.0, 6.0, 8.0, 10.0)]
    assert all(v >= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_point_eval_bound_a1_divergence(alpha0):
    with pytest.raises(DivergenceError) as exc:
        d.point_eval_bound_a1(alpha0, 0.8, 8192)
    assert "abscissa" in str(exc.value)


def test_point_eval_ratio_alpha():
    assert d.point_eval_ratio_alpha(0.0, 2.0, 1.0).value == pytest.approx(1.0)
    assert d.point_eval_ratio_alpha(0.0, 2.0, 0.75).value == pytest.approx(1.5)
    # blow-up with the stated exponent as Re s drops to 1/2
    v1 = d.point_eval_ratio_alpha(1.0, 2.0, 0.51).value
    v2 = d.point_eval_ratio_alpha(1.0, 2.0, 0.501).value
    ratio = v2 / v1
    s1, s2 = 0.51, 0.501
    expected = ((s2 / (2 * s2 - 1)) / (s1 / (2 * s1 - 1))) ** 1.5
    assert ratio == pytest.approx(expected, rel=1e-9)
    with pytest.raises(PoleError):
        d.point_eval_ratio_alpha(0.0, 2.0, 0.5)
