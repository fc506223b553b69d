import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirspaces as d
from dirspaces import (
    AlphaMeasure,
    DensityMeasure,
    DivergenceError,
    InvalidInputError,
    NumericError,
    PoleError,
)
from dirspaces.measures import DOUBLING_TOL, _decay, _gauss_laguerre, _log_upper_gamma
from dirspaces.torus import _torus_moments

from conftest import BUMP_SAMPLES, exp3_density, random_polynomial


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


def test_zeta_is_one_far_out():
    # the Euler-Maclaurin correction overflowed to inf * 0 from x = 1.36e18
    for x in (2e17, 1.4e18, 1e300, math.inf):
        assert d.zeta(x) == 1.0


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


@pytest.mark.parametrize("p", [3.0, 60.0, 400.0])
def test_one_term_a_norm_is_a_weight(p, alpha0, sampled_density):
    # ||n^{-s}||_{A^p}^p is the integral of n^{-p sigma} d mu, the weight at
    # n^{p/2}: on alpha(0), 0.7 (1 + (p/2) log 2)^{-1/p}
    f = d.from_terms({2: 0.7}, 2)
    ref = 0.7 * (1.0 + 0.5 * p * math.log(2.0)) ** (-1.0 / p)
    assert d.norm_ap(f, p, alpha0) == pytest.approx(ref, rel=1e-15)
    w = sampled_density.weight(2.0 ** (p / 2))
    assert d.norm_ap(f, p, sampled_density) == 0.7 * w ** (1.0 / p)
    # n^{p/2} past the floats
    with pytest.raises(NumericError, match="past the floats"):
        d.norm_ap(f, 4001.0, alpha0)


def test_norm_hp_validation():
    with pytest.raises(InvalidInputError):
        d.norm_hp(d.from_terms({1: 1.0}, 4), 0.5)


_NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: d.norm_hp(d.from_terms({1: 1.0, 2: 0.5}, 2), _NAN),
        lambda: d.norm_ap(d.from_terms({1: 1.0, 2: 0.5}, 2), _NAN, AlphaMeasure(0.0)),
        lambda: d.qmc_norm_hp(d.from_terms({1: 1.0, 2: 0.5}, 2), _NAN),
        lambda: d.two_norm_profile(d.symbol(1, {1: 1.0, 2: 0.2}), _NAN, [0.5], 16),
        lambda: d.point_eval_norm_hp(2.0, _NAN),
        lambda: d.prop1_bound(d.symbol(0, {1: 2.0}), AlphaMeasure(0.0), _NAN, 12.0, 64),
    ],
    ids=[
        "norm_hp",
        "norm_ap",
        "qmc_norm_hp",
        "two_norm_profile",
        "point_eval_norm_hp",
        "prop1_bound",
    ],
)
def test_nan_p_is_refused(call):
    with pytest.raises(InvalidInputError, match="p must be >= 1"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: d.norm_hp(d.from_terms({1: 1.0, 2: 0.5}, 2), math.inf),
        lambda: d.norm_hp(d.from_terms({1: 1.0, 2: 0.5}, 2), math.inf, sigmas=[0.5]),
        lambda: d.norm_ap(d.from_terms({1: 1.0, 2: 0.5}, 2), math.inf, AlphaMeasure(0.0)),
        lambda: d.norm_ap(d.from_terms({3: 1.0}, 3), math.inf, AlphaMeasure(0.0)),
        lambda: d.qmc_norm_hp(d.from_terms({1: 1.0, 2: 0.5}, 2), math.inf),
        lambda: d.two_norm_profile(d.symbol(1, {1: 1.0, 2: 0.2}), math.inf, [0.5], 16),
        lambda: d.point_eval_norm_hp(2.0, math.inf),
        lambda: d.prop1_bound(d.symbol(0, {1: 2.0}), AlphaMeasure(0.0), math.inf, 12.0, 64),
    ],
    ids=[
        "norm_hp",
        "translates",
        "norm_ap",
        "monomial",
        "qmc_norm_hp",
        "two_norm_profile",
        "point_eval_norm_hp",
        "prop1_bound",
    ],
)
def test_infinite_p_is_refused(call):
    # round(p / 2) raised a bare OverflowError; the point evaluations and
    # prop1_bound answered 1.0 and 0.9995827 as if p were a number
    with pytest.raises(InvalidInputError, match="^p must be finite$"):
        call()


def test_norm_hp_refuses_a_non_finite_translation():
    # inf * log 1 is NaN: an infinite sigma gave a NaN norm at p = 2 and 3
    for f in (d.from_terms({1: 1.0, 2: 0.5}, 2), d.from_terms({3: 1.0}, 3)):
        for p in (2.0, 3.0):
            for sigmas in ([math.inf], [math.nan], [0.5, math.inf]):
                with pytest.raises(InvalidInputError, match="finite sigma >= 0"):
                    d.norm_hp(f, p, sigmas)


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


def _power_terms(terms, q):
    """{m: b_m} of f^q = sum b_m m^{-s}, by Dirichlet convolution of dicts."""
    out = {1: 1.0}
    for _ in range(q):
        step = {}
        for m, b in out.items():
            for n, a in terms.items():
                step[m * n] = step.get(m * n, 0.0) + b * a
        out = step
    return {m: b for m, b in out.items() if b != 0}


def _random_terms(rng, degree):
    return {
        n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in range(1, degree + 1)
        if n == 1 or rng.random() < 0.6
    }


@pytest.mark.parametrize("q", [1, 2])
def test_sigma_rule_integrates_the_moment_function_to_the_weights(
    q, alpha0, alpha1, custom_density, sampled_density
):
    # Fubini, checked through the measure's own sigma-rule: the integral of
    # sigma -> sum |b_m|^2 m^{-2 sigma} over f^q is sum |b_m|^2 w_h(m)
    rng = np.random.default_rng(31)
    for mu in (alpha0, alpha1, custom_density, sampled_density):
        for _ in range(4):
            b = _power_terms(_random_terms(rng, 12), q)
            ms = np.array(sorted(b), dtype=np.float64)
            mags = np.array([abs(b[m]) ** 2 for m in sorted(b)])
            moments = mu.integrate(lambda sig: mags @ np.exp(-2.0 * np.outer(np.log(ms), sig)))
            weighted = math.fsum(mags * mu.weights_at(ms))
            assert moments == pytest.approx(weighted, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("p", [4.0, 6.0])
def test_even_p_norm_ap_is_the_weighted_sum_over_f_to_the_q(alpha, p):
    rng = np.random.default_rng(int(10 * alpha + p))
    for _ in range(10):
        terms = _random_terms(rng, 12)
        b = _power_terms(terms, int(p) // 2)
        ref = math.fsum(abs(c) ** 2 * (1.0 + math.log(m)) ** -(alpha + 1.0) for m, c in b.items())
        f = d.from_terms(terms, max(terms))
        assert d.norm_ap(f, p, AlphaMeasure(alpha)) == pytest.approx(
            ref ** (1.0 / p), rel=1e-14, abs=0.0
        )


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_even_p_norm_ap_reads_the_density_weights_at_the_support(p, custom_density, sampled_density):
    rng = np.random.default_rng(37)
    for mu in (custom_density, sampled_density):
        for _ in range(5):
            terms = _random_terms(rng, 12)
            b = _power_terms(terms, int(p) // 2)
            w = mu.weights_by_quadrature(sorted(b))
            ref = math.fsum(abs(b[m]) ** 2 * wm for m, wm in zip(sorted(b), w))
            f = d.from_terms(terms, max(terms))
            assert d.norm_ap(f, p, mu) == pytest.approx(ref ** (1.0 / p), rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "fresh",
    [
        lambda: AlphaMeasure(0.0),
        lambda: AlphaMeasure(1.0),
        lambda: DensityMeasure(h=exp3_density),
        lambda: d.SampledDensityMeasure(samples=BUMP_SAMPLES),
    ],
    ids=["alpha0", "alpha1", "density", "sampled"],
)
def test_even_p_norm_ap_fills_no_weight_memo(fresh):
    # f^2 = 1 + 1000^{-s} + 10^6^{-s}/4 has degree 10^6 but three terms: the
    # weights are read at those three indices, not through weights(10^6)
    mu = fresh()
    f = d.from_terms({1: 1.0, 1000: 0.5}, 1000)
    value = d.norm_ap(f, 4.0, mu)
    assert mu._weight_cache is None
    ref = (1.0 + mu.weight(1000) + mu.weight(10**6) / 16) ** 0.25
    assert value == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_only_non_even_norm_ap_integrates_over_sigma(monkeypatch, alpha0, alpha1):
    calls = []
    integrate = d.Measure.integrate
    monkeypatch.setattr(
        d.Measure, "integrate", lambda self, g: calls.append(1) or integrate(self, g)
    )
    f = d.from_terms({1: 1.0, 2: 0.3 - 0.1j, 6: 0.2j}, 6)
    for mu in (alpha0, alpha1):
        for p in (2.0, 4.0, 6.0):
            d.norm_ap(f, p, mu)
        assert not calls
        d.norm_ap(f, 3.0, mu)
        assert len(calls) == 1
        calls.clear()


def test_norm_ap_noneven_matches_per_node_route():
    # Reference: one H^p estimate of the translate f(sigma + .) per node.
    f = d.from_terms({1: 1.0, 2: 0.3 - 0.1j, 6: 0.2j, 11: 0.15}, 11)
    p = 3.0
    mu = d.AlphaMeasure(1.0)
    ref = mu.integrate(
        lambda sig: np.array([d.norm_hp(d.translate(f, s), p) ** p for s in sig])
    ) ** (1.0 / p)
    assert d.norm_ap(f, p, mu) == pytest.approx(ref, rel=1e-12)


def test_norm_ap_noneven_lifts_once(monkeypatch):
    from dirspaces import norms

    calls = []

    def counting_lift(f):
        calls.append(f)
        return d.bohr_lift(f)

    monkeypatch.setattr(norms, "bohr_lift", counting_lift)
    d.norm_ap(d.from_terms({1: 1.0, 6: 0.4j}, 6), 2.5, d.AlphaMeasure(1.0))
    assert len(calls) == 1


def test_norm_ap_noneven_takes_both_rules_in_one_torus_pass(monkeypatch):
    moments = d.torus._torus_moments
    sigmas = []

    def spy(lift, p, sig):
        sigmas.append(sig)
        return moments(lift, p, sig)

    monkeypatch.setattr(d.torus, "_torus_moments", spy)
    mu = d.AlphaMeasure(1.0)
    value = d.norm_ap(d.from_terms({1: 1.0, 6: 0.4j}, 6), 2.5, mu)
    (sig,) = sigmas
    assert np.array_equal(sig, mu._nodes) and sig.size == 3 * d.measures._NODES
    assert value == 1.012720853082195


@pytest.mark.parametrize(
    "alpha, p, pinned",
    [
        (0.0, 3.0, "0x1.cb9e7bf3aafa1p-1"),
        (0.0, 2.5, "0x1.be0592ad33d44p-1"),
        (1.5, 3.0, "0x1.394a7ab82c80fp-1"),
        (1.5, 2.5, "0x1.2aedbc1f3b190p-1"),
    ],
)
def test_a_term_live_on_one_rule_alone_keeps_the_bits(alpha, p, pinned):
    # 10^-107 + 2^{-s} + 0.5 3^{-s}: the constant term is dropped where its
    # scaled modulus, 10^-107 2^sigma, is below eps/(3p), which holds at
    # every node of the coarse rule and fails at the top nodes of the fine
    # one, so the one torus pass over both rules keeps it for every node.
    # The value, that of the fine rule, keeps the bits it had when each rule
    # took its own pass; so does the same polynomial with 10^-20 in place.
    mu = d.AlphaMeasure(alpha)
    (x1, _), (x2, _) = mu._rules
    live_from = math.log2(np.finfo(np.float64).eps / (3 * p) / 1e-107)
    assert x1.max() < live_from < x2.max()
    for c in (1e-107, 1e-20):
        f = d.from_terms({1: c, 2: 1.0, 3: 0.5}, 3)
        assert d.norm_ap(f, p, mu).hex() == pinned


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


def _power_reference(f, p, mu=None, sigmas=None):
    """The even-p norm as (|power(f, q, D^q)|^2 @ weights)^{1/p}, on f scaled
    by the power of two the norms use: in A^p given mu, else in H^p (at
    `sigmas` if given)."""
    q = round(p / 2)
    peak = float(np.abs(f.coeffs).max())
    e = int(math.log2(peak))
    g = d.DirichletSeries(np.ldexp(f.coeffs.view(np.float64), -e).view(np.complex128), exact=True)
    mags = np.abs(d.power(g, q, g.degree**q).coeffs) ** 2
    nz = np.nonzero(mags)[0]
    mags = mags[nz]
    if mu is not None:
        return float(np.ldexp(float(mags @ mu.weights_at(nz + 1)) ** (1.0 / p), e))
    sig = np.zeros(1) if sigmas is None else np.asarray(sigmas, dtype=np.float64)
    integrals = np.exp(-2.0 * np.outer(sig, np.log(nz + 1.0))) @ mags
    if sigmas is None:  # a float's root, which numpy's array power may round otherwise
        return float(np.ldexp(float(integrals[0]) ** (1.0 / p), e))
    return np.ldexp(integrals ** (1.0 / p), e)


def test_even_p_norms_are_the_power_formula_bit_for_bit():
    rng = np.random.default_rng(39)
    measures = [AlphaMeasure(0.0), AlphaMeasure(1.0), DensityMeasure(h=exp3_density)]
    sigmas = [0.0, 0.25, 1.0, 3.0]
    refused = 0
    for case in range(90):
        p = (2.0, 4.0, 6.0)[case % 3]
        top = (12, 40, 200)[case // 3 % 3]
        idx = rng.choice(np.arange(1, top + 1), size=rng.integers(2, 6), replace=False)
        scale = 2.0 ** rng.integers(-40, 40)
        f = d.from_terms({int(n): complex(*rng.uniform(-1, 1, 2)) * scale for n in idx}, int(idx.max()))
        mu = measures[case % len(measures)]
        if f.degree ** round(p / 2) > 4_000_000:
            refused += 1
            for call in (lambda: d.norm_ap(f, p, mu), lambda: d.norm_hp(f, p)):
                with pytest.raises(InvalidInputError):
                    call()
            continue
        got = [d.norm_ap(f, p, mu), d.norm_hp(f, p), d.norm_hp(f, p, sigmas)]
        ref = [_power_reference(f, p, mu), _power_reference(f, p), _power_reference(f, p, sigmas=sigmas)]
        for a, b in zip(got, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (case, p, sorted(idx))
    assert 0 < refused < 30


def test_even_p_norm_builds_no_series(alpha1, monkeypatch):
    # the largest modulus lies in (1/2, 2), so no scaled copy of f is made either
    f = d.from_terms({1: 1.5, 3: 0.4 - 0.2j, 10: 0.3j}, 10)
    built = []
    init = d.DirichletSeries.__post_init__

    def counted(self):
        built.append(self.truncation)
        init(self)

    monkeypatch.setattr(d.DirichletSeries, "__post_init__", counted)
    for p in (2.0, 4.0, 6.0):
        d.norm_ap(f, p, alpha1)
        d.norm_hp(f, p)
    assert built == []


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
        assert d.bohr_lift(f).primes.size <= 3
        for q in (1, 2):
            exact = d.norm_h2(d.power(f, q, f.degree**q)) ** 2
            integral, err = _torus_integral(f, 2.0 * q)
            assert integral == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert err <= 1e-12 * integral


def test_torus_route_integrates_only_active_coordinates():
    # 11^{-s} and 2^{-s} each lift to the one coordinate of their prime
    eleven = d.from_terms({1: 1.0, 11: 0.3}, 11)
    two = d.from_terms({1: 1.0, 2: 0.3}, 2)
    assert d.bohr_lift(eleven).primes.tolist() == [11]
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
    monkeypatch.setattr(d.torus, "_qmc_moments", _no_qmc)
    f = d.from_terms({1: 1.0, 6: 0.4j}, 6)
    mu = AlphaMeasure(0.0)
    assert d.norm_a2(f, mu) < d.norm_ap(f, 2.5, mu) < d.norm_ap(f, 4.0, mu)
    # the shape of the benchmark's requests: three terms over the primes 2, 3, 5
    g = d.from_terms({1: 1.1 - 0.2j, 6: 0.3j, 10: 0.2 - 0.1j}, 10)
    value, stderr = d.qmc_norm_hp(g, 3.0)
    assert d.norm_hp(g, 2.0) < value < d.norm_hp(g, 4.0)
    assert 0.0 <= stderr <= 1e-12 * value


def _naive_trapezoid_rules(alphas, coeffs, p, grid):
    """_trapezoid_rules with every point's index from np.unravel_index, and
    each rule the sum of the C-order copy of the points whose indices are
    all multiples of its stride (picked by np.all), chunk by chunk in the
    same order."""
    terms, k = alphas.shape
    size, L = int(grid.prod()), int(grid.max())
    roots = np.exp(2j * np.pi / L * np.arange(L))
    step = min(size, d.torus.QMC_POINTS)
    rows = max(1, terms * d.torus.QMC_POINTS // step)
    sums = np.zeros((3, len(coeffs)))
    for start in range(0, size, step):
        j = np.unravel_index(np.arange(start, start + step), tuple(grid))
        phases = np.zeros((terms, step), dtype=np.int64)
        for axis in range(k):
            phases += alphas[:, axis, None] * (j[axis] * (L // int(grid[axis])))
        chars = roots[phases % L]
        on = [np.all([ja % stride == 0 for ja in j], axis=0) for stride in (1, 2, 4)]
        for lo in range(0, len(coeffs), rows):
            c = coeffs[lo : lo + rows]
            values = c[:, :1] * chars[0]
            for t in range(1, terms):
                values += c[:, t, None] * chars[t]
            mags = np.abs(values) ** p
            for rule, mask in enumerate(on):
                sums[rule, lo : lo + rows] += np.ascontiguousarray(mags[:, mask]).sum(axis=1)
    return sums * np.array([1, 2**k, 4**k])[:, None] / size


def _trapezoid_panel():
    """Seeded calls: tensor grids on 1 to 4 axes of 2^3 to 2^17 points, the
    largest in chunks, and one-axis lattice calls as _qmc_moments makes them."""
    rng = np.random.default_rng(20)
    for k in range(1, 5):
        for log_size in (k + 2, 9, 14, 15, 17):
            cuts = np.sort(rng.choice(np.arange(1, log_size), k - 1, replace=False))
            grid = 2 ** np.diff(np.concatenate([[0], cuts, [log_size]]))
            terms = int(rng.integers(2, 6))
            coeffs = rng.standard_normal((3, terms)) + 1j * rng.standard_normal((3, terms))
            yield rng.integers(0, 9, (terms, k)), coeffs, float(rng.choice([1.0, 2.7, 3.0])), grid
    for n in (2**10, 2**14):
        coeffs = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        yield rng.integers(0, n, (4, 1)), coeffs, 1.5, np.array([n])


def test_trapezoid_rules_match_the_naive_grid_bitwise():
    for alphas, coeffs, p, grid in _trapezoid_panel():
        expected = _naive_trapezoid_rules(alphas, coeffs, p, grid)
        assert np.array_equal(d.torus._trapezoid_rules(alphas, coeffs, p, grid), expected), grid
        # the full rule alone, as the lattice calls take it, keeps its bits
        full = d.torus._trapezoid_rules(alphas, coeffs, p, grid, rules=1)
        assert np.array_equal(full, expected[:1]), grid


def _lookahead_panel():
    """Seeded ladders on 1 and 2 axes from start grids of 8 and 16 points
    per axis, read from one grid two and one doublings up, with 1 to 4 rows."""
    rng = np.random.default_rng(34)
    for k in (1, 2):
        for start in (8, 16):
            for rungs in (2, 3):
                terms = int(rng.integers(2, 5))
                rows = int(rng.integers(1, 5))
                shape = (rows, terms)
                coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                alphas = rng.integers(0, start // 4, (terms, k))
                p = float(rng.choice([1.0, 2.5, 3.5]))
                yield alphas, coeffs, p, np.full(k, start << (rungs - 1)), rungs


def test_lookahead_rungs_match_the_per_rung_rules_bitwise():
    for alphas, coeffs, p, top, rungs in _lookahead_panel():
        ladder = d.torus._trapezoid_rules(alphas, coeffs, p, top, rungs=rungs)
        assert ladder.shape == (rungs, 3, len(coeffs))
        for rung, rules in enumerate(ladder):
            grid = top >> (rungs - 1 - rung)
            assert np.array_equal(rules, d.torus._trapezoid_rules(alphas, coeffs, p, grid)), grid
            assert np.array_equal(rules, _naive_trapezoid_rules(alphas, coeffs, p, grid)), grid


# Near-constant polynomials that stop at the first rung, the first
# qmc_norm_hp requests of the benchmark's norms stream (seed 1), which climb
# three or four rungs, and ladders from start grids of 16 points on an
# axis: the grids evaluated, and the rungs climbed.
_LADDERS = [
    ({1: 1.0, 2: 1e-9}, 3.0, [(32,)], 1),
    ({1: 1.0, 2: 1e-9, 3: 1e-9}, 3.0, [(32, 32)], 1),
    ({1: 1.0, 2: 1e-9, 3: 1e-9, 4: 1e-9j}, 2.5, [(32, 16)], 1),
    (
        {1: 0.948914 + 0.105016j, 4: 0.13943 + 0.057907j, 11: -0.122251 + 0.089807j},
        2.5,
        [(32, 32)],
        3,
    ),
    (
        {1: 1.003716 + 0.099028j, 5: -0.193303 - 0.075575j, 8: 0.224663 - 0.097351j},
        3.0,
        [(32, 32)],
        3,
    ),
    (
        {1: 0.904765 - 0.097938j, 3: -0.186749 + 0.057354j, 11: 0.034136 + 0.305911j},
        2.5,
        [(32, 32), (64, 64)],
        4,
    ),
    ({1: 1.0, 2: 0.3j}, 3.5, [(32,), (64,)], 4),
    ({1: 1.0, 2: 0.45, 4: -0.3j}, 1.5, [(64,), (128,)], 4),
    ({1: 1.0, 2: 0.2, 3: 0.2, 4: 0.1j}, 2.5, [(32, 16), (64, 32)], 3),
]


@pytest.mark.parametrize("terms, p, calls, climbed", _LADDERS)
def test_lookahead_ladder_keeps_the_bits_of_the_per_rung_ladder(
    monkeypatch, terms, p, calls, climbed
):
    f = d.from_terms(terms, max(terms))
    grids = _spy_grids(monkeypatch)
    value = d.qmc_norm_hp(f, p)
    assert grids == calls
    # without the lookahead, one call per rung
    grids.clear()
    monkeypatch.setattr(d.torus, "_LOOKAHEAD_VALUES", 0)
    assert d.qmc_norm_hp(f, p) == value
    assert len(grids) == climbed


def test_grid_plans_are_shared_and_read_only():
    # one chunk, then two, four and eight chunks of QMC_POINTS points
    for sizes in ((8,), (4, 16), (2**15,), (2, 4, 2**13), (8, 8, 8, 8, 4, 8)):
        plan = d.torus._grid_plan(sizes)
        assert plan is d.torus._grid_plan(sizes)
        index, offsets, box, lows = plan
        size, L = math.prod(sizes), max(sizes)
        step = min(size, d.torus.QMC_POINTS)
        assert index.shape == (len(sizes), step) and len(offsets) == len(lows) == size // step
        assert math.prod(box) == step and len(box) == len(sizes)
        assert not index.flags.writeable and not offsets.flags.writeable
        scale = np.array([L // n for n in sizes])[:, None]
        for c, (offset, low) in enumerate(zip(offsets, lows)):
            j = np.array(np.unravel_index(np.arange(c * step, (c + 1) * step), sizes))
            assert np.array_equal(index + offset[:, None], j * scale), (sizes, c)
            # the chunk's points whose indices are all multiples of s, in C
            # order, are its box's points at every s-th index on each axis
            for s in (2, 4, 8):
                on = np.flatnonzero(np.all(j % s == 0, axis=0))
                cut = np.arange(step).reshape(box)[(slice(None, None, s),) * len(sizes)]
                assert np.array_equal(on, cut.ravel() if low % s == 0 else []), (sizes, c, s)


def test_grid_characters_are_built_once_per_grid():
    chars = d.torus._grid_characters
    chars.cache_clear()
    f = d.from_terms({1: 1.0, 2: 0.3, 3: 0.2j}, 3)
    value = d.qmc_norm_hp(f, 2.5)
    built = chars.cache_info()
    assert built.misses >= 1
    # a second request on the same axes and grids builds no characters
    assert d.qmc_norm_hp(f, 2.5) == value
    again = chars.cache_info()
    assert again.misses == built.misses and again.hits > built.hits
    # the lattice rules, whose exponents change with n, and grids of more
    # than one chunk compute their own
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    d.torus._qmc_moments(np.array([[0, 0], [1, 0], [0, 1]]), coeffs, 2.5)
    d.torus._trapezoid_rules(np.array([[0], [1], [3]]), coeffs, 2.5, np.array([2**15]))
    assert chars.cache_info() == again


def test_root_tables_are_shared_and_read_only():
    for L in (1, 8, 2**14):
        roots = d.torus._roots_of_unity(L)
        assert roots is d.torus._roots_of_unity(L)
        assert not roots.flags.writeable
        assert np.array_equal(roots, np.exp(2j * np.pi / L * np.arange(L)))


def test_lattice_vectors_are_the_search_results():
    # the table holds what the 64-candidate search picks, so no request pays it
    for k in range(1, 9):
        z = d.torus._lattice_vector(k)
        assert not z.flags.writeable and z.dtype == np.int64
        assert np.array_equal(z, d.torus._lattice_search(k)), k


_EXPONENTS = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 5), min_size=k, max_size=k),
        min_size=1,
        max_size=6,
        unique_by=tuple,
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_EXPONENTS)
def test_difference_axes_are_exact_lattice_coordinates(rows):
    alphas = np.array(rows, dtype=np.int64)
    axes = d.torus._difference_axes(alphas)
    assert not axes.flags.writeable
    start = d.torus._start_grid
    # never a larger first grid than the coordinates of the lift
    assert start(axes).prod() <= start(alphas).prod()
    if np.array_equal(axes, alphas):
        return
    # otherwise a strictly smaller one, over r = rank axes that start at 0
    assert start(axes).prod() < start(alphas).prod()
    assert np.all(axes.min(axis=0) == 0)
    x, diffs = axes[1:] - axes[0], alphas[1:] - alphas[0]
    r = axes.shape[1]
    assert np.linalg.matrix_rank(x) == r == np.linalg.matrix_rank(diffs)
    # each difference is an integer combination of r vectors u_i, exactly
    u = np.rint(np.linalg.lstsq(x, diffs)[0]).astype(np.int64)
    assert np.array_equal(x @ u, diffs)


def test_difference_axes_keep_the_lift_where_they_do_not_shrink_the_grid():
    # 2 and 3 have the coordinate 3/2 over 2, so the lift's axis stays
    alphas = np.array([[0], [2], [3]])
    assert np.array_equal(d.torus._difference_axes(alphas), alphas)
    # 1, 2^{-s}, 3^{-s}, 6^{-s}: the differences span both axes
    alphas = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert np.array_equal(d.torus._difference_axes(alphas), alphas)
    # 2^{-s} and 3^{-s}: one direction, (-1, 1)
    assert d.torus._difference_axes(np.array([[1, 0], [0, 1]])).tolist() == [[0], [1]]


_PRIMES = (2, 3, 5, 7)


@st.composite
def _dominated_polynomials(draw):
    """2 to 5 terms over at most 4 primes, with |a_1| above the sum of the
    other moduli, so |f| has no zero on the torus."""
    k = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)
    rows = draw(st.lists(exponents, min_size=1, max_size=4, unique_by=tuple))
    unit = st.floats(-1.0, 1.0)
    terms = {}
    for row in rows:
        terms[math.prod(q**e for q, e in zip(_PRIMES, row))] = complex(draw(unit), draw(unit))
    tail = sum(abs(c) for c in terms.values())
    terms[1] = tail * draw(st.floats(1.01, 3.0)) or 1.0
    return terms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dominated_polynomials(), st.sampled_from([1.5, 2.5, 3.0]))
def test_difference_axes_give_the_integral_of_the_lift(terms, p):
    lift = d.bohr_lift(d.from_terms(terms, max(terms)))
    lattice = []
    qmc = d.torus._qmc_moments
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(d.torus, "_qmc_moments", lambda *args: lattice.append(1) or qmc(*args))
        (reduced,), _ = _torus_moments(lift, p, np.zeros(1))
        mp.setattr(d.torus, "_difference_axes", lambda alphas: alphas)
        (today,), _ = _torus_moments(lift, p, np.zeros(1))
    if not lattice:  # both on the trapezoid route, which converges geometrically
        assert reduced == pytest.approx(today, rel=1e-13, abs=0.0)


def _spy_grids(monkeypatch):
    """The grid of every _trapezoid_rules call, as a list that fills as they run."""
    grids = []
    rules = d.torus._trapezoid_rules

    def spy(alphas, coeffs, p, grid, **kwargs):
        grids.append(tuple(int(m) for m in grid))
        return rules(alphas, coeffs, p, grid, **kwargs)

    monkeypatch.setattr(d.torus, "_trapezoid_rules", spy)
    return grids


# Four terms on four independent directions, slow to converge on the torus.
_RANK_FOUR = {1: 1.0, 2: 0.3, 3: 0.3, 5: 0.2, 7: 0.15}


def test_hopeless_sigma_goes_to_qmc_at_once(monkeypatch):
    # |1 + 0.3 w_1 + 0.3 w_2 + 0.2 w_3 + 0.15 w_4| has four independent
    # directions, so its grids are 4-dimensional; the gap on the first grid,
    # squared for the one doubling that fits in 2^17 points, is still far
    # above the tolerance
    grids = _spy_grids(monkeypatch)
    f = d.from_terms(_RANK_FOUR, max(_RANK_FOUR))
    value, stderr = d.qmc_norm_hp(f, 1.0)
    assert grids[0] == (8, 8, 8, 8)
    # then only lattice rules, each a 1-D trapezoid rule
    assert len(grids) > 1 and all(len(grid) == 1 for grid in grids[1:])
    assert stderr > 0


def test_two_terms_integrate_on_one_axis(monkeypatch):
    # -0.949i 60^{-s} + 0.346 61^{-s} lifts to four coordinates, but |f| is
    # |0.949 - 0.346i w| with w = z^{alpha(61) - alpha(60)}: the mean of
    # |a + b w| is (2/pi)(a + b) E(4ab/(a + b)^2), E the complete elliptic
    # integral of the second kind
    grids = _spy_grids(monkeypatch)
    value, stderr = d.qmc_norm_hp(d.from_terms({60: -0.949j, 61: 0.346}, 61), 1.0)
    a, b = 0.949, 0.346
    exact = float(2 / mpmath.pi * (a + b) * mpmath.ellipe(4 * a * b / (a + b) ** 2))
    assert grids and all(len(grid) == 1 for grid in grids)
    assert value == pytest.approx(exact, rel=1e-14)
    assert stderr <= 1e-12 * value
    # inside the band of the scrambled-Sobol estimate it had on the 4-D lift
    assert abs(value - 0.9807946727186968) <= 5 * 1.333262100829733e-4


def test_lift_axes_take_what_the_reduced_axes_leave_open(monkeypatch):
    # 1.824 + c 4^{-s} + c' 18^{-s} lifts to (2, 0) and (1, 2): on the reduced
    # axes, those two differences, the 256^2 grid ends above the tolerance,
    # and the lift's own axes converge on their 256^2 grid
    grids = _spy_grids(monkeypatch)
    lattice = []
    monkeypatch.setattr(d.torus, "_qmc_moments", lambda *args: lattice.append(args))
    c4, c18 = 0.097 - 0.900j, -0.056 - 0.900j
    f = d.from_terms({1: 1.824, 4: c4, 18: c18}, 18)
    value, stderr = d.qmc_norm_hp(f, 3.0)
    assert not lattice
    assert grids[-1] == (256, 256) and all(len(grid) == 2 for grid in grids)
    # reference: the 2048^2 grid on the lift's coordinates, summed exactly
    M = 2048
    z = np.exp(2j * np.pi * np.arange(M) / M)
    rows = [math.fsum(np.abs(1.824 + c4 * z1**2 + c18 * z1 * z**2) ** 3) for z1 in z]
    ref = (math.fsum(rows) / M**2) ** (1.0 / 3.0)
    assert abs(value - ref) <= 1e-13 * ref
    assert stderr <= 1e-12 * value


def test_terms_on_independent_directions_take_one_axis_each(monkeypatch):
    grids = _spy_grids(monkeypatch)
    # 1 + c 6^{-s} lifts to the primes 2 and 3, and runs 1-D grids
    d.qmc_norm_hp(d.from_terms({1: 1.0, 6: 0.4j}, 6), 3.0)
    assert grids and all(len(grid) == 1 for grid in grids)
    # three terms on the primes 2, 5 and 11 run 2-D grids
    grids.clear()
    d.qmc_norm_hp(d.from_terms({1: 1.0, 10: -0.1, 11: 0.3 - 0.1j}, 11), 2.5)
    assert grids and all(len(grid) == 2 for grid in grids)


def test_qmc_stops_at_an_overflowing_spread(monkeypatch):
    # at p = 10^12 + 1 the shifted means of the smallest sigma-nodes
    # overflow, and at the fine rule's node 11.998... they are finite but
    # their spread is not; such a row can only fail the spread check, so the
    # call ends after the first lattice
    grids = _spy_grids(monkeypatch)
    f = d.from_terms({6: 1.0, 35: 1.0, 143: 0.7j, 323: -0.5}, 323)
    p, mu = 1000000000001.0, AlphaMeasure(0.0)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="integral inf with spread nan"):
        d.norm_ap(f, p, mu)
    # one pass over the nodes of both rules runs the 3-D grids of its three
    # directions up to the budget, then one lattice
    tensor = [(8, 8, 8), (16, 16, 16), (32, 32, 32)]
    assert grids == tensor + [(2**10,)]
    # alone, that node is stuck on the first grid and fails the same way
    grids.clear()
    node = mu._rules[1][0][49]
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="spread inf"):
        d.norm_hp(f, p, sigmas=[node])
    assert grids == [(8, 8, 8), (2**10,)]


def test_an_overflowing_lattice_mean_is_refused():
    # |1 + 0.5i 2^{-s}|^3000.5 overflows on every grid: the lattice means
    # are inf and their spread NaN, which passed the spread check, so
    # qmc_norm_hp returned (inf, nan) and norm_hp inf
    f = d.from_terms({1: 1.0, 2: 0.5j}, 2)
    with np.errstate(all="ignore"):
        for call in (d.qmc_norm_hp, d.norm_hp):
            message = r"^QMC did not converge: integral inf with spread nan$"
            with pytest.raises(NumericError, match=message):
                call(f, 3000.5)


def test_vanishing_polynomial_falls_back_to_qmc(monkeypatch):
    # |1 + z| vanishes at z = -1, so the trapezoid rule converges only
    # algebraically there and the 2^17-point budget runs out
    grids = _spy_grids(monkeypatch)
    value, stderr = d.qmc_norm_hp(d.from_terms({1: 1.0, 2: 1.0}, 2), 1.0)
    # the shifted lattices double up to QMC_POINTS without meeting the tolerance
    assert grids[-1] == (d.torus.QMC_POINTS,)
    assert stderr > 0
    assert abs(value - 4.0 / math.pi) <= 5 * stderr
    # the lattice route's estimate and standard error, bit for bit
    assert (value, stderr) == (1.2732395443497766, 6.724829076048367e-10)


# Inputs that go to QMC, with the estimate and standard error of the
# scrambled-Sobol route that the shifted lattices replaced.  The _RANK_FOUR
# row is from scipy.stats.qmc.Sobol on its four prime coordinates: eight
# scrambles (seeds 0 to 7) of 2^14 points each.
_SOBOL_PANEL = [
    ({6: 1, 35: 1, 143: 0.7j, 323: -0.5}, 1.5, 1.580701994262521, 2.5060143174485654e-4),
    (
        {1: 0.3, 6: 1, 35: 1, 143: 0.7j, 323: -0.5, 23: 0.2},
        2.5,
        1.7635791248153534,
        3.1245737784287925e-4,
    ),
    (_RANK_FOUR, 1.0, 1.0624532272968559, 3.878432300949975e-6),
    ({1: 1, 2: 1, 3: 1}, 1.0, 1.57459735268306, 5.016993428484622e-7),
]


@pytest.mark.parametrize("terms, p, sobol, sobol_stderr", _SOBOL_PANEL)
def test_lattice_fallback_is_no_looser_than_sobol(terms, p, sobol, sobol_stderr):
    value, stderr = d.qmc_norm_hp(d.from_terms(terms, max(terms)), p)
    assert 0 < stderr <= sobol_stderr
    assert abs(value - sobol) <= 5 * math.hypot(stderr, sobol_stderr)


# One input per route, with qmc_norm_hp's value and stderr and the A^{1.5}
# norm on alpha(0), bit for bit: one term, even p, a tensor grid on the
# lift's own axes, one on the reduced axis of 1 + c 6^{-s}, and the
# shifted lattices.
_ROUTE_PINS = [
    ({6: 0.7 - 0.2j}, 3.0, "0x1.74bddb3926321p-1", "0x0.0p+0", "0x1.a67ec4d775bfbp-2"),
    (
        {1: 1.0, 2: 0.3 - 0.1j, 3: 0.2j},
        4.0,
        "0x1.1f5bfa40b592cp+0",
        "0x0.0p+0",
        "0x1.07763209ec536p+0",
    ),
    (
        {1: 1.0, 2: 0.3, 3: 0.2j, 6: 0.1 - 0.1j},
        3.0,
        "0x1.197939f357701p+0",
        "0x0.0p+0",
        "0x1.07afd88f9eb23p+0",
    ),
    (
        {1: 1.0, 6: 0.4j},
        3.0,
        "0x1.1be1b5d56c6afp+0",
        "0x1.1593c7d25b5ecp-54",
        "0x1.057b316eae71dp+0",
    ),
    (
        _RANK_FOUR,
        1.0,
        "0x1.0ffce49a8b5cep+0",
        "0x1.1734f4b5ba589p-21",
        "0x1.0b59b6f60bbafp+0",
    ),
]


@pytest.mark.parametrize(
    "terms, p, value, stderr, ap",
    _ROUTE_PINS,
    ids=["one-term", "even-p", "lift-axes", "reduced-axes", "lattice"],
)
def test_route_outputs_keep_their_bits(terms, p, value, stderr, ap, alpha0):
    f = d.from_terms(terms, max(terms))
    assert d.qmc_norm_hp(f, p) == (float.fromhex(value), float.fromhex(stderr))
    assert d.norm_ap(f, 1.5, alpha0) == float.fromhex(ap)


def _torus_panel():
    """Seeded qmc_norm_hp inputs on one, two and three axes (the three-axis
    grids reach 32^3 points, in two chunks, and some rows go on to the
    lattices), then the 256^2 grid of 1.824 + c 4^{-s} + c' 18^{-s}, and
    one-axis ladders that climb past their first call."""
    rng = np.random.default_rng(41)
    for primes in ((2,), (2, 3), (2, 3, 5)):
        for _ in range(4):
            terms = {1: complex(rng.uniform(0.9, 1.3), rng.uniform(-0.3, 0.3))}
            for q in primes:
                n = q ** int(rng.integers(1, 3))
                terms[n] = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            yield terms, float(rng.choice([1.5, 2.5, 3.0, 3.5]))
    yield {1: 1.824, 4: 0.097 - 0.900j, 18: -0.056 - 0.900j}, 3.0
    yield {1: 1.0, 2: 0.3j}, 3.5
    yield {1: 1.0, 2: 0.9}, 2.5


# qmc_norm_hp's value on each input of _torus_panel, bit for bit.
_TORUS_PINS = [
    "0x1.50c60d249d212p+0",
    "0x1.0ce93f0fd72d6p+0",
    "0x1.370f44d0d78cap+0",
    "0x1.55b1f99c38a8ap+0",
    "0x1.1185b0fdb8461p+0",
    "0x1.313b5b3083d5dp+0",
    "0x1.2e8b268caca21p+0",
    "0x1.42931dd1673a7p+0",
    "0x1.3aaef0a45c29dp+0",
    "0x1.50916438339e8p+0",
    "0x1.5315017957d4bp+0",
    "0x1.37c400b6675dcp+0",
    "0x1.2d9f8b3fad19cp+1",
    "0x1.12a75fba1cb01p+0",
    "0x1.6422686dc0ac0p+0",
]


def test_torus_values_keep_their_bits():
    for (terms, p), value in zip(_torus_panel(), _TORUS_PINS, strict=True):
        f = d.from_terms(terms, max(terms))
        assert d.qmc_norm_hp(f, p)[0] == float.fromhex(value), terms


# Non-even A^p norms on alpha(0), alpha(1) and the exp-3 density, bit for bit.
_NONEVEN_AP_PINS = [
    (
        {1: 1.0, 6: 0.4j},
        1.5,
        ["0x1.057b316eae71dp+0", "0x1.01f805f683602p+0", "0x1.06f6b6b416341p+0"],
    ),
    (
        {1: 1.1 - 0.2j, 6: 0.3j, 10: 0.2 - 0.1j},
        2.5,
        ["0x1.24e3d85f84b9fp+0", "0x1.208375dc79ec4p+0", "0x1.26bb48c761ceap+0"],
    ),
    (
        {1: 1.0, 2: 0.3, 3: 0.2j, 6: 0.1 - 0.1j},
        3.0,
        ["0x1.0e2df3fa46622p+0", "0x1.07ebedd7b73f1p+0", "0x1.1092d7bc98217p+0"],
    ),
]


@pytest.mark.parametrize("terms, p, values", _NONEVEN_AP_PINS)
def test_noneven_norm_ap_values_keep_their_bits(terms, p, values, alpha0, alpha1, custom_density):
    f = d.from_terms(terms, max(terms))
    for mu, value in zip((alpha0, alpha1, custom_density), values, strict=True):
        assert d.norm_ap(f, p, mu) == float.fromhex(value), mu


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
                    assert mu.kernel_tail(a, N) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 10.0, 20.0])
@pytest.mark.parametrize("a", [2.0, 3.0])
@pytest.mark.parametrize("N", [2, 4])
def test_alpha_kernel_tail_bounds_the_sum(alpha, a, N):
    with mpmath.workdps(20):
        f = lambda n: _alpha_summand(alpha, a, n)
        true = float(mpmath.nsum(f, [N + 1, mpmath.inf], method="euler-maclaurin"))
    tail = AlphaMeasure(alpha).kernel_tail(a, N)
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
    assert float(true) <= AlphaMeasure(alpha).kernel_tail(a, N)


# One input per tail route, Gamma closed form and secant walk: kernel
# (value, tail) and point_eval_sum (value, tail) as float.hex.
_TAIL_PINS = {
    "gamma-alpha0": (
        lambda: AlphaMeasure(0.0), 0.8 + 2.0j, 0.7 - 0.5j, 3.0, 64,
        ["0x1.4563e81bf8764p-2", "0x1.a14994c299c56p-2", "0x1.ccbf7a3ba22d8p+0",
         "0x1.6645c590f03fbp+0", "0x1.747c7d13588d4p-11"],
    ),
    "gamma-alpha1": (
        lambda: AlphaMeasure(1.0), 1.1 - 1.0j, 0.6 + 3.0j, 2.5, 128,
        ["0x1.43ccf226c0881p-1", "0x1.89b8636a7baecp-2", "0x1.5248af8e049a1p+1",
         "0x1.56d7f526304a1p+1", "0x1.46e271aa0f588p-6"],
    ),
    "secant-exp3": (
        lambda: DensityMeasure(h=exp3_density), 0.9 + 1.0j, 0.8 - 2.0j, 2.0, 32,
        ["0x1.2603cfbc40f96p-1", "0x1.7d1a5aa353fcdp-3", "0x1.2fb5b921a585bp-1",
         "0x1.12da1dc7f0496p+1", "0x1.111e52b4a2654p-3"],
    ),
    "secant-bump": (
        lambda: d.SampledDensityMeasure(samples=BUMP_SAMPLES), 1.3 + 0.5j, 1.2 - 4.0j, 3.5, 64,
        ["0x1.31fd9f32297d3p-1", "-0x1.50434f8da711ep-1", "0x1.c243846fb62adp+3",
         "0x1.04c6a4bf82faap+1", "0x1.162679401e083p-5"],
    ),
}


@pytest.mark.parametrize("route", _TAIL_PINS)
def test_tail_routes_keep_their_bits(route):
    make, s, w, sigma, N, pinned = _TAIL_PINS[route]
    mu = make()
    kv = d.kernel(mu, s, w, N)
    value, tail = d.norms.point_eval_sum(mu, sigma, N)
    assert [x.hex() for x in (kv.value.real, kv.value.imag, kv.tail, value, tail)] == pinned


# The stops of the tail bound: the Gamma form past the floats, and a walk
# that meets an underflowing or an unresolved weight before it closes.
_TAIL_STOPS = {
    "overflow": (
        lambda: AlphaMeasure(20.0), 1.0 + 2.0**-52, 4,
        DivergenceError, "kernel tail overflows at abscissa 1.0000000000000002",
    ),
    "underflow": (
        lambda: d.SampledDensityMeasure(samples=[[10.0, 0.0], [10.25, 4.0], [10.5, 0.0]]),
        21.01, 256,
        NumericError, "weight w_h(1.89353e+15) of the kernel tail underflows",
    ),
    "unresolved": (
        lambda: DensityMeasure(h=AlphaMeasure(5.0).density), 1.2, 16,
        NumericError,
        "weight w_h(2.09715e+06) of the kernel tail is not resolved: "
        "7.056627369166236e-08 +- 7.596942550972764e-16",
    ),
}


@pytest.mark.parametrize("stop", _TAIL_STOPS)
def test_tail_stops_keep_their_messages(stop):
    make, sigma, N, error, message = _TAIL_STOPS[stop]
    with pytest.raises(error) as info:
        d.norms.point_eval_sum(make(), sigma, N)
    assert str(info.value) == message


def test_weighted_sum_needs_a_truncation(alpha0, custom_density):
    # N = 0 left the Gamma tail a math domain error
    for mu in (alpha0, custom_density):
        with pytest.raises(InvalidInputError, match="N must be >= 1"):
            d.norms.point_eval_sum(mu, 3.0, 0)
        with pytest.raises(InvalidInputError, match="N must be >= 1"):
            d.kernel(mu, 1.5, 1.5, 0)


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
    # h = c e^{-c sigma} has w(x) = c/(c + 2 log x), so f(x) = x^{-a}(1 + (2/c) log x),
    # which decreases past x = 1: the tail over n > N lies between the
    # integral of f from N + 1 and that from N plus f(N)
    mu = DensityMeasure(h=lambda s: c * np.exp(-c * np.asarray(s, dtype=np.float64)))

    def integral(a, x):
        L, e = math.log(x), x ** (1.0 - a)
        return e / (a - 1) + (2 / c) * (e * L / (a - 1) + e / (a - 1) ** 2)

    for a in (1.2, 2.0, 6.0):
        for N in (1, 10, 1000):
            upper = integral(a, N) + N**-a * (1 + (2 / c) * math.log(N))
            assert integral(a, N + 1) <= mu.kernel_tail(a, N) <= 1.5 * upper


def _panel_weight(kind, n):
    """Closed-form weights of the density tail panel at n >= 2, C = 2 log n."""
    C = 2.0 * np.log(n)
    if kind == "box-rise":  # h = sigma/8 on [0, 4]
        return -np.expm1(-4.0 * C) / (8.0 * C**2) - 4.0 * C * np.exp(-4.0 * C) / (8.0 * C**2)
    if kind == "triangle":  # h = 2 - 2 sigma on [0, 1]
        return 2.0 * (C - 1.0 + np.exp(-C)) / C**2
    return kind / (kind + C)  # h = c e^{-c sigma}


_PANEL = [
    (2.5, DensityMeasure(h=lambda s: 2.5 * np.exp(-2.5 * np.asarray(s)))),
    (3.0, DensityMeasure(h=lambda s: 3.0 * np.exp(-3.0 * np.asarray(s)))),
    (4.0, DensityMeasure(h=lambda s: 4.0 * np.exp(-4.0 * np.asarray(s)))),
    ("triangle", d.SampledDensityMeasure(samples=[[0.0, 2.0], [1.0, 0.0]])),
    ("box-rise", d.SampledDensityMeasure(samples=[[0.0, 0.0], [4.0, 0.5]])),
]


@pytest.mark.parametrize("kind, mu", _PANEL, ids=["exp2.5", "exp3", "exp4", "triangle", "box-rise"])
def test_density_kernel_tail_bounds_the_partial_sums(kind, mu):
    # the tail bound holds the exact terms from N + 1 to 2 10^6, at every
    # distance from the abscissa; sigma/8 rises before its peak.  From 0.2
    # past the abscissa it is within 1.5 of the integral of f from N plus
    # f(N), where an adaptive quadrature finds that integral.
    from scipy.integrate import quad

    n = np.arange(2, 2 * 10**6 + 1, dtype=np.float64)
    for da in (0.05, 0.2, 0.5, 1.0, 5.0):
        a = mu.abscissa + da
        f = n**-a / _panel_weight(kind, n)
        suffix = np.cumsum(f[::-1])[::-1]  # suffix[i] = sum of f over n >= i + 2
        for N in (1, 2, 4, 16, 256, 10_000):
            tail = mu.kernel_tail(a, N)
            assert suffix[N - 1] <= tail
            integral, _, *failed = quad(
                lambda x: x**-a / _panel_weight(kind, x),
                N, np.inf, limit=200, epsabs=0.0, epsrel=1e-10, full_output=1,
            )
            if da >= 0.2 and len(failed) < 2:
                assert tail <= 1.5 * (integral + N**-a / (_panel_weight(kind, N) if N > 1 else 1))


def test_density_kernel_tail_fails_only_without_a_close():
    # supported from sigma = 10: w(x) underflows near 10^15, before the
    # secant slope turns negative at a = 21.01
    late = d.SampledDensityMeasure(samples=[[10.0, 0.0], [10.25, 4.0], [10.5, 0.0]])
    with pytest.raises(NumericError, match="underflows"):
        late.kernel_tail(21.01, 256)
    n = np.arange(257, 20_001, dtype=np.float64)
    partial = float(np.sum(n**-22.0 / late.weights_by_quadrature(n)))
    assert partial <= late.kernel_tail(22.0, 256) < 1.5 * partial


def test_density_kernel_tail_with_tiny_weights():
    # h = 4 (1 - |4 sigma - 6|)_+ on [1, 2] has w(x) = (1 - 1/x)^2 / (x log x)^2,
    # so at a = 3.02 the walk closes past x = e^100, where w(x) < 10^-90.  f
    # decreases past x = 17, so the tail lies between the integrals of
    # x^{-1.02} (log x)^2 from N + 1 and, times (1 - 1/N)^{-2}, from N:
    # Gamma(3, 0.02 log x) / 0.02^3 in closed form.
    late = d.SampledDensityMeasure(samples=[[1.0, 0.0], [1.5, 2.0], [2.0, 0.0]])

    def integral(x):
        y = 0.02 * math.log(x)
        return math.exp(-y) * (y * y + 2.0 * y + 2.0) / 0.02**3

    for N in (16, 256, 10_000):
        upper = integral(N) / (1.0 - 1.0 / N) ** 2 + N**-3.02 / late.weight(N)
        assert integral(N + 1) <= late.kernel_tail(3.02, N) <= 1.5 * upper


def test_density_kernel_tail_stops_at_an_unresolved_weight():
    # h is the alpha(5) density, so w(x) = (1 + log x)^{-6}.  At x = e^100
    # the two Gauss-Laguerre rules agree to DOUBLING_TOL absolute, and weight
    # returns a value 1% off; the walk, which needs them to agree to
    # DOUBLING_TOL of w(x), stops before it and has no close at a = 1.2.
    alpha5 = AlphaMeasure(5.0)
    mu = DensityMeasure(h=alpha5.density)
    x = math.exp(100.0)
    coarse, fine = mu._both_rules(_decay(np.log(np.float64(x))))
    w, gap = float(fine), abs(float(fine) - float(coarse))
    assert mu.weight(x) == w and abs(w / alpha5.weight(x) - 1.0) > 1e-3
    assert DOUBLING_TOL * w < gap < DOUBLING_TOL
    with pytest.raises(NumericError, match="not resolved"):
        mu.kernel_tail(1.2, 16)
    # further from the abscissa it closes on resolved weights, above the
    # exact terms to 2 10^6 and within 1.5 of the Gamma closed form
    n = np.arange(2, 2 * 10**6 + 1, dtype=np.float64)
    for a in (1.5, 2.0, 3.0):
        suffix = np.cumsum((n**-a * (1.0 + np.log(n)) ** 6)[::-1])[::-1]
        for N in (1, 16, 10_000):
            assert suffix[N - 1] <= mu.kernel_tail(a, N) <= 1.5 * alpha5.kernel_tail(a, N)


@pytest.mark.parametrize("nodes", [199, 256, 512])
def test_large_node_counts(nodes):
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

