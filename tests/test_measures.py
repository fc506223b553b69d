import math

import numpy as np
import pytest
from scipy.integrate import quad

import dirspaces as d
from dirspaces import AlphaMeasure, DensityMeasure, InvalidInputError, NumericError, QuadratureSpec
from dirspaces.measures import measure_from_json

from conftest import exp3_density


def quad_weight_oracle(alpha, n):
    """Independent adaptive quadrature of the weight integral."""
    c = 2.0 ** (alpha + 1) / math.gamma(alpha + 1)
    val, _ = quad(
        lambda s: n ** (-2.0 * s) * c * s**alpha * math.exp(-2.0 * s), 0, np.inf, limit=200
    )
    return val


def test_weight_at_one_is_one(alpha0, alpha1, custom_density):
    for mu in (alpha0, alpha1, custom_density):
        assert mu.weight(1) == pytest.approx(1.0, abs=1e-10)


def test_alpha_weight_examples():
    assert d.alpha_weight(0, 1) == 1.0
    assert d.alpha_weight(0, 2) == pytest.approx(1 / (1 + math.log(2)))
    assert d.alpha_weight(0, 2) == pytest.approx(quad_weight_oracle(0, 2), rel=1e-10)
    assert d.alpha_weight(1, 4) == pytest.approx(1 / (1 + math.log(4)) ** 2)
    assert d.alpha_weight(2, 10) == pytest.approx((1 + math.log(10)) ** -3)
    assert d.alpha_weight(2, 10) == pytest.approx(quad_weight_oracle(2, 10), rel=1e-10)
    assert d.alpha_weight(0, 2) == pytest.approx(0.59061, abs=1e-5)


def test_alpha_weight_invalid():
    with pytest.raises(InvalidInputError):
        d.alpha_weight(-1.0, 2)
    with pytest.raises(InvalidInputError):
        d.alpha_weight(0.0, 0.5)
    for alpha in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            d.alpha_weight(alpha, 2)


def test_alpha_measure_invalid():
    for alpha in (-1.5, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            AlphaMeasure(alpha)


def test_integrate_constant_is_one(alpha0, alpha1, custom_density):
    for mu in (alpha0, alpha1, custom_density):
        assert mu.integrate(lambda s: np.ones_like(s)) == pytest.approx(1.0, abs=1e-10)


def test_integrate_weight_consistency(alpha0):
    val = alpha0.integrate(lambda s: 2.0 ** (-2.0 * s))
    assert val == pytest.approx(alpha0.weight(2), rel=1e-10)
    assert val == pytest.approx(0.5906, abs=1e-4)


def test_integrate_gamma_mean(alpha0):
    # mean of the rate-2 exponential
    assert alpha0.integrate(lambda s: s) == pytest.approx(0.5, rel=1e-10)


def test_integrate_nan_propagates(alpha0):
    with pytest.raises(NumericError):
        alpha0.integrate(lambda s: np.where(s > 0.5, np.nan, 1.0))


def test_rules_are_built_once(monkeypatch):
    calls = []
    build = DensityMeasure._gl_nodes

    def counting(self, m):
        calls.append(m)
        return build(self, m)

    monkeypatch.setattr(DensityMeasure, "_gl_nodes", counting)
    mu = DensityMeasure(h=exp3_density)
    mu.weights(64)
    for _ in range(3):
        mu.integrate(lambda s: s)
        mu.weight(7)
        mu.weights_by_quadrature([2.0, 3.5])
    assert calls == [128, 256]


def test_gauss_laguerre_weights_match_per_n_integrate():
    mu = DensityMeasure(h=exp3_density)
    N = 300
    ref = np.array([mu.integrate(lambda s: np.power(float(n), -2.0 * s)) for n in range(1, N + 1)])
    assert np.array_equal(mu.weights(N), ref)
    assert np.array_equal(mu.weights_by_quadrature(np.arange(1, N + 1)), ref)
    assert mu.weight(17) == ref[16]


def test_integrate_vector_integrand(alpha0, custom_density):
    parts = (lambda s: np.ones_like(s), lambda s: s, lambda s: np.exp(-s))
    for mu in (alpha0, custom_density):
        vec = mu.integrate(lambda s: np.stack([g(s) for g in parts]))
        assert vec.shape == (3,)
        assert np.array_equal(vec, [mu.integrate(g) for g in parts])
    # a jump at sigma = 0.3 does not converge under node doubling
    with pytest.raises(NumericError):
        alpha0.integrate(lambda s: np.stack([np.ones_like(s), (s < 0.3).astype(float)]))
    with pytest.raises(NumericError):
        alpha0.integrate(lambda s: np.stack([np.ones_like(s), np.where(s > 0.5, np.nan, 1.0)]))


def test_adaptive_weights_match_per_n_quad():
    mu = DensityMeasure(h=exp3_density, spec=QuadratureSpec(scheme="adaptive"))
    N = 40
    ref = np.array(
        [
            quad(lambda s: n ** (-2.0 * s) * 3.0 * math.exp(-3.0 * s), 0, np.inf, limit=200)[0]
            for n in range(1, N + 1)
        ]
    )
    w = mu.weights(N)
    assert w.shape == (N,)
    assert np.max(np.abs(w - ref) / ref) < 1e-12
    assert isinstance(mu.weight(5), float)


def test_weight_monotone_decreasing(alpha0, custom_density):
    for mu in (alpha0, custom_density):
        w = mu.weights(200)
        assert np.all(np.diff(w) < 0)
        assert w[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(w > 0)
    assert alpha0.weight(10**9) < 1e-1


def test_closed_form_vs_quadrature_sampled():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        mu = AlphaMeasure(alpha)
        ns = np.array([2, 17, 129, 1024, 9999])
        wq = mu.weights_by_quadrature(ns)
        wc = np.array([d.alpha_weight(alpha, n) for n in ns])
        assert np.max(np.abs(wq - wc) / wc) < 1e-8


def test_custom_density_weight_closed_form(custom_density):
    # oracle: integral of 3 e^{-(3 + 2 log n) s} = 3/(3 + 2 log n)
    for n in (2, 10, 64):
        assert custom_density.weight(n) == pytest.approx(3.0 / (3.0 + 2.0 * math.log(n)), rel=1e-9)


def test_density_must_normalize():
    with pytest.raises(InvalidInputError):
        DensityMeasure(h=lambda s: 2.0 * exp3_density(s))


def test_density_positivity_checked():
    bad = lambda s: np.where(np.asarray(s) < 1.0, 0.0, 2.0 * np.exp(-2.0 * (np.asarray(s) - 1.0)))
    with pytest.raises(InvalidInputError):
        DensityMeasure(h=bad, spec=QuadratureSpec(scheme="adaptive"))
    # the interval-support relaxation accepts it
    mu = DensityMeasure(h=bad, spec=QuadratureSpec(scheme="adaptive"), interval_support=True)
    assert mu.weight(2) > 0


def test_adaptive_scheme_matches_gauss_laguerre(custom_density):
    adaptive = DensityMeasure(
        h=exp3_density, spec=QuadratureSpec(scheme="adaptive"), name="3exp(-3s)"
    )
    for n in (2, 50):
        assert adaptive.weight(n) == pytest.approx(custom_density.weight(n), rel=1e-9)


def test_quadrature_spec_validation():
    with pytest.raises(InvalidInputError):
        QuadratureSpec(nodes=1)
    with pytest.raises(InvalidInputError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(InvalidInputError):
        QuadratureSpec(scheme="simpson")


def test_measure_from_json_alpha():
    mu = measure_from_json({"type": "alpha", "alpha": 1.0})
    assert isinstance(mu, AlphaMeasure) and mu.alpha == 1.0


def test_measure_from_json_density():
    # triangle density on (0, 2): exactly piecewise linear, so the sample
    # interpolant reproduces it and integrates to 1 exactly
    sig = np.linspace(0.0, 2.0, 401)
    samples = [[float(s), float(1.0 - abs(s - 1.0))] for s in sig]
    mu = measure_from_json({"type": "density", "samples": samples, "quadrature": {"tol": 1e-6}})
    oracle, _ = quad(lambda s: 2.0 ** (-2.0 * s) * (1.0 - abs(s - 1.0)), 0, 2, points=[1.0])
    assert mu.weight(2) == pytest.approx(oracle, rel=1e-6)


def test_measure_from_json_invalid():
    with pytest.raises(InvalidInputError):
        measure_from_json({"type": "atomic"})
    with pytest.raises(InvalidInputError):
        measure_from_json({})
    with pytest.raises(InvalidInputError):
        measure_from_json({"type": "alpha", "alpha": math.inf})
