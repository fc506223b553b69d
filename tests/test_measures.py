import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

import dirspaces as d
from dirspaces import (
    AlphaMeasure,
    DensityMeasure,
    InvalidInputError,
    NumericError,
    SampledDensityMeasure,
)
from dirspaces.measures import (
    _BLOCK,
    _NODES,
    _decay,
    _gauss_laguerre,
    _gauss_legendre,
    measure_from_json,
)

from conftest import exp3_density


def quad_weight_oracle(alpha, n):
    """Independent adaptive quadrature of the weight integral."""
    c = 2.0 ** (alpha + 1) / math.gamma(alpha + 1)
    val, _ = quad(
        lambda s: n ** (-2.0 * s) * c * s**alpha * math.exp(-2.0 * s), 0, np.inf, limit=200
    )
    return val


def test_weight_at_one_is_one(alpha0, alpha1, custom_density, sampled_density):
    for mu in (alpha0, alpha1, custom_density, sampled_density):
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


def test_integrate_constant_is_one(alpha0, alpha1, custom_density, sampled_density):
    for mu in (alpha0, alpha1, custom_density, sampled_density):
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


def _count_calls(g, shapes):
    """g, recording the shape of the nodes of every call in `shapes`."""

    def counted(s):
        shapes.append(s.shape)
        return g(s)

    return counted


def test_integrate_calls_its_integrand_once(alpha0, custom_density, sampled_density):
    # both rules in one pass: one call at the nodes of the coarse and the
    # fine rule together, a scalar and a vector integrand alike
    for mu in (alpha0, custom_density, sampled_density):
        (x1, _), (x2, _) = mu._rules
        for g in (np.exp, lambda s: np.stack([np.ones_like(s), s])):
            shapes = []
            value = mu.integrate(_count_calls(g, shapes))
            assert shapes == [(x1.size + x2.size,)]
            assert np.ndim(value) == (0 if g is np.exp else 1)
        assert np.array_equal(mu._nodes, np.concatenate([x1, x2]))
        assert not mu._nodes.flags.writeable


def test_kernel_tail_steps_call_their_integrand_once(
    monkeypatch, custom_density, sampled_density
):
    # each step of the walk builds one weight integrand and calls it once
    for mu in (custom_density, sampled_density):
        built, shapes = [], []

        def decay(logs):
            built.append(logs)
            return _count_calls(_decay(logs), shapes)

        monkeypatch.setattr(d.measures, "_decay", decay)
        tail = mu.kernel_tail(3.0, 16)
        monkeypatch.undo()
        assert len(built) > 2 and len(shapes) == len(built)
        assert set(shapes) == {mu._nodes.shape}
        assert tail == mu.kernel_tail(3.0, 16)


def test_a_density_of_the_wrong_shape_is_refused():
    # h must map its node array to values of the same shape; a scalar, or
    # too few values, failed inside numpy (IndexError, a broadcasting
    # ValueError)
    for h in (lambda s: 1.0, lambda s: np.full(5, 2.0), lambda s: exp3_density(s)[:-1]):
        with pytest.raises(InvalidInputError, match="density callable maps"):
            DensityMeasure(h=h)
    # a list of the right length is an array of that shape
    mu = DensityMeasure(h=lambda s: list(exp3_density(s)))
    assert mu.weight(3) == DensityMeasure(h=exp3_density).weight(3)


@pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 10.0])
def test_gauss_laguerre_matches_scipy(a):
    from scipy.special import roots_genlaguerre

    for m in (2, 3, 16, 64, 128, 199, 256, 300):
        x, w = _gauss_laguerre(m, a)
        xs, ws = roots_genlaguerre(m, a)
        ws = ws / math.gamma(a + 1)
        assert np.max(np.abs(x - xs) / xs) < 1e-11
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
        for n in (2.0, 100.0):
            ref = np.sum(ws * n**-xs)
            assert abs(np.sum(w * n**-x) - ref) < 1e-11 * ref


def test_gauss_laguerre_rules_are_cached_and_read_only():
    x, w = _gauss_laguerre(64, 1.0)
    assert _gauss_laguerre(64, 1.0)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # two measures of one family share the rule through the cache
    (xa, wa), _ = AlphaMeasure(1.0)._rules
    (xb, wb), _ = AlphaMeasure(1.0)._rules
    assert np.array_equal(xa, xb) and wa is wb


def test_gauss_laguerre_large_rules_are_finite():
    # the unscaled recurrence overflows past about 390 nodes
    for m, a in ((398, -0.5), (1024, 1.0), (2048, 0.0)):
        x, w = _gauss_laguerre(m, a)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.all(np.diff(x) > 0) and np.all(w >= 0)
        assert np.sum(w * x) == pytest.approx(a + 1.0, rel=1e-11)


def test_gauss_laguerre_weights_match_per_n_integrate():
    # the vector and the per-n paths read one np.log table: bitwise equal
    mu = DensityMeasure(h=exp3_density)
    N = 300
    ref = np.array([mu.weight(n) for n in range(1, N + 1)])
    assert np.array_equal(mu.weights(N), ref)
    assert np.array_equal(mu.weights_by_quadrature(np.arange(1, N + 1)), ref)
    # the kernel tail's walk reads each weight from the rule pair at one x
    fine = [mu._both_rules(_decay(np.log(np.float64(n))))[1] for n in range(1, N + 1)]
    assert np.array_equal(fine, ref)


def test_weights_at_reads_the_weights_outside_the_memo(
    alpha0, alpha1, custom_density, sampled_density
):
    ns = np.array([1, 7, 2, 1000, 10**6])
    for mu in (AlphaMeasure(0.0), AlphaMeasure(2.5)):
        w = mu.weights_at(ns)
        assert mu._weight_cache is None
        assert np.array_equal(w, [mu.weight(n) for n in ns.tolist()])
        assert np.array_equal(w[:3], mu.weights(7)[ns[:3] - 1])
    for mu in (DensityMeasure(h=exp3_density), sampled_density):
        assert np.array_equal(mu.weights_at(ns), mu.weights_by_quadrature(ns))
    with pytest.raises(InvalidInputError):
        AlphaMeasure(0.0).weights_at([0])
    with pytest.raises(InvalidInputError):
        sampled_density.weights_at([0.5])
    # weight(n), weights_at([n])[0] and weights(N)[n - 1] are one computation
    panel = [1, 2, 2.5, 7, 7.5, 1000, 12345.25, 10**6, 2**40]
    N = 64
    for mu in (alpha0, alpha1, custom_density, sampled_density):
        memo = mu.weights(N)
        for n in panel:
            try:
                w = mu.weight(n)
            except NumericError as e:
                # the same refusal by either route: the coarse and fine
                # Gauss-Laguerre rules of the e^{-3 sigma} density disagree at 2^40
                assert mu is custom_density and n == 2**40
                with pytest.raises(NumericError, match=re.escape(str(e))):
                    mu.weights_at([n])
                continue
            assert isinstance(w, float)
            assert w == mu.weights_at([n])[0]
            if n == int(n) <= N:
                assert w == memo[int(n) - 1]


def test_a_nan_index_is_refused_by_every_measure(sampled_density):
    with pytest.raises(InvalidInputError, match="n >= 1"):
        d.alpha_weight(0.0, math.nan)
    for mu in (AlphaMeasure(0.0), AlphaMeasure(2.5), DensityMeasure(h=exp3_density), sampled_density):
        with pytest.raises(InvalidInputError, match="n >= 1"):
            mu.weight(math.nan)
        with pytest.raises(InvalidInputError, match="n >= 1"):
            mu.weights_at([2, math.nan])
        with pytest.raises(InvalidInputError, match="n >= 1"):
            mu.weights_at([math.nan, 3, 1])


def _gamma1_density(sigma):
    """h(sigma) = 4 sigma e^{-2 sigma}, a callable density that vanishes at 0."""
    sigma = np.asarray(sigma, dtype=np.float64)
    return 4.0 * sigma * np.exp(-2.0 * sigma)


def _decay_route(mu, ns):
    """The weights at ns by integrate over the integrand built from np.log ns,
    or the refusal's message."""
    try:
        return mu.integrate(_decay(np.log(np.asarray(ns, dtype=np.float64))))
    except NumericError as e:
        return str(e)


@pytest.mark.parametrize("h", [exp3_density, _gamma1_density], ids=["exp3", "gamma1"])
def test_density_table_is_bitwise_the_decay_route(h):
    # a block of integer indices holds at most this many rows of the table
    assert _BLOCK // (2 * _NODES) == 4096
    for N in (1, 31, 32, 33, 128, 4096, 4097):
        mu = DensityMeasure(h=h)
        w = mu.weights(N)
        assert w.shape == (N,) and np.array_equal(w, _decay_route(mu, np.arange(1, N + 1))), N
    mu = DensityMeasure(h=h)
    for ns in ([9, 2, 9, 1, 300, 2], [64, 64, 1], [4096, 1], [4097, 3], [2, 7.5, 3]):
        assert np.array_equal(mu.weights_at(ns), _decay_route(mu, ns)), ns
    empty = mu.weights_at([])
    assert empty.shape == (0,) and empty.dtype == np.float64
    for n in (1, 2, 7.5, 64, 65, 4096, 4097, 2**40):
        try:
            w = mu.weight(n)
        except NumericError as e:
            w = str(e)
        expected = _decay_route(mu, [n])
        assert w == (expected if isinstance(expected, str) else expected[0]), n


def test_densities_share_one_read_only_decay_table(monkeypatch):
    seen = []
    table = d.measures._laguerre_decay

    def spy(N):
        seen.append(table(N))
        return seen[-1]

    monkeypatch.setattr(d.measures, "_laguerre_decay", spy)
    for h in (exp3_density, _gamma1_density):
        DensityMeasure(h=h).weights(50)
    # one table per weights call, read once for both rules
    first, again = seen
    assert first is again
    # the least power of two of rows that holds n = 50, at the nodes of both rules
    assert first.shape == (64, 3 * _NODES)
    with pytest.raises(ValueError):
        first[0, 0] = 0.0


def test_weight_memo_is_read_only():
    mu = AlphaMeasure(0.0)
    f = d.from_terms({1: 1.0, 2: 0.5}, 2)
    w = mu.weights(8)
    with pytest.raises(ValueError):
        w[1] = 5.0
    with pytest.raises(ValueError):
        mu.weights(4)[1] = 5.0  # a prefix of the memo is read-only too
    assert mu.weights(8)[1] == mu.weight(2) == 0.5906161091496412
    assert np.array_equal(mu.weights(8), AlphaMeasure(0.0).weights_at(np.arange(1, 9)))
    assert d.norm_a2(f, mu) == d.norm_a2(f, AlphaMeasure(0.0))
    assert d.norm_ap(f, 2, mu) == d.norm_ap(f, 2, AlphaMeasure(0.0))


def test_weight_memo_without_a_lock_serves_threads():
    # four threads at once read one fresh memo; a race only costs a recomputation
    sizes = (16, 64, 256, 1024)
    for mu in (AlphaMeasure(0.5), SampledDensityMeasure(samples=[[0.0, 2.0], [1.0, 0.0]])):
        with ThreadPoolExecutor(max_workers=len(sizes)) as pool:
            got = dict(zip(sizes, pool.map(mu.weights, sizes)))
        for N in sizes:
            assert not got[N].flags.writeable
            assert np.array_equal(got[N], mu.weights_at(np.arange(1, N + 1)))


def _rate_density(c):
    return lambda s: c * np.exp(-c * np.asarray(s, dtype=np.float64))


@pytest.mark.parametrize(
    "mu",
    [DensityMeasure(h=_rate_density(c)) for c in (2.5, 3.0, 4.0)]
    + [SampledDensityMeasure(samples=[[0.0, 2.0], [1.0, 0.0]])],
    ids=["exp2.5", "exp3", "exp4", "triangle"],
)
def test_weights_within_4_ulps_of_the_power_form(mu):
    # e^{-2 sigma log n} against n^{-2 sigma} on the same rules; 3 ulps measured
    ns = np.arange(1, 4097, dtype=np.float64)
    ref = mu.integrate(lambda s: np.power(ns[..., None], -2.0 * s))
    assert np.all(np.abs(mu.weights(ns.size) - ref) <= 4 * np.spacing(ref))


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


def test_density_weights_match_per_n_quad():
    mu = DensityMeasure(h=exp3_density)
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


def test_weight_monotone_decreasing(alpha0, custom_density, sampled_density):
    for mu in (alpha0, custom_density, sampled_density):
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
    with pytest.raises(InvalidInputError, match="positive on"):
        DensityMeasure(h=bad)
    # a sampled density may vanish on an interval: here on [0, 1]
    mu = SampledDensityMeasure(samples=[[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    assert mu.weight(2) > 0
    assert mu.density(0.5) == 0.0 and mu.density(2.0) == 1.0 and mu.density(4.0) == 0.0


def _random_samples(seed=3, m=20):
    rng = np.random.default_rng(seed)
    sig = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, m - 1))])
    val = rng.uniform(0.1, 1.0, m)
    return np.column_stack([sig, val / (np.sum((val[1:] + val[:-1]) * np.diff(sig)) / 2)])


def test_sampled_weights_match_adaptive_quad():
    # an adaptive oracle that knows the breakpoints of the interpolant
    samples = _random_samples()
    mu = SampledDensityMeasure(samples=samples)
    sig, val = samples.T
    for n in (2, 17, 1000):
        ref, _ = quad(
            lambda s: n ** (-2.0 * s) * np.interp(s, sig, val),
            0.0, sig[-1], points=sig[1:-1], limit=200, epsabs=0.0, epsrel=1e-13,
        )
        assert mu.weight(n) == pytest.approx(ref, rel=1e-11)


def test_sampled_weights_closed_forms():
    # the triangle on (0, 2) is the uniform density on (0, 1) convolved with
    # itself; sampled at 401 points, its coarse rule has 2 nodes a segment and
    # is 5e-8 off relative at n = 10^4, while the fine rule is not
    ns = np.arange(2, 10_001, dtype=np.float64)
    c = 2.0 * np.log(ns)
    triangle = (-np.expm1(-c) / c) ** 2
    sig = np.linspace(0.0, 2.0, 401)
    cases = [([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], triangle)]
    cases.append((np.column_stack([sig, 1.0 - np.abs(sig - 1.0)]), triangle))
    for b in (0.25, 1.0, 3.0):
        cases.append(([[0.0, 1.0 / b], [b, 1.0 / b]], -np.expm1(-b * c) / (b * c)))
    for samples, ref in cases:
        mu = SampledDensityMeasure(samples=samples)
        w = mu.weights(10_000)
        assert w[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(w[1:] - ref) / ref) < 1e-12
        # weights() integrates blocks of n: bitwise the per-call route
        assert np.array_equal(w[[1, 4999, 9999]], mu.weights_by_quadrature([2, 5000, 10_000]))
    c = 2.0 * math.log(2.0**20)
    w = SampledDensityMeasure(samples=cases[1][0]).weights_by_quadrature([2**20])
    assert w[0] == pytest.approx((-math.expm1(-c) / c) ** 2, rel=1e-12)


def test_sampled_fine_rule_doubles_every_segment():
    sig = np.linspace(0.0, 2.0, 401)
    mu = SampledDensityMeasure(samples=np.column_stack([sig, 1.0 - np.abs(sig - 1.0)]))
    assert _NODES == 128
    coarse, fine = (np.bincount(np.searchsorted(sig, x) - 1, minlength=400) for x, _ in mu._rules)
    assert np.all(coarse == 2) and np.array_equal(fine, 2 * coarse)
    # and where _NODES exceeds the segment count, ceil(_NODES / K) per segment
    mu = SampledDensityMeasure(samples=_random_samples())
    (x1, _), (x2, _) = mu._rules
    assert (x1.size, x2.size) == (19 * 7, 19 * 14)


def test_gauss_legendre_rules_are_cached_and_read_only():
    t, w = _gauss_legendre(16)
    assert _gauss_legendre(16)[0] is t
    assert np.all((0 < t) & (t < 1)) and math.fsum(w) == pytest.approx(1.0, abs=1e-15)
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize(
    "samples, message",
    [
        ([[0.0, 1.0]], ">= 2 rows"),
        ([[0.0, math.nan], [1.0, 2.0]], "finite"),
        ([[0.0, 1.0], [math.inf, 1.0]], "finite"),
        ([[-1.0, 0.5], [1.0, 0.5]], "sigma_0 >= 0"),
        ([[1.0, 0.0], [0.0, 2.0]], "strictly increasing"),
        ([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]], "strictly increasing"),
        ([[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]], "strictly increasing"),
        ([[0.0, 3.0], [1.0, -1.0]], "samples must be nonnegative"),
        ([[0.0, 0.0], [1.0, 0.0]], "vanishes at every sample"),
        ([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], "integrates to 2.0"),
    ],
)
def test_sampled_density_validation(samples, message):
    with pytest.raises(InvalidInputError, match=message):
        SampledDensityMeasure(samples=samples)


def test_callable_sigma_max_from_the_fine_rule():
    # the mass past hi is e^{-rate hi}: below 1e-12 first at hi = 16, 16, 8
    for rate, hi in ((2.5, 16.0), (3.0, 16.0), (4.0, 8.0)):
        mu = DensityMeasure(h=lambda s, r=rate: r * np.exp(-r * np.asarray(s)))
        assert mu._find_sigma_max() == hi


def test_measure_from_json_alpha():
    mu = measure_from_json({"type": "alpha", "alpha": 1.0})
    assert isinstance(mu, AlphaMeasure) and mu.alpha == 1.0


def test_measure_from_json_density():
    # triangle density on (0, 2): exactly piecewise linear, so the sample
    # interpolant reproduces it and integrates to 1 exactly
    sig = np.linspace(0.0, 2.0, 401)
    samples = [[float(s), float(1.0 - abs(s - 1.0))] for s in sig]
    mu = measure_from_json({"type": "density", "samples": samples})
    oracle, _ = quad(lambda s: 2.0 ** (-2.0 * s) * (1.0 - abs(s - 1.0)), 0, 2, points=[1.0])
    assert isinstance(mu, SampledDensityMeasure)
    assert mu.weight(2) == pytest.approx(oracle, rel=1e-12)


def test_measure_from_json_invalid():
    with pytest.raises(InvalidInputError):
        measure_from_json({"type": "atomic"})
    with pytest.raises(InvalidInputError):
        measure_from_json({})
    with pytest.raises(InvalidInputError):
        measure_from_json({"type": "alpha", "alpha": math.inf})
    # a key the measure does not read is refused, not ignored
    samples = [[0, 2], [1, 0]]
    for obj in (
        {"type": "alpha", "alpah": 3},
        {"type": "alpha", "samples": samples},
        {"type": "density", "samples": samples, "alpha": 1},
        {"type": "density", "samples": samples, "quadrature": {"nodes": 64}},
    ):
        with pytest.raises(InvalidInputError, match="unknown keys"):
            measure_from_json(obj)
