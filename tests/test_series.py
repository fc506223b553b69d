import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirspaces as d
from dirspaces import DirichletSeries, InvalidInputError
from dirspaces.series import from_json, to_json

from conftest import random_polynomial


# ---------- independent oracles ----------


def brute_multiply(f, g, N):
    """Divisor-sum convolution written the slow, obvious way."""
    out = np.zeros(N, dtype=complex)
    for n in range(1, N + 1):
        acc = 0j
        for dd in range(1, n + 1):
            if n % dd == 0 and dd <= f.truncation and n // dd <= g.truncation:
                acc += f.coeffs[dd - 1] * g.coeffs[n // dd - 1]
        out[n - 1] = acc
    return out


def brute_exp(f, N):
    """Power-series exponential sum f^m / m! (finite since supp f >= 2)."""
    fpad = np.zeros(N, dtype=complex)
    fpad[: min(N, f.truncation)] = f.coeffs[:N]
    base = DirichletSeries(fpad, exact=True)
    acc = d.from_terms({1: 1.0}, N)
    term = d.from_terms({1: 1.0}, N)
    m_max = int(math.log2(N)) + 1
    for m in range(1, m_max + 1):
        term = d.multiply(term, base, N)
        acc = d.linear(acc, term, 1.0, 1.0 / math.factorial(m))
    return acc


# ---------- from_terms / basics ----------


def test_from_terms_constant():
    f = d.from_terms({1: 1.0}, 8)
    assert f.exact and f.truncation == 8
    assert f.coeff(1) == 1 and f.coeff(5) == 0


def test_from_terms_two_pow():
    f = d.from_terms({2: 1 + 0j}, 8)
    assert list(np.nonzero(f.coeffs)[0]) == [1]


def test_from_terms_mixed():
    f = d.from_terms({2: 3, 4: -1}, 4)
    assert np.allclose(f.coeffs, [0, 3, 0, -1])


def test_from_terms_bad_index():
    with pytest.raises(InvalidInputError):
        d.from_terms({0: 1.0}, 4)
    with pytest.raises(InvalidInputError):
        d.from_terms({-2: 1.0}, 4)
    with pytest.raises(InvalidInputError):
        d.from_terms({9: 1.0}, 4)


@pytest.mark.parametrize("c", [math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
def test_from_terms_rejects_nonfinite_coefficient(c):
    with pytest.raises(InvalidInputError):
        d.from_terms({1: 1.0, 2: c}, 4)


def test_linear():
    two = d.from_terms({2: 1.0}, 8)
    three = d.from_terms({3: 1.0}, 8)
    s = d.linear(two, three)
    assert s.coeff(2) == 1 and s.coeff(3) == 1
    z = d.linear(two, two, 1, -1)
    assert not np.any(z.coeffs)
    c = d.linear(d.from_terms({1: 1.0}, 8), two, 2, 3)
    assert c.coeff(1) == 2 and c.coeff(2) == 3


def test_linear_min_truncation():
    f = d.from_terms({1: 1.0}, 16)
    g = d.from_terms({1: 1.0}, 8)
    assert d.linear(f, g).truncation == 8


# ---------- multiply ----------


def test_multiply_monomials():
    two = d.from_terms({2: 1.0}, 8)
    three = d.from_terms({3: 1.0}, 8)
    prod = d.multiply(two, three)
    assert prod.coeff(6) == 1
    assert np.count_nonzero(prod.coeffs) == 1


def test_multiply_square():
    f = d.from_terms({1: 1, 2: 1}, 8)
    sq = d.multiply(f, f)
    assert sq.coeff(1) == 1 and sq.coeff(2) == 2 and sq.coeff(4) == 1
    assert np.count_nonzero(sq.coeffs) == 3


def test_multiply_zeta_times_moebius():
    # zeta-partial times Moebius-partial: identity up to N/2, tail above.
    N = 64
    zt = d.from_terms({n: 1.0 for n in range(1, N + 1)}, N)
    from dirspaces.primes import factorize

    mob = {}
    for n in range(1, N + 1):
        fac = factorize(n)
        mob[n] = 0.0 if any(e > 1 for _, e in fac) else (-1.0) ** len(fac)
    mu = d.from_terms({n: c for n, c in mob.items() if c}, N)
    prod = d.multiply(zt, mu, N)
    oracle = brute_multiply(zt, mu, N)
    assert np.allclose(prod.coeffs, oracle)
    assert prod.coeff(1) == 1
    assert not np.any(prod.coeffs[1 : N // 2])  # identity below N/2


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.data())
def test_multiply_matches_brute_force(nterms, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = random_polynomial(rng, 24, density=0.4)
    g = random_polynomial(rng, 24, density=0.4)
    assert np.allclose(d.multiply(f, g).coeffs, brute_multiply(f, g, 24))


def test_multiply_commutative_associative_distributive():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_polynomial(rng, 64)
        g = random_polynomial(rng, 64)
        h = random_polynomial(rng, 64)
        fg = d.multiply(f, g)
        assert np.allclose(fg.coeffs, d.multiply(g, f).coeffs)
        assert np.allclose(
            d.multiply(fg, h).coeffs, d.multiply(f, d.multiply(g, h)).coeffs
        )
        lhs = d.multiply(f, d.linear(g, h))
        rhs = d.linear(d.multiply(f, g), d.multiply(f, h))
        assert np.allclose(lhs.coeffs, rhs.coeffs)


# ---------- exp ----------


def test_exp_zero():
    z = d.from_terms({}, 8)
    e = d.exp_series(z)
    assert e.coeff(1) == 1 and np.count_nonzero(e.coeffs) == 1


def test_exp_single_prime_power_oracle():
    c = 0.7 - 0.2j
    f = d.from_terms({2: c}, 16)
    e = d.exp_series(f)
    for m in range(5):
        assert e.coeff(2**m) == pytest.approx(c**m / math.factorial(m))
    # everything off the powers of two vanishes
    mask = np.ones(16, dtype=bool)
    mask[[2**m - 1 for m in range(5)]] = False
    assert not np.any(e.coeffs[mask])


def test_exp_two_plus_three_oracle():
    f = d.from_terms({2: 1.0, 3: 1.0}, 12)
    e = d.exp_series(f)
    oracle = brute_exp(f, 12)
    assert np.allclose(e.coeffs, oracle.coeffs)
    assert e.coeff(6) == pytest.approx(1.0)  # from f^2/2


def test_exp_constant_term_rejected():
    with pytest.raises(InvalidInputError):
        d.exp_series(d.from_terms({1: 1.0}, 8))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_exp_additivity(seed):
    rng = np.random.default_rng(seed)
    N = 32
    f = random_polynomial(rng, N, density=0.3)
    g = random_polynomial(rng, N, density=0.3)
    f = DirichletSeries(np.concatenate([[0], f.coeffs[1:]]), exact=True)
    g = DirichletSeries(np.concatenate([[0], g.coeffs[1:]]), exact=True)
    lhs = d.exp_series(d.linear(f, g))
    rhs = d.multiply(d.exp_series(f), d.exp_series(g))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


def divisor_list_exp(f, N):
    """The logarithmic-derivative recurrence over every index 2..N, each
    summing over all of its divisors d > 1 with f_d != 0."""
    fa = np.zeros(N, dtype=np.complex128)
    fa[: min(N, f.truncation)] = f.coeffs[:N]
    div = [[] for _ in range(N + 1)]
    for dd in range(2, N + 1):
        for m in range(dd, N + 1, dd):
            div[m].append(dd)
    g = np.zeros(N, dtype=np.complex128)
    g[0] = 1.0
    logs = np.log(np.arange(1, N + 1, dtype=np.float64))
    for n in range(2, N + 1):
        acc = 0.0 + 0.0j
        for dd in div[n]:
            fd = fa[dd - 1]
            if fd != 0:
                acc += fd * logs[dd - 1] * g[n // dd - 1]
        g[n - 1] = acc / logs[n - 1]
    return g


@pytest.mark.parametrize("N", [1, 2, 17, 64, 200])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("kmax", [3, 12, None])
def test_exp_equals_divisor_list_recurrence(N, density, kmax):
    # Only the indices that supp(f) reaches are visited; the skipped terms
    # are exact zeros, so the result is bitwise the full recurrence's.
    rng = np.random.default_rng(N * 1000 + int(100 * density) + (kmax or 0))
    f = random_polynomial(rng, N, max_degree=min(kmax or N, N), density=density)
    f = DirichletSeries(np.concatenate([[0], f.coeffs[1:]]), exact=True)
    for M in (N, N + 7):
        e = d.exp_series(f, M)
        ref = divisor_list_exp(f, M)
        assert np.array_equal(e.coeffs, ref)
        assert e.coeffs.tobytes() == ref.tobytes()  # signed zeros too


# ---------- translate / evaluate ----------


def test_translate():
    f = d.from_terms({2: 1.0}, 8)
    assert d.translate(f, 0.0) == f
    assert d.translate(f, 1.0).coeff(2) == pytest.approx(0.5)
    g = d.from_terms({1: 1.0, 4: 1.0}, 8)
    assert d.translate(g, 0.5).coeff(4) == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        d.translate(f, -0.1)


def test_evaluate():
    assert d.evaluate(d.from_terms({1: 1.0}, 4), 3 + 2j) == pytest.approx(1.0)
    assert d.evaluate(d.from_terms({2: 1.0}, 4), 1.0) == pytest.approx(0.5)
    zt = d.from_terms({n: 1.0 for n in range(1, 101)}, 100)
    # tail bound: integral of x^-2 from 100 is 0.01
    assert abs(d.evaluate(zt, 2.0) - math.pi**2 / 6) < 0.01


def test_evaluate_multiplicative_at_large_re():
    rng = np.random.default_rng(3)
    f = random_polynomial(rng, 32)
    g = random_polynomial(rng, 32)
    s = 2.0 + 0.3j
    prod = d.multiply(f, g, 32)
    # brute-force tail of the product beyond N at Re s = 2
    full = brute_multiply(f, g, 32 * 32)
    tail = np.sum(np.abs(full[32:]) * np.arange(33, 32 * 32 + 1) ** -2.0)
    err = abs(d.evaluate(prod, s) - d.evaluate(f, s) * d.evaluate(g, s))
    assert err <= tail + 1e-12


# ---------- Bohr lift ----------


def test_bohr_lift_examples():
    assert d.monomial_of_index(1) == ()
    assert d.monomial_of_index(2) == (1,)
    assert d.monomial_of_index(12) == (2, 1)
    lift = d.bohr_lift(d.from_terms({2: 1.0}, 4))
    assert lift.terms == {(1,): 1.0}
    lift1 = d.bohr_lift(d.from_terms({1: 1.0}, 4))
    assert lift1.terms == {(): 1.0} and lift1.dimension == 0


def test_bohr_round_trip_indices():
    for n in range(1, 10_001):
        assert d.index_of_monomial(d.monomial_of_index(n)) == n


def test_bohr_round_trip_polynomials():
    rng = np.random.default_rng(11)
    for N in (16, 128, 1000):
        f = random_polynomial(rng, N, density=0.2)
        back = d.inverse_lift(d.bohr_lift(f), N)
        assert np.allclose(back.coeffs, f.coeffs)


def test_bohr_term_count():
    f = d.from_terms({1: 1.0, 6: 2.0, 8: -1j}, 8)
    assert len(d.bohr_lift(f).terms) == 3


# ---------- JSON ----------


def test_json_round_trip():
    f = d.from_terms({1: 1.0, 3: 2 - 1j}, 8)
    obj = to_json(f)
    assert obj["N"] == 8 and obj["exact"] is True
    assert obj["terms"] == [[1, 1.0, 0.0], [3, 2.0, -1.0]]
    assert from_json(obj) == f
