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


@pytest.mark.parametrize("N", [10**20, 10**14])
def test_from_terms_rejects_a_truncation_it_cannot_allocate(N):
    # numpy raises ValueError past its largest dimension (10^20) and
    # MemoryError for 1.6 PB (10^14 coefficients)
    with pytest.raises(InvalidInputError):
        d.from_terms({1: 1.0}, N)
    with pytest.raises(InvalidInputError):
        from_json({"N": N, "terms": [[1, 1.0, 0.0]]})
    with pytest.raises(InvalidInputError):
        d.symbol(1, {1: 1.0, N: 0.5})


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


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_power_is_repeated_multiply(q):
    # power starts from f padded to N and makes q - 1 convolutions; the
    # repeated multiply starts from one(N) and makes q
    rng = np.random.default_rng(q)
    for N, exact in [(24, True), (40, True), (24, False)]:
        f = random_polynomial(rng, 24, max_degree=8, density=0.6)
        f = DirichletSeries(f.coeffs, exact=exact)
        base = DirichletSeries(np.concatenate([f.coeffs, np.zeros(N - 24)]), exact=exact)
        ref = d.from_terms({1: 1.0}, N)
        for _ in range(q):
            ref = d.multiply(ref, base, N)
        got = d.power(f, q, N)
        nz = np.flatnonzero(ref.coeffs)
        assert np.array_equal(np.flatnonzero(got.coeffs), nz)
        assert got.coeffs[nz].tobytes() == ref.coeffs[nz].tobytes()
        assert (got.truncation, got.exact) == (N, ref.exact)


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


def _batch_column(idx, G, i, N):
    out = np.zeros(N, dtype=np.complex128)
    out[idx - 1] = G[:, i]
    return out


@pytest.mark.parametrize("N", [1, 17, 200])
@pytest.mark.parametrize("kmax", [3, 12, None])
def test_exp_batch_is_the_family_of_scaled_exps(N, kmax):
    # Column i of the batch is exp(t_i f), whatever the other t_j are.
    rng = np.random.default_rng(N + (kmax or 0))
    f = random_polynomial(rng, N, max_degree=min(kmax or N, N), density=0.4)
    f = DirichletSeries(np.concatenate([[0], f.coeffs[1:]]), exact=True)
    t = np.array([1.0, 0.0, -0.0, -math.log(7), 2.5, -40.0])
    idx, G = d.exp_series(f, N, t=t)
    assert idx[0] == 1 and np.all(np.diff(idx) > 0) and G.shape == (idx.size, t.size)
    assert _batch_column(idx, G, 0, N).tobytes() == d.exp_series(f, N).coeffs.tobytes()
    for i, ti in enumerate(t):
        scaled = DirichletSeries(ti * f.coeffs, exact=True)
        assert np.array_equal(_batch_column(idx, G, i, N), d.exp_series(scaled, N).coeffs)
        _, alone = d.exp_series(f, N, t=t[i : i + 1])
        assert alone.tobytes() == G[:, i : i + 1].tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    terms=st.dictionaries(
        st.integers(2, 40),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=4,
    ),
    members=st.lists(
        st.tuples(st.floats(-6.0, 6.0), st.integers(1, 300)), min_size=1, max_size=8
    ),
)
def test_exp_per_member_truncation_matches_the_full_batch(terms, members):
    # Members in any order: each column is the full batch's, bit for bit, at
    # every index up to its own truncation.
    f = d.from_terms(terms, max(terms))
    t = np.array([ti for ti, _ in members])
    tops = [top for _, top in members]
    idx_full, G_full = d.exp_series(f, max(tops), t=t)
    idx, G = d.exp_series(f, tops, t=t)
    assert np.array_equal(idx, idx_full) and G.shape == G_full.shape
    for i, top in enumerate(tops):
        upto = idx <= top
        assert G[upto, i].tobytes() == G_full[upto, i].tobytes()


def test_exp_takes_one_truncation_per_member():
    f = d.from_terms({2: 1.0}, 8)
    for N, t in (([4, 8], None), ([4, 8], [1.0]), ([0, 8], [1.0, 2.0]), ([], [])):
        with pytest.raises(InvalidInputError):
            d.exp_series(f, N, t=t)


def test_exp_batch_reads_unreached_quotients_as_zero():
    # supp f = {4, 6}: 36 = 6 * 6 is reached, but its quotient 36 / 4 = 9 is not.
    f = d.from_terms({4: 0.7 - 0.2j, 6: -0.3 + 0.5j}, 6)
    idx, G = d.exp_series(f, 200, t=[1.0, -2.0])
    assert 36 in idx and 9 not in idx
    ref = divisor_list_exp(f, 200)
    assert _batch_column(idx, G, 0, 200).tobytes() == ref.tobytes()


def test_exp_batch_takes_a_1d_t():
    f = d.from_terms({2: 1.0}, 8)
    with pytest.raises(InvalidInputError):
        d.exp_series(f, 8, t=[[1.0]])


# ---------- translate / evaluate ----------


def test_translate():
    f = d.from_terms({2: 1.0}, 8)
    assert d.translate(f, 0.0) == f
    assert d.translate(f, 1.0).coeff(2) == pytest.approx(0.5)
    g = d.from_terms({1: 1.0, 4: 1.0}, 8)
    assert d.translate(g, 0.5).coeff(4) == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        d.translate(f, -0.1)


def test_translate_refuses_a_nan_sigma():
    # sigma = inf is the limit that keeps a_1 alone; NaN was a NaN series
    g = d.from_terms({1: 2.0, 3: 1.0}, 4)
    assert d.translate(g, math.inf) == d.from_terms({1: 2.0}, 4)
    with pytest.raises(InvalidInputError, match="sigma >= 0"):
        d.translate(g, math.nan)


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
    lift = d.bohr_lift(d.from_terms({2: 1.0, 12: -1j}, 12))
    assert lift.indices.tolist() == [2, 12] and lift.primes.tolist() == [2, 3]
    assert lift.exponents.tolist() == [[1, 0], [2, 1]] and lift.exponents.dtype == np.int64
    assert lift.coeffs.tolist() == [1.0, -1j]
    # only the primes that occur are axes: 11^{-s} lifts to one coordinate
    assert d.bohr_lift(d.from_terms({11: 1.0}, 11)).exponents.tolist() == [[1]]
    lift1 = d.bohr_lift(d.from_terms({1: 1.0}, 4))
    assert lift1.indices.tolist() == [1] and lift1.primes.size == 0
    assert lift1.exponents.shape == (1, 0) and lift1.coeffs.tolist() == [1.0]


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def test_bohr_round_trip_indices():
    # every index 1..10^4 lifts to exponents whose product over the primes is the index
    n_max = 10_000
    lift = d.bohr_lift(d.from_terms({n: 1.0 for n in range(1, n_max + 1)}, n_max))
    assert lift.indices.tolist() == list(range(1, n_max + 1))
    assert np.prod(lift.primes**lift.exponents, axis=1).tolist() == lift.indices.tolist()
    assert lift.exponents.any(axis=0).all()


def test_primes_upto_matches_trial_division():
    # the lift's primes are the trial-division primes up to n_max
    for n_max in (1, 2, 3, 4, 10, 97, 100, 1000, 10_000):
        lift = d.bohr_lift(d.from_terms({n: 1.0 for n in range(1, n_max + 1)}, n_max))
        assert lift.primes.tolist() == [k for k in range(2, n_max + 1) if _is_prime(k)]
        assert lift.primes.dtype == np.int64


def _trial_factors(n):
    """{p: e} of n by trial division over every q with q^2 <= n."""
    fac, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def _reference_lift(terms):
    """The lift's four arrays from one factor dict per index, each exponent
    row read as [fac.get(p, 0) for p in primes]."""
    indices = sorted(terms)
    factors = [_trial_factors(n) for n in indices]
    primes = sorted({p for fac in factors for p in fac})
    exponents = np.zeros((len(indices), len(primes)), dtype=np.int64)
    for i, fac in enumerate(factors):
        exponents[i] = [fac.get(p, 0) for p in primes]
    return (
        np.array(indices, dtype=np.int64),
        exponents,
        np.array(primes, dtype=np.int64),
        np.array([terms[n] for n in indices], dtype=np.complex128),
    )


def _assert_lift_is_reference(terms, N):
    lift = d.bohr_lift(d.from_terms(terms, N))
    got = (lift.indices, lift.exponents, lift.primes, lift.coeffs)
    for a, b in zip(got, _reference_lift(terms)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 64, 1000, 2**20]).flatmap(
        lambda N: st.tuples(
            st.dictionaries(
                st.integers(1, N),
                st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
                min_size=1,
                max_size=50,
            ),
            st.just(N),
        )
    )
)
def test_bohr_lift_matches_a_per_index_reference(case):
    terms, N = case
    _assert_lift_is_reference(terms, N)


def test_bohr_lift_matches_the_reference_on_large_supports():
    _assert_lift_is_reference({n: 1.0 for n in range(1, 10_001)}, 10_000)
    # 2^20, the prime 1048573 and 1048575 = 3 5^2 11 31 41 at the CLI cap
    _assert_lift_is_reference({2**20: 1.0, 1048573: -2j, 1048575: 0.5}, 2**20)
    _assert_lift_is_reference({1: 1.0}, 2**20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(1, 2**20), st.sampled_from([1, 2, 1024, 1048573, 2**20])))
def test_factorize_is_a_prime_factorization(n):
    from dirspaces.primes import factorize

    fac = factorize(n)
    ps = [p for p, _ in fac]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    assert all(_is_prime(p) and e >= 1 for p, e in fac)
    assert math.prod(p**e for p, e in fac) == n


def test_factorize_refuses_n_below_one():
    from dirspaces.primes import factorize

    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            factorize(n)


def test_bohr_round_trip_polynomials():
    rng = np.random.default_rng(11)
    for N in (16, 128, 1000):
        f = random_polynomial(rng, N, density=0.2)
        back = d.inverse_lift(d.bohr_lift(f), N)
        assert np.allclose(back.coeffs, f.coeffs)


def test_bohr_term_count():
    f = d.from_terms({1: 1.0, 6: 2.0, 8: -1j}, 8)
    lift = d.bohr_lift(f)
    assert lift.indices.tolist() == [1, 6, 8] and lift.coeffs.size == 3
    assert lift.exponents.shape == (3, 2)


# ---------- JSON ----------


def test_json_round_trip():
    f = d.from_terms({1: 1.0, 3: 2 - 1j}, 8)
    obj = to_json(f)
    assert obj["N"] == 8 and obj["exact"] is True
    assert obj["terms"] == [[1, 1.0, 0.0], [3, 2.0, -1.0]]
    assert from_json(obj) == f


# ---------- sizes and points ----------


def _warm():
    mu = d.AlphaMeasure(0.0)
    mu.weights(64)  # a memo longer than any size below
    return mu


_F = d.from_terms({1: 1.0, 2: 0.5}, 4)
_PSI = d.from_terms({2: 0.5}, 4)
_SYM = d.symbol(1, {1: 1.0, 2: 0.2})
_SYM0 = d.symbol(0, {1: 2.0})

# Each call passes one size that is not an integer >= 1, or one point that
# is not finite.  Before, they returned values, empty vectors or NaN, read
# 2.7 as 2, or raised TypeError, AttributeError, IndexError or NumericError.
_REFUSED = {
    "weights_float_fresh": lambda: d.AlphaMeasure(0.0).weights(2.5),
    "weights_float_warm": lambda: _warm().weights(2.5),
    "weights_whole_float": lambda: _warm().weights(8.0),
    "weights_zero": lambda: d.AlphaMeasure(0.0).weights(0),
    "weights_negative": lambda: d.AlphaMeasure(0.0).weights(-3),
    "kernel_float_N": lambda: d.kernel(_warm(), 1, 1, 2.5),
    "kernel_series_float_N": lambda: d.kernel_series(_warm(), 2.0, 8.0),
    "point_eval_sum_float_N": lambda: d.norms.point_eval_sum(_warm(), 3.0, 8.0),
    "prop1_bound_float_N": lambda: d.prop1_bound(_SYM0, _warm(), 2.0, 12.0, 8.0),
    "compose_basis_float_n": lambda: d.compose_basis(_SYM, 2.5, 16),
    "compose_basis_float_index": lambda: d.compose_basis(_SYM, [2.7, 3], 16),
    "compose_basis_float_N": lambda: d.compose_basis(_SYM, 2, 16.0),
    "operator_matrix_float_N": lambda: d.operator_matrix(_SYM, None, 16.0),
    "apply_float_N": lambda: d.apply(_SYM, _F, 16.0),
    "two_norm_profile_float_N": lambda: d.two_norm_profile(_SYM, 2.0, [0.5], 16.0),
    "contraction_lower_bound_float_N": lambda: d.contraction_lower_bound(_SYM, None, 16.0),
    "isometry_defect_float_N": lambda: d.isometry_defect(_SYM, _warm(), 16.0),
    "classify_c0_zero_float_N": lambda: d.classify(_SYM0, _warm(), 2.5),
    "classify_c0_zero_zero_N": lambda: d.classify(_SYM0, _warm(), 0),
    "from_terms_float_N": lambda: d.from_terms({1: 1.0}, 4.0),
    "from_terms_float_index": lambda: d.from_terms({2.5: 1.0}, 4),
    "coeff_float_index": lambda: _F.coeff(2.5),
    "multiply_float_N": lambda: d.multiply(_F, _F, 2.0),
    "power_float_N": lambda: d.power(_F, 2, 4.0),
    "power_float_exponent": lambda: d.power(_F, 2.5),
    "power_negative_exponent": lambda: d.power(_F, -1),
    "exp_float_N": lambda: d.exp_series(_PSI, 4.0),
    "exp_float_member_N": lambda: d.exp_series(_PSI, [2.5, 8], t=[1.0, 1.0]),
    "exp_zero_member_N": lambda: d.exp_series(_PSI, [0, 8], t=[1.0, 1.0]),
    "classify_translation_float_N": lambda: d.classify(d.symbol(1, 2j), _warm(), 8.0),
    "kernel_series_nan_s": lambda: d.kernel_series(_warm(), math.nan, 8),
    "kernel_infinite_s": lambda: d.kernel(_warm(), complex(1.0, math.inf), 1.0, 8),
    "point_eval_norm_hp_infinite_s": lambda: d.point_eval_norm_hp(math.inf, 2.0),
    "lemma2_profile_nan_sigma": lambda: d.lemma2_profile(_warm(), [math.nan], 64),
    "evaluate_nan_s": lambda: d.evaluate(_F, math.nan),
    "symbol_at_infinite_s": lambda: _SYM(complex(0.0, math.inf)),
    "translate_symbol_infinite_sigma": lambda: d.translate_symbol(_SYM, math.inf),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_bad_sizes_and_points_are_refused(name):
    with pytest.raises(InvalidInputError):
        _REFUSED[name]()
