import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import dirspaces as d
from dirspaces import InvalidInputError, Symbol, Verdict, symbol
from dirspaces.symbols import _min_re_phi, _refutation_grid, symbol_from_json

from conftest import GALLERY


def grid_min_re_phi(sym, sigmas, ts):
    """Blind grid minimization of Re phi(sigma + i t): the slow oracle."""
    best = math.inf
    for sig in sigmas:
        for t in ts:
            val = (sym(complex(sig, t)) - sym.c0 * complex(sig, t)).real
            best = min(best, val)
    return best


def dense_re_phi(sym, sigmas, ts):
    """Re phi over the (sigma, t) grid, summed over every index up to the
    truncation, zeros included."""
    logs = np.log(np.arange(1, sym.phi.truncation + 1, dtype=np.float64))
    decay = np.exp(-np.outer(sigmas, logs))
    osc = np.exp(-1j * np.outer(ts, logs))
    return np.real(np.einsum("sk,tk,k->st", decay, osc, sym.phi.coeffs))


# ---------- construction / vertical translations ----------


def test_symbol_validation():
    with pytest.raises(InvalidInputError):
        symbol(-1, {})
    with pytest.raises(InvalidInputError):
        Symbol(1.5, d.from_terms({}, 2))  # non-integer c0
    with pytest.raises(InvalidInputError):
        Symbol(1, d.DirichletSeries(np.array([1.0]), exact=False))


def test_is_vertical_translation():
    assert d.is_vertical_translation(symbol(1, 3j)) == pytest.approx(3.0)
    assert d.is_vertical_translation(symbol(1, {})) == 0.0
    assert d.is_vertical_translation(symbol(2, {})) is None
    assert d.is_vertical_translation(symbol(1, 1.0 + 3j)) is None
    assert d.is_vertical_translation(symbol(1, {1: 2j, 2: 0.5})) is None


def test_symbol_json_round_trip():
    sym = symbol_from_json({"c0": 1, "phi": {"terms": [[1, 0, 2]]}})
    assert sym.c0 == 1 and d.is_vertical_translation(sym) == pytest.approx(2.0)
    back = symbol_from_json(sym.to_json())
    assert back.phi == sym.phi


# ---------- halfplane lower bound ----------


def test_halfplane_lower_bound_translation():
    for eps in (0.0, 0.3, 1.0):
        assert d.halfplane_lower_bound(symbol(1, 5j), eps) == pytest.approx(eps)


def test_halfplane_lower_bound_examples():
    sym = symbol(1, {1: 1.0, 2: 0.5})
    assert d.halfplane_lower_bound(sym, 0.0) == pytest.approx(0.5)
    # grid oracle: the infimum of Re phi over the half-plane really is >= 1/2
    oracle = grid_min_re_phi(sym, np.linspace(1e-4, 3, 60), np.linspace(-20, 20, 401))
    assert oracle >= 0.5 - 1e-9
    assert d.halfplane_lower_bound(symbol(2, {}), 0.3) == pytest.approx(0.6)


def test_halfplane_lower_bound_monotone_in_eps():
    sym = symbol(2, {1: 0.2, 2: 0.3, 3: -0.1})
    eps = np.linspace(0, 2, 20)
    vals = [d.halfplane_lower_bound(sym, e) for e in eps]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_halfplane_lower_bound_is_sound_and_tight():
    # Against c0 eps + Re c1 - sum |c_k| k^{-eps} in 50 digits: never above
    # it, and below it by rounding only.
    rng = np.random.default_rng(5)
    with mpmath.workdps(50):
        for _ in range(200):
            c0, eps = int(rng.integers(0, 4)), float(rng.choice([0.0, 0.1, 0.5, 1.3]))
            terms = {1: complex(*rng.uniform(-2.0, 2.0, 2))}
            for k in rng.choice(np.arange(2, 13), size=rng.integers(1, 5), replace=False):
                terms[int(k)] = complex(*rng.uniform(-1.0, 1.0, 2))
            exact = c0 * mpmath.mpf(eps) + terms[1].real - mpmath.fsum(
                abs(mpmath.mpc(c)) * mpmath.mpf(k) ** -mpmath.mpf(eps)
                for k, c in terms.items()
                if k > 1
            )
            low = d.halfplane_lower_bound(symbol(c0, terms), eps)
            assert low <= exact
            assert exact - low <= 1e-15 * (c0 * eps + sum(map(abs, terms.values())))


def test_domination_short_by_half_an_ulp_is_not_certified():
    # Re c1 - |c_2| - |c_3| = -2^-55 exactly, which a float sum rounds to 0.
    terms = {1: 0.7999999999999999, 2: 0.1, 3: 0.7}
    assert Fraction(terms[1]) - Fraction(terms[2]) - Fraction(terms[3]) == Fraction(-1, 2**55)
    sym = symbol(1, terms)
    assert d.halfplane_lower_bound(sym) < 0.0
    assert d.check_theorem1(sym).verdict is not Verdict.CERTIFIED_YES


@pytest.mark.parametrize(
    "terms", [{1: 0.5, 2: 0.5}, {1: 0.75, 2: 0.5, 3: -0.25j}, {1: 1.25, 2: 0.75 + 1j}]
)
def test_exact_domination_stays_certified(terms):
    # Re c1 = sum |c_k| exactly (|0.75 + i| = 1.25 is a float), so Re phi > 0
    # on the open half-plane and the margin is exactly 0.
    cert = d.check_theorem1(symbol(1, terms))
    assert (cert.verdict, cert.margin) == (Verdict.CERTIFIED_YES, 0.0)


def test_gallery_certificates():
    certs = [d.check_theorem1(sym) for sym in GALLERY]
    assert [(c.verdict, c.method, c.margin) for c in certs] == [
        (Verdict.CERTIFIED_YES, "imaginary-constant", 0.0),
        (Verdict.CERTIFIED_YES, "coefficient-domination", 1.0),
        (Verdict.CERTIFIED_YES, "coefficient-domination", 0.5),
        (Verdict.CERTIFIED_YES, "imaginary-constant", 0.0),
        (Verdict.CERTIFIED_YES, "coefficient-domination", 0.25),
        (Verdict.CERTIFIED_YES, "coefficient-domination", 1.0),
    ]


# ---------- theorem 1 ----------


def test_check_theorem1_sufficient():
    cert = d.check_theorem1(symbol(1, {1: 2.0, 2: 1.0}))
    assert cert.verdict is Verdict.CERTIFIED_YES
    assert cert.margin == pytest.approx(1.0)


def test_check_theorem1_imaginary_constant():
    cert = d.check_theorem1(symbol(1, 4j))
    assert cert.verdict is Verdict.CERTIFIED_YES
    assert cert.method == "imaginary-constant"


def test_check_theorem1_refuted_constant():
    cert = d.check_theorem1(symbol(1, -1.0))
    assert cert.verdict is Verdict.CERTIFIED_NO
    assert cert.witness is not None
    # the witness genuinely violates the containment
    sym = symbol(1, -1.0)
    assert (sym(cert.witness) - cert.witness).real < -1e-12


def test_check_theorem1_refuted_by_phase_targeting():
    # Re phi = (1/2) 2^{-sigma} cos(t log 2) dips to -1/2 near sigma -> 0
    sym = symbol(1, {2: 0.5})
    cert = d.check_theorem1(sym)
    assert cert.verdict is Verdict.CERTIFIED_NO
    w = cert.witness
    val = (sym(w) - w).real
    assert val < -0.4  # close to the infimum -1/2


def test_min_re_phi_matches_the_dense_grid():
    # the refutation sums over the support of phi; the dense sum up to the
    # truncation is its oracle, to rounding in the order of the sum
    rng = np.random.default_rng(23)
    for _ in range(40):
        T = int(rng.integers(8, 101))
        ks = rng.choice(np.arange(1, T), size=int(rng.integers(0, 5)), replace=False)
        terms = {int(k): complex(*rng.uniform(-1, 1, 2)) for k in ks}
        terms[T] = complex(*rng.uniform(-1, 1, 2))
        sym = symbol(int(rng.integers(0, 3)), terms)
        sigmas, ts = _refutation_grid(sym)
        low, witness = _min_re_phi(sym, sigmas, ts)
        dense = dense_re_phi(sym, sigmas, ts)
        at = dense[list(sigmas).index(witness.real), list(ts).index(witness.imag)]
        assert low == pytest.approx(dense.min(), rel=0.0, abs=1e-13)
        assert at == pytest.approx(dense.min(), rel=0.0, abs=1e-13)


def test_min_re_phi_in_blocks_keeps_its_bits(monkeypatch):
    # blocks of t, down to one t at a time, give the (low, witness) of one block
    from dirspaces import symbols

    rng = np.random.default_rng(29)
    for _ in range(12):
        T = int(rng.integers(8, 101))
        ks = rng.choice(np.arange(1, T), size=int(rng.integers(0, 6)), replace=False)
        terms = {int(k): complex(*rng.uniform(-1, 1, 2)) for k in ks}
        terms[T] = complex(*rng.uniform(-1, 1, 2))
        sym = symbol(int(rng.integers(0, 3)), terms)
        sigmas, ts = _refutation_grid(sym)
        monkeypatch.setattr(symbols, "_GRID_BLOCK", 2**62)
        low, witness = _min_re_phi(sym, sigmas, ts)
        for block in (1, 7, 64):
            monkeypatch.setattr(symbols, "_GRID_BLOCK", block)
            low_b, witness_b = _min_re_phi(sym, sigmas, ts)
            assert low_b.hex() == low.hex()
            assert (witness_b.real.hex(), witness_b.imag.hex()) == (
                witness.real.hex(),
                witness.imag.hex(),
            )


def test_check_theorem1_requires_c0():
    with pytest.raises(InvalidInputError):
        d.check_theorem1(symbol(0, 1.0))


# ---------- theorem 2 ----------


def test_check_theorem2_constant_yes():
    # Re Phi = 1 certifies every eta < 1/2
    cert = d.check_theorem2(symbol(0, 1.0))
    assert (cert.verdict, cert.margin) == (Verdict.CERTIFIED_YES, 0.5)


def test_check_theorem2_constant_no():
    cert = d.check_theorem2(symbol(0, 0.4))
    assert cert.verdict is Verdict.CERTIFIED_NO
    assert cert.witness is not None


def test_check_theorem2_with_tail():
    # Re c1 - |c_2| = 1/2 exactly: Re Phi > 1/2 on C_+, but no eta > 0 fits
    cert = d.check_theorem2(symbol(0, {1: 1.0, 2: 0.5}))
    assert cert.verdict is not Verdict.CERTIFIED_YES
    # one ulp below 1/2 leaves a slack of 2^-54, certified exactly
    cert = d.check_theorem2(symbol(0, {1: 1.0, 2: 0.49999999999999994}))
    assert (cert.verdict, cert.margin) == (Verdict.CERTIFIED_YES, 2.0**-54)
    with pytest.raises(InvalidInputError):
        d.check_theorem2(symbol(1, 1.0))


@pytest.mark.parametrize("terms", [{1: 1.0, 2: 0.3}, {1: 3.0, 2: -0.3, 3: 0.75 + 1j}])
def test_check_theorem2_margin_is_the_slack_rounded_down(terms):
    # every |c_k| is a float (|0.75 + i| = 1.25), so the slack is exact in fractions
    tail = sum(Fraction(abs(c)) for k, c in terms.items() if k > 1)
    slack = Fraction(terms[1]) - Fraction(1, 2) - tail
    margin = d.check_theorem2(symbol(0, terms)).margin
    assert 0 < Fraction(margin) <= slack < Fraction(math.nextafter(margin, math.inf))


# ---------- translate ----------


def test_translate_symbol_translation_invariant():
    sym = symbol(1, 2j)
    for sig in (0.5, 1.0, 2.0):
        _, psi = d.translate_symbol(sym, sig)
        assert d.is_vertical_translation(psi) == pytest.approx(2.0)


def test_translate_symbol_linear_part():
    _, psi = d.translate_symbol(symbol(2, {}), 1.0)
    assert psi.c0 == 2 and psi.c1 == pytest.approx(1.0)  # c0 sigma - sigma


def test_translate_symbol_decay():
    _, psi = d.translate_symbol(symbol(1, {2: 1.0}), 1.0)
    assert psi.phi.coeff(2) == pytest.approx(0.5)
    assert psi.c1 == pytest.approx(0.0)


def test_translate_symbol_composes():
    sym = symbol(2, {1: 0.5, 2: 1.0, 3: -0.25})
    _, psi_ab = d.translate_symbol(sym, 0.7 + 0.6)
    _, psi_a = d.translate_symbol(sym, 0.7)
    _, psi_b = d.translate_symbol(psi_a, 0.6)
    assert np.allclose(psi_ab.phi.coeffs, psi_b.phi.coeffs)


# ---------- Schwarz margin ----------


def test_schwarz_margin_translation_exact_zero():
    assert d.schwarz_margin(symbol(1, 7j), 0.8, 1.3 + 2j) == pytest.approx(0.0, abs=1e-14)


def test_schwarz_margin_examples():
    assert d.schwarz_margin(symbol(1, 1.0), 1.0, 1.0) == pytest.approx(1.0)
    # constant-plus-linear: (c0-1) Re s + Re phi(sigma+s)
    assert d.schwarz_margin(symbol(2, {2: 1.0}), 1.0, 1.0) == pytest.approx(1.0 + 0.25)


def test_schwarz_margin_refuses_non_finite_points():
    sym = symbol(1, 1.0)
    for sigma in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="sigma must be finite"):
            d.schwarz_margin(sym, sigma, 1.0)
    nan, inf = math.nan, math.inf
    for s in (complex(nan, 0.0), complex(inf, 0.0), complex(1.0, inf), complex(1.0, nan)):
        with pytest.raises(InvalidInputError, match="finite point"):
            d.schwarz_margin(sym, 1.0, s)


def test_schwarz_margin_nonnegative_on_grid():
    rng = np.random.default_rng(17)
    for sym in GALLERY:
        if d.check_theorem1(sym).verdict is not Verdict.CERTIFIED_YES:
            continue
        for _ in range(50):
            sig = rng.uniform(1e-3, 2.0)
            s = complex(rng.uniform(1e-3, 2.0), rng.uniform(-10, 10))
            assert d.schwarz_margin(sym, sig, s) >= -1e-12


# ---------- lemma 1 region ----------


def test_lemma1_vertical_translation_empty():
    res = d.lemma1_region(symbol(1, 5j))
    assert res.status == "vertical-translation"


def test_lemma1_linear_example():
    # bound at 1/2 - eps: c0 (1/2 - eps), so eta = 1/2 - 2 eps
    res = d.lemma1_region(symbol(2, {}))
    assert (res.status, res.eps) == ("certified", 0.02)
    assert res.eta == pytest.approx(0.46)


def test_lemma1_constant_example():
    # bound at 1/2 - eps: c0 (1/2 - eps) + 1, so eta = 1 - eps
    res = d.lemma1_region(symbol(1, 1.0))
    assert (res.status, res.eps) == ("certified", 0.02)
    assert res.eta == pytest.approx(0.98)


# The ROADMAP's c0 = 1 symbol whose Re phi dips to -0.170 near t = 158.92.
REFUTED = symbol(1, {1: 0.766, 3: -0.072 + 0.293j, 4: -0.382 - 0.198j, 7: -0.069 - 0.197j})


def test_lemma1_values_are_pinned():
    pinned = [
        0.45999999999999996, 0.98, 0.6215111879960431, 0.94, 0.35148577166799155, 1.46,
        0.2647281022660488,
    ]
    for sym, eta in zip(GALLERY + [REFUTED], pinned, strict=True):
        assert d.lemma1_region(sym).to_json() == {"status": "certified", "eps": 0.02, "eta": eta}


def test_lemma1_one_eps_finds_what_the_eps_grid_finds():
    """A scan of eps = 0.02, 0.04, ..., 0.48 that stops at the first eps
    certifying an eta > 0 gives what the one eps gives, bit for bit."""

    def grid_scan(sym):
        for eps in np.arange(0.02, 0.50, 0.02).tolist():
            eta = d.halfplane_lower_bound(sym, 0.5 - eps) - 0.5
            if eta > 0:
                return {"status": "certified", "eps": eps, "eta": eta}
        return {"status": "unknown", "eps": None, "eta": None}

    rng = np.random.default_rng(23)
    syms = GALLERY + [REFUTED]
    for _ in range(200):
        terms = {1: complex(rng.uniform(0, 1.5), rng.uniform(-1, 1))}
        for k in rng.integers(2, 30, size=rng.integers(0, 5)):
            terms[int(k)] = complex(*rng.uniform(-0.6, 0.6, size=2))
        syms.append(symbol(int(rng.integers(0, 4)), terms))
    statuses = set()
    for sym in syms:
        res = d.lemma1_region(sym).to_json()
        assert res == grid_scan(sym)
        statuses.add(res["status"])
    assert statuses == {"certified", "unknown"}


def test_lemma1_matches_translation_detector():
    for sym in GALLERY:
        res = d.lemma1_region(sym)
        assert (res.status == "vertical-translation") == (
            d.is_vertical_translation(sym) is not None
        )
