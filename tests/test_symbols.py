import math

import numpy as np
import pytest

import dirspaces as d
from dirspaces import InvalidInputError, Symbol, Verdict, symbol
from dirspaces.symbols import symbol_from_json

from conftest import GALLERY


def grid_min_re_phi(sym, sigmas, ts):
    """Blind grid minimization of Re phi(sigma + i t): the slow oracle."""
    best = math.inf
    for sig in sigmas:
        for t in ts:
            val = (sym(complex(sig, t)) - sym.c0 * complex(sig, t)).real
            best = min(best, val)
    return best


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


def test_check_theorem1_requires_c0():
    with pytest.raises(InvalidInputError):
        d.check_theorem1(symbol(0, 1.0))


# ---------- theorem 2 ----------


def test_check_theorem2_constant_yes():
    cert = d.check_theorem2(symbol(0, 1.0), eta=0.5)
    assert cert.verdict is Verdict.CERTIFIED_YES
    assert d.check_theorem2(symbol(0, 1.0), eta=0.4).verdict is Verdict.CERTIFIED_YES


def test_check_theorem2_constant_no():
    cert = d.check_theorem2(symbol(0, 0.4), eta=0.1)
    assert cert.verdict is Verdict.CERTIFIED_NO
    assert cert.witness is not None


def test_check_theorem2_with_tail():
    cert = d.check_theorem2(symbol(0, {1: 1.0, 2: 0.3}), eta=0.2)
    assert cert.verdict is Verdict.CERTIFIED_YES
    with pytest.raises(InvalidInputError):
        d.check_theorem2(symbol(1, 1.0), eta=0.1)
    for eta in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            d.check_theorem2(symbol(0, {1: 1.0}), eta=eta)


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
    res = d.lemma1_region(symbol(2, {}), eps_grid=[0.1])
    assert res.status == "certified"
    assert res.eta == pytest.approx(0.3)


def test_lemma1_constant_example():
    # bound at eps: c0 (1/2 - eps) + 1, so eta = 1 - eps
    res = d.lemma1_region(symbol(1, 1.0), eps_grid=[0.1])
    assert res.eta == pytest.approx(0.9)


def test_lemma1_matches_translation_detector():
    for sym in GALLERY:
        res = d.lemma1_region(sym)
        assert (res.status == "vertical-translation") == (
            d.is_vertical_translation(sym) is not None
        )
