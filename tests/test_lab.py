import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirspaces as d
from dirspaces import InvalidInputError, PoleError, compose, lab, norms, series, symbol
from dirspaces.measures import AlphaMeasure, Measure
from dirspaces.cli import main
from dirspaces.lab import lemma2_to_csv, profile_to_csv
from dirspaces.symbols import translate_symbol

from conftest import GALLERY, VERTICAL_TAUS, exp3_density


# ---------- lemma 2 profile ----------


def test_lemma2_profile_values(alpha0):
    pts = d.lemma2_profile(alpha0, [4.0, 6.0, 8.0, 10.0, 12.0], 10_000)
    vals = [p.value for p in pts]
    assert all(v is not None and v >= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    oracle = sum(n**-10.0 * (1.0 + math.log(n)) for n in range(1, 10_001))
    assert pts[3].value == pytest.approx(oracle, abs=1e-5)
    assert pts[3].value == pytest.approx(1.00169, abs=1e-4)
    assert pts[4].value - 1.0 < 1e-2


def test_lemma2_profile_divergent_point_reported(alpha0):
    pts = d.lemma2_profile(alpha0, [0.8, 10.0], 4096)
    assert pts[0].value is None and "abscissa" in pts[0].error
    assert pts[1].value is not None


# ---------- proposition 1 ----------


def test_prop1_bound_constant(alpha0):
    b = d.prop1_bound(symbol(0, 1.0), alpha0, 2.0, 12.0, 4096)
    s12 = sum(n**-12.0 * (1.0 + math.log(n)) for n in range(1, 4097))
    assert b == pytest.approx(math.sqrt(d.zeta(2.0)) / s12, rel=1e-4)
    assert b == pytest.approx(1.2823, abs=1e-3)
    assert b > 1.0


def test_prop1_bound_limit_large_constant(alpha0):
    # Re c1 large: bound tends to 1 from above (zeta -> 1)
    b = d.prop1_bound(symbol(0, 30.0), alpha0, 2.0, 12.0, 2048)
    assert b == pytest.approx(1.0, abs=1e-3)


def test_prop1_bound_validation(alpha0):
    with pytest.raises(InvalidInputError):
        d.prop1_bound(symbol(1, 1.0), alpha0, 2.0, 12.0, 256)
    with pytest.raises(PoleError):
        d.prop1_bound(symbol(0, 0.4), alpha0, 2.0, 12.0, 256)


@pytest.mark.parametrize("p", [0.0, -1.0, 0.5, math.nan])
def test_prop1_bound_and_classify_refuse_p_below_one(alpha0, monkeypatch, p):
    with pytest.raises(InvalidInputError, match=r"^p must be >= 1$"):
        d.prop1_bound(symbol(0, 1.0), alpha0, p, 12.0, 256)
    # classify refuses p before it builds a section or reads the symbol
    for name in ("isometry_defect", "admissibility_certificate", "prop1_bound"):
        monkeypatch.setattr(lab, name, lambda *a, **k: pytest.fail("p was not refused first"))
    for sym in (symbol(0, 1.0), symbol(1, {1: 1.0, 2: 0.5}), symbol(1, -1.0)):
        with pytest.raises(InvalidInputError, match=r"^p must be >= 1$"):
            d.classify(sym, alpha0, 16, p=p)


def test_classify_refuses_an_infinite_p(alpha0, monkeypatch):
    # round(p / 2) raised a bare OverflowError past the c0 = 0 branch, and a
    # c0 = 0 symbol got a report at p = inf
    for name in ("isometry_defect", "admissibility_certificate", "prop1_bound"):
        monkeypatch.setattr(lab, name, lambda *a, **k: pytest.fail("p was not refused first"))
    for sym in (symbol(0, 1.0), symbol(1, {1: 1.0, 2: 0.5}), symbol(1, {1: 1.0, 2: 0.2})):
        with pytest.raises(InvalidInputError, match=r"^p must be finite$"):
            d.classify(sym, alpha0, 16, p=math.inf)


# ---------- two-norm profile ----------


def test_two_norm_profile_translation_equality():
    pts = d.two_norm_profile(symbol(1, 3j), 2.0, [0.25, 0.5, 1.0, 2.0])
    for p in pts:
        assert p.value == pytest.approx(2.0**-p.sigma, abs=1e-12)
        assert p.reference == pytest.approx(2.0**-p.sigma)


def test_two_norm_profile_dilation():
    (pt,) = d.two_norm_profile(symbol(2, {}), 2.0, [1.0])
    # ||4^{-1-s}||_{H^2} = 1/4 < 1/2
    assert pt.value == pytest.approx(0.25)


def test_two_norm_profile_constant_shift():
    (pt,) = d.two_norm_profile(symbol(1, 1.0), 2.0, [0.5])
    assert pt.value == pytest.approx(2.0**-1.5)


def test_two_norm_profile_inequality_gallery():
    for sym in GALLERY:
        for pt in d.two_norm_profile(sym, 2.0, [0.25, 0.5, 1.0, 2.0]):
            assert pt.value <= pt.reference + 1e-9


def test_two_norm_profile_requires_linear_part():
    with pytest.raises(InvalidInputError):
        d.two_norm_profile(symbol(0, 1.0), 2.0, [1.0])


def _per_sigma_profile(sym, p, sigmas, N):
    """The profile one exp pass per sigma: 2^{-sigma} times the norm of the
    composed basis element of the normalized translate Psi_sigma, with the
    error bar of the route at non-even p."""
    rows = []
    for sigma in sigmas:
        _, psi = translate_symbol(sym, sigma)
        g = d.compose_basis(psi, 2, N)
        err = 0.0 if p % 2 == 0 else d.qmc_norm_hp(g, p)[1]
        rows.append((2.0**-sigma * d.norm_hp(g, p), 2.0**-sigma * err))
    return rows


# Admissible by coefficient domination: Re c1 > sum |c_k|.
_ADMISSIBLE = st.builds(
    lambda c0, tail, margin, im: symbol(
        c0, {1: complex(sum(abs(c) for c in tail.values()) + margin, im), **tail}
    ),
    st.integers(1, 2),
    st.dictionaries(
        st.integers(2, 12),
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        max_size=3,
    ),
    st.floats(0.05, 1.5),
    st.floats(-3.0, 3.0),
)
# Unsorted, with the first sigma repeated at the end.
_GRID = st.lists(
    st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 4.0)),
    min_size=2,
    max_size=4,
).map(lambda xs: xs + xs[:1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    sym=_ADMISSIBLE,
    grid=_GRID,
    p=st.sampled_from([2.0, 3.0, 4.0]),
    N=st.sampled_from([16, 32, 64]),
)
def test_two_norm_profile_matches_per_sigma_builds(sym, grid, p, N):
    got = d.two_norm_profile(sym, p, grid, N)
    assert [pt.sigma for pt in got] == grid
    for pt, (ref, err) in zip(got, _per_sigma_profile(sym, p, grid, N)):
        assert pt.reference == 2.0**-pt.sigma
        assert abs(pt.value - ref) <= err + 1e-13 * ref


def test_two_norm_profile_edge_grids():
    sym = symbol(1, {1: 1.0, 2: 0.3})
    assert d.two_norm_profile(sym, 2.0, [], 32) == []
    for grid in ([0.0], [1.0, 0.0, 0.5], [2.0, -1.0], [0.5, math.nan], [1.0, math.inf]):
        with pytest.raises(InvalidInputError):
            d.two_norm_profile(sym, 2.0, grid, 32)
        argv = ["profile", "--c0", "1", "--phi", "[[1,1,0],[2,0.3,0]]"]
        assert main(argv + ["--sigmas", ",".join(map(str, grid)), "--N", "32"]) == 2


def _counted(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_two_norm_profile_runs_one_exp_pass(monkeypatch):
    calls = {}
    _counted(monkeypatch, lab, "compose_basis", calls)
    _counted(monkeypatch, series, "exp", calls)
    sym = symbol(1, {1: 1.0, 2: 0.2, 3: 0.1})
    pts = d.two_norm_profile(sym, 2.0, [2.0, 0.25, 1.0, 0.5], 256)
    assert len(pts) == 4
    assert calls == {"compose_basis": 1, "exp": 1}


def test_classify_runs_two_exp_passes(monkeypatch, alpha0):
    # one for the section, one for the whole norm profile; a translation
    # runs none (test_classify_translation_builds_no_section)
    calls = {}
    _counted(monkeypatch, series, "exp", calls)
    for sym in [s for s in GALLERY if s.c0 == 1]:
        calls.clear()
        d.classify(sym, alpha0, 64)
        assert calls == {"exp": 2}


def test_classify_translation_builds_no_section(
    monkeypatch, alpha0, alpha1, custom_density, sampled_density
):
    # C_Phi n^{-s} = n^{-i tau} n^{-s}: the report is exact without a section,
    # an exp pass, a norm or a weight
    calls = {}
    _counted(monkeypatch, series, "exp", calls)
    _counted(monkeypatch, compose, "operator_matrix", calls)
    _counted(monkeypatch, norms, "norm_hp", calls)
    _counted(monkeypatch, lab, "norm_hp", calls)
    for cls in (Measure, AlphaMeasure):
        for name in ("weight", "weights", "weights_at"):
            if name in vars(cls):
                _counted(monkeypatch, cls, name, calls)
    for mu in (alpha0, alpha1, custom_density, sampled_density):
        for tau in VERTICAL_TAUS:
            for p in (1.0, 1.5, 2.0, 3.0, 4.0):
                for N in (4, 64, 2**20):
                    rep = d.classify(symbol(1, complex(0.0, tau)), mu, N, p)
                    assert rep.verdict == "Isometry/Invertible/Fredholm"
                    assert rep.isometry_defect == 0.0
    assert calls == {}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    tau=st.floats(-1e3, 1e3),
    N=st.integers(4, 512),
    p=st.floats(1.0, 5.0),
    mu=st.sampled_from(
        [d.AlphaMeasure(0.0), d.AlphaMeasure(1.0), d.DensityMeasure(h=exp3_density)]
    ),
)
def test_classify_translation_closed_form_matches_numeric_routes(tau, N, p, mu):
    sym = symbol(1, complex(0.0, tau))
    rep = d.classify(sym, mu, N, p)
    assert rep.verdict == "Isometry/Invertible/Fredholm"
    assert rep.vertical_translation == tau
    assert rep.isometry_defect == rep.defect_half == rep.stabilization_delta == 0.0
    assert rep.contraction_bound == 1.0
    assert [(pt.sigma, pt.reference, pt.value) for pt in rep.norm_profile] == [
        (s, 2.0**-s, 2.0**-s) for s in (0.25, 0.5, 1.0, 2.0)
    ]
    # the public routes still build the section, and agree
    assert compose.isometry_defect(sym, mu, N).value <= 1e-12
    assert abs(compose.contraction_lower_bound(sym, mu, N) - 1.0) <= 1e-12
    for pt in d.two_norm_profile(sym, p, (0.25, 0.5, 1.0, 2.0), N):
        assert abs(pt.value - 2.0**-pt.sigma) <= 1e-12


# ---------- classify ----------


def test_classify_vertical_translation(alpha0):
    rep = d.classify(symbol(1, 2j), alpha0, 32)
    assert rep.verdict == "Isometry/Invertible/Fredholm"
    assert rep.vertical_translation == pytest.approx(2.0)
    assert rep.isometry_defect == 0.0
    assert rep.lemma1.status == "vertical-translation"


def test_classify_dilation_not_isometry(alpha0):
    rep = d.classify(symbol(2, {}), alpha0, 32)
    assert rep.verdict == "NotIsometry"
    assert rep.isometry_defect >= 0.29
    assert rep.vertical_translation is None


def test_classify_constant_symbol_inconclusive(alpha0):
    rep = d.classify(symbol(0, 1.0), alpha0, 32)
    assert rep.verdict == "Inconclusive"
    assert rep.prop1 is not None and rep.prop1 > 1.0
    assert any("not a contraction" in n for n in rep.notes)


def test_classify_refuted_symbol(alpha0):
    rep = d.classify(symbol(1, -1.0), alpha0, 16)
    assert rep.verdict == "Inconclusive"
    assert rep.admissibility.verdict is d.Verdict.CERTIFIED_NO
    assert any("witness" in n for n in rep.notes)


def test_classify_verdict_iff_translation(alpha0):
    for sym in GALLERY:
        rep = d.classify(sym, alpha0, 32)
        assert rep.verdict != "Isometry/Invertible/Fredholm"
    for tau in (0.0, -1.0):
        rep = d.classify(symbol(1, complex(0, tau)), alpha0, 32)
        assert (rep.verdict == "Isometry/Invertible/Fredholm") == (
            rep.vertical_translation is not None
        )


def test_classify_report_json(alpha0):
    obj = d.classify(symbol(2, {}), alpha0, 32).to_json()
    assert obj["verdict"] == "NotIsometry"
    assert obj["admissibility"]["verdict"] == "CertifiedYes"
    assert isinstance(obj["norm_profile"], list)
    import json

    json.dumps(obj)  # must be serializable


# ---------- CSV exports ----------


def test_profile_csv():
    pts = d.two_norm_profile(symbol(2, {}), 2.0, [1.0])
    text = profile_to_csv(pts)
    assert text.splitlines()[0] == "sigma,two_pow,composed"
    assert "0.25" in text


def test_lemma2_csv(alpha0):
    pts = d.lemma2_profile(alpha0, [10.0], 1024)
    text = lemma2_to_csv(pts)
    assert text.splitlines()[0] == "sigma,S,tail,error"
