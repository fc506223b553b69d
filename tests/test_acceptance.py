"""Acceptance gate: one test per criterion, one printed pass line each."""

import json
import math
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

import dirspaces as d
from dirspaces import AlphaMeasure, symbol

from conftest import GALLERY, VERTICAL_TAUS, random_polynomial


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_criterion_01_parseval_fubini(capsys, alpha0, alpha1, custom_density):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for mu in (alpha0, alpha1, custom_density):
        for _ in range(100):
            f = random_polynomial(rng, 64)
            ref = d.norm_a2(f, mu)
            got = d.norm_ap(f, 2.0, mu)
            worst = max(worst, abs(got - ref) / ref)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed <= 10.0
    _report(
        capsys,
        f"ACCEPTANCE 1 PASS: Parseval-Fubini cross-check, max rel err {worst:.2e} "
        f"over 300 polynomials in {elapsed:.1f}s (<= 1e-6, <= 10s)",
    )


def test_criterion_02_weight_quadrature(capsys):
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        mu = AlphaMeasure(alpha)
        closed = mu.weights(10_000)
        quad = mu.weights_by_quadrature(np.arange(1, 10_001))
        worst = max(worst, float(np.max(np.abs(quad - closed) / closed)))
    assert worst <= 1e-8
    _report(
        capsys,
        f"ACCEPTANCE 2 PASS: weight closed form vs quadrature, max rel err {worst:.2e} "
        f"over n <= 1e4, alpha in {{0,0.5,1,2}} (<= 1e-8)",
    )


def test_criterion_03_reproducing_kernel(capsys, alpha0, alpha1):
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(20):
        mu = alpha0 if i % 2 == 0 else alpha1
        f = random_polynomial(rng, 48)
        s = complex(rng.uniform(0.6, 3.0), rng.uniform(-5.0, 5.0))
        k = d.kernel_series(mu, s, 48)
        err = abs(d.inner_a2(f, k, mu) - d.evaluate(f, s))
        worst = max(worst, err)
    assert worst <= 1e-12
    _report(
        capsys,
        f"ACCEPTANCE 3 PASS: reproducing property, max abs err {worst:.2e} "
        f"over 20 (f, s) pairs (<= 1e-12)",
    )


def test_criterion_04_composition(capsys):
    rng = np.random.default_rng(104)
    worst = 0.0
    for sym in GALLERY:
        for _ in range(20):
            # degree <= 5 keeps every image index 5^3 = 125 within N = 128
            f = random_polynomial(rng, 5, max_degree=5, density=0.8)
            s = complex(4.0, rng.uniform(-3.0, 3.0))
            err = abs(d.evaluate(d.apply(sym, f, 128), s) - d.evaluate(f, sym(s)))
            worst = max(worst, err)
    assert worst <= 1e-6
    _report(
        capsys,
        f"ACCEPTANCE 4 PASS: composition pointwise, max abs err {worst:.2e} "
        f"at Re s = 4, N = 128 (<= 1e-6)",
    )


def test_criterion_05_isometry_leg(capsys, alpha0, alpha1):
    worst_tau = 0.0
    for mu in (alpha0, alpha1):
        for tau in VERTICAL_TAUS:
            rep = d.isometry_defect(symbol(1, complex(0.0, tau)), mu, 64)
            worst_tau = max(worst_tau, rep.value)
    assert worst_tau <= 1e-10

    smallest = math.inf
    for sym in GALLERY:
        rep = d.isometry_defect(sym, alpha0, 64, require_admissible=False)
        assert rep.value >= 0.01
        assert rep.stabilization_delta < rep.value / 10.0
        smallest = min(smallest, rep.value)

    dil = d.isometry_defect(symbol(2, {}), alpha0, 64)
    assert dil.value >= 0.29  # 1 - (1+log 2)/(1+2 log 2) up to roundoff
    _report(
        capsys,
        f"ACCEPTANCE 5 PASS: translation defects <= {worst_tau:.1e} (<= 1e-10); "
        f"gallery defects >= {smallest:.3f} stabilized; dilation defect "
        f"{dil.value:.4f} >= 0.29",
    )


def test_criterion_06_hp_vs_ap_contrast(capsys, alpha0, alpha1):
    sym = symbol(2, {})
    m = d.operator_matrix(sym, None, 64)
    col_norms = m.column_norms()
    assert np.all(col_norms == 1.0)
    worst_diag = 0.0
    for mu in (alpha0, alpha1):
        g = d.gram(d.operator_matrix(sym, mu, 64))
        diag = np.real(np.diag(g))
        # n = 1 is fixed by every symbol; the contrast is over n >= 2
        worst_diag = max(worst_diag, float(np.max(diag[1:])))
    assert worst_diag < 0.8
    _report(
        capsys,
        f"ACCEPTANCE 6 PASS: H^2 column norms exactly 1; weighted Gram diagonals "
        f"<= {worst_diag:.4f} (< 0.8) for alpha in {{0,1}}",
    )


def test_criterion_07_lemma2(capsys, alpha0):
    pts = d.lemma2_profile(alpha0, [4.0, 6.0, 8.0, 10.0, 12.0], 10_000)
    vals = [p.value for p in pts]
    assert all(v >= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] - 1.0 <= 1e-2
    assert vals[3] == pytest.approx(1.00169, abs=1e-4)
    _report(
        capsys,
        f"ACCEPTANCE 7 PASS: S nonincreasing on {{4..12}}, S >= 1, "
        f"S(12)-1 = {vals[-1] - 1:.2e} (<= 1e-2), S(10) = {vals[3]:.5f} (1.00169 +- 1e-4)",
    )


def test_criterion_08_prop1(capsys, alpha0):
    margins = []
    for c1 in (0.75, 1.0, 2.0):
        bound = d.prop1_bound(symbol(0, c1), alpha0, 2.0, 12.0, 4096)
        floor = float(mpmath.sqrt(mpmath.zeta(2 * c1)) / 1.01)
        assert floor > 1.0
        assert bound >= floor
        margins.append(bound - 1.0)
    assert all(m > 0 for m in margins)
    _report(
        capsys,
        f"ACCEPTANCE 8 PASS: contraction-violating lower bounds exceed 1 by "
        f"{', '.join(f'{m:.4f}' for m in margins)} for Re c1 in {{0.75,1,2}}",
    )


def test_criterion_09_schwarz_margin(capsys):
    certified = [
        sym for sym in GALLERY if d.check_theorem1(sym).verdict is d.Verdict.CERTIFIED_YES
    ]
    translations = [symbol(1, complex(0.0, tau)) for tau in VERTICAL_TAUS]
    pool = certified + translations
    rng = np.random.default_rng(109)
    n_translation = 0
    for _ in range(1000):
        sym = pool[rng.integers(len(pool))]
        sigma = rng.uniform(1e-3, 2.0)
        s = complex(rng.uniform(1e-3, 3.0), rng.uniform(-10.0, 10.0))
        margin = d.schwarz_margin(sym, sigma, s)
        assert margin >= -1e-12
        if d.is_vertical_translation(sym) is not None:
            assert abs(margin) <= 1e-12
            n_translation += 1
        else:
            assert margin > 1e-12
    assert n_translation > 0
    _report(
        capsys,
        f"ACCEPTANCE 9 PASS: Schwarz margin >= 0 on 1000 draws "
        f"({n_translation} translations, equality exactly there)",
    )


def test_criterion_10_norm_profile(capsys):
    sigmas = [0.25, 0.5, 1.0, 2.0]
    for sym in GALLERY:
        for pt in d.two_norm_profile(sym, 2.0, sigmas):
            assert pt.value <= pt.reference + 1e-9
            assert pt.reference - pt.value > 1e-9  # strict for non-translations
    for tau in (0.0, 3.0):
        for pt in d.two_norm_profile(symbol(1, complex(0.0, tau)), 2.0, sigmas):
            assert pt.value == pytest.approx(pt.reference, abs=1e-12)
    _report(
        capsys,
        "ACCEPTANCE 10 PASS: ||2^(-Phi(sigma+.))||_H2 <= 2^(-sigma) on the gallery, "
        "equality exactly for vertical translations",
    )


def test_criterion_11_cli_determinism(capsys):
    cli = [sys.executable, "-m", "dirspaces.cli"]
    classify = cli + [
        "classify",
        "--symbol-json",
        '{"c0":1,"phi":{"terms":[[1,0.2,0],[2,0.1,0]]}}',
        "--alpha",
        "0",
        "--N",
        "32",
    ]
    # four terms on eight coordinates and three independent directions, with
    # a zero on the torus: the shifted-lattice route of the H^p norm
    lattice = cli + [
        "norm",
        "--space",
        "h",
        "--p",
        "1.5",
        "--terms",
        "[[6,1,0],[35,1,0],[143,0,0.7],[323,-0.5,0]]",
    ]
    for args in (classify, lattice):
        runs = [subprocess.run(args, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
        json.loads(runs[0].stdout)  # well-formed report
    assert runs[0].stdout == (
        b'{"space": "H^1.5", "stderr": 4.339484644529645e-07, "value": 1.580946893991891}\n'
    )
    _report(capsys, "ACCEPTANCE 11 PASS: repeated CLI runs are byte-identical")
