"""End-to-end numerical experiments around the invertible = Fredholm =
isometry = vertical-translation equivalence.

The verdict of classify() is structural: isometry (equivalently
invertibility and Fredholmness) holds exactly for vertical translations.
For those, classify() reports the section in closed form and builds no
matrix: C_Phi n^{-s} = n^{-i tau} n^{-s} on every measure, so the section is
diagonal and unimodular.  For every other symbol the matrix numerics are
the evidence: a NotIsometry verdict demands certified admissibility and a
stabilized isometry defect above a calibrated threshold.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError, PoleError
from .measures import Measure, measure_tag
from .norms import _check_p, norm_hp, point_eval_sum, zeta
from .series import DirichletSeries, _size
from .symbols import (
    Certificate,
    Lemma1Result,
    Symbol,
    Verdict,
    halfplane_lower_bound,
    is_vertical_translation,
    lemma1_region,
)
from .compose import _halvable, admissibility_certificate, compose_basis, isometry_defect

# Calibrated on the non-translation symbol gallery at N = 64 (not a theory value).
DEFECT_THRESHOLD = 0.01
# The sigmas of classify's norm profile.
_PROFILE_SIGMAS = (0.25, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Lemma2Point:
    sigma: float
    value: float | None  # partial sum + tail, None when divergent at this sigma
    tail: float | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "value": self.value, "tail": self.tail, "error": self.error}


def lemma2_profile(mu: Measure, sigmas, N: int) -> list[Lemma2Point]:
    """S(sigma) = sum over n <= N of n^{-sigma}/w_h(n) (+ tail) for each sigma.

    Divergence at a small sigma is reported on that point, not fatal.
    """
    out: list[Lemma2Point] = []
    for sigma in sigmas:
        sigma = float(sigma)
        try:
            partial, tail = point_eval_sum(mu, sigma, N)
            out.append(Lemma2Point(sigma=sigma, value=partial + tail, tail=tail))
        except DivergenceError as e:
            out.append(Lemma2Point(sigma=sigma, value=None, error=str(e)))
    return out


def prop1_bound(sym: Symbol, mu: Measure, p: float, s: complex, N: int) -> float:
    """Certified lower bound for ||C_Phi|| when c0 = 0:
    zeta(2 lb)^{1/p} / S(Re s), with lb the certified lower bound of
    Re Phi on C_{Re s}.  Exceeds 1 for constant symbols with Re c1 > 1/2,
    showing C_Phi is not a contraction."""
    _check_p(p)
    if sym.c0 != 0:
        raise InvalidInputError("the contraction bound applies to c0 = 0 symbols")
    s = complex(s)
    lb = halfplane_lower_bound(sym, s.real)
    if lb <= 0.5:
        raise PoleError(f"certified bound {lb!r} for Re Phi does not exceed 1/2")
    partial, tail = point_eval_sum(mu, s.real, N)
    return zeta(2.0 * lb) ** (1.0 / p) / (partial + tail)


@dataclass(frozen=True)
class ProfilePoint:
    sigma: float
    reference: float  # ||2^{-sigma-s}||_{H^p} = 2^{-sigma}
    value: float  # ||2^{-Phi(sigma+.)}||_{H^p}

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "two_pow": self.reference, "composed": self.value}


def two_norm_profile(sym: Symbol, p: float, sigma_grid, N: int = 128) -> list[ProfilePoint]:
    """Profile of ||2^{-Phi(sigma+.)}||_{H^p} against 2^{-sigma}, for finite sigma > 0.

    One exp pass and one norm pass serve the whole grid.  g = 2^{-Phi} is
    supported on multiples of 2^{c0}, so g = 2^{-c0 s} E(s) with E the
    series of its coefficients at j 2^{c0}, and |2^{-c0 s}| = 2^{-c0 sigma}
    on each vertical line: the row at sigma is 2^{-c0 sigma} times the H^p
    norm of E translated by sigma, and norm_hp takes every such norm from
    one evaluation of its moment function.  E keeps its constant term under
    translation, so no row underflows before its value does.  The value
    never exceeds 2^{-sigma} (within truncation) and matches it exactly iff
    Phi is a vertical translation.
    """
    if sym.c0 < 1:
        raise InvalidInputError("the norm profile applies to c0 >= 1 symbols")
    sigmas = [float(sigma) for sigma in sigma_grid]
    if not all(0 < sigma < math.inf for sigma in sigmas):
        raise InvalidInputError("translation requires a finite sigma > 0")
    if not sigmas:
        return []
    g = compose_basis(sym, 2, N)
    c0 = int(sym.c0)
    step = 2**c0  # <= N, or compose_basis has raised
    E = DirichletSeries(g.coeffs[step - 1 :: step], exact=True)
    values = 2.0 ** (-c0 * np.array(sigmas)) * norm_hp(E, p, sigmas)
    return [
        ProfilePoint(sigma=sigma, reference=2.0**-sigma, value=float(value))
        for sigma, value in zip(sigmas, values)
    ]


@dataclass(frozen=True)
class ClassificationReport:
    symbol: dict
    measure: str
    N: int
    p: float
    verdict: str  # "Isometry/Invertible/Fredholm" | "NotIsometry" | "Inconclusive"
    vertical_translation: float | None
    admissibility: Certificate
    isometry_defect: float | None = None
    defect_half: float | None = None
    stabilization_delta: float | None = None
    contraction_bound: float | None = None
    lemma1: Lemma1Result | None = None
    norm_profile: list[ProfilePoint] | None = None
    prop1: float | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol,
            "measure": self.measure,
            "N": self.N,
            "p": self.p,
            "verdict": self.verdict,
            "vertical_translation": self.vertical_translation,
            "admissibility": self.admissibility.to_json(),
            "isometry_defect": self.isometry_defect,
            "defect_half": self.defect_half,
            "stabilization_delta": self.stabilization_delta,
            "contraction_bound": self.contraction_bound,
            "lemma1": self.lemma1.to_json() if self.lemma1 else None,
            "norm_profile": [pt.to_json() for pt in self.norm_profile]
            if self.norm_profile
            else None,
            "prop1_bound": self.prop1,
            "notes": list(self.notes),
        }


def classify(sym: Symbol, mu: Measure, N: int, p: float = 2.0) -> ClassificationReport:
    """Full diagnostic run for one symbol on one measure.

    Verdict logic: vertical translation -> Isometry/Invertible/Fredholm
    (structural, reported in closed form with no section built);
    certified-admissible non-translation with a stabilized defect above
    threshold -> NotIsometry; anything else -> Inconclusive, with whatever
    evidence was collected attached.
    """
    _check_p(p)
    N = _size(N)
    tau = is_vertical_translation(sym)
    cert = admissibility_certificate(sym)
    notes: list[str] = []
    common = dict(
        symbol=sym.to_json(), measure=measure_tag(mu), N=N, p=p, admissibility=cert,
        vertical_translation=tau,
    )

    if tau is not None:
        # column n of the section is n^{-i tau} e_n at every N and on every
        # measure, and |2^{-Phi(sigma+it)}| = 2^{-sigma}: every number is exact
        _halvable(N)
        return ClassificationReport(
            verdict="Isometry/Invertible/Fredholm",
            isometry_defect=0.0,
            defect_half=0.0,
            stabilization_delta=0.0,
            contraction_bound=1.0,
            lemma1=lemma1_region(sym),
            norm_profile=[
                ProfilePoint(sigma, 2.0**-sigma, 2.0**-sigma) for sigma in _PROFILE_SIGMAS
            ],
            notes=(
                f"vertical translation by tau={tau:g}: column n is n^(-i tau) e_n, "
                "so the section is unitary and its defect is 0",
            ),
            **common,
        )

    if cert.verdict is Verdict.CERTIFIED_NO:
        notes.append(f"admissibility refuted at witness {cert.witness!r}")
        return ClassificationReport(verdict="Inconclusive", notes=tuple(notes), **common)

    if sym.c0 == 0:
        prop1 = None
        try:
            prop1 = prop1_bound(sym, mu, p, complex(12.0), max(N, 1024))
            if prop1 > 1:
                notes.append(
                    f"norm lower bound {prop1:.6g} > 1: not a contraction, hence not an isometry"
                )
        except (PoleError, DivergenceError) as e:
            notes.append(f"contraction bound unavailable: {e}")
        return ClassificationReport(
            verdict="Inconclusive",
            prop1=prop1,
            notes=tuple(notes),
            **common,
        )

    # admissibility was already screened above; Unknown proceeds with that caveat attached
    defect = isometry_defect(sym, mu, N, require_admissible=False)
    region = lemma1_region(sym)
    profile = two_norm_profile(sym, p, _PROFILE_SIGMAS, N)

    if cert.verdict is Verdict.CERTIFIED_YES and (
        defect.value > DEFECT_THRESHOLD
        and defect.stabilization_delta < defect.value / 10.0
    ):
        verdict = "NotIsometry"
    else:
        verdict = "Inconclusive"
        if cert.verdict is Verdict.UNKNOWN:
            notes.append("admissibility not certified either way")
        else:
            notes.append("isometry defect did not stabilize above threshold")
    return ClassificationReport(
        verdict=verdict,
        isometry_defect=defect.value,
        defect_half=defect.value_half,
        stabilization_delta=defect.stabilization_delta,
        contraction_bound=defect.s_max,
        lemma1=region,
        norm_profile=profile,
        notes=tuple(notes),
        **common,
    )


def profile_to_csv(points: list[ProfilePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sigma", "two_pow", "composed"])
    for pt in points:
        writer.writerow([f"{pt.sigma:.12g}", f"{pt.reference:.12g}", f"{pt.value:.12g}"])
    return buf.getvalue()


def lemma2_to_csv(points: list[Lemma2Point]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sigma", "S", "tail", "error"])
    for pt in points:
        writer.writerow(
            [
                f"{pt.sigma:.12g}",
                "" if pt.value is None else f"{pt.value:.12g}",
                "" if pt.tail is None else f"{pt.tail:.12g}",
                pt.error or "",
            ]
        )
    return buf.getvalue()
