"""Symbols Phi(s) = c0 s + phi(s) and certified mapping-region checks.

Containment of an image in a half-plane cannot be decided by sampling, so
every check returns a three-valued Certificate: CertifiedYes only from a
sound sufficient condition, CertifiedNo only with a concrete witness point,
Unknown otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from . import series as ds
from .series import DirichletSeries, evaluate, from_json, from_terms, to_json

# The refutation grid samples t in [-GRID_T_MAX, GRID_T_MAX] at GRID_T_STEPS points.
GRID_T_MAX = 40.0
GRID_T_STEPS = 401


class Verdict(Enum):
    CERTIFIED_YES = "CertifiedYes"
    CERTIFIED_NO = "CertifiedNo"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    margin: float
    method: str
    witness: complex | None = None

    def __post_init__(self):
        if self.verdict is Verdict.CERTIFIED_NO and self.witness is None:
            raise InvalidInputError("a CertifiedNo verdict requires a witness point")

    def to_json(self) -> dict:
        out = {"verdict": self.verdict.value, "margin": self.margin, "method": self.method}
        if self.witness is not None:
            out["witness"] = [self.witness.real, self.witness.imag]
        return out


@dataclass(frozen=True)
class Symbol:
    """Phi(s) = c0 s + phi(s) with c0 a nonnegative integer and phi an exact polynomial."""

    c0: int
    phi: DirichletSeries

    def __post_init__(self):
        if not isinstance(self.c0, (int, np.integer)) or self.c0 < 0:
            raise InvalidInputError("c0 must be a nonnegative integer")
        if not self.phi.exact:
            raise InvalidInputError("phi must be an exact Dirichlet polynomial")

    def __call__(self, s: complex) -> complex:
        return self.c0 * complex(s) + evaluate(self.phi, s)

    @property
    def c1(self) -> complex:
        return self.phi.coeff(1)

    def tail_coeffs(self) -> np.ndarray:
        """|c_k| for k >= 2 (the non-constant part of phi)."""
        return np.abs(self.phi.coeffs[1:])

    def to_json(self) -> dict:
        return {"c0": int(self.c0), "phi": to_json(self.phi)}


def symbol(c0: int, terms: dict[int, complex] | complex, N: int | None = None) -> Symbol:
    """Convenience constructor; a bare complex value means a constant phi."""
    if not isinstance(terms, dict):
        terms = {1: complex(terms)}
    if N is None:
        N = max(terms, default=1)
    return Symbol(c0=c0, phi=from_terms(terms, N))


def symbol_from_json(obj: dict) -> Symbol:
    try:
        c0 = int(obj["c0"])
        phi = obj["phi"]
    except (TypeError, KeyError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed symbol JSON: {e}") from e
    return Symbol(c0=c0, phi=from_json(phi))


def is_vertical_translation(sym: Symbol, tol: float = 0.0) -> float | None:
    """tau if Phi(s) = s + i tau (c0 = 1, phi a purely imaginary constant), else None."""
    if sym.c0 != 1:
        return None
    if np.any(np.abs(sym.phi.coeffs[1:]) > tol):
        return None
    c1 = sym.c1
    if abs(c1.real) > tol:
        return None
    return float(c1.imag)


def halfplane_lower_bound(sym: Symbol, eps: float = 0.0) -> float:
    """Certified lower bound of Re Phi on the half-plane Re s > eps.

    Sound because |sum over k>=2 of c_k k^{-s}| <= sum |c_k| k^{-eps} there:
    Re Phi >= c0 eps + Re c1 - sum |c_k| k^{-eps}.
    """
    if eps < 0:
        raise InvalidInputError("eps must be >= 0")
    ks = np.arange(2, sym.phi.truncation + 1, dtype=np.float64)
    tail = float(np.sum(sym.tail_coeffs() * ks**-eps))
    return sym.c0 * eps + sym.c1.real - tail


def _refutation_grid(sym: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (sigma, t) grid: dyadic sigmas plus phase-targeted t values.

    For each nonzero coefficient c_k the value t = (arg c_k - pi)/log k turns
    c_k k^{-it} real negative, which is where Re phi dips lowest.
    """
    sigmas = 2.0 * 2.0 ** -np.arange(0, 40, dtype=np.float64)  # (0, 2]
    ts = list(np.linspace(-GRID_T_MAX, GRID_T_MAX, GRID_T_STEPS))
    coeffs = sym.phi.coeffs
    for k0 in np.nonzero(coeffs[1:])[0]:
        k = int(k0) + 2
        base = (np.angle(coeffs[k - 1]) - math.pi) / math.log(k)
        period = 2.0 * math.pi / math.log(k)
        j = 0.0
        while abs(base + j * period) <= GRID_T_MAX or j == 0.0:
            ts.append(base + j * period)
            ts.append(base - j * period)
            j += 1.0
    return sigmas, np.unique(np.asarray(ts))


def _min_re_phi(sym: Symbol, sigmas: np.ndarray, ts: np.ndarray) -> tuple[float, complex]:
    ks = np.arange(1, sym.phi.truncation + 1, dtype=np.float64)
    logs = np.log(ks)
    # Re phi(sigma + i t) over the grid, vectorized: (n_sigma, n_t)
    decay = np.exp(-np.outer(sigmas, logs))  # (n_sigma, K)
    osc = np.exp(-1j * np.outer(ts, logs))  # (n_t, K)
    vals = np.real(np.einsum("sk,tk,k->st", decay, osc, sym.phi.coeffs))
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[i, j]), complex(sigmas[i], ts[j])


def check_theorem1(sym: Symbol) -> Certificate:
    """Certificate for phi(C_+) inside C_+ (boundedness with c0 >= 1).

    CertifiedYes when phi is a purely imaginary constant or when
    Re c1 >= sum |c_k| (coefficient domination); CertifiedNo with a grid
    witness where Re phi < -1e-12; Unknown otherwise.
    """
    if sym.c0 < 1:
        raise InvalidInputError("theorem-1 check applies to c0 >= 1")
    tail = float(np.sum(sym.tail_coeffs()))
    c1 = sym.c1
    if tail == 0.0 and c1.real == 0.0:
        return Certificate(Verdict.CERTIFIED_YES, margin=0.0, method="imaginary-constant")
    if c1.real >= tail:
        return Certificate(
            Verdict.CERTIFIED_YES, margin=c1.real - tail, method="coefficient-domination"
        )
    sigmas, ts = _refutation_grid(sym)
    low, witness = _min_re_phi(sym, sigmas, ts)
    if low < -1e-12:
        return Certificate(
            Verdict.CERTIFIED_NO, margin=-low, method="grid-witness", witness=witness
        )
    return Certificate(Verdict.UNKNOWN, margin=low, method="grid-inconclusive")


def check_theorem2(sym: Symbol, eta: float) -> Certificate:
    """Certificate for Phi(C_+) inside C_{1/2+eta} when c0 = 0.

    CertifiedYes when Re c1 - sum |c_k| >= 1/2 + eta; CertifiedNo with a
    witness violating the necessary condition Re Phi > 1/2; Unknown otherwise.
    """
    if sym.c0 != 0:
        raise InvalidInputError("theorem-2 check applies to c0 = 0")
    if not 0 < eta < math.inf:
        raise InvalidInputError("eta must be positive and finite")
    tail = float(np.sum(sym.tail_coeffs()))
    slack = sym.c1.real - tail - (0.5 + eta)
    if slack >= 0:
        return Certificate(Verdict.CERTIFIED_YES, margin=slack, method="coefficient-domination")
    sigmas, ts = _refutation_grid(sym)
    low, witness = _min_re_phi(sym, sigmas, ts)
    if low <= 0.5 - 1e-12:
        return Certificate(
            Verdict.CERTIFIED_NO, margin=0.5 - low, method="grid-witness", witness=witness
        )
    return Certificate(Verdict.UNKNOWN, margin=low - 0.5, method="grid-inconclusive")


def translate_symbol(sym: Symbol, sigma: float) -> tuple[Symbol, Symbol]:
    """(Phi_sigma, Psi_sigma) where Phi_sigma(s) = Phi(sigma+s) and Psi_sigma = Phi_sigma - sigma.

    Phi_sigma keeps linear part c0; its polynomial part is c0 sigma plus the
    translated phi (coefficients c_k k^{-sigma}).
    """
    if sigma <= 0:
        raise InvalidInputError("translation requires sigma > 0")
    phi_t = ds.translate(sym.phi, sigma)
    shift = np.zeros(phi_t.truncation, dtype=np.complex128)
    shift[0] = sym.c0 * sigma
    phi_sigma = DirichletSeries(phi_t.coeffs + shift, exact=True)
    shift[0] = (sym.c0 - 1.0) * sigma
    psi_sigma = DirichletSeries(phi_t.coeffs + shift, exact=True)
    return Symbol(sym.c0, phi_sigma), Symbol(sym.c0, psi_sigma)


def schwarz_margin(sym: Symbol, sigma: float, s: complex) -> float:
    """Re(Phi(sigma+s) - sigma) - (sigma (c0 - 1) + Re s).

    Nonnegative for admissible symbols with c0 >= 1; zero exactly when Phi is
    a vertical translation.
    """
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    s = complex(s)
    if s.real <= 0:
        raise InvalidInputError("s must lie in the right half-plane")
    val = sym(sigma + s)
    return (val.real - sigma) - (sigma * (sym.c0 - 1) + s.real)


@dataclass(frozen=True)
class Lemma1Result:
    status: str  # "certified" | "vertical-translation" | "unknown"
    eps: float | None = None
    eta: float | None = None

    def to_json(self) -> dict:
        return {"status": self.status, "eps": self.eps, "eta": self.eta}


def lemma1_region(sym: Symbol, eps_grid: np.ndarray | None = None) -> Lemma1Result:
    """Search for (eps, eta) with Phi(C_{1/2-eps}) certified inside C_{1/2+eta}.

    Returns the first grid point whose certified bound gives eta > 0 (the
    smallest eps carries the largest eta, so the grid runs upward).  Empty by
    hypothesis for vertical translations; Unknown when the sufficient bound
    certifies nothing.
    """
    if is_vertical_translation(sym) is not None:
        return Lemma1Result(status="vertical-translation")
    if eps_grid is None:
        eps_grid = np.arange(0.02, 0.50, 0.02)
    for eps in eps_grid:
        eps = float(eps)
        if not 0 < eps < 0.5:
            raise InvalidInputError("eps grid must lie in (0, 1/2)")
        eta = halfplane_lower_bound(sym, 0.5 - eps) - 0.5
        if eta > 0:
            return Lemma1Result(status="certified", eps=eps, eta=eta)
    return Lemma1Result(status="unknown")
