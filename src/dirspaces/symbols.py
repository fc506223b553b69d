"""Symbols Phi(s) = c0 s + phi(s) and certified mapping-region checks.

Containment of an image in a half-plane cannot be decided by sampling, so
every check returns a three-valued Certificate: CertifiedYes only from a
sound sufficient condition, CertifiedNo only with a concrete witness point,
Unknown otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from . import series as ds
from .series import DirichletSeries, evaluate, from_json, from_terms, to_json

# The refutation grid samples t in [-GRID_T_MAX, GRID_T_MAX] at GRID_T_STEPS points.
GRID_T_MAX = 40.0
GRID_T_STEPS = 401
# lemma1_region certifies Phi(C_{1/2-eps}) inside C_{1/2+eta} at this eps.
LEMMA1_EPS = 0.02
# The refutation grid forms its oscillating factors in blocks of t whose
# (t, term) arrays hold about this many entries.
_GRID_BLOCK = 2**20


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

    def to_json(self) -> dict:
        return {"c0": int(self.c0), "phi": to_json(self.phi)}


def symbol(c0: int, terms: dict[int, complex] | complex) -> Symbol:
    """Convenience constructor; a bare complex value means a constant phi."""
    if not isinstance(terms, dict):
        terms = {1: complex(terms)}
    return Symbol(c0=c0, phi=from_terms(terms, max(terms, default=1)))


def symbol_from_json(obj: dict) -> Symbol:
    try:
        c0 = ds._integer(obj["c0"])
        phi = obj["phi"]
    except (TypeError, KeyError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed symbol JSON: {e}") from e
    return Symbol(c0=c0, phi=from_json(phi))


def is_vertical_translation(sym: Symbol) -> float | None:
    """tau if Phi(s) = s + i tau (c0 = 1, phi a purely imaginary constant), else None."""
    if sym.c0 != 1 or np.any(sym.phi.coeffs[1:]) or sym.c1.real != 0.0:
        return None
    return float(sym.c1.imag)


def halfplane_lower_bound(sym: Symbol, eps: float = 0.0) -> float:
    """Certified lower bound of Re Phi on the half-plane Re s > eps.

    Sound because |sum over k>=2 of c_k k^{-s}| <= sum |c_k| k^{-eps} there:
    Re Phi >= c0 eps + Re c1 - sum |c_k| k^{-eps}.  Every rounding goes
    against the claim (see _domination_bound), and the result is rounded
    down, so a tail that exactly dominates Re c1 gives exactly 0.
    """
    return _float_down(_domination_bound(sym, eps))


def _float_down(bound: int) -> float:
    """The largest float <= bound / 2^2148."""
    try:
        low = bound / 2**_FIXED  # correctly rounded
    except OverflowError:
        return -math.inf if bound < 0 else sys.float_info.max
    return math.nextafter(low, -math.inf) if _fixed(low) > bound else low


_FIXED = 2148  # every product of two floats is a whole multiple of 2^-2148


def _fixed(x: float, y: float = 1.0) -> int:
    """x y 2^2148 for finite floats x and y, an exact integer."""
    (a, p), (b, q) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * b << (_FIXED + 2 - p.bit_length() - q.bit_length())


def _domination_bound(sym: Symbol, eps: float) -> int:
    """A lower bound of c0 eps + Re c1 - sum |c_k| k^{-eps}, times 2^2148.

    Each |c_k| is rounded up to a float, so it is exact where it is one;
    k^{-eps} is rounded one ulp up; the rest is exact.
    """
    if not 0 <= eps < math.inf:
        raise InvalidInputError("eps must be finite and >= 0")
    bound = int(sym.c0) * _fixed(float(eps)) + _fixed(sym.c1.real)
    for k in np.flatnonzero(sym.phi.coeffs[1:]) + 2:
        c = complex(sym.phi.coeffs[k - 1])
        decay = math.nextafter(float(k) ** -eps, math.inf) if eps else 1.0
        modulus = _modulus_up(c)
        if modulus < math.inf:
            bound -= _fixed(modulus, decay)
        else:  # |c| is past the floats; |Re c| + |Im c| bounds it
            bound -= _fixed(abs(c.real), decay) + _fixed(abs(c.imag), decay)
    return bound


def _modulus_up(c: complex) -> float:
    """The smallest float >= |c|: inf past the largest float."""
    square = _fixed(c.real, c.real) + _fixed(c.imag, c.imag)
    up = math.hypot(c.real, c.imag)  # within an ulp of |c|
    while up < math.inf and _fixed(up, up) < square:
        up = math.nextafter(up, math.inf)
    down = math.nextafter(up, 0.0)
    while up > 0.0 and _fixed(down, down) >= square:
        up, down = down, math.nextafter(down, 0.0)
    return up


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
    """The least Re phi over the (sigma, t) grid and the point where it is
    reached, summed over the nonzero coefficients only, so that the cost
    follows the support of phi and not its truncation.  The oscillating
    factors are formed a block of t at a time, and the whole grid is filled
    before the argmin, so ties break as on one block."""
    support = np.flatnonzero(sym.phi.coeffs)
    logs = np.log(support + 1.0)
    coeffs = sym.phi.coeffs[support]
    # Re phi(sigma + i t) over the grid, vectorized: (n_sigma, n_t)
    decay = np.exp(-np.outer(sigmas, logs))  # (n_sigma, K)
    vals = np.empty((sigmas.size, ts.size))
    step = max(1, _GRID_BLOCK // max(support.size, 1))
    for lo in range(0, ts.size, step):
        osc = np.exp(-1j * np.outer(ts[lo : lo + step], logs))  # (step, K)
        vals[:, lo : lo + step] = np.real(np.einsum("sk,tk,k->st", decay, osc, coeffs))
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[i, j]), complex(sigmas[i], ts[j])


def _certify(sym: Symbol, floor: float) -> Certificate:
    """Certificate for Re phi > floor on C_+ (floor 0 or 1/2).

    CertifiedYes when Re c1 - sum |c_k| exceeds floor, decided exactly on
    the bound of halfplane_lower_bound at eps = 0, with that slack rounded
    down as its margin; a tie certifies only at floor 0.  CertifiedNo with
    a grid witness where Re phi <= floor - 1e-12; Unknown otherwise.
    """
    slack = _domination_bound(sym, 0.0) - _fixed(floor)  # exact
    if slack > 0 or (slack == 0 and floor == 0):
        return Certificate(
            Verdict.CERTIFIED_YES, margin=_float_down(slack), method="coefficient-domination"
        )
    low, witness = _min_re_phi(sym, *_refutation_grid(sym))
    if low <= floor - 1e-12:
        return Certificate(
            Verdict.CERTIFIED_NO, margin=floor - low, method="grid-witness", witness=witness
        )
    return Certificate(Verdict.UNKNOWN, margin=low - floor, method="grid-inconclusive")


def check_theorem1(sym: Symbol) -> Certificate:
    """Certificate for phi(C_+) inside C_+ (boundedness with c0 >= 1).

    CertifiedYes when phi is a purely imaginary constant or when
    Re c1 >= sum |c_k| (coefficient domination); CertifiedNo with a grid
    witness where Re phi <= -1e-12; Unknown otherwise (see _certify).
    """
    if sym.c0 < 1:
        raise InvalidInputError("theorem-1 check applies to c0 >= 1")
    if not np.any(sym.phi.coeffs[1:]) and sym.c1.real == 0.0:
        return Certificate(Verdict.CERTIFIED_YES, margin=0.0, method="imaginary-constant")
    return _certify(sym, 0.0)


def check_theorem2(sym: Symbol) -> Certificate:
    """Certificate for Phi(C_+) inside C_{1/2+eta} for some eta > 0, when c0 = 0.

    CertifiedYes when Re c1 - sum |c_k| > 1/2, decided exactly on the bound
    of halfplane_lower_bound at eps = 0, with that slack rounded down, the
    supremum of the certified eta, as its margin; a tie certifies no eta.
    CertifiedNo with a witness violating the necessary condition
    Re Phi > 1/2; Unknown otherwise (see _certify).
    """
    if sym.c0 != 0:
        raise InvalidInputError("theorem-2 check applies to c0 = 0")
    return _certify(sym, 0.5)


def translate_symbol(sym: Symbol, sigma: float) -> tuple[Symbol, Symbol]:
    """(Phi_sigma, Psi_sigma) where Phi_sigma(s) = Phi(sigma+s) and Psi_sigma = Phi_sigma - sigma.

    Phi_sigma keeps linear part c0; its polynomial part is c0 sigma plus the
    translated phi (coefficients c_k k^{-sigma}).
    """
    if not 0 < sigma < math.inf:
        raise InvalidInputError("translation requires a finite sigma > 0")
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
    if not 0 < sigma < math.inf:
        raise InvalidInputError("sigma must be finite and positive")
    s = complex(s)
    if not (0 < s.real < math.inf and math.isfinite(s.imag)):
        raise InvalidInputError("s must be a finite point of the right half-plane")
    val = sym(sigma + s)
    return (val.real - sigma) - (sigma * (sym.c0 - 1) + s.real)


@dataclass(frozen=True)
class Lemma1Result:
    status: str  # "certified" | "vertical-translation" | "unknown"
    eps: float | None = None
    eta: float | None = None

    def to_json(self) -> dict:
        return {"status": self.status, "eps": self.eps, "eta": self.eta}


def lemma1_region(sym: Symbol) -> Lemma1Result:
    """(eps, eta) with Phi(C_{1/2-eps}) certified inside C_{1/2+eta}.

    eps is LEMMA1_EPS, and eta is the certified bound of
    halfplane_lower_bound at 1/2 - eps, less 1/2, when that is positive.
    That bound never falls as the abscissa grows, so a larger eps gives
    neither a larger eta nor an eta where this one gives none.  Empty by
    hypothesis for vertical translations; Unknown when the sufficient bound
    certifies nothing.
    """
    if is_vertical_translation(sym) is not None:
        return Lemma1Result(status="vertical-translation")
    eta = halfplane_lower_bound(sym, 0.5 - LEMMA1_EPS) - 0.5
    if eta > 0:
        return Lemma1Result(status="certified", eps=LEMMA1_EPS, eta=eta)
    return Lemma1Result(status="unknown")
