"""Probability measures d mu = h(sigma) d sigma on (0, inf) and the weights w_h(n).

Two variants: the closed-form Gamma-type family with density
(2^{a+1}/Gamma(a+1)) sigma^a e^{-2 sigma}, and user densities integrated by
quadrature.  The weight w_h(n) = integral of n^{-2 sigma} d mu(sigma) drives
every A^2 norm and kernel evaluation, so weights are memoized per measure.
The Gauss-Laguerre rules are built here in numpy and cached per (nodes,
alpha); scipy.integrate is imported only by density measures.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericError

_NORMALIZATION_TOL = 1e-8
# Mantissa bound for the Laguerre recurrence: past it a node's values move
# into its log scale, so rules stay finite at thousands of nodes.
_RESCALE_AT = 2.0**500


def _laguerre_ratio(n: int, a: float, x: np.ndarray):
    """p_k(x) = L_k^{(a)}(x)/binom(k+a, k) at k = n and n - 1, n >= 1, and
    d_n = p_n - p_{n-1}, as mantissas sharing the factor e^{scale}.

    The difference form of the recurrence, as scipy.special's
    eval_genlaguerre runs it: d_{k+1} = (k d_k - x p_k)/(k+a+1) and
    p_{k+1} = p_k + d_{k+1}, from p_0 = 1.  A node's three mantissas are
    divided by |p_k| once it passes _RESCALE_AT.
    """
    d = -x / (a + 1)
    p_prev, p = np.ones_like(x), d + 1.0
    scale = np.zeros_like(x)
    for k in range(1, n):
        d = -x / (k + a + 1) * p + (k / (k + a + 1)) * d
        p_prev, p = p, d + p
        big = np.abs(p) > _RESCALE_AT
        if big.any():
            r = np.where(big, np.abs(p), 1.0)
            p_prev, d, p = p_prev / r, d / r, p / r
            scale += np.log(r)
    return p, p_prev, d, scale


@lru_cache(maxsize=32)
def _gauss_laguerre(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """m-node Gauss rule for the probability density x^a e^{-x}/Gamma(a+1), a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix,
    refined by one Newton step on the recurrence.  The weights come from the
    derivative formula w_i ~ 1/(L_{m-1}(x_i) L_m'(x_i)), normalized in log
    scale to sum to 1, as scipy.special's roots_genlaguerre computes them;
    eigenvector weights would lose relative accuracy where w_i is tiny, and
    density rules multiply w_i by e^{x_i}.  Both arrays are shared, so they
    are read-only.
    """
    k = np.arange(1, m)
    jacobi = np.diag(2.0 * np.arange(m) + a + 1.0)
    jacobi[k, k - 1] = np.sqrt(k * (k + a))
    x0 = np.linalg.eigvalsh(jacobi)  # reads the lower triangle
    # With L_k = binom(k+a, k) p_k, L_m' = binom(m+a, m) m d_m / x; the
    # binomials are common to every node and cancel in the normalization.
    p, _, d, dscale = _laguerre_ratio(m, a, x0)
    dl = m * d / x0
    x = x0 - p / dl
    _, fm, _, fscale = _laguerre_ratio(m, a, x)
    logw = -(np.log(np.abs(fm)) + fscale + np.log(np.abs(dl)) + dscale)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-rule parameters: node count, scheme tag, and a convergence tolerance."""

    nodes: int = 128
    scheme: str = "gauss-laguerre"  # or "adaptive"
    tol: float = 1e-8

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidInputError("quadrature needs at least 2 nodes")
        if self.tol <= 0:
            raise InvalidInputError("quadrature tolerance must be positive")
        if self.scheme not in ("gauss-laguerre", "adaptive"):
            raise InvalidInputError(f"unknown quadrature scheme {self.scheme!r}")


class Measure:
    """Base class; concrete measures implement density() and _gl_nodes()."""

    spec: QuadratureSpec

    def density(self, sigma):
        raise NotImplementedError

    def integrate(self, g: Callable[[np.ndarray], np.ndarray]):
        """Integral of g against the measure, componentwise.

        g maps the nodes, shape (m,), to values of shape (..., m); the result
        has shape (...), a float for a scalar integrand.  Evaluates the fixed
        rule at spec.nodes and 2 spec.nodes nodes and returns the finer value
        once every component of the two agrees to spec.tol.
        """
        (x1, w1), (x2, w2) = self._rules
        est = np.sum(w1 * g(x1), axis=-1)
        ref = np.sum(w2 * g(x2), axis=-1)
        if not np.all(np.isfinite(ref)):
            raise NumericError("integrand produced non-finite values")
        bad = np.abs(ref - est) > self.spec.tol * np.maximum(1.0, np.abs(ref))
        if np.any(bad):
            i = np.argmax(bad)  # flat index of the first failing component
            e, r = float(np.ravel(est)[i]), float(np.ravel(ref)[i])
            raise NumericError(f"quadrature did not converge: {e!r} vs {r!r} on node doubling")
        return float(ref) if np.ndim(ref) == 0 else ref

    def weight(self, n) -> float:
        """w_h(n) = integral of n^{-2 sigma} d mu(sigma); n real >= 1 allowed."""
        return self.weights_by_quadrature(n)

    def weights(self, N: int) -> np.ndarray:
        """Memoized vector (w_h(1), ..., w_h(N))."""
        with self._lock:
            cached = self._weight_cache
            if cached is not None and cached.size >= N:
                return cached[:N]
            w = self._weight_vector(N)
            object.__setattr__(self, "_weight_cache", w)
            return w

    def _weight_vector(self, N: int) -> np.ndarray:
        """(w_h(1), ..., w_h(N)) computed afresh, for weights() to memoize."""
        return self.weights_by_quadrature(np.arange(1, N + 1))

    def weights_by_quadrature(self, ns) -> np.ndarray:
        """Quadrature weights w_h(n) for every n in ns by one integrate call."""
        ns = np.asarray(ns, dtype=np.float64)
        if np.any(ns < 1):
            raise InvalidInputError("weight requires n >= 1")
        return self.integrate(lambda s: np.power(ns[..., None], -2.0 * s))

    @cached_property
    def _rules(self):
        """The spec.nodes and 2 spec.nodes rules that integrate compares."""
        return self._gl_nodes(self.spec.nodes), self._gl_nodes(2 * self.spec.nodes)

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m-node Gauss-Laguerre rule for this measure."""
        raise NotImplementedError

    def __post_init__(self):
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_weight_cache", None)


@dataclass(frozen=True, eq=False)
class AlphaMeasure(Measure):
    """d mu(sigma) = (2^{a+1}/Gamma(a+1)) sigma^a e^{-2 sigma} d sigma, a > -1."""

    alpha: float = 0.0
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not -1 < self.alpha < math.inf:
            raise InvalidInputError("alpha must be finite and exceed -1")
        Measure.__post_init__(self)

    def density(self, sigma):
        sigma = np.asarray(sigma, dtype=np.float64)
        c = 2.0 ** (self.alpha + 1) / math.gamma(self.alpha + 1)
        return c * sigma**self.alpha * np.exp(-2.0 * sigma)

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        # substitute u = 2 sigma: integral g d mu = sum w_i g(x_i / 2)
        x, w = _gauss_laguerre(m, self.alpha)
        return x / 2.0, w

    def weight(self, n) -> float:
        # closed form 1/(log n + 1)^{alpha+1}
        return alpha_weight(self.alpha, n)

    def _weight_vector(self, N: int) -> np.ndarray:
        # the scalar closed form, so weights(N)[n-1] == weight(n) bitwise
        return np.array([self.weight(n) for n in range(1, N + 1)])


def alpha_weight(alpha: float, n) -> float:
    """Exact weight 1/(log n + 1)^{alpha+1} of the Gamma-type measure."""
    if not -1 < alpha < math.inf:
        raise InvalidInputError("alpha must be finite and exceed -1")
    n = float(n)
    if n < 1:
        raise InvalidInputError("weight requires n >= 1")
    try:
        return 1.0 / (math.log(n) + 1.0) ** (alpha + 1)
    except OverflowError:
        raise NumericError(f"weight of n={n:g} at alpha={alpha!r} underflows") from None


@dataclass(frozen=True, eq=False)
class DensityMeasure(Measure):
    """Probability measure given by a positive density h on (0, inf).

    With the default gauss-laguerre scheme the density must decay at least
    like e^{-2 sigma}; otherwise pass scheme="adaptive", which truncates the
    domain where the residual mass drops below 1e-12 and integrates
    adaptively.  Set interval_support=True to relax strict positivity to
    positivity on some sampled subinterval.
    """

    h: Callable[[np.ndarray], np.ndarray] = None  # type: ignore[assignment]
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)
    interval_support: bool = False
    name: str = "density"

    def __post_init__(self):
        if self.h is None:
            raise InvalidInputError("a density callable is required")
        Measure.__post_init__(self)
        object.__setattr__(self, "_sigma_max", self._find_sigma_max())
        self._validate()

    def density(self, sigma):
        return self.h(np.asarray(sigma, dtype=np.float64))

    def _find_sigma_max(self) -> float:
        from scipy.integrate import quad

        hi = 1.0
        while hi < 1e6:
            tail, _ = quad(lambda s: float(self.h(np.array([s]))[0]), hi, np.inf, limit=200)
            if tail < 1e-12:
                return hi
            hi *= 2.0
        raise NumericError("density mass does not concentrate on a bounded interval")

    def _validate(self):
        nodes = np.linspace(1e-6, self._sigma_max, 257)
        vals = np.asarray(self.h(nodes), dtype=np.float64)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidInputError("density must be finite and nonnegative")
        if self.interval_support:
            if not np.any(vals > 0):
                raise InvalidInputError("density vanishes at every sampled node")
        else:
            if np.any(vals <= 0):
                raise InvalidInputError("density must be positive on (0, inf)")
            if vals[0] <= 0:
                raise InvalidInputError("0 must lie in the support of the measure")
        total = self.integrate(lambda s: np.ones_like(s))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvalidInputError(f"density integrates to {total!r}, not a probability measure")

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        # integral g h d sigma = (1/2) sum w_i e^{x_i} g(x_i/2) h(x_i/2) with u = 2 sigma.
        # Assembled in log space: w_i underflows and e^{x_i} overflows separately at
        # large nodes, while their product stays moderate for h decaying like e^{-2s}.
        x, w = _gauss_laguerre(m, 0.0)
        sig = x / 2.0
        hv = np.asarray(self.h(sig), dtype=np.float64)
        factors = np.zeros_like(x)
        pos = (w > 0) & (hv > 0)
        factors[pos] = np.exp(np.log(w[pos]) + x[pos] + np.log(hv[pos]) + math.log(0.5))
        return sig, factors

    def integrate(self, g):
        if self.spec.scheme != "adaptive":
            return super().integrate(g)
        from scipy.integrate import quad_vec

        val, err = quad_vec(
            lambda s: np.asarray(g(np.array([s])))[..., 0] * self.h(np.array([s]))[0],
            0.0,
            self._sigma_max,
            limit=400,
            epsabs=1e-13,
            epsrel=self.spec.tol / 10,
            norm="max",
        )
        if not np.all(np.isfinite(val)):
            raise NumericError("adaptive quadrature produced non-finite values")
        if err > self.spec.tol * max(1.0, float(np.max(np.abs(val)))):
            raise NumericError(f"adaptive quadrature error estimate {err!r} above tolerance")
        return float(val) if np.ndim(val) == 0 else val


def measure_from_json(obj: dict) -> Measure:
    """Measure config: {"type":"alpha","alpha":0.0} or
    {"type":"density","samples":[[sigma,h],...],"quadrature":{"nodes":64,"tol":1e-8}}."""
    try:
        kind = obj["type"]
    except (TypeError, KeyError) as e:
        raise InvalidInputError("measure JSON needs a 'type' field") from e
    if kind not in ("alpha", "density"):
        raise InvalidInputError(f"unknown measure type {kind!r}")
    try:
        if kind == "alpha":
            alpha = float(obj.get("alpha", 0.0))
        else:
            samples = np.asarray(obj["samples"], dtype=np.float64)
            q = obj.get("quadrature", {})
            nodes, tol = int(q.get("nodes", 128)), float(q.get("tol", 1e-8))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed measure JSON: {e!r}") from e
    if kind == "alpha":
        return AlphaMeasure(alpha=alpha)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
        raise InvalidInputError("density samples must be [[sigma, h], ...] with >= 2 rows")
    sig, val = samples[:, 0], samples[:, 1]
    spec = QuadratureSpec(nodes=nodes, scheme="adaptive", tol=tol)
    h = lambda s: np.interp(np.asarray(s, dtype=np.float64), sig, val, left=0.0, right=0.0)
    return DensityMeasure(h=h, spec=spec, interval_support=True, name="sampled-density")


def measure_tag(mu: Measure) -> str:
    if isinstance(mu, AlphaMeasure):
        return f"alpha({mu.alpha:g})"
    if isinstance(mu, DensityMeasure):
        return mu.name
    return "H2" if mu is None else type(mu).__name__
