"""Probability measures d mu = h(sigma) d sigma on (0, inf) and the weights w_h(n).

Three variants: the closed-form Gamma-type family with density
(2^{a+1}/Gamma(a+1)) sigma^a e^{-2 sigma}; user densities given by a
callable, integrated by Gauss-Laguerre rules; and sampled densities, the
linear interpolant of samples (sigma_i, h_i), integrated by composite
Gauss-Legendre rules over the sample segments.  The weight w_h(n) = integral
of n^{-2 sigma} d mu(sigma) drives every A^2 norm and kernel evaluation, so
weights are memoized per measure.  Each measure builds a coarse and a fine
rule, the fine one with twice the nodes, and every quadrature goes through
one node-doubled integrate.  The Gauss rules are built here in numpy and
cached per node count (and alpha); this module imports nothing from scipy.
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
# weights(N) integrates blocks of n whose (n, node) integrand arrays hold
# about this many entries.
_BLOCK = 2**20
# Largest quadrature node count that a measure JSON may ask for.
_MAX_JSON_NODES = 1024
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


@lru_cache(maxsize=32)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-node Gauss-Legendre rule on [0, 1], weights summing to 1; read-only."""
    t, w = np.polynomial.legendre.leggauss(m)
    t, w = (t + 1.0) / 2.0, w / 2.0
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-rule parameters: node count and a convergence tolerance."""

    nodes: int = 128
    tol: float = 1e-8

    def __post_init__(self):
        if self.nodes < 2:
            raise InvalidInputError("quadrature needs at least 2 nodes")
        if not 0 < self.tol < math.inf:
            raise InvalidInputError("quadrature tolerance must be positive and finite")


class Measure:
    """Base class; concrete measures implement density() and _gl_nodes(), or
    build their own pair of rules in _rules."""

    spec: QuadratureSpec

    def density(self, sigma):
        raise NotImplementedError

    @property
    def abscissa(self) -> float:
        """1 + 2 sigma_min, sigma_min the left end of the support (here 0): the
        sum of n^{-a}/w_h(n) converges exactly for a above it, as
        n^{-2 sigma_min} >= w_h(n) >= n^{-2 sigma_min} (log n)^{-(k+1)} for a
        density growing like (sigma - sigma_min)^k."""
        return 1.0

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
        """(w_h(1), ..., w_h(N)) computed afresh, for weights() to memoize, in
        blocks of n that bound the size of the integrand arrays."""
        ns = np.arange(1, N + 1)
        step = max(1, _BLOCK // self._rules[1][0].size)
        blocks = range(0, max(N, 1), step)
        return np.concatenate([self.weights_by_quadrature(ns[lo : lo + step]) for lo in blocks])

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
    """Probability measure given by a density callable h, positive on (0, inf).

    Its rules are Gauss-Laguerre rules in u = 2 sigma, so h must decay at
    least like e^{-2 sigma}.  A density known by samples, or supported on an
    interval, is a SampledDensityMeasure.
    """

    h: Callable[[np.ndarray], np.ndarray] = None  # type: ignore[assignment]
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)
    name: str = "density"

    def __post_init__(self):
        if self.h is None:
            raise InvalidInputError("a density callable is required")
        Measure.__post_init__(self)
        self._validate()

    def density(self, sigma):
        return self.h(np.asarray(sigma, dtype=np.float64))

    def _find_sigma_max(self) -> float:
        """The first of 1, 2, 4, ... past which the fine rule holds mass below 1e-12."""
        x, w = self._rules[1]
        hi = 1.0
        while np.sum(w[x > hi]) >= 1e-12:  # ends once no node lies past hi
            hi *= 2.0
        return hi

    def _validate(self):
        nodes = np.linspace(1e-6, self._find_sigma_max(), 257)
        vals = np.asarray(self.h(nodes), dtype=np.float64)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidInputError("density must be finite and nonnegative")
        if np.any(vals <= 0):
            raise InvalidInputError("density must be positive on (0, inf)")
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


@dataclass(frozen=True, eq=False)
class SampledDensityMeasure(Measure):
    """Probability measure whose density is the linear interpolant of the
    samples [[sigma_0, h_0], ..., [sigma_K, h_K]], and zero off [sigma_0, sigma_K].

    The samples need sigma_0 >= 0, strictly increasing sigmas, h_i >= 0 with
    some h_i > 0, and total mass 1; the density may vanish on subintervals.
    On each of the K segments n^{-2 sigma} h is entire, so a Gauss-Legendre
    rule converges geometrically there.  The coarse rule puts
    k = max(2, ceil(spec.nodes / K)) nodes on every segment, the fine rule 2k.
    """

    samples: np.ndarray = None  # type: ignore[assignment]
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
            raise InvalidInputError("density samples must be [[sigma, h], ...] with >= 2 rows")
        sig, val = samples.T
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("density samples must be finite")
        if sig[0] < 0:
            raise InvalidInputError("sample sigmas must start at sigma_0 >= 0")
        if np.any(np.diff(sig) <= 0):
            raise InvalidInputError("sample sigmas must be strictly increasing")
        if np.any(val < 0):
            raise InvalidInputError("density samples must be nonnegative")
        if not np.any(val > 0):
            raise InvalidInputError("density vanishes at every sample")
        # the trapezoid rule is exact on the interpolant
        total = float(np.sum((val[1:] + val[:-1]) * np.diff(sig)) / 2.0)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvalidInputError(f"density integrates to {total!r}, not a probability measure")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        Measure.__post_init__(self)

    def density(self, sigma):
        sig, val = self.samples.T
        return np.interp(np.asarray(sigma, dtype=np.float64), sig, val, left=0.0, right=0.0)

    @property
    def abscissa(self) -> float:
        sig, val = self.samples.T
        first = int(np.argmax(val > 0))  # the support starts at the sample before
        return 1.0 + 2.0 * float(sig[max(first - 1, 0)])

    @cached_property
    def _rules(self):
        k = max(2, -(-self.spec.nodes // (len(self.samples) - 1)))
        return self._composite_rule(k), self._composite_rule(2 * k)

    def _composite_rule(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k Gauss-Legendre nodes on every segment, weighted by the interpolant."""
        sig, val = self.samples.T
        t, w = _gauss_legendre(k)
        width = np.diff(sig)[:, None]
        hv = val[:-1, None] * (1.0 - t) + val[1:, None] * t
        return (sig[:-1, None] + width * t).ravel(), (width * w * hv).ravel()


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
    if nodes > _MAX_JSON_NODES:
        raise InvalidInputError(f"quadrature nodes must be at most {_MAX_JSON_NODES}")
    return SampledDensityMeasure(samples=samples, spec=QuadratureSpec(nodes=nodes, tol=tol))


def measure_tag(mu: Measure) -> str:
    if isinstance(mu, AlphaMeasure):
        return f"alpha({mu.alpha:g})"
    if isinstance(mu, DensityMeasure):
        return mu.name
    if isinstance(mu, SampledDensityMeasure):
        return "sampled-density"
    return "H2" if mu is None else type(mu).__name__
