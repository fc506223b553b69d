"""Probability measures d mu = h(sigma) d sigma on (0, inf) and the weights w_h(n).

Three variants: the closed-form Gamma-type family with density
(2^{a+1}/Gamma(a+1)) sigma^a e^{-2 sigma}; user densities given by a
callable, integrated by Gauss-Laguerre rules; and sampled densities, the
linear interpolant of samples (sigma_i, h_i), integrated by composite
Gauss-Legendre rules over the sample segments.  The weight w_h(n) = integral
of n^{-2 sigma} d mu(sigma) drives every A^2 norm, even-p A^p norm and
kernel evaluation.  weights_at is the one place a measure decides them:
the closed form for the Gamma family, quadrature otherwise.  weight(n) and
weights(N), a read-only memo that takes no lock (nothing here runs threads,
and a race between two would only cost a recomputation), read through it,
so all three agree bitwise.  Each measure builds a coarse rule of _NODES nodes
and a fine one with twice as many, and every quadrature goes through one
node-doubled integrate, which accepts a value once the two rules agree to
DOUBLING_TOL, relative to max(1, |value|).  Both rules are evaluated in one
pass: the integrand is called once, at the nodes of both, and the two
weighted sums are split from its values.  The weight integrand is
e^{-2 sigma log n}, one np.exp of a table of np.log n: at the large Laguerre
nodes n^{-2 sigma} underflows, where np.power is several times slower.  The
Gauss rules are built here in numpy and cached per node count (and alpha).
Every DensityMeasure integrates at the same nodes, half those of the
Gauss-Laguerre rules for e^{-x}, and only its factors depend on h: the
nodes and log w_i + x_i of each rule are shared and read-only
(_density_rule).  So its weights at integers n up to 4096 read one shared
read-only table of n^{-2 sigma_i} at the nodes of both rules
(_laguerre_decay) per power of two of rows, 12 MiB at most, a run of n such
as weights(N) asks for as a slice of it; other n, and the kernel tail, take
np.exp afresh, and both routes give the same bits.  A DensityMeasure is
checked once, when it is made: h is finite and positive at 257 points of
[1e-6, sigma_max], sigma_max the first of 1, 2, 4, ... past which the fine
rule holds mass below 1e-12, read from one cumulative sum of its weights
from the largest node down; and the two rules' weight sums, their values
of the integral of 1 bit for bit, pass node doubling, the fine one within
_NORMALIZATION_TOL of 1.

Each measure also bounds the tail over n > N of the kernel sum of
f(n) = n^{-a}/w_h(n), for a above its abscissa (kernel_tail).  For the Gamma
family 1/w_h(x) = (1 + log x)^{alpha+1}, and log f(e^t) is concave, so f is
unimodal and the tail is at most the integral of f from N upward,
e^{a-1} (a-1)^{-(alpha+2)} Gamma(alpha+2, (a-1)(1 + log N)), plus the peak of
f on [N, inf), at log x* = (alpha+1)/a - 1.  Other measures bound it from
their weights alone, at x_k = N r^k, r = _TAIL_RATIO, by secants of
g(t) = log(e^t f(e^t)) = (1 - a) t - log w_h(e^t), which is concave, since
w_h(e^t) is a Laplace transform in t.  Hence:
- the slope s_k of the secant of g over [log x_{k-1}, log x_k] is at least
  g' past log x_k;
- each of the floor(x_k) - floor(x_{k-1}) integers n in (x_{k-1}, x_k] has
  f(n) <= x_{k-1}^{-a}/w_h(x_k), as w_h decreases;
- where s_k < 0, f decreases past x_k, so the sum over n > x_k is at most
  f(x_k) plus the integral of f from x_k, which is at most
  e^{g(log x_k)}/|s_k| = x_k f(x_k)/|s_k|.
The bound is the least, over the k with s_k < 0, of the blocks up to x_k
plus f(x_k) (1 + x_k/|s_k|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericError
from .series import _size

_NORMALIZATION_TOL = 1e-8
# Nodes of the coarse rule of every measure; the fine rule has twice as many.
_NODES = 128
# integrate accepts the fine rule's value once the coarse one agrees with it
# to this, relative to max(1, |value|).
DOUBLING_TOL = 1e-8
# weights(N) integrates blocks of n whose (n, node) integrand arrays hold
# about this many entries.
_BLOCK = 2**20
# Mantissa bound for the Laguerre recurrence: past it a node's values move
# into its log scale, so rules stay finite at thousands of nodes.
_RESCALE_AT = 2.0**500
# The density kernel tail walks N, r N, r^2 N, ... with this r (see
# Measure.kernel_tail), and takes each weight within DOUBLING_TOL of the one
# computed, once the coarse and fine rules agree to that, relative to the weight.
_TAIL_RATIO = 2.0**0.25
_LOG_LO, _LOG_HI = math.log1p(-DOUBLING_TOL), math.log1p(DOUBLING_TOL)


def _laguerre_ratio(n: int, a: float, x: np.ndarray):
    """p_k(x) = L_k^{(a)}(x)/binom(k+a, k) at k = n and n - 1, n >= 1, and
    d_n = p_n - p_{n-1}, as mantissas sharing the factor e^{scale}.

    The difference form of the recurrence: d_{k+1} = (k d_k - x p_k)/(k+a+1)
    and p_{k+1} = p_k + d_{k+1}, from p_0 = 1.  A node's three mantissas are
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
    scale to sum to 1; eigenvector weights would lose relative accuracy where
    w_i is tiny, and density rules multiply w_i by e^{x_i}.  Both arrays are
    shared, so they are read-only.
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


def _decay(logs):
    """sigma -> n^{-2 sigma} for each n with log n in `logs`, shape (..., m)
    at m nodes, as e^{-2 sigma log n}: every weight reads one np.log table,
    so weights(N)[n-1], weight(n) and the kernel tail's weights agree bitwise,
    and n^{-2 sigma} underflows at most nodes of the Laguerre rules, where
    np.power takes a slow path and np.exp does not."""
    return lambda s: np.exp(logs[..., None] * (-2.0 * s))


@lru_cache(maxsize=4)
def _laguerre_decay(N: int) -> np.ndarray:
    """n^{-2 sigma_i} for n = 1..N (rows) at the nodes sigma_i = x_i/2 of the
    _NODES and 2 _NODES node rules _gauss_laguerre(m, 0), in that order,
    read-only: the integrand of every DensityMeasure's weights at integers,
    whose rules differ only in their factors.  Built by _decay, so its rows
    keep the bits of that route."""
    x = np.concatenate([_gauss_laguerre(m, 0.0)[0] for m in (_NODES, 2 * _NODES)])
    table = _decay(np.log(np.arange(1, N + 1, dtype=np.float64)))(x / 2.0)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _density_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the m-node rule of every DensityMeasure takes from
    _gauss_laguerre(m, 0) alone, read-only: the nodes sigma_i = x_i/2, where
    w_i > 0, and log w_i + x_i, of which a density's factors read those
    where w_i > 0."""
    x, w = _gauss_laguerre(m, 0.0)
    with np.errstate(divide="ignore"):
        parts = x / 2.0, w > 0, np.log(w) + x
    for a in parts:
        a.setflags(write=False)
    return parts


@lru_cache(maxsize=8)
def _check_nodes(hi: float) -> np.ndarray:
    """The 257 points of [1e-6, hi] at which a DensityMeasure checks its
    density, read-only."""
    nodes = np.linspace(1e-6, hi, 257)
    nodes.setflags(write=False)
    return nodes


class Measure:
    """Base class; concrete measures implement density() and _gl_nodes(), or
    build their own pair of rules in _rules.  weights_at decides the weights;
    weight(n) and weights(N), a read-only memo kept like _rules in the
    instance __dict__ and guarded by no lock, read through it."""

    _weight_cache = None

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
        rules at _NODES and 2 _NODES nodes in one pass, one call of g at the
        nodes of both, and returns the finer value once every component of
        the two agrees to DOUBLING_TOL.
        """
        return self._accepted(*self._both_rules(g))

    def _accepted(self, est, ref):
        """The fine rule's value `ref`, once every component of it agrees
        with the coarse rule's `est` to DOUBLING_TOL."""
        bad = np.abs(ref - est) > DOUBLING_TOL * np.maximum(1.0, np.abs(ref))
        if bad.any():
            i = np.argmax(bad)  # flat index of the first failing component
            e, r = float(np.ravel(est)[i]), float(np.ravel(ref)[i])
            raise NumericError(f"quadrature did not converge: {e!r} vs {r!r} on node doubling")
        return float(ref) if np.ndim(ref) == 0 else ref

    def _both_rules(self, g):
        """g integrated by the coarse and the fine rule, the latter finite:
        one call of g at the nodes of both rules (_nodes), whose values are
        split into the two weighted sums."""
        values = g(self._nodes)
        m = self._rules[0][0].size
        return self._weighted_sums(values[..., :m], values[..., m:])

    def _weighted_sums(self, coarse, fine):
        """The coarse and the fine rule's sums of their weights times
        `coarse` and `fine`, the values at their nodes, the latter finite."""
        (_, w1), (_, w2) = self._rules
        est, ref = np.add.reduce(w1 * coarse, axis=-1), np.add.reduce(w2 * fine, axis=-1)
        if not np.isfinite(ref).all():
            raise NumericError("integrand produced non-finite values")
        return est, ref

    def weight(self, n) -> float:
        """w_h(n) = integral of n^{-2 sigma} d mu(sigma); n real >= 1 allowed."""
        return float(self.weights_at([n])[0])

    def kernel_tail(self, a: float, N: int) -> float:
        """Bound on the sum over n > N of n^{-a}/w_h(n), for a above the
        abscissa, from the weights at x_k = N r^k (see the module docstring).

        The walk starts at x_{-1} = N/r where N > 1 (at x_0 = 1 where N = 1),
        and stops once the blocks alone reach the least total, since a later
        total only adds blocks, or once x_k leaves the floats or a weight
        fails, underflows or has coarse and fine rules further apart than
        DOUBLING_TOL of it: integrate accepts a gap up to DOUBLING_TOL
        absolute for weights below 1, so the walk judges the gap itself.
        Each weight is taken DOUBLING_TOL low or high, relative to it,
        whichever makes the bound larger.  Raises NumericError if no x_k
        closes before the walk stops.
        """
        total, best, failure = 0.0, math.inf, None
        start = -1 if N > 1 else 0
        # r^k = 2^{k/4} is finite below k = 4 * 1024
        for k in range(start, 4 * 1024):
            x = N * _TAIL_RATIO**k
            if not math.isfinite(x):
                break
            try:
                est, ref = self._both_rules(_decay(np.log(np.float64(x))))
            except NumericError as e:
                failure = str(e)
                break
            w, gap = float(ref), abs(float(ref) - float(est))
            if not w >= np.finfo(np.float64).tiny:
                failure = f"weight w_h({x:g}) of the kernel tail underflows"
                break
            if gap > DOUBLING_TOL * w:
                failure = f"weight w_h({x:g}) of the kernel tail is not resolved: {w!r} +- {gap!r}"
                break
            log_lo = math.log(w) + _LOG_LO
            if k > 0:
                n_block = math.floor(x) - math.floor(x_prev)
                total += n_block * math.exp(-a * math.log(x_prev) - log_lo)
            if k > start:
                slope = (1.0 - a) + (log_hi - log_lo) / math.log(x / x_prev)
                if slope < 0:
                    rest = math.exp(-a * math.log(x) - log_lo) * (1.0 + x / -slope)
                    best = min(best, total + rest)
            if total >= best:
                break
            x_prev, log_hi = x, math.log(w) + _LOG_HI
        if best < math.inf:
            return best
        raise NumericError(
            failure or f"the kernel tail bound does not close at Re z = {a!r} within the floats"
        )

    def weights(self, N: int) -> np.ndarray:
        """Memoized read-only vector (w_h(1), ..., w_h(N))."""
        N = _size(N)
        cached = self._weight_cache
        if cached is not None and cached.size >= N:
            return cached[:N]
        w = self.weights_at(np.arange(1, N + 1))
        w.setflags(write=False)
        self.__dict__["_weight_cache"] = w
        return w

    def weights_at(self, ns) -> np.ndarray:
        """w_h(n) for every n in ns, computed afresh, outside the memo of
        weights(): by quadrature, in blocks of n that bound the size of the
        integrand arrays, which hold one value per node of both rules."""
        ns = np.asarray(ns)
        step = max(1, _BLOCK // self._nodes.size)
        blocks = range(0, max(ns.size, 1), step)
        return np.concatenate([self.weights_by_quadrature(ns[lo : lo + step]) for lo in blocks])

    def weights_by_quadrature(self, ns) -> np.ndarray:
        """Quadrature weights w_h(n) for every n in ns by one integrate call."""
        ns = np.asarray(ns, dtype=np.float64)
        if not (ns >= 1).all():  # NaN included
            raise InvalidInputError("weight requires n >= 1")
        return self.integrate(self._decay_at(ns))

    def _decay_at(self, ns: np.ndarray):
        """The integrand sigma -> n^{-2 sigma} of the weights at ns >= 1."""
        return _decay(np.log(ns))

    @cached_property
    def _rules(self):
        """The _NODES and 2 _NODES rules that integrate compares."""
        return self._gl_nodes(_NODES), self._gl_nodes(2 * _NODES)

    @cached_property
    def _nodes(self) -> np.ndarray:
        """The nodes of the coarse rule, then those of the fine one, read-only."""
        nodes = np.concatenate([x for x, _ in self._rules])
        nodes.setflags(write=False)
        return nodes

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m-node Gauss-Laguerre rule for this measure."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class AlphaMeasure(Measure):
    """d mu(sigma) = (2^{a+1}/Gamma(a+1)) sigma^a e^{-2 sigma} d sigma, a > -1."""

    alpha: float = 0.0

    def __post_init__(self):
        alpha_weight(self.alpha, 1)  # refuses an invalid alpha

    def density(self, sigma):
        sigma = np.asarray(sigma, dtype=np.float64)
        c = 2.0 ** (self.alpha + 1) / math.gamma(self.alpha + 1)
        return c * sigma**self.alpha * np.exp(-2.0 * sigma)

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        # substitute u = 2 sigma: integral g d mu = sum w_i g(x_i / 2)
        x, w = _gauss_laguerre(m, self.alpha)
        return x / 2.0, w

    def weights_at(self, ns) -> np.ndarray:
        # the scalar closed form 1/(log n + 1)^{alpha+1}, index by index
        ns = np.asarray(ns).tolist()
        return np.array([alpha_weight(self.alpha, n) for n in ns], dtype=np.float64)

    def kernel_tail(self, a: float, N: int) -> float:
        """The integral of f from N plus its peak on [N, inf), in closed
        form (see the module docstring)."""
        b = self.alpha + 1.0
        log_integral = (
            (a - 1.0)
            - (b + 1.0) * math.log(a - 1.0)
            + _log_upper_gamma(b + 1.0, (a - 1.0) * (1.0 + math.log(N)))
        )
        u = max(math.log(N), b / a - 1.0)
        log_peak = -a * u + b * math.log1p(u)
        try:
            val = math.exp(log_integral) + math.exp(log_peak)
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise DivergenceError(f"kernel tail overflows at abscissa {a!r}")
        return val


def _log_upper_gamma(s: float, x: float) -> float:
    """log Gamma(s, x), the upper incomplete gamma function, for s >= 1, x > 0.

    Below x = s + 1, Gamma(s) minus the series of the lower function: there
    Gamma(s, x) >= Gamma(s, s + 1) >= e^{-2} Gamma(s), so the difference
    keeps its digits.  Above it, the continued fraction by the modified
    Lentz method (Numerical Recipes, gser and gcf).  Gamma(s, inf) = 0.
    """
    if x == math.inf:
        return -math.inf
    eps, tiny = 1e-16, 1e-300
    if x < s + 1.0:
        term = total = 1.0 / s
        for k in range(1, 100_000):
            term *= x / (s + k)
            total += term
            if term < total * eps:
                break
        else:
            raise NumericError(f"incomplete gamma series did not converge at s={s!r}, x={x!r}")
        lower = math.exp(s * math.log(x) - x - math.lgamma(s) + math.log(total))
        return math.lgamma(s) + math.log1p(-lower)
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1.0 / d
        h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    else:
        raise NumericError(f"incomplete gamma fraction did not converge at s={s!r}, x={x!r}")
    return s * math.log(x) - x + math.log(h)


def alpha_weight(alpha: float, n) -> float:
    """Exact weight 1/(log n + 1)^{alpha+1} of the Gamma-type measure."""
    if not -1 < alpha < math.inf:
        raise InvalidInputError("alpha must be finite and exceed -1")
    n = float(n)
    if not n >= 1:  # NaN included
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

    def __post_init__(self):
        if self.h is None:
            raise InvalidInputError("a density callable is required")
        self._validate()

    def density(self, sigma):
        return self.h(np.asarray(sigma, dtype=np.float64))

    def _find_sigma_max(self) -> float:
        """The first of 1, 2, 4, ... past which the fine rule holds mass
        below 1e-12: past the last node whose tail, its mass and that of
        every node above it, is not below 1e-12."""
        x, w = self._rules[1]
        # the nodes increase, so the tails that reach 1e-12 are the first ones
        heavy = np.count_nonzero(np.cumsum(w[::-1]) >= 1e-12)
        hi = 1.0
        while heavy and hi < x[heavy - 1]:
            hi *= 2.0
        return hi

    def _h_at(self, sigma: np.ndarray) -> np.ndarray:
        """h at the node array `sigma`, refused unless it is an array of the
        same shape: every rule multiplies it into its weights node by node."""
        vals = np.asarray(self.h(sigma), dtype=np.float64)
        if vals.shape != sigma.shape:
            raise InvalidInputError(
                f"the density callable maps {sigma.size} nodes to shape {vals.shape}, "
                f"not {sigma.shape}"
            )
        return vals

    def _validate(self):
        vals = self._h_at(_check_nodes(self._find_sigma_max()))
        lo, hi = vals.min(), vals.max()  # both NaN where a value is
        if not (lo >= 0 and hi < math.inf):
            raise InvalidInputError("density must be finite and nonnegative")
        if lo == 0:
            raise InvalidInputError("density must be positive on (0, inf)")
        # the rules' values of the integral of 1 are their weight sums
        total = self._accepted(*self._weighted_sums(1.0, 1.0))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvalidInputError(f"density integrates to {total!r}, not a probability measure")

    def _decay_at(self, ns: np.ndarray):
        # Integers up to 4096 read rows of the table shared by every
        # density, at the nodes of both its rules, which are the s that
        # integrate passes; the table has the least power of two of rows
        # that holds the largest n.  A run of consecutive n, as weights(N)
        # asks for, reads a slice of it, a view.
        top = ns.max(initial=1.0)
        if top > _BLOCK // (2 * _NODES) or not (ns == np.floor(ns)).all():
            return super()._decay_at(ns)
        rows, size = ns.astype(np.intp) - 1, 1 << (int(top) - 1).bit_length()
        if rows.size and (rows[1:] - rows[:-1] == 1).all():
            rows = slice(rows[0], rows[-1] + 1)
        return lambda s: _laguerre_decay(size)[rows]

    def _gl_nodes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        # integral g h d sigma = (1/2) sum w_i e^{x_i} g(x_i/2) h(x_i/2) with u = 2 sigma.
        # Assembled in log space: w_i underflows and e^{x_i} overflows separately at
        # large nodes, while their product stays moderate for h decaying like e^{-2s}.
        sig, weighted, log_wx = _density_rule(m)
        hv = self._h_at(sig)
        factors = np.zeros_like(sig)
        pos = weighted & (hv > 0)
        factors[pos] = np.exp(log_wx[pos] + np.log(hv[pos]) + math.log(0.5))
        return sig, factors


@dataclass(frozen=True, eq=False)
class SampledDensityMeasure(Measure):
    """Probability measure whose density is the linear interpolant of the
    samples [[sigma_0, h_0], ..., [sigma_K, h_K]], and zero off [sigma_0, sigma_K].

    The samples need sigma_0 >= 0, strictly increasing sigmas, h_i >= 0 with
    some h_i > 0, and total mass 1; the density may vanish on subintervals.
    On each of the K segments n^{-2 sigma} h is entire, so a Gauss-Legendre
    rule converges geometrically there.  The coarse rule puts
    k = max(2, ceil(_NODES / K)) nodes on every segment, the fine rule 2k.
    """

    samples: np.ndarray = None  # type: ignore[assignment]

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
        k = max(2, -(-_NODES // (len(self.samples) - 1)))
        return self._composite_rule(k), self._composite_rule(2 * k)

    def _composite_rule(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k Gauss-Legendre nodes on every segment, weighted by the interpolant."""
        sig, val = self.samples.T
        t, w = _gauss_legendre(k)
        width = np.diff(sig)[:, None]
        hv = val[:-1, None] * (1.0 - t) + val[1:, None] * t
        return (sig[:-1, None] + width * t).ravel(), (width * w * hv).ravel()


def measure_from_json(obj: dict) -> Measure:
    """Measure config: {"type":"alpha","alpha":0.0} ("alpha" defaults to 0)
    or {"type":"density","samples":[[sigma,h],...]}; any other key is refused."""
    try:
        kind = obj["type"]
    except (TypeError, KeyError) as e:
        raise InvalidInputError("measure JSON needs a 'type' field") from e
    if kind not in ("alpha", "density"):
        raise InvalidInputError(f"unknown measure type {kind!r}")
    extra = sorted(set(obj) - {"type", "alpha" if kind == "alpha" else "samples"})
    if extra:
        raise InvalidInputError(f"unknown keys {extra} in a measure JSON of type {kind!r}")
    try:
        if kind == "alpha":
            alpha = float(obj.get("alpha", 0.0))
        else:
            samples = np.asarray(obj["samples"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidInputError(f"malformed measure JSON: {e!r}") from e
    if kind == "alpha":
        return AlphaMeasure(alpha=alpha)
    return SampledDensityMeasure(samples=samples)


def measure_tag(mu: Measure) -> str:
    if isinstance(mu, AlphaMeasure):
        return f"alpha({mu.alpha:g})"
    if isinstance(mu, DensityMeasure):
        return "density"
    if isinstance(mu, SampledDensityMeasure):
        return "sampled-density"
    return "H2" if mu is None else type(mu).__name__
