"""Self-contained numerical kernels: special functions, tensor-product
quadrature, and reproducible random streams.

The incomplete-gamma implementation is deliberately dependency-free so the
whole numerical chain stays auditable; everything else leans on numpy for
nodes/weights and bit-generator plumbing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500
# points per axis; a rule keeps a 24 B (omega, psi, weight) row per node,
# order^2 per interval (98 KB at 64), from an order^2 x 8 B companion matrix
MAX_QUAD_ORDER = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule with `order` points per axis."""

    order: int = 16

    def __post_init__(self) -> None:
        if not 2 <= self.order <= MAX_QUAD_ORDER:
            raise DomainError(f"quadrature order must be in [2, {MAX_QUAD_ORDER}], "
                              f"got {self.order}")


@dataclass(frozen=True)
class RngStream:
    """Seeded, splittable random stream.

    Identical (seed, path) always reproduces the same draw sequence.  Each
    logical sampling task should own its stream: derive one with `child`,
    which never collides with siblings (SeedSequence spawn-key semantics).
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        """The stream of `SeedSequence(seed, spawn_key=path)`, built from the
        words that constructor assembles into its pool: the seed's, padded
        with zeros to the pool size of 4 where a path follows, then each path
        element's.  numpy hashes them into the same pool, at a third of the
        cost.  A negative seed or path element raises ValueError."""
        words = _uint32_words(self.seed)
        if self.path:
            words += [0] * (4 - len(words))
            for value in self.path:
                words += _uint32_words(value)
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        return np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (index,))


def _uint32_words(value) -> list[int]:
    """A non-negative integer's little-endian 32-bit words, [0] for 0, as
    `SeedSequence` splits it; ValueError for a negative one, as it raises."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def log_upper_gamma(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """log Q(a, x), Q = 1 - P the regularized upper incomplete gamma, and
    its slope -d log Q / d log x = x^a e^-x / (Gamma(a) Q), elementwise
    over an array of arguments x >= 0 of any shape, for one shape a > 0.

    At a = 1 both are exact: log Q = -x and the slope is x.  Every other
    shape takes the standard split: the series of P where 0 < x < a + 1,
    with log Q = log1p(-P), and the continued fraction h of Q elsewhere,
    with log Q the log of the prefactor x^a e^-x / Gamma(a) plus log h and
    the slope 1 / h, so neither cancels nor underflows however large x is.
    x = 0 gives (0, 0), x = inf gives (-inf, inf) and nan gives nan.
    Raises DomainError for a <= 0 or x < 0, and if an element has not
    converged within _MAX_ITER iterations (shapes far larger than 1000,
    e.g. a = 1e6 at x = a).
    """
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got a={a}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # the outage solve calls this on every step with a few elements, where
    # np.count_nonzero costs a fraction of np.any
    if np.count_nonzero(flat < 0.0):
        raise DomainError("argument must be non-negative")
    if a == 1.0:
        return -x, x
    # most calls lie on the series branch and skip the masks below
    n = np.count_nonzero(flat < a + 1.0)  # not nan or inf
    if flat.size and n == flat.size == np.count_nonzero(flat):
        return _shaped(x, _log_q_series(a, flat))
    series = (flat > 0.0) & (flat < a + 1.0)
    at_inf = flat == np.inf
    fraction = ~(series | at_inf | (flat == 0.0))  # includes nan, which the fraction propagates
    log_q, slope = np.zeros(flat.shape), np.zeros(flat.shape)
    for branch, on in ((_log_q_series, series), (_log_q_fraction, fraction)):
        if on.any():
            log_q[on], slope[on] = branch(a, flat[on])
    log_q[at_inf], slope[at_inf] = -np.inf, np.inf
    return _shaped(x, (log_q, slope))


def regularized_lower_gamma(a: float, x):
    """P(a, x) = 1 - Q(a, x) as -expm1(log Q) from `log_upper_gamma`,
    elementwise; a float for a scalar x."""
    p = 0.0 - np.expm1(log_upper_gamma(a, x)[0])  # +0, not -0, at x = 0
    return float(p) if p.ndim == 0 else p


def _shaped(x: np.ndarray, pair: tuple[np.ndarray, np.ndarray]):
    return pair[0].reshape(x.shape), pair[1].reshape(x.shape)


def _log_q_series(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_pre = _log_prefactor(a, x)
    log_q = np.log1p(-_lower_gamma_series_array(a, x) * np.exp(log_pre))
    return log_q, np.exp(log_pre - log_q)


def _log_q_fraction(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = _upper_gamma_cf_array(a, x)
    return _log_prefactor(a, x) + np.log(h), 1.0 / h


def _log_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    # log of x^a e^-x / Gamma(a)
    return a * np.log(x) - x - math.lgamma(a)


def _lower_gamma_series_array(a: float, x: np.ndarray) -> np.ndarray:
    # P(a, x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n)): the
    # sum, on every element at once.  Each element leaves the working
    # arrays when its term falls below _EPS of its sum; the stop rule is
    # tested on every 4th term only, which saves passes over the arrays,
    # and the terms are positive, so it needs no abs.
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    ids = np.arange(x.size)
    ap = a
    for n in range(1, _MAX_ITER + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if n % 4:
            continue
        done = term < total * _EPS
        if np.count_nonzero(done):
            out[ids[done]] = total[done]
            keep = ~done
            ids, x, term, total = ids[keep], x[keep], term[keep], total[keep]
            if not ids.size:
                return out
    raise _no_convergence(a, x[0])


def _upper_gamma_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    # Q(a, x) over its prefactor, by the modified Lentz continued fraction,
    # on every element at once, in the same shape as the series above.
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(x.shape)
    ids = np.arange(x.size)
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = b + an / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = (np.abs(delta - 1.0) < _EPS) | np.isnan(delta)
        if done.any():
            out[ids[done]] = h[done]
            keep = ~done
            ids, b, c, d, h = ids[keep], b[keep], c[keep], d[keep], h[keep]
            if not ids.size:
                return out
    raise _no_convergence(a, x[ids[0]])


def _no_convergence(a: float, x: float) -> DomainError:
    return DomainError(f"incomplete gamma P(a={a}, x={x}) did not converge "
                       f"within {_MAX_ITER} iterations")


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights
