"""Self-contained numerical kernels: special functions, root finding,
tensor-product quadrature, and reproducible random streams.

The incomplete-gamma implementation is deliberately dependency-free so the
whole numerical chain stays auditable; everything else leans on numpy for
nodes/weights and bit-generator plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Legendre rule with `order` points per axis."""

    order: int = 16

    def __post_init__(self) -> None:
        if self.order < 2:
            raise DomainError(f"quadrature order must be >= 2, got {self.order}")


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
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (index,))


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Series expansion for x < a + 1, continued fraction for the complement
    otherwise (the standard split).  Absolute accuracy is well below 1e-12
    for a <= 50.  Raises DomainError if the expansion has not converged
    within _MAX_ITER iterations (shapes far larger, e.g. a = 1e6 at x = a);
    a nan argument gives nan.
    """
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got a={a}")
    if x < 0.0:
        raise DomainError(f"argument must be non-negative, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise _no_convergence(a, x)
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_prefactor)


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a,x) via modified Lentz continued fraction, valid for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS or math.isnan(delta):  # nan x propagates
            break
    else:
        raise _no_convergence(a, x)
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    return math.exp(log_prefactor) * h


def regularized_lower_gamma_array(a: float, x, match_scalar: bool = False) -> np.ndarray:
    """Elementwise P(a, x) over an array of arguments, for one shape a.

    The same series / continued-fraction split, tolerance and iteration cap
    as `regularized_lower_gamma`; each element stops at the iteration where
    its own scalar evaluation would, so the two agree to rounding.  numpy's
    vectorized log and exp may round differently from the math module's;
    with match_scalar the prefactor uses the latter (one Python call per
    element), so every element equals the scalar form bit for bit.
    """
    return _by_branch(a, _gamma_args(a, x),
                      lambda xs, total: total * _prefactor(a, xs, match_scalar),
                      lambda xs, h: 1.0 - _prefactor(a, xs, match_scalar) * h)


def log_upper_gamma_array(a: float, x) -> np.ndarray:
    """Elementwise log Q(a, x), Q = 1 - P, over an array of arguments, for one shape a.

    Computed in log space, so it stays finite wherever Q is positive,
    however far Q is below the smallest float, and is -inf at x = inf.
    At a = 1 it is exactly -x; every other shape takes the series /
    continued-fraction split of `regularized_lower_gamma_array`, as
    log1p(-P) on the series branch and as the log of the prefactor plus
    the log of the fraction on the other.  A nan argument gives nan.
    """
    x = _gamma_args(a, x)
    if a == 1.0:
        return -x
    at_inf = np.isposinf(x)  # kept out of the fraction, where it gives inf - inf
    out = _by_branch(a, np.where(at_inf, 0.0, x),
                     lambda xs, total: np.log1p(-total * _prefactor(a, xs, False)),
                     lambda xs, h: _log_prefactor(a, xs) + np.log(h))
    out[at_inf] = -np.inf
    return out


def _by_branch(a: float, x: np.ndarray, on_series, on_fraction) -> np.ndarray:
    # the standard split: on_series(xs, sum) where 0 < x < a + 1, with the
    # series sum, and on_fraction(xs, h) elsewhere, with the continued
    # fraction h; x = 0 gives 0, which is both P and log Q there
    flat = x.ravel()
    out = np.zeros(flat.shape)
    series = (flat > 0.0) & (flat < a + 1.0)
    rest = ~series & (flat != 0.0)  # includes nan, which the fraction propagates
    if series.any():
        xs = flat[series]
        out[series] = on_series(xs, _lower_gamma_series_array(a, xs))
    if rest.any():
        xs = flat[rest]
        out[rest] = on_fraction(xs, _upper_gamma_cf_array(a, xs))
    return out.reshape(x.shape)


def libm_map(fn: Callable[[float], float], x) -> np.ndarray:
    """fn applied elementwise in Python: the math module's rounding, not numpy's."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _gamma_args(a: float, x) -> np.ndarray:
    # the incomplete gamma's arguments, checked: a > 0 and x >= 0
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got a={a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("argument must be non-negative")
    return x


def _prefactor(a: float, x: np.ndarray, match_scalar: bool) -> np.ndarray:
    # x^a e^-x / Gamma(a), as exp(a log x - x - lgamma(a))
    if match_scalar:
        return libm_map(math.exp, a * libm_map(math.log, x) - x - math.lgamma(a))
    return np.exp(_log_prefactor(a, x))


def _log_prefactor(a: float, x: np.ndarray) -> np.ndarray:
    return a * np.log(x) - x - math.lgamma(a)


def _lower_gamma_series_array(a: float, x: np.ndarray) -> np.ndarray:
    # The scalar series on every element at once: each element runs exactly
    # its scalar iterations and adds its terms in the same order, and
    # leaves the working arrays when it stops.
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    ids = np.arange(x.size)
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term = term * (x / ap)
        total = total + term
        done = np.abs(term) < np.abs(total) * _EPS
        if done.any():
            out[ids[done]] = total[done]
            keep = ~done
            ids, x, term, total = ids[keep], x[keep], term[keep], total[keep]
            if not ids.size:
                return out
    raise _no_convergence(a, x[0])


def _upper_gamma_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    # The scalar Lentz iteration on every element at once, in the same shape
    # as the series above.
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


def solve_increasing_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_doublings: int = 60,
) -> float:
    """Root of a continuous non-decreasing f with f(lo) <= 0 <= f(hi).

    Plain bisection: unconditionally safe even where f' is tiny.  If f(hi)
    is still negative the upper bound is doubled (at most `max_doublings`
    times) before giving up.  Returns the bracket midpoint once the bracket
    width is <= tol.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if hi <= lo:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo > 0.0:
        raise BracketError(f"f(lo)={flo} is positive; no root in bracket")
    if flo == 0.0:
        return lo
    fhi = f(hi)
    doublings = 0
    width = hi - lo
    while fhi < 0.0:
        if doublings >= max_doublings:
            raise BracketError(
                f"no sign change after {max_doublings} doublings (last hi={hi})"
            )
        lo, flo = hi, fhi
        width *= 2.0
        hi = lo + width
        doublings += 1
        fhi = f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        fmid = f(mid)
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_increasing_roots(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    lo: float,
    hi: float,
    tol: float,
) -> np.ndarray:
    """Roots of n non-decreasing functions, bisected together.

    f(x, ids) returns the values of functions ids[k] at x[k].  Every element
    takes the steps `solve_increasing_root` would take on its own function:
    the same start bracket, upper-bound doubling (at most 60 times, the
    scalar default), stop once its own bracket width is <= tol or its
    midpoint cannot split the bracket, and midpoint return.  Each element leaves the working arrays when it stops, so the
    roots equal the scalar solves.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if hi <= lo:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    roots = np.empty(n)
    ids = np.arange(n)
    flo = f(np.full(n, lo), ids)
    if np.any(flo > 0.0):
        k = int(np.argmax(flo > 0.0))
        raise BracketError(f"f(lo)={flo[k]} is positive for element {k}; no root in bracket")
    roots[flo == 0.0] = lo
    ids = ids[flo != 0.0]
    lows = np.full(ids.size, lo)
    highs = np.full(ids.size, hi)
    # every element still doubling has doubled as often as the others
    doubling = np.flatnonzero(f(highs, ids) < 0.0)
    doublings = 0
    width = hi - lo
    while doubling.size:
        if doublings >= 60:
            raise BracketError(
                f"no sign change after 60 doublings (last hi={highs[doubling[0]]})"
            )
        lows[doubling] = highs[doubling]
        width *= 2.0
        highs[doubling] = lows[doubling] + width
        doublings += 1
        doubling = doubling[f(highs[doubling], ids[doubling]) < 0.0]
    live = np.arange(ids.size)
    while True:
        l, h = lows[live], highs[live]
        mid = 0.5 * (l + h)
        keep = (h - l > tol) & (mid > l) & (mid < h)  # float exhaustion stops too
        live, mid = live[keep], mid[keep]
        if not live.size:
            break
        below = f(mid, ids[live]) < 0.0
        lows[live[below]] = mid[below]
        highs[live[~below]] = mid[~below]
    roots[ids] = 0.5 * (lows + highs)
    return roots


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights
