"""Reference implementations the tests judge the library against.

`capacity_pdf` is the capacity density one float at a time in linear
space, from the scalar incomplete gamma; it underflows to 0 in the far
tail.  `log_upper_gamma` and `capacity_log_pdf` are scipy's log-space
forms, finite past that underflow.  `outage_capacity` is scipy's root of
the outage equation in log space, and `solve_increasing_root` a plain
bisection.
"""

import math
from typing import Callable

import numpy as np
import scipy.optimize
import scipy.special

from relaytomo.channel import ChannelParams, HopPair
from relaytomo.errors import DomainError, RelayTomoError
from relaytomo.numerics import regularized_lower_gamma

LN4 = math.log(4.0)


def rho_scales(hops: HopPair, params: ChannelParams):
    """s_i = m / (SNR d_i^nu): hop i's gamma argument is s_i (4^I - 1)."""
    m, snr, nu = params.nakagami_m, params.snr, params.path_loss_exp
    return m / (snr * hops.d_sr**nu), m / (snr * hops.d_rd**nu)


def capacity_pdf(i: float, hops: HopPair, params: ChannelParams) -> float:
    """Density of the end-to-end instantaneous capacity (exact cdf derivative)."""
    if i < 0.0:
        raise DomainError(f"spectral efficiency must be non-negative, got {i}")
    x = math.expm1(i * LN4)
    s1, s2 = rho_scales(hops, params)
    m = params.nakagami_m
    rho1, rho2 = s1 * x, s2 * x
    q2 = 1.0 - regularized_lower_gamma(m, rho2) if rho2 > 0.0 else 1.0
    q1 = 1.0 - regularized_lower_gamma(m, rho1) if rho1 > 0.0 else 1.0
    t1 = s1 * _pow_exp(rho1, m) * q2
    t2 = s2 * _pow_exp(rho2, m) * q1
    return LN4 * (1.0 + x) * (t1 + t2) / math.gamma(m)


def _pow_exp(rho: float, m: float) -> float:
    # rho^(m-1) e^(-rho) with the right limits at rho = 0
    if rho == 0.0:
        if m > 1.0:
            return 0.0
        if m == 1.0:
            return 1.0
        return math.inf
    return math.exp((m - 1.0) * math.log(rho) - rho)


def log_upper_gamma(a: float, x) -> np.ndarray:
    """log Q(a, x) from scipy: log gammaincc, and where that is below 1e-300
    (x past about 680) the Tricomi form Gamma(a, x) = e^-x U(1 - a, 1 - a, x),
    whose hyperu factor grows like x^(a - 1) and does not underflow."""
    x = np.asarray(x, dtype=float)
    q = scipy.special.gammaincc(a, x)
    with np.errstate(all="ignore"):
        tail = -x - scipy.special.gammaln(a) + np.log(scipy.special.hyperu(1.0 - a, 1.0 - a, x))
        return np.where(q >= 1e-300, np.log(q), tail)


def capacity_log_pdf(i, hops: HopPair, params: ChannelParams) -> np.ndarray:
    """log of `capacity_pdf` in log space from scipy, broadcast over i and the hops."""
    i = np.asarray(i, dtype=float)
    x = np.expm1(i * LN4)
    s1, s2 = rho_scales(hops, params)
    m = params.nakagami_m
    rho1, rho2 = np.broadcast_arrays(s1 * x, s2 * x)
    log_g1 = np.log(s1) + scipy.special.xlogy(m - 1.0, rho1) - rho1
    log_g2 = np.log(s2) + scipy.special.xlogy(m - 1.0, rho2) - rho2
    return (math.log(LN4) - scipy.special.gammaln(m) + i * LN4
            + np.logaddexp(log_g1 + log_upper_gamma(m, rho2), log_g2 + log_upper_gamma(m, rho1)))


def log_q_small_p(a: float, x: float) -> float:
    """`log_upper_gamma` at one argument, but log1p(-P) where P < 0.5:
    log(gammaincc) loses the digits of a Q near 1 there."""
    p = scipy.special.gammainc(a, x)
    return math.log1p(-p) if p < 0.5 else float(log_upper_gamma(a, x))


def outage_capacity(d_sr: float, d_rd: float, params: ChannelParams) -> float:
    """scipy's outage capacity of one path: brentq on u = log(4^I - 1) of
    log(-log Q(m, rho_1) - log Q(m, rho_2)) = log(-log(1 - p))."""
    m = params.nakagami_m
    log_s = [math.log(m / (params.snr * d**params.path_loss_exp)) for d in (d_sr, d_rd)]
    target = math.log(-math.log1p(-params.outage_prob))

    def h(u: float) -> float:
        hazard = -sum(log_q_small_p(m, math.exp(ls + u)) for ls in log_s)
        return math.log(hazard) - target if hazard > 0.0 else -math.inf

    # bracketed from rho = m on the hop with the larger s: downward in
    # doubling steps, upward in steps of 1/4, short of the rho where
    # scipy's far-tail form overflows
    lo = hi = math.log(m) - max(log_s)
    width = 0.25
    while h(lo) > 0.0:
        lo, width = lo - width, 2.0 * width
    while h(hi) < 0.0:
        hi += 0.25
    u = scipy.optimize.brentq(h, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                              maxiter=500)
    return math.log1p(math.exp(u)) / LN4


class BracketError(RelayTomoError, RuntimeError):
    """A root bracket could not be established or maintained."""


def solve_increasing_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_doublings: int = 60,
) -> float:
    """Root of a continuous non-decreasing f with f(lo) <= 0 <= f(hi).

    Plain bisection.  If f(hi) is still negative the upper bound is doubled
    (at most `max_doublings` times) before giving up.  Returns the bracket
    midpoint once the bracket width is <= tol.
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
