"""Reference implementations the tests judge the library against.

`capacity_pdf` is the capacity density one float at a time in linear
space, from the scalar incomplete gamma; it underflows to 0 in the far
tail.  `log_upper_gamma` and `capacity_log_pdf` are scipy's log-space
forms, finite past that underflow.
"""

import math

import numpy as np
import scipy.special

from relaytomo.channel import ChannelParams, HopPair
from relaytomo.errors import DomainError
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
