"""Two-hop decode-and-forward outage statistics under Nakagami-m fading.

Model
-----
Each hop's power gain is gamma distributed, |h|^2 ~ G(m, d^nu / m), where d
is the hop length and nu the (signed) path-loss exponent, so E|h|^2 = d^nu.
A hop carries instantaneous spectral efficiency (1/2) log2(1 + SNR |h|^2)
(half-duplex relaying), and the end-to-end capacity of the relay path is the
minimum over the two hops.  Its cdf in closed form is

    P(I) = 1 - [1 - P(m, rho_sr)] [1 - P(m, rho_rd)],
    rho  = m (4^I - 1) / (SNR d^nu),

with P(a, x) the regularized lower incomplete gamma function.  The outage
capacity is the I at which this cdf equals the target outage probability;
`capacity_log_pdf` is the log of the cdf's derivative, the density the
sequential test weighs observations with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (
    RngStream,
    log_upper_gamma_and_slope,
    log_upper_gamma_array,
    regularized_lower_gamma,
)

_LN4 = math.log(4.0)
# steps of the outage solve before it gives up; a path takes 1 to 8 for
# shapes from 0.1 to 1000
_MAX_STEPS = 100
# the largest log rho_k an iterate of the outage solve takes: e^700 is a
# float, and -log Q there is far past -log(1 - p) for any p below 1
_LOG_RHO_MAX = 700.0


@dataclass(frozen=True)
class ChannelParams:
    """Link budget: linear SNR, Nakagami shape, path-loss exponent, outage target."""

    snr: float
    nakagami_m: float
    path_loss_exp: float
    outage_prob: float

    def __post_init__(self) -> None:
        if not 0.0 < self.snr < math.inf:
            raise DomainError(f"snr must be positive and finite, got {self.snr}")
        if not 0.0 < self.nakagami_m < math.inf:
            raise DomainError(f"nakagami shape must be positive and finite, got {self.nakagami_m}")
        if not math.isfinite(self.path_loss_exp):
            raise DomainError("path loss exponent must be finite")
        if not (0.0 < self.outage_prob < 1.0):
            raise DomainError(f"outage probability must be in (0,1), got {self.outage_prob}")

    @classmethod
    def from_db(
        cls,
        snr_db: float,
        nakagami_m: float,
        path_loss_exp: float,
        outage_prob: float,
    ) -> "ChannelParams":
        """Build from an SNR quoted in dB (the only dB conversion point)."""
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise DomainError(f"snr of {snr_db} dB overflows a float") from None
        return cls(snr, nakagami_m, path_loss_exp, outage_prob)


@dataclass(frozen=True)
class HopPair:
    """Hop lengths of one relay path: transmitter->relay and relay->receiver.

    The lengths may also be arrays, one entry per path, for the functions
    that broadcast (`outage_capacity_array`, `capacity_log_pdf`).
    """

    d_sr: float | np.ndarray
    d_rd: float | np.ndarray

    def __post_init__(self) -> None:
        if type(self.d_sr) is float and type(self.d_rd) is float:
            bad = self.d_sr <= 0.0 or self.d_rd <= 0.0
        else:
            bad = bool((np.asarray(self.d_sr) <= 0.0).any()
                       or (np.asarray(self.d_rd) <= 0.0).any())
        if bad:
            raise DomainError(f"hop distances must be positive, got ({self.d_sr}, {self.d_rd})")


def _rho_scales(hops: HopPair, params: ChannelParams) -> tuple[float, float]:
    # rho_i = scale_i * (4^I - 1); scale_i = m / (SNR d_i^nu)
    m, snr, nu = params.nakagami_m, params.snr, params.path_loss_exp
    return m / (snr * hops.d_sr**nu), m / (snr * hops.d_rd**nu)


def outage_cdf(i: float, hops: HopPair, params: ChannelParams) -> float:
    """Probability that the end-to-end instantaneous capacity falls below i."""
    if i < 0.0:
        raise DomainError(f"spectral efficiency must be non-negative, got {i}")
    if i == 0.0:
        return 0.0
    x = math.expm1(i * _LN4)  # 4^i - 1, accurate for tiny i
    s1, s2 = _rho_scales(hops, params)
    m = params.nakagami_m
    q1 = 1.0 - regularized_lower_gamma(m, s1 * x)
    q2 = 1.0 - regularized_lower_gamma(m, s2 * x)
    return 1.0 - q1 * q2


def outage_capacity(hops: HopPair, params: ChannelParams) -> float:
    """The unique I >= 0 with outage_cdf(I) == outage_prob: the one path of
    `hops` through `outage_capacity_array`."""
    return float(outage_capacity_array(hops, params))


def outage_capacity_array(hops: HopPair, params: ChannelParams) -> np.ndarray:
    """The outage capacity of every path of `hops`, broadcast over its hop lengths.

    One bracketed Newton iteration serves every batch size, and each path's
    result depends on its own hops alone.  With u = log(4^I - 1) and
    rho_k = s_k e^u, it solves the increasing equation

        h(u) = log(-log Q(m, rho_1) - log Q(m, rho_2)) - log(-log(1 - p)) = 0

    from the root of -log Q's small-rho expansion, which is exact at m = 1.
    A path stops after the Newton step that moves u by at most 1e-6, which,
    as convergence is quadratic, lands about 1e-13 from the root; a step
    that leaves the path's bracket of signs of h becomes a bisection step,
    of 2 while one end is open.
    Returns I = log1p(e^u) / ln 4; raises DomainError if a path has not
    converged within _MAX_STEPS steps.
    """
    d = np.array(np.broadcast_arrays(hops.d_sr, hops.d_rd), dtype=float)
    m = params.nakagami_m
    log_s = (math.log(m) - math.log(params.snr)) - params.path_loss_exp * np.log(d.reshape(2, -1))
    if not np.isfinite(log_s).all():
        raise DomainError("hop lengths must be finite")
    target = math.log(-math.log1p(-params.outage_prob))
    # -log Q(m, rho) = rho^m (1 - m rho / (m + 1) + ...) / Gamma(m + 1): the
    # first term gives u in closed form, and the second corrects it by
    # rho / (m + 1) averaged with weights s_k^m (capped at 1: it holds for
    # small rho only)
    log_sum = np.logaddexp(*(m * log_s))
    u = (math.lgamma(m + 1.0) + target - log_sum) / m
    if m != 1.0:
        log_mean_s = np.logaddexp(*((m + 1.0) * log_s)) - log_sum
        u += np.exp(np.minimum(u + (log_mean_s - math.log(m + 1.0)), 0.0))
    u_max = _LOG_RHO_MAX - np.maximum(*log_s)
    u = np.minimum(u, u_max)
    lo, hi = np.full(u.shape, -np.inf), np.full(u.shape, np.inf)
    out = np.empty(u.shape)
    ids = np.arange(u.size)
    if not ids.size:
        return out.reshape(d.shape[1:])
    # far below the root the hazard sum underflows to 0: there h = -inf and
    # its slope is nan, which the bracket turns into a bisection step
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            log_q, slope = log_upper_gamma_and_slope(m, np.exp(log_s + u).ravel())
            n = ids.size
            hazard = -(log_q[:n] + log_q[n:])
            h = np.log(hazard) - target
            step = u - h * hazard / (slope[:n] + slope[n:])
            lo = np.where(h < 0.0, u, lo)
            hi = np.where(h > 0.0, u, hi)
            newton = (step >= lo) & (step <= hi)
            if np.count_nonzero(newton) < n:
                bad = ~newton
                l, r = lo[bad], hi[bad]
                step[bad] = np.where(r == np.inf, l + 2.0,
                                     np.where(l == -np.inf, r - 2.0, 0.5 * (l + r)))
            done = newton & (np.abs(step - u) <= 1e-6)
            finished = np.count_nonzero(done)
            if finished:
                out[ids[done]] = step[done]
                if finished == n:
                    return np.logaddexp(0.0, out).reshape(d.shape[1:]) / _LN4
                keep = ~done
                ids, step, lo, hi = ids[keep], step[keep], lo[keep], hi[keep]
                u_max, log_s = u_max[keep], log_s[:, keep]
            u = np.minimum(step, u_max)
    raise DomainError(f"outage capacity did not converge within {_MAX_STEPS} steps "
                      f"(hops {d[0].ravel()[ids[0]]}, {d[1].ravel()[ids[0]]})")


def capacity_log_pdf(i, hops: HopPair, params: ChannelParams):
    """Log density of the end-to-end instantaneous capacity (the cdf's derivative).

    With rho_k = s_k (4^I - 1) and Q = 1 - P, the density is

        ln4 4^I Q(m, rho1) Q(m, rho2) (s1 u(rho1) + s2 u(rho2)),

    s_k u(rho_k) being hop k's hazard rate: u = g / Q(m, .), g the
    unit-scale gamma density rho^(m-1) e^-rho / Gamma(m).  u tends to 1 in
    the tail and is exactly 1 for m = 1.  The log Q terms come from
    `log_upper_gamma_array`, so the log density is -inf only where the
    density is exactly 0 (at i = 0 for m > 1) or 4^I overflows (past
    i ~ 512), never because a hop's Q is below the smallest float.
    Broadcasts over the capacities i and the hop lengths of `hops`, and
    returns a float when every input is a scalar.
    """
    i = np.asarray(i, dtype=float)
    if np.any(i < 0.0):
        raise DomainError("spectral efficiency must be non-negative")
    log_4i = i * _LN4
    s1, s2 = _rho_scales(hops, params)
    m = params.nakagami_m
    # rho = 0 at i = 0, and rho = inf past i ~ 512, where 4^I overflows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.expm1(log_4i)
        rho1, rho2 = s1 * x, s2 * x
        log_q1, log_q2 = log_upper_gamma_array(m, rho1), log_upper_gamma_array(m, rho2)
        if m == 1.0:
            rate = s1 + s2
        else:
            u1, u2 = (np.where(np.isposinf(rho), 1.0,  # u's limit, not inf - inf
                               np.exp((m - 1.0) * np.log(rho) - rho - math.lgamma(m) - log_q))
                      for rho, log_q in ((rho1, log_q1), (rho2, log_q2)))
            rate = s1 * u1 + s2 * u2
        out = math.log(_LN4) + np.log(rate) + log_4i + log_q1 + log_q2
    return float(out) if out.ndim == 0 else out


def sample_instant_capacity(
    hops: HopPair,
    params: ChannelParams,
    rng: RngStream | np.random.Generator,
    size: int | None = None,
):
    """Monte Carlo draws of the end-to-end instantaneous capacity.

    Draws the two hop power gains independently from G(m, d^nu / m) and
    returns min over hops of (1/2) log2(1 + SNR |h|^2).  The analytic cdf of
    this quantity is exactly `outage_cdf`, which the test suite verifies
    distributionally.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    m, snr, nu = params.nakagami_m, params.snr, params.path_loss_exp
    n = 1 if size is None else size
    g1 = gen.gamma(m, hops.d_sr**nu / m, size=n)
    g2 = gen.gamma(m, hops.d_rd**nu / m, size=n)
    caps = 0.5 * np.minimum(np.log2(1.0 + snr * g1), np.log2(1.0 + snr * g2))
    if size is None:
        return float(caps[0])
    return caps


def outage_solver_check(
    params: ChannelParams, rng: RngStream, n: int
) -> tuple[float, float | None, float, int]:
    """The outage solve on two 100 m hops, with its two oracles.

    Returns the solved capacity, the m = 1 closed form (None for any other
    shape), and the outage_prob-quantile of n Monte Carlo capacity draws
    and how many of them fall below the solved capacity.
    """
    hops = HopPair(100.0, 100.0)
    solved = outage_capacity(hops, params)
    closed = None
    if params.nakagami_m == 1.0:
        # P(I) = 1 - exp(-(4^I - 1)(s1 + s2)) inverts in closed form; log1p
        # keeps the digits that forming 1 + (a tiny ratio) would lose
        s1, s2 = _rho_scales(hops, params)
        closed = 0.5 * math.log1p(-math.log1p(-params.outage_prob) / (s1 + s2)) / math.log(2.0)
    caps = sample_instant_capacity(hops, params, rng, size=n)
    return (solved, closed, float(np.quantile(caps, params.outage_prob)),
            int(np.count_nonzero(caps < solved)))
