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
    libm_map,
    log_upper_gamma_array,
    regularized_lower_gamma,
    regularized_lower_gamma_array,
    solve_increasing_root,
    solve_increasing_roots,
)

_LN4 = math.log(4.0)
# numpy's vectorized exp, log and expm1 may round differently from the math
# module's.  The outage cdf moves by far less than this (measured: below
# 3e-13 for Nakagami shapes up to 1000), so a numpy cdf farther than this
# from the outage target has the scalar cdf's sign.
_SIGN_MARGIN = 1e-9
# paths per call from which one array bisection replaces scalar solves: on
# 8-90 m hops at 30 dB it costs 10-22 ms for 30-60 paths, a scalar solve
# 0.2-0.36 ms (break-even near 50 paths at m = 1, near 70 at m = 2.5)
_ARRAY_SOLVE_MIN = 40


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


def outage_capacity(hops: HopPair, params: ChannelParams, tol: float = 1e-12) -> float:
    """The unique I >= 0 with outage_cdf(I) == outage_prob.

    Monotone bisection with automatic upper-bound doubling; safe even where
    the cdf derivative is tiny near zero.
    """
    target = params.outage_prob

    def shifted(i: float) -> float:
        return outage_cdf(i, hops, params) - target

    return solve_increasing_root(shifted, 0.0, 1.0, tol)


def _outage_cdf_array(
    i: np.ndarray, s1: np.ndarray, s2: np.ndarray, m: float, match_scalar: bool
) -> np.ndarray:
    # outage_cdf at rate i[k] of the path with rho scales (s1[k], s2[k]);
    # match_scalar takes the math module's rounding for exp, log and expm1
    x = libm_map(math.expm1, i * _LN4) if match_scalar else np.expm1(i * _LN4)
    p1, p2 = regularized_lower_gamma_array(m, np.stack((s1 * x, s2 * x)), match_scalar)
    return 1.0 - (1.0 - p1) * (1.0 - p2)


def outage_capacity_array(hops: HopPair, params: ChannelParams) -> np.ndarray:
    """`outage_capacity` of every path of `hops`, bit for bit.

    The one entry point for batches of any size; it broadcasts over the hop
    lengths.  Fewer than _ARRAY_SOLVE_MIN paths are solved one by one with
    `outage_capacity`.  More are bisected together: each element takes the
    scalar solve's steps, and each step's sign of cdf - target is the
    scalar cdf's, because numpy decides the points whose cdf lies farther
    than _SIGN_MARGIN from the target and the nearer ones are evaluated
    again with the math module's rounding.
    """
    paths = np.broadcast(hops.d_sr, hops.d_rd)
    if paths.size < _ARRAY_SOLVE_MIN:
        roots = [outage_capacity(HopPair(float(a), float(b)), params) for a, b in paths]
        return np.array(roots, dtype=float).reshape(paths.shape)
    m, snr, nu = params.nakagami_m, params.snr, params.path_loss_exp
    d_sr, d_rd = np.broadcast_arrays(hops.d_sr, hops.d_rd)
    s1 = (m / (snr * libm_map(lambda d: d**nu, d_sr))).ravel()
    s2 = (m / (snr * libm_map(lambda d: d**nu, d_rd))).ravel()
    target = params.outage_prob

    def shifted(i: np.ndarray, ids: np.ndarray) -> np.ndarray:
        f = _outage_cdf_array(i, s1[ids], s2[ids], m, False) - target
        near = np.abs(f) <= _SIGN_MARGIN
        if near.any():
            k = ids[near]
            f[near] = _outage_cdf_array(i[near], s1[k], s2[k], m, True) - target
        return f

    return solve_increasing_roots(shifted, s1.size, 0.0, 1.0, 1e-12).reshape(d_sr.shape)


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
) -> tuple[float, float | None, float]:
    """The outage solve on two 100 m hops, with its two oracles.

    Returns the solved capacity, the m = 1 closed form (None for any other
    shape) and the outage_prob-quantile of n Monte Carlo capacity draws.
    """
    hops = HopPair(100.0, 100.0)
    solved = float(outage_capacity_array(hops, params))
    closed = None
    if params.nakagami_m == 1.0:
        # P(I) = 1 - exp(-(4^I - 1)(s1 + s2)) inverts in closed form
        s1, s2 = _rho_scales(hops, params)
        closed = 0.5 * math.log2(1.0 - math.log1p(-params.outage_prob) / (s1 + s2))
    caps = sample_instant_capacity(hops, params, rng, size=n)
    return solved, closed, float(np.quantile(caps, params.outage_prob))
