"""Reference implementations the tests judge the library against.

`capacity_pdf` is the capacity density one float at a time in linear
space, from scipy's incomplete gamma; it underflows to 0 in the far
tail.  `log_upper_gamma` and `capacity_log_pdf` are scipy's log-space
forms, finite past that underflow.  `gathered_hop_evidence` is the
sequential test's m = 1 evidence formed from each candidate's gathered hop
lengths, the bitwise reference for the solver's channel-table reads.
`outage_capacity` is scipy's root of
the outage equation in log space, and `solve_increasing_root` a plain
bisection.  `simulate_measurements` is the probing protocol one path at a
time, its gains drawn by `Generator.gamma`, with `quantize_angle` and
`quantile_estimate` its scalar quantizer and outage estimate.  `cell_centers` is the square-cell discretization
one cell at a time.  `footprint_scan` is the solver's angle step as a
scan of every cell and every point of its footprint lattice.
`sequential_tests` is the solver's sequential test one relay at a time in
array form, with `first_stop` its stopping rule: the bitwise reference for
the set-level pass.
`integrate_angle_cell` is the spectrum's cell quadrature one cell at a
time, with `chord_kinks` its kink solve for that cell.
`sampled_angle_counts` is the selftest's angle histogram with every relay
mapped the exact way, block by block, and `uniform_histogram2d` its
binning: the bitwise reference for the cheap pass.
"""

import math
from typing import Callable

import numpy as np
import scipy.optimize
import scipy.special

from relaytomo.channel import ChannelParams, HopPair
from relaytomo.errors import DomainError, MeasurementError, RelayTomoError
from relaytomo import ias
from relaytomo.geometry import (
    Point,
    _interior_angles,
    _unit,
    angles_from_points,
    angular_span,
    dist,
    signed_angle,
)
from relaytomo.ias import (
    _MIN_INTERVAL,
    _TANGENCY_SPLITS,
    _angle_jacobian,
    _aoa_chord,
    _ray_disc,
    _region_axes,
    _uniform_bins,
)
from relaytomo.measurement import MeasurementSet, angle_bins
from relaytomo.numerics import gauss_legendre
from relaytomo.tomography import KIND_FORCED_MAP, KIND_THRESHOLD

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
    q1 = 1.0 - scipy.special.gammainc(m, rho1)
    q2 = 1.0 - scipy.special.gammainc(m, rho2)
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


def gathered_hop_evidence(fp, cells, raw, params: ChannelParams) -> np.ndarray:
    """The m = 1 evidence of a padded (relays, candidates) table of cells,
    summed over unordered pairs: (relays, candidates, observations).

    Each candidate's rate s1 + s2 comes from its hop lengths, gathered from
    fp per lane, and the sum is sum_p log(ln4 rate) + ln4 sum_p I - rate @ X
    with X = 4^I - 1, in the solver's order of operations.
    """
    d_sr, d_rd = fp.hop_lengths(cells)
    log_4i = raw * LN4
    with np.errstate(over="ignore"):
        x = np.expm1(log_4i)
    rate = np.add(*rho_scales(HopPair(d_sr, d_rd), params))
    per_cell = np.add.reduce(np.log(LN4 * rate), axis=2)
    return per_cell[..., None] + np.add.reduce(log_4i, axis=1)[:, None] - rate @ x


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


def quantize_angle(theta: float, d_theta: float) -> tuple[int, float]:
    """Nearest grid index and angle; ties round half away from zero."""
    if not d_theta > 0.0:
        raise DomainError(f"resolution must be positive, got {d_theta}")
    ratio = theta / d_theta
    index = math.floor(ratio + 0.5) if ratio >= 0.0 else math.ceil(ratio - 0.5)
    return index, index * d_theta


def quantile_estimate(samples, p_out: float) -> float:
    """Order statistic at ceil(p_out * n) of one window, clamped to 1..n."""
    n = len(samples)
    if n == 0:
        raise MeasurementError("cannot estimate a quantile from zero samples")
    ordered = np.sort(np.asarray(samples, dtype=float))
    return float(ordered[min(max(math.ceil(p_out * n) - 1, 0), n - 1)])


def node_angle(net, q: int, p) -> float:
    """Signed angle of p from node q's ray toward the region center."""
    node = net.nodes[q]
    ref = _unit(net.region.center.x - node.x, net.region.center.y - node.y)
    return signed_angle(*ref, p.x - node.x, p.y - node.y)


def simulate_measurements(net, relays, params: ChannelParams, observations: int, rng):
    """The probing protocol path by path: for each unordered pair (lo, hi)
    and relay, the quantized angle at each end, one stream of draws shared
    by both orderings, and the outage estimate of the window.  Each path's
    gains are two `gen.gamma` calls, not the library's draw kernel."""
    pairs = net.ordered_pairs()
    n_pairs, n_relays = len(pairs), len(relays)
    m, nu = params.nakagami_m, params.path_loss_exp
    aoa = np.zeros((n_pairs, n_relays))
    cap_est = np.zeros((n_pairs, n_relays))
    raw = np.zeros((n_pairs, n_relays, observations))
    for lo in range(net.n_nodes):
        for hi in range(lo + 1, net.n_nodes):
            fwd, rev = pairs.index((lo, hi)), pairs.index((hi, lo))
            for l, relay in enumerate(relays):
                _, aoa[fwd, l] = quantize_angle(node_angle(net, hi, relay), net.resolution)
                _, aoa[rev, l] = quantize_angle(node_angle(net, lo, relay), net.resolution)
                hops = HopPair(dist(net.nodes[lo], relay), dist(relay, net.nodes[hi]))
                gen = rng.child(lo * net.n_nodes + hi).child(l).generator()
                g1 = gen.gamma(m, hops.d_sr**nu / m, size=observations)
                g2 = gen.gamma(m, hops.d_rd**nu / m, size=observations)
                raw[fwd, l] = raw[rev, l] = 0.5 * np.log2(
                    1.0 + params.snr * np.minimum(g1, g2))
                cap_est[fwd, l] = cap_est[rev, l] = quantile_estimate(
                    raw[fwd, l], params.outage_prob)
    return MeasurementSet(tuple(pairs), aoa, cap_est, raw)


def cell_centers(region, cell_side: float) -> np.ndarray:
    """Centers of the square cells tiling the region's bounding box whose
    center lies in the disc, row by row, as a (cells, 2) array."""
    x0, x1, y0, y1 = region.bounding_box()
    nx = max(1, math.ceil((x1 - x0) / cell_side))
    ny = max(1, math.ceil((y1 - y0) / cell_side))
    centers = []
    for iy in range(ny):
        cy = y0 + (iy + 0.5) * cell_side
        for ix in range(nx):
            cx = x0 + (ix + 0.5) * cell_side
            if dist(Point(cx, cy), region.center) <= region.radius:
                centers.append((cx, cy))
    return np.array(centers).reshape(-1, 2)


def footprint_lattice(net, grid, n: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's n x n lattice of its square (its center, at offset exactly
    0, in the middle): each point's bin at each node, (cells, n * n, nodes),
    and whether it lies in the region disc, (cells, n * n)."""
    x, y = grid.xy.T
    offsets = ((np.arange(n) + 0.5) / n - 0.5) * grid.cell_side
    ox, oy = np.meshgrid(offsets, offsets)
    px, py = x[:, None] + ox.ravel(), y[:, None] + oy.ravel()
    c, radius = net.region.center, net.region.radius
    inside = np.hypot(px - c.x, py - c.y) <= radius
    return angle_bins(net.angles(px, py), net.resolution), inside


def footprint_scan(net, grid, n: int = 9):
    """The angle step as a scan over every cell, for one (network, grid).

    Each cell is sub-sampled on its lattice (`footprint_lattice`), and
    every point and every center is binned at each node.  Returns
    scan(measured), for one measured bin per node in node order: the cells
    some of whose points lie in the region disc and fall in every measured
    bin, each one's share of the n * n points, and the cells whose center
    falls in every measured bin.
    """
    points, inside = footprint_lattice(net, grid, n)
    centers = angle_bins(net.angles(*grid.xy.T), net.resolution)  # (cells, nodes)

    def scan(measured):
        share = (inside & (points == measured).all(axis=2)).sum(axis=1) / n**2
        cells = np.flatnonzero(share)
        center_rule = np.flatnonzero((centers == measured).all(axis=1))
        return cells.tolist(), share[cells], center_rule.tolist()

    return scan


def sequential_tests(candidates, weights, evidence, threshold: float) -> list[tuple]:
    """Each relay's sequential-test decision: (cell, kind, stopped_at, degenerate).

    candidates[j] are relay j's cells, weights[j] their prior weights
    (None: uniform) and evidence[j] their log_pdf, (candidates,
    observations).  A single candidate wins at once.  Else log likelihoods
    start at the log prior and add each observation's evidence until the
    leader (the first maximum) beats the runner-up by more than
    `threshold` (`first_stop`), or the MAP hypothesis after the last
    observation wins; an observation impossible under every hypothesis
    picks the first, flagged degenerate.
    """
    decisions = []
    for cells, w, log_pdf in zip(candidates, weights, evidence):
        if len(cells) == 1:
            decisions.append((int(cells[0]), KIND_THRESHOLD, 0, False))
            continue
        k, n_obs = log_pdf.shape
        log_prior = np.full(k, -math.log(k)) if w is None else np.log(w / w.sum())
        # column o: log likelihoods after o observations, summed in arrival order
        cum = np.cumsum(np.concatenate((log_prior[:, None], log_pdf), axis=1), axis=1)
        log_lik = cum[:, 1:]
        impossible = ~np.isfinite(log_lik).any(axis=0)
        first_impossible = int(impossible.argmax()) if impossible.any() else n_obs
        stop = first_stop(log_lik[:, :first_impossible], threshold)
        if stop is not None:
            o, best = stop
            decisions.append((int(cells[best]), KIND_THRESHOLD, o + 1, False))
        elif first_impossible < n_obs:
            decisions.append((int(cells[0]), KIND_FORCED_MAP, first_impossible + 1, True))
        else:
            best = int(np.argmax(cum[:, -1]))
            decisions.append((int(cells[best]), KIND_FORCED_MAP, n_obs, False))
    return decisions


def first_stop(log_lik: np.ndarray, threshold: float) -> tuple[int, int] | None:
    """First observation at which the leader beats the runner-up by > threshold.

    log_lik is (hypotheses, observations), at least two hypotheses; the
    leader of a column is its first maximum.  Returns the observation's
    index and its leader's position, or None.
    """
    n_obs = log_lik.shape[1]
    columns = np.arange(n_obs)
    leader = log_lik.argmax(axis=0)
    rivals = log_lik.copy()
    rivals[leader, columns] = -np.inf
    passing = log_lik[leader, columns] - rivals.max(axis=0) > threshold
    if not passing.any():
        return None
    o = int(passing.argmax())
    return o, int(leader[o])


def chord_kinks(region, baseline, w_lo: float, w_hi: float, p_lo: float, p_hi: float):
    """Sorted departure angles in (w_lo, w_hi) where one cell's clipped chord
    kinks: where each arrival edge's ray crosses the circle."""
    s, d = baseline.source, baseline.destination
    ux, uy, nx, ny = _region_axes(region, baseline)
    edges = np.array([p_lo, p_hi])
    c, sn = np.cos(edges), np.sin(edges)
    ends = _ray_disc(region, d, ux * c + nx * sn, uy * c + ny * sn)
    kinks = np.concatenate([_interior_angles(d.x - s.x, d.y - s.y, x - s.x, y - s.y)
                            for x, y in ends])
    return np.unique(kinks[(w_lo < kinks) & (kinks < w_hi)])


def integrate_angle_cell(region, baseline, cell, order: int = 16):
    """Mass of the joint angle pdf over one cell, and its rows (omega, psi,
    weight * pdf), one per quadrature node in the order the mass sums them.

    The departure range is clipped to the region's span and split at the
    chord kinks, and next to a span end at the tangency splits; each
    departure node's arrival rule runs over its chord clipped to the cell.
    """
    w_lo, w_hi, p_lo, p_hi = cell
    span = angular_span(
        region, baseline.source,
        (baseline.destination.x - baseline.source.x,
         baseline.destination.y - baseline.source.y),
    )
    w_lo = max(w_lo, span[0])
    w_hi = min(w_hi, span[1])
    if w_hi <= w_lo:
        return 0.0, np.empty((0, 3))
    nodes, weights = gauss_legendre(order)
    events = np.concatenate(([w_lo], chord_kinks(region, baseline, w_lo, w_hi, p_lo, p_hi),
                             [w_hi]))
    splits = [events]
    if abs(events[0] - span[0]) < 1e-13:
        splits.append(events[0] + (events[1] - events[0]) * _TANGENCY_SPLITS)
    if abs(events[-1] - span[1]) < 1e-13:
        splits.append(events[-1] - (events[-1] - events[-2]) * _TANGENCY_SPLITS)
    events = np.unique(np.concatenate(splits))
    a, b = events[:-1], events[1:]
    wide = b - a >= _MIN_INTERVAL
    n = int(wide.sum())
    half_w = np.repeat(0.5 * (b - a)[wide], order)
    omega = np.repeat(0.5 * (a + b)[wide], order) + half_w * np.tile(nodes, n)
    weight_w = np.tile(weights, n)
    chord_lo, chord_hi = _aoa_chord(region, baseline, omega)
    lo = np.maximum(chord_lo, p_lo)
    hi = np.minimum(chord_hi, p_hi)
    live = hi > lo
    omega, weight_w, half_w, lo, hi = (v[live] for v in (omega, weight_w, half_w, lo, hi))
    half_p = 0.5 * (hi - lo)
    psi = 0.5 * (hi + lo)[:, None] + half_p[:, None] * nodes
    omega = np.broadcast_to(omega[:, None], psi.shape)
    pdf = _angle_jacobian(baseline.length, omega, psi) * region.density_at(
        region.center.x, region.center.y)
    weighted = weight_w[:, None] * weights * half_w[:, None] * half_p[:, None] * pdf
    # a running sum adds the nodes in order, as a scalar loop would
    mass = float(np.cumsum(weighted)[-1]) if weighted.size else 0.0
    return mass, np.stack((omega, psi, weighted), axis=-1).reshape(-1, 3)


def uniform_histogram2d(x: np.ndarray, y: np.ndarray, x_edges: np.ndarray,
                        y_edges: np.ndarray) -> np.ndarray:
    """np.histogram2d's counts of (x, y) for uniform edges, from one bincount."""
    nx, ny = x_edges.size - 1, y_edges.size - 1
    flat = _uniform_bins(x, x_edges) * (ny + 1) + _uniform_bins(y, y_edges)
    return np.bincount(flat, minlength=(nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)[:nx, :ny]


def sampled_angle_counts(region, baseline, rng, n: int, w_edges: np.ndarray,
                         p_edges: np.ndarray) -> np.ndarray:
    """`ias._sampled_angle_counts` with every relay mapped the exact way.

    The uniforms are drawn whole, as `RelayRegion.sample_xy` draws them;
    then each block of `ias.SAMPLE_BLOCK` relays goes through `disc_xy`,
    `angles_from_points` (so its checks fail in the first failing block)
    and `uniform_histogram2d`.
    """
    gen = rng.generator()
    u_radius, u_angle = gen.random(n), gen.random(n)
    counts = np.zeros((w_edges.size - 1, p_edges.size - 1), dtype=np.intp)
    for start in range(0, n, ias.SAMPLE_BLOCK):
        part = slice(start, start + ias.SAMPLE_BLOCK)
        aod, aoa = angles_from_points(baseline, *region.disc_xy(u_radius[part], u_angle[part]))
        counts += uniform_histogram2d(aod, aoa, w_edges, p_edges)
    return counts
