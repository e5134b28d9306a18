"""Information azimuth spectra over departure/arrival angles.

A finite relay set induces one (aod, aoa, capacity) atom per relay
(`continuous_ias`).  A relay *density* over the region instead induces a
joint angle pdf (`joint_angle_pdf`) and, on a uniform angular grid, a
discrete spectrum whose cell values are conditional mean outage capacities
(`discrete_ias`).  The discrete surface is a property of the density alone;
atoms of any sampled relay set scatter around it.

Cell integrals are evaluated with Gauss-Legendre rules on the *exact*
angular support of the region: for a fixed departure angle the set of
arrival angles whose intersection point lies inside the disc is a single
interval (the ray-chord), computed in closed form.  This keeps the
integrands smooth and the quadrature spectrally accurate even though the
density jumps to zero at the region boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, HopPair, outage_capacity_array
from .errors import DegenerateGeometryError, DomainError
from .geometry import (
    AnglePair,
    Baseline,
    Point,
    RelayRegion,
    angles_from_point,
    angles_from_points,
    angular_span,
    check_region_clear_of_baseline,
    dist_relay_destination,
    dist_source_relay,
    plane_xy,
)
from .numerics import QuadratureSpec, RngStream, gauss_legendre, libm_map

SINGULAR_TOL = 1e-12
DEFAULT_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowAtom:
    """One relay's contribution to the continuous spectrum."""

    aod: float
    aoa: float
    capacity: float
    relay: int

    def __post_init__(self) -> None:
        AnglePair(self.aod, self.aoa)  # triangle-condition check
        if self.capacity < 0.0:
            raise DomainError(f"capacity must be non-negative, got {self.capacity}")


@dataclass(frozen=True)
class AngularGrid:
    """Uniform angular sampling lattice with floor/ceil index bounds."""

    d_aod: float
    d_aoa: float
    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int

    def __post_init__(self) -> None:
        if self.d_aod <= 0.0 or self.d_aoa <= 0.0:
            raise DomainError("angular resolutions must be positive")
        if self.i_hi < self.i_lo or self.j_hi < self.j_lo:
            raise DomainError("angular index ranges must be non-empty")

    @property
    def n_aod(self) -> int:
        return self.i_hi - self.i_lo + 1

    @property
    def n_aoa(self) -> int:
        return self.j_hi - self.j_lo + 1

    def aod_angles(self) -> np.ndarray:
        return self.d_aod * np.arange(self.i_lo, self.i_hi + 1)

    def aoa_angles(self) -> np.ndarray:
        return self.d_aoa * np.arange(self.j_lo, self.j_hi + 1)

    def cell_bounds(self, i: int, j: int) -> tuple[float, float, float, float]:
        """(aod_lo, aod_hi, aoa_lo, aoa_hi) of grid cell (i, j), absolute indices."""
        w = i * self.d_aod
        p = j * self.d_aoa
        return (w - 0.5 * self.d_aod, w + 0.5 * self.d_aod,
                p - 0.5 * self.d_aoa, p + 0.5 * self.d_aoa)


@dataclass(frozen=True)
class DiscreteIas:
    """Discrete spectrum: per-cell mean capacity and probability mass."""

    grid: AngularGrid
    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_aod, self.grid.n_aoa)
        if self.values.shape != shape or self.masses.shape != shape:
            raise DomainError(f"value/mass matrices must have shape {shape}")
        if np.any(self.values < 0.0):
            raise DomainError("spectrum values must be non-negative")
        if np.any(self.masses < 0.0) or np.any(self.masses > 1.0 + 1e-9):
            raise DomainError("cell masses must lie in [0, 1]")
        if self.masses.sum() > 1.0 + 1e-6:
            raise DomainError("cell masses must sum to at most 1")


def continuous_ias(
    relays: list[Point],
    baseline: Baseline,
    params: ChannelParams,
) -> list[FlowAtom]:
    """One atom per relay: its angle pair and the path outage capacity."""
    angles = [angles_from_point(baseline, relay) for relay in relays]
    hops = HopPair(np.array([dist_source_relay(baseline, a) for a in angles]),
                   np.array([dist_relay_destination(baseline, a) for a in angles]))
    caps = outage_capacity_array(hops, params)
    return [FlowAtom(a.aod, a.aoa, float(c), l) for l, (a, c) in enumerate(zip(angles, caps))]


def joint_angle_pdf(
    omega: float,
    psi: float,
    region: RelayRegion,
    baseline: Baseline,
) -> float:
    """Joint density of (aod, aoa) for a relay drawn from the region density.

    Change of variables from planar position to the angle pair; the Jacobian
    factor is d^2 sin(omega) sin(psi) / sin^3(omega + psi).  Returns 0 when
    the mapped point falls outside the region.
    """
    s = math.sin(omega + psi)
    if abs(s) < SINGULAR_TOL:
        raise DegenerateGeometryError(
            f"angle sum {omega + psi} is singular (sin within {SINGULAR_TOL} of 0)"
        )
    x, y = plane_xy(baseline, omega, psi)
    density = region.density_at(x, y)
    if density == 0.0:
        return 0.0
    jac = baseline.length**2 * abs(math.sin(omega) * math.sin(psi)) / abs(s) ** 3
    return jac * density


def build_grid(
    region: RelayRegion,
    baseline: Baseline,
    d_omega: float,
    d_psi: float,
) -> AngularGrid:
    """Angular grid spanning the region as seen from source and destination."""
    if d_omega <= 0.0 or d_psi <= 0.0:
        raise DomainError("angular resolutions must be positive")
    check_region_clear_of_baseline(region, baseline)
    s, d = baseline.source, baseline.destination
    omin, omax = angular_span(region, s, (d.x - s.x, d.y - s.y))
    pmin, pmax = angular_span(region, d, (s.x - d.x, s.y - d.y))
    return AngularGrid(
        d_omega,
        d_psi,
        math.floor(omin / d_omega),
        math.ceil(omax / d_omega),
        math.floor(pmin / d_psi),
        math.ceil(pmax / d_psi),
    )


# ---------------------------------------------------------------------------
# exact-support cell quadrature


def _aoa_chord(
    region: RelayRegion,
    baseline: Baseline,
    omega: float,
) -> tuple[float, float] | None:
    """Arrival-angle interval whose intersection point lies inside the disc.

    For fixed omega the intersection point slides monotonically along the
    departure ray as the arrival angle grows, so the inside set is the single
    interval spanned by the ray's chord through the disc (None if no hit).
    """
    s, d = baseline.source, baseline.destination
    length = baseline.length
    ux, uy = (s.x - d.x) / length, (s.y - d.y) / length
    nx, ny = -uy, ux
    # departure ray from the source, rotated off the source->destination axis
    rx = -ux * math.cos(omega) + nx * math.sin(omega)
    ry = -uy * math.cos(omega) + ny * math.sin(omega)
    cx, cy = region.center.x - s.x, region.center.y - s.y
    b = rx * cx + ry * cy
    c = cx * cx + cy * cy - region.radius * region.radius
    disc = b * b - c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    t1, t2 = b - root, b + root
    if t2 <= 0.0:
        return None
    t1 = max(t1, 0.0)

    def aoa_at(t: float) -> float:
        px, py = s.x + t * rx - d.x, s.y + t * ry - d.y
        return math.atan2(abs(ux * py - uy * px), ux * px + uy * py)

    return aoa_at(t1), aoa_at(t2)


def _chord_events(
    region: RelayRegion,
    baseline: Baseline,
    w_lo: float,
    w_hi: float,
    p_lo: float,
    p_hi: float,
    scan: int = 33,
) -> list[float]:
    """Split points of [w_lo, w_hi] where the clipped chord interval kinks."""

    def endpoint(omega: float, which: int) -> float | None:
        chord = _aoa_chord(region, baseline, omega)
        return None if chord is None else chord[which]

    events = {w_lo, w_hi}
    omegas = np.linspace(w_lo, w_hi, scan)
    for which in (0, 1):
        for edge in (p_lo, p_hi):
            prev_w, prev_v = None, None
            for w in omegas:
                v = endpoint(float(w), which)
                if v is not None and prev_v is not None:
                    if (prev_v - edge) * (v - edge) < 0.0:
                        events.add(_bisect_event(
                            lambda om: endpoint(om, which) - edge, prev_w, w))
                prev_w, prev_v = float(w), v
    return sorted(events)


def _bisect_event(g, lo: float, hi: float, iters: int = 60) -> float:
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def integrate_angle_cell(
    region: RelayRegion,
    baseline: Baseline,
    cell: tuple[float, float, float, float],
    order: int = 16,
) -> tuple[float, list[tuple[float, float, float]]]:
    """Mass of the joint angle pdf over a cell, and the rule's weighted nodes.

    mass = integral of the pdf over the cell.  The second entry holds one
    (omega, psi, weight * pdf) per quadrature node of non-zero pdf, in the
    order the mass sums them: the integral of any g * pdf over the cell is
    the sum of weight * pdf * g(omega, psi) over these nodes.  The inner
    arrival-angle integral runs exactly over the chord interval intersected
    with the cell, so the integrands stay smooth.
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
        return 0.0, []
    nodes, weights = gauss_legendre(order)
    events = _chord_events(region, baseline, w_lo, w_hi, p_lo, p_hi)
    # the chord length vanishes like a square root at the tangency angles;
    # refine geometrically toward those endpoints so the rule stays accurate
    refined = list(events)
    if events and abs(events[0] - span[0]) < 1e-13:
        width = events[1] - events[0]
        refined.extend(events[0] + width * f for f in (1 / 256, 1 / 64, 1 / 16, 1 / 4))
    if events and abs(events[-1] - span[1]) < 1e-13:
        width = events[-1] - events[-2]
        refined.extend(events[-1] - width * f for f in (1 / 256, 1 / 64, 1 / 16, 1 / 4))
    events = sorted(set(refined))
    mass = 0.0
    rows = []
    for a, b in zip(events[:-1], events[1:]):
        if b - a < 1e-14:
            continue
        chord = _aoa_chord(region, baseline, 0.5 * (a + b))
        if chord is None:
            continue
        if min(chord[1], p_hi) <= max(chord[0], p_lo):
            continue
        half_w = 0.5 * (b - a)
        mid_w = 0.5 * (a + b)
        for tw, ww in zip(nodes, weights):
            omega = mid_w + half_w * tw
            chord = _aoa_chord(region, baseline, omega)
            if chord is None:
                continue
            lo = max(chord[0], p_lo)
            hi = min(chord[1], p_hi)
            if hi <= lo:
                continue
            half_p = 0.5 * (hi - lo)
            mid_p = 0.5 * (hi + lo)
            for tp, wp in zip(nodes, weights):
                psi = mid_p + half_p * tp
                f = joint_angle_pdf(omega, psi, region, baseline)
                weighted = ww * wp * half_w * half_p * f
                mass += weighted
                if f > 0.0:
                    rows.append((omega, psi, weighted))
    return mass, rows


def angle_cell_mass(
    region: RelayRegion,
    baseline: Baseline,
    cell: tuple[float, float, float, float],
    order: int = 16,
) -> float:
    """Probability that a region-distributed relay maps into this angle cell."""
    return integrate_angle_cell(region, baseline, cell, order=order)[0]


def angle_pdf_check(
    region: RelayRegion,
    baseline: Baseline,
    grid: AngularGrid,
    rng: RngStream,
    n: int,
) -> tuple[float, float]:
    """Monte Carlo check of the joint angle pdf over the grid's angle box.

    Integrates the pdf (order-12 rules) over a 20 x 20 lattice of cells
    spanning the grid, and histograms the angles of n relays drawn from
    the region.  Returns the total integral and the fraction of non-empty
    cells whose count lies within 3 sigma of its binomial expectation.
    """
    bins = 20
    w_edges = np.linspace(grid.i_lo * grid.d_aod - 0.5 * grid.d_aod,
                          grid.i_hi * grid.d_aod + 0.5 * grid.d_aod, bins + 1)
    p_edges = np.linspace(grid.j_lo * grid.d_aoa - 0.5 * grid.d_aoa,
                          grid.j_hi * grid.d_aoa + 0.5 * grid.d_aoa, bins + 1)
    expected = np.array([
        [angle_cell_mass(region, baseline,
                         (w_edges[a], w_edges[a + 1], p_edges[b], p_edges[b + 1]),
                         order=12)
         for b in range(bins)]
        for a in range(bins)
    ])
    aod, aoa = angles_from_points(baseline, *region.sample_xy(rng, n))
    counts, _, _ = np.histogram2d(aod, aoa, bins=[w_edges, p_edges])
    nonempty = expected > 1e-9
    se = np.sqrt(n * expected * (1.0 - expected))
    within = np.abs(counts - n * expected) <= 3.0 * se
    return float(expected.sum()), float(within[nonempty].mean())


def discrete_ias(
    grid: AngularGrid,
    region: RelayRegion,
    baseline: Baseline,
    params: ChannelParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> DiscreteIas:
    """Discrete spectrum on the grid: per-cell conditional mean capacities.

    Each cell's value is the outage capacity averaged under the joint angle
    pdf restricted to the cell; cells carrying less than DEFAULT_MASS_FLOOR
    probability are reported as empty (zero value, zero mass).  The outage
    capacities of every quadrature node of the grid come from one array
    solve; each cell then sums its nodes in quadrature order.
    """
    check_region_clear_of_baseline(region, baseline)
    values = np.zeros((grid.n_aod, grid.n_aoa))
    masses = np.zeros_like(values)
    kept, nodes = [], []
    for a, i in enumerate(range(grid.i_lo, grid.i_hi + 1)):
        for b, j in enumerate(range(grid.j_lo, grid.j_hi + 1)):
            mass, cell_nodes = integrate_angle_cell(
                region, baseline, grid.cell_bounds(i, j), order=quad.order)
            if mass < DEFAULT_MASS_FLOOR:
                continue
            masses[a, b] = mass
            kept.append((a, b))
            nodes.append(cell_nodes)
    if not kept:
        return DiscreteIas(grid, values, masses)
    omega, psi, weight = np.array([n for cell_nodes in nodes for n in cell_nodes]).T
    # the math module's sine, so the hops are the ones a scalar loop would build
    s = libm_map(math.sin, omega + psi)
    length = baseline.length
    hops = HopPair(length * libm_map(math.sin, psi) / s, length * libm_map(math.sin, omega) / s)
    terms = weight * outage_capacity_array(hops, params)
    ends = np.cumsum([len(n) for n in nodes])
    for (a, b), cell_terms in zip(kept, np.split(terms, ends[:-1])):
        # a running sum adds the terms in node order, as a scalar loop would
        weighted = float(np.cumsum(cell_terms)[-1]) if cell_terms.size else 0.0
        values[a, b] = weighted / masses[a, b]
    return DiscreteIas(grid, values, masses)
