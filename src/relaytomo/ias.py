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
interval (the ray-chord), computed in closed form.  The chord clipped to a
cell kinks where a chord end crosses an arrival edge of the cell; that is
where the edge's arrival ray meets the circle, so the kinks are solved in
closed form too (one ray/disc quadratic per edge), and the departure range
is split there.  This keeps the integrands smooth and the quadrature
spectrally accurate even though the density jumps to zero at the region
boundary.  Each cell's nodes and weights are evaluated as arrays in one
pass; every node lies inside the disc by construction.
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
    _interior_angles,
    angles_from_point,
    angles_from_points,
    angular_span,
    check_region_clear_of_baseline,
    dist_relay_destination,
    dist_source_relay,
    plane_xy,
)
from .numerics import QuadratureSpec, RngStream, gauss_legendre

SINGULAR_TOL = 1e-12
DEFAULT_MASS_FLOOR = 1e-12
MAX_GRID_CELLS = 100_000  # angular cells a scenario may ask `discrete_ias` for


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
    return float(_angle_jacobian(baseline.length, omega, psi)) * density


def _angle_jacobian(length: float, omega, psi):
    """|d(x, y) / d(omega, psi)| = d^2 sin(omega) sin(psi) / sin^3(omega + psi), elementwise."""
    return length**2 * np.abs(np.sin(omega) * np.sin(psi)) / np.abs(np.sin(omega + psi)) ** 3


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
    ends = omin / d_omega, omax / d_omega, pmin / d_psi, pmax / d_psi
    if not all(map(math.isfinite, ends)):  # `floor` and `ceil` refuse inf
        raise DomainError(f"angular resolutions {d_omega}, {d_psi} rad are too fine to index")
    i_lo, i_hi, j_lo, j_hi = ends
    return AngularGrid(d_omega, d_psi, math.floor(i_lo), math.ceil(i_hi),
                       math.floor(j_lo), math.ceil(j_hi))


# ---------------------------------------------------------------------------
# exact-support cell quadrature


# the chord length vanishes like a square root at the tangency angles; split
# the interval next to each tangency geometrically toward it, at these
# fractions of its width, so the rule stays accurate
_TANGENCY_SPLITS = np.array([1 / 256, 1 / 64, 1 / 16, 1 / 4])
_MIN_INTERVAL = 1e-14  # radians; departure intervals narrower than this are skipped


def _ray_disc(region: RelayRegion, origin: Point, rx, ry) -> list[tuple[np.ndarray, np.ndarray]]:
    """Entry and exit points, as (x, y) arrays, of the unit rays origin + t (rx, ry).

    The origin lies outside the disc, so a ray crosses the circle twice
    only if it also points toward the center; NaN marks a ray that misses
    (or only touches) the circle.
    """
    cx, cy = region.center.x - origin.x, region.center.y - origin.y
    b = rx * cx + ry * cy
    disc = b * b - (cx * cx + cy * cy - region.radius * region.radius)
    root = np.sqrt(np.where((disc > 0.0) & (b > 0.0), disc, np.nan))
    return [(origin.x + t * rx, origin.y + t * ry) for t in (b - root, b + root)]


def _region_axes(region: RelayRegion, baseline: Baseline) -> tuple[float, float, float, float]:
    """`Baseline.axes` with the normal turned toward the region's side of the baseline."""
    ux, uy, nx, ny = baseline.axes
    side = math.copysign(1.0, nx * (region.center.x - baseline.destination.x)
                         + ny * (region.center.y - baseline.destination.y))
    return ux, uy, side * nx, side * ny


def _aoa_chord(region: RelayRegion, baseline: Baseline,
               omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrival-angle interval whose intersection point lies inside the disc.

    For fixed omega the intersection point slides monotonically along the
    departure ray as the arrival angle grows, so the inside set is the single
    interval spanned by the ray's chord through the disc.  Returns the
    interval's ends per departure angle, NaN where the ray misses.
    """
    s, d = baseline.source, baseline.destination
    ux, uy, nx, ny = _region_axes(region, baseline)
    # departure rays from the source, rotated off the source->destination axis
    c, sn = np.cos(omega), np.sin(omega)
    ends = _ray_disc(region, s, -ux * c + nx * sn, -uy * c + ny * sn)
    return tuple(_interior_angles(ux, uy, x - d.x, y - d.y) for x, y in ends)


def _chord_kinks(region: RelayRegion, baseline: Baseline, w_lo: float, w_hi: float,
                 p_lo: float, p_hi: float) -> np.ndarray:
    """Sorted departure angles in (w_lo, w_hi) where the clipped chord kinks.

    A chord end crosses the cell edge psi_e where the departure ray meets
    the arrival ray at psi_e on the circle, so the kinks are the departure
    angles of the (at most two) points where each edge's arrival ray
    crosses the circle.
    """
    s, d = baseline.source, baseline.destination
    ux, uy, nx, ny = _region_axes(region, baseline)
    edges = np.array([p_lo, p_hi])
    c, sn = np.cos(edges), np.sin(edges)
    ends = _ray_disc(region, d, ux * c + nx * sn, uy * c + ny * sn)
    kinks = np.concatenate([_interior_angles(d.x - s.x, d.y - s.y, x - s.x, y - s.y)
                            for x, y in ends])
    return np.unique(kinks[(w_lo < kinks) & (kinks < w_hi)])


def integrate_angle_cell(
    region: RelayRegion,
    baseline: Baseline,
    cell: tuple[float, float, float, float],
    order: int = 16,
) -> tuple[float, np.ndarray]:
    """Mass of the joint angle pdf over a cell, and the rule's weighted nodes.

    mass = integral of the pdf over the cell.  The second entry holds one
    row (omega, psi, weight * pdf) per quadrature node, in the order the
    mass sums them: the integral of any g * pdf over the cell is the sum of
    weight * pdf * g(omega, psi) over these rows.  The departure range is
    split at the chord kinks, and each node's arrival-angle rule runs
    exactly over its chord interval intersected with the cell, so the
    integrands stay smooth and every node lies inside the disc.
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
    events = np.concatenate(([w_lo], _chord_kinks(region, baseline, w_lo, w_hi, p_lo, p_hi),
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
    # departure nodes, interval by interval
    half_w = np.repeat(0.5 * (b - a)[wide], order)
    omega = np.repeat(0.5 * (a + b)[wide], order) + half_w * np.tile(nodes, n)
    weight_w = np.tile(weights, n)
    chord_lo, chord_hi = _aoa_chord(region, baseline, omega)
    lo = np.maximum(chord_lo, p_lo)
    hi = np.minimum(chord_hi, p_hi)
    live = hi > lo    # False where the ray misses (NaN)
    omega, weight_w, half_w, lo, hi = (v[live] for v in (omega, weight_w, half_w, lo, hi))
    # each live departure node's arrival nodes, one row per departure node
    half_p = 0.5 * (hi - lo)
    psi = 0.5 * (hi + lo)[:, None] + half_p[:, None] * nodes
    omega = np.broadcast_to(omega[:, None], psi.shape)
    # the density is uniform: its value at the center holds at every node
    pdf = _angle_jacobian(baseline.length, omega, psi) * region.density_at(
        region.center.x, region.center.y)
    weighted = weight_w[:, None] * weights * half_w[:, None] * half_p[:, None] * pdf
    # a running sum adds the nodes in order, as a scalar loop would
    mass = float(np.cumsum(weighted)[-1]) if weighted.size else 0.0
    return mass, np.stack((omega, psi, weighted), axis=-1).reshape(-1, 3)


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
    omega, psi, weight = np.concatenate(nodes).T
    s = np.sin(omega + psi)
    length = baseline.length
    hops = HopPair(length * np.sin(psi) / s, length * np.sin(omega) / s)
    terms = weight * outage_capacity_array(hops, params)
    ends = np.cumsum([len(n) for n in nodes])
    for (a, b), cell_terms in zip(kept, np.split(terms, ends[:-1])):
        # a running sum adds the terms in node order, as a scalar loop would
        weighted = float(np.cumsum(cell_terms)[-1]) if cell_terms.size else 0.0
        values[a, b] = weighted / masses[a, b]
    return DiscreteIas(grid, values, masses)
