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
boundary.  `integrate_angle_cells` evaluates every node and weight of a
block of cells in one array pass, each cell's departure events padded with
NaN to a common width; every node lies inside the disc by construction.
`discrete_ias` integrates and solves the grid block by block, at most
NODE_BUDGET nodes at a time, so its memory does not grow with the grid.
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
MAX_GRID_CELLS = 100_000  # cells an `AngularGrid` (so `discrete_ias`) may hold; the grid checks it


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
    """Uniform angular sampling lattice with floor/ceil index bounds.

    Built, it holds at most MAX_GRID_CELLS cells, counted from its index
    ranges, so no grid too large to integrate is ever laid out."""

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
        if self.n_aod * self.n_aoa > MAX_GRID_CELLS:
            raise DomainError(f"an angular grid of {self.n_aod} x {self.n_aoa} cells, more than "
                              f"the {MAX_GRID_CELLS:,} allowed")

    @property
    def n_aod(self) -> int:
        return self.i_hi - self.i_lo + 1

    @property
    def n_aoa(self) -> int:
        return self.j_hi - self.j_lo + 1

    def cell_array(self) -> np.ndarray:
        """(aod_lo, aod_hi, aoa_lo, aoa_hi) of every cell (i, j), centered on
        (i d_aod, j d_aoa), as a (n_aod * n_aoa, 4) array, aoa index fastest."""
        w = np.repeat(np.arange(self.i_lo, self.i_hi + 1) * self.d_aod, self.n_aoa)
        p = np.tile(np.arange(self.j_lo, self.j_hi + 1) * self.d_aoa, self.n_aod)
        return np.stack((w - 0.5 * self.d_aod, w + 0.5 * self.d_aod,
                         p - 0.5 * self.d_aoa, p + 0.5 * self.d_aoa), axis=1)


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
# a cell's departure events are its two ends, up to four kinks and the
# tangency splits at both span ends: at most 14 events, 13 intervals
_MAX_INTERVALS = 13
# quadrature nodes `discrete_ias` integrates and solves at once, counting
# every cell of a block at _MAX_INTERVALS intervals; one cell at the largest
# quadrature order holds 13 * 64^2 = 53,248
NODE_BUDGET = 1 << 20
# relays `angle_pdf_check` maps, checks and bins at once.  A block's float64
# arrays take 256 KiB each, so the few alive at a time stay in a core's L2
# cache; whole arrays of its 10^6 relays (8 MB each) stream through memory
SAMPLE_BLOCK = 1 << 15


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


def _chord_kinks(region: RelayRegion, baseline: Baseline, w_lo: np.ndarray, w_hi: np.ndarray,
                 p_lo: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """Departure angles in (w_lo, w_hi) where each cell's clipped chord kinks.

    A chord end crosses the cell edge psi_e where the departure ray meets
    the arrival ray at psi_e on the circle, so the kinks are the departure
    angles of the (at most two) points where each edge's arrival ray
    crosses the circle.  Returns a (cells, 4) array, NaN where a slot holds
    no kink.
    """
    s, d = baseline.source, baseline.destination
    ux, uy, nx, ny = _region_axes(region, baseline)
    edges = np.stack((p_lo, p_hi), axis=1)
    c, sn = np.cos(edges), np.sin(edges)
    ends = _ray_disc(region, d, ux * c + nx * sn, uy * c + ny * sn)
    kinks = np.concatenate([_interior_angles(d.x - s.x, d.y - s.y, x - s.x, y - s.y)
                            for x, y in ends], axis=1)
    inside = (w_lo[:, None] < kinks) & (kinks < w_hi[:, None])
    return np.where(inside, kinks, np.nan)


def integrate_angle_cells(
    region: RelayRegion,
    baseline: Baseline,
    cells: np.ndarray,
    order: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masses of the joint angle pdf over a block of cells, and the rules' weighted nodes.

    `cells` is a (k, 4) array of (aod_lo, aod_hi, aoa_lo, aoa_hi) rows.
    Returns each cell's mass, the rows (omega, psi, weight * pdf) of every
    quadrature node, cell after cell, and each cell's number of rows.  A
    cell's rows come in the order its mass sums them: the integral of any
    g * pdf over the cell is the sum of weight * pdf * g(omega, psi) over
    them.  The departure range is split at the chord kinks, and each node's
    arrival-angle rule runs exactly over its chord interval intersected
    with the cell, so the integrands stay smooth and every node lies
    inside the disc.  Every cell is evaluated in the same array pass.
    """
    cells = np.asarray(cells, dtype=float).reshape(-1, 4)
    p_lo, p_hi = cells[:, 2], cells[:, 3]
    s, d = baseline.source, baseline.destination
    span = angular_span(region, s, (d.x - s.x, d.y - s.y))
    w_lo = np.maximum(cells[:, 0], span[0])
    w_hi = np.minimum(cells[:, 1], span[1])
    kinks = _chord_kinks(region, baseline, w_lo, w_hi, p_lo, p_hi)
    # a tangency splits the interval between it and the nearest other event
    after_lo = np.fmin(w_hi, np.fmin.reduce(kinks, axis=1))
    before_hi = np.fmax(w_lo, np.fmax.reduce(kinks, axis=1))
    at_lo = (np.abs(w_lo - span[0]) < 1e-13)[:, None]
    at_hi = (np.abs(w_hi - span[1]) < 1e-13)[:, None]
    split_lo = w_lo[:, None] + (after_lo - w_lo)[:, None] * _TANGENCY_SPLITS
    split_hi = w_hi[:, None] - (w_hi - before_hi)[:, None] * _TANGENCY_SPLITS
    # NaN pads each cell's events; it sorts last and fails the width test,
    # as do the repeats between equal events
    events = np.sort(np.concatenate((w_lo[:, None], kinks, w_hi[:, None],
                                     np.where(at_lo, split_lo, np.nan),
                                     np.where(at_hi, split_hi, np.nan)), axis=1), axis=1)
    a, b = events[:, :-1], events[:, 1:]
    wide = (b - a >= _MIN_INTERVAL) & (w_hi > w_lo)[:, None]
    cell = np.nonzero(wide)[0]
    a, b = a[wide], b[wide]
    # departure nodes, cell by cell and interval by interval
    nodes, weights = gauss_legendre(order)
    half_w = np.repeat(0.5 * (b - a), order)
    omega = np.repeat(0.5 * (a + b), order) + half_w * np.tile(nodes, a.size)
    weight_w = np.tile(weights, a.size)
    cell = np.repeat(cell, order)
    chord_lo, chord_hi = _aoa_chord(region, baseline, omega)
    lo = np.maximum(chord_lo, p_lo[cell])
    hi = np.minimum(chord_hi, p_hi[cell])
    live = hi > lo    # False where the ray misses (NaN)
    omega, weight_w, half_w, lo, hi, cell = (
        v[live] for v in (omega, weight_w, half_w, lo, hi, cell))
    # each live departure node's arrival nodes, one row per departure node
    half_p = 0.5 * (hi - lo)
    psi = 0.5 * (hi + lo)[:, None] + half_p[:, None] * nodes
    omega = np.broadcast_to(omega[:, None], psi.shape)
    # the density is uniform: its value at the center holds at every node
    pdf = _angle_jacobian(baseline.length, omega, psi) * region.density_at(
        region.center.x, region.center.y)
    weighted = weight_w[:, None] * weights * half_w[:, None] * half_p[:, None] * pdf
    counts = np.bincount(cell, minlength=len(cells)) * order
    return (_cell_sums(weighted.ravel(), counts),
            np.stack((omega, psi, weighted), axis=-1).reshape(-1, 3), counts)


def _cell_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cell's terms added in order by a running sum, as a scalar loop would.

    `terms` holds counts[0] terms of the first cell, then counts[1] of the
    next, and so on.  The cells sharing a count form one (cells, count)
    matrix of their terms, and one cumsum along its rows sums them all; a
    cell without terms sums to 0.
    """
    sums = np.zeros(counts.size)
    starts = np.cumsum(counts) - counts
    # the distinct counts come from a bincount: np.unique's first call
    # imports numpy.ma, which costs a `direct` run about 11 ms
    for count in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        group = np.flatnonzero(counts == count)
        rows = terms[starts[group, None] + np.arange(count)]
        sums[group] = np.cumsum(rows, axis=1)[:, -1]
    return sums


def angle_cell_mass(
    region: RelayRegion,
    baseline: Baseline,
    cell: tuple[float, float, float, float],
    order: int = 16,
) -> float:
    """Probability that a region-distributed relay maps into this angle cell."""
    return float(integrate_angle_cells(region, baseline, np.array([cell]), order=order)[0][0])


def _uniform_bins(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each v among uniform `edges`, as np.histogram2d counts it.

    Bin b holds edges[b] <= v < edges[b + 1], and the last bin its right
    edge too; a v off the edges gets bin n, one past the last.  The index
    comes from v's offset in one multiply, clipped, and moves by one where
    rounding put it across an edge, as np.histogram's uniform path does.
    """
    n = edges.size - 1
    k = np.clip((v - edges[0]) * (n / (edges[-1] - edges[0])), 0, n - 1).astype(np.intp)
    k -= v < edges[k]
    k += (v >= edges[k + 1]) & (k < n - 1)
    return np.where((edges[0] <= v) & (v <= edges[-1]), k, n)


def _uniform_histogram2d(x: np.ndarray, y: np.ndarray, x_edges: np.ndarray,
                         y_edges: np.ndarray) -> np.ndarray:
    """np.histogram2d's counts of (x, y) for uniform edges, from one bincount."""
    nx, ny = x_edges.size - 1, y_edges.size - 1
    flat = _uniform_bins(x, x_edges) * (ny + 1) + _uniform_bins(y, y_edges)
    return np.bincount(flat, minlength=(nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)[:nx, :ny]


def _sampled_angle_counts(region: RelayRegion, baseline: Baseline, rng: RngStream, n: int,
                          w_edges: np.ndarray, p_edges: np.ndarray) -> np.ndarray:
    """`_uniform_histogram2d` of the angles of n relays drawn as `RelayRegion.sample_xy` draws.

    The uniforms are drawn whole, as `sample_xy` draws them; mapping them
    to the disc and to angles, with every check of `angles_from_points`,
    and binning them go SAMPLE_BLOCK relays at a time.
    """
    gen = rng.generator()
    u_radius, u_angle = gen.random(n), gen.random(n)
    counts = np.zeros((w_edges.size - 1, p_edges.size - 1), dtype=np.intp)
    for start in range(0, n, SAMPLE_BLOCK):
        part = slice(start, start + SAMPLE_BLOCK)
        aod, aoa = angles_from_points(baseline, *region.disc_xy(u_radius[part], u_angle[part]))
        counts += _uniform_histogram2d(aod, aoa, w_edges, p_edges)
    return counts


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
    cells = np.stack(np.broadcast_arrays(w_edges[:-1, None], w_edges[1:, None],
                                         p_edges[:-1], p_edges[1:]), axis=-1)
    expected = integrate_angle_cells(region, baseline, cells, order=12)[0].reshape(bins, bins)
    counts = _sampled_angle_counts(region, baseline, rng, n, w_edges, p_edges)
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
    probability are reported as empty (zero value, zero mass).  The cells
    go in blocks of at most NODE_BUDGET quadrature nodes: one array pass
    integrates a block, one array solve gives the outage capacities of its
    nodes, and each cell then sums its nodes in quadrature order.
    """
    check_region_clear_of_baseline(region, baseline)
    cells = grid.cell_array()
    values = np.zeros(len(cells))
    masses = np.zeros_like(values)
    block = NODE_BUDGET // (_MAX_INTERVALS * quad.order**2)
    length = baseline.length
    for start in range(0, len(cells), block):
        part = slice(start, start + block)
        mass, rows, counts = integrate_angle_cells(region, baseline, cells[part], quad.order)
        kept = mass >= DEFAULT_MASS_FLOOR
        omega, psi, weight = rows[np.repeat(kept, counts)].T
        s = np.sin(omega + psi)
        hops = HopPair(length * np.sin(psi) / s, length * np.sin(omega) / s)
        terms = weight * outage_capacity_array(hops, params)
        masses[part][kept] = mass[kept]
        values[part][kept] = _cell_sums(terms, counts[kept]) / mass[kept]
    shape = (grid.n_aod, grid.n_aoa)
    return DiscreteIas(grid, values.reshape(shape), masses.reshape(shape))
