"""Planar scene geometry: baseline frame, departure/arrival angles,
law-of-sines distances, relay regions, square-cell discretization and
the spectrum's angular grid.

Conventions
-----------
Departure and arrival angles are unsigned interior angles of the
source-relay-destination triangle, both in (0, pi) with their sum < pi.
The network is assumed to lie on one fixed side of the baseline: the
counter-clockwise side of the directed destination->source axis (the upper
half-plane when the destination sits at the origin and the source on the
positive x axis).  `point_from_angles` and `plane_xy` (so also
`ias.joint_angle_pdf`) always return the point on that side, which makes
`point_from_angles` the exact inverse of `angles_from_point` there.  The
spectrum's cell quadrature instead faces the side the region lies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, DomainError, EmptyGridError, GeometryError
from .numerics import RngStream

COLLINEAR_TOL = 1e-9  # radians; below double-precision conditioning of the sine ratios
# cells a grid's bounding box may hold; the solver's joint-bin table is built
# from 81 footprint points per cell, binned from float64 tables of 648 B per
# cell per node (65 MB per node here) that exist only during the build
MAX_BOX_CELLS = 100_000
MAX_GRID_CELLS = 100_000  # cells an `AngularGrid` (so `discrete_ias`) may hold; the grid checks it


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Baseline:
    """Source/destination pair spanning the angular reference axis."""

    source: Point
    destination: Point

    def __post_init__(self) -> None:
        if dist(self.source, self.destination) <= 0.0:
            raise GeometryError("source and destination must be distinct points")

    @property
    def length(self) -> float:
        return dist(self.source, self.destination)

    @property
    def axes(self) -> tuple[float, float, float, float]:
        """Unit destination->source axis (ux, uy) and its CCW normal (nx, ny), the network side."""
        s, d, length = self.source, self.destination, self.length
        ux, uy = (s.x - d.x) / length, (s.y - d.y) / length
        return ux, uy, -uy, ux


@dataclass(frozen=True)
class AnglePair:
    """Departure angle at the source and arrival angle at the destination."""

    aod: float
    aoa: float

    def __post_init__(self) -> None:
        if not (0.0 < self.aod < math.pi and 0.0 < self.aoa < math.pi):
            raise GeometryError(f"angles must lie in (0, pi), got ({self.aod}, {self.aoa})")
        if not (self.aod + self.aoa < math.pi):
            raise GeometryError(
                f"triangle condition violated: aod + aoa = {self.aod + self.aoa} >= pi"
            )


@dataclass(frozen=True)
class RelayRegion:
    """Disc-shaped relay region; relay positions are uniform over the disc."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise GeometryError(f"region radius must be positive, got {self.radius}")

    def density_at(self, x: float, y: float) -> float:
        """The uniform density of relay positions at (x, y); 0 outside the disc."""
        if math.hypot(x - self.center.x, y - self.center.y) > self.radius:
            return 0.0
        return 1.0 / (math.pi * self.radius * self.radius)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c.x - r, c.x + r, c.y - r, c.y + r)

    def sample_xy(self, rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray]:
        """x and y arrays of n i.i.d. uniform draws from the disc."""
        gen = rng.generator()
        return self.disc_xy(gen.random(n), gen.random(n))

    def disc_xy(self, u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and y of the disc points at radius r sqrt(u_radius), angle 2 pi u_angle.

        Uniform u_radius and u_angle in [0, 1) give points uniform over the
        disc.  The map is elementwise, so mapping slices of the uniforms
        gives the same bits as mapping them whole.
        """
        radii = self.radius * np.sqrt(u_radius)
        theta = 2.0 * math.pi * u_angle
        return (self.center.x + radii * np.cos(theta),
                self.center.y + radii * np.sin(theta))

    def sample(self, rng: RngStream, n: int) -> list[Point]:
        """`sample_xy`'s draws as points."""
        xs, ys = self.sample_xy(rng, n)
        return [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@dataclass(frozen=True)
class CellGrid:
    """Square cells of side `cell_side` tiling a region's bounding box, kept
    where their center lies in the region disc.  A value: its fields alone
    hash and compare it, and its hash is computed once, on first use.

    Built, it has been checked to tile the box with at most MAX_BOX_CELLS
    cells (`box_shape`) and to keep at least one; its centers (`xy`,
    `cells`) are built on first use."""

    region: RelayRegion
    cell_side: float

    def __post_init__(self) -> None:
        # A box of more than one cell on an axis has a side below about 2 r,
        # and then the centers nearest the region center lie within 0.95 r of
        # it, so only a box of one cell can be empty; its center is tested
        # with `xy`'s arithmetic, and no center is built.
        if box_shape(self.region, self.cell_side) == (1, 1):
            x0, _, y0, _ = self.region.bounding_box()
            c, half = self.region.center, 0.5 * self.cell_side
            if not np.hypot(x0 + half - c.x, y0 + half - c.y) <= self.region.radius:
                raise EmptyGridError(
                    f"cell side {self.cell_side} m leaves no cell center inside the region")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.region, self.cell_side))

    @cached_property
    def xy(self) -> np.ndarray:
        """The cell centers, row-major over the bounding box, as a read-only (cells, 2) array."""
        x0, _, y0, _ = self.region.bounding_box()
        side, c = self.cell_side, self.region.center
        nx, ny = box_shape(self.region, side)
        xs = x0 + (np.arange(nx) + 0.5) * side
        ys = y0 + (np.arange(ny) + 0.5) * side
        x, y = np.meshgrid(xs, ys)
        inside = np.hypot(x - c.x, y - c.y) <= self.region.radius
        xy = np.column_stack((x[inside], y[inside]))
        xy.flags.writeable = False
        return xy

    @cached_property
    def cells(self) -> tuple[Point, ...]:
        """The cell centers as points."""
        return tuple(Point(x, y) for x, y in self.xy.tolist())


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


def box_shape(region: RelayRegion, cell_side: float) -> tuple[int, int]:
    """Columns and rows of the cells tiling the region's bounding box, counted
    without building them; DomainError past MAX_BOX_CELLS or for a bad side."""
    if not 0.0 < cell_side < math.inf:
        raise DomainError(f"cell side must be positive and finite, got {cell_side}")
    x0, x1, y0, y1 = region.bounding_box()
    wide, high = (x1 - x0) / cell_side, (y1 - y0) / cell_side
    # each count is at least 1, so a ratio past the bound breaks it alone; it
    # may be inf, which `ceil` refuses
    if max(wide, high) > MAX_BOX_CELLS:
        raise DomainError(f"cell side {cell_side} m tiles the region's bounding box with "
                          f"more than the {MAX_BOX_CELLS:,} cells allowed")
    nx, ny = max(1, math.ceil(wide)), max(1, math.ceil(high))
    if nx * ny > MAX_BOX_CELLS:
        raise DomainError(f"cell side {cell_side} m tiles the region's bounding box with "
                          f"{nx} x {ny} cells, more than the {MAX_BOX_CELLS:,} allowed")
    return nx, ny


def _unit(dx: float, dy: float) -> tuple[float, float]:
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise GeometryError("zero-length direction vector")
    return dx / norm, dy / norm


def _interior_angle(vx: float, vy: float, wx: float, wy: float) -> float:
    """Unsigned angle between two direction vectors, in [0, pi]."""
    cross = vx * wy - vy * wx
    dot = vx * wx + vy * wy
    return math.atan2(abs(cross), dot)


def signed_angle(vx: float, vy: float, wx: float, wy: float) -> float:
    """Counter-clockwise angle from v to w, in (-pi, pi]."""
    return math.atan2(vx * wy - vy * wx, vx * wx + vy * wy)


def angles_from_point(baseline: Baseline, relay: Point) -> AnglePair:
    """Interior angles at the source and destination subtended by a relay.

    Raises DegenerateGeometryError when the relay is collinear with the
    baseline to within COLLINEAR_TOL radians.
    """
    s, d = baseline.source, baseline.destination
    aod = _interior_angle(d.x - s.x, d.y - s.y, relay.x - s.x, relay.y - s.y)
    aoa = _interior_angle(s.x - d.x, s.y - d.y, relay.x - d.x, relay.y - d.y)
    if min(aod, aoa) < COLLINEAR_TOL or max(aod, aoa) > math.pi - COLLINEAR_TOL:
        raise DegenerateGeometryError(
            f"relay at ({relay.x}, {relay.y}) is collinear with the baseline"
        )
    return AnglePair(aod, aoa)


def angles_from_points(
    baseline: Baseline, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of `angles_from_point`: (aod, aoa) of the relays at (x, y).

    Same arithmetic (numpy's arctan2 may round one ulp away from the math
    module's) and the same checks: GeometryError for a non-finite
    coordinate or a violated triangle condition, DegenerateGeometryError
    when any relay is collinear with the baseline to within COLLINEAR_TOL.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise GeometryError(f"point coordinates must be finite, got ({x[k]}, {y[k]})")
    s, d = baseline.source, baseline.destination
    aod = _interior_angles(d.x - s.x, d.y - s.y, x - s.x, y - s.y)
    aoa = _interior_angles(s.x - d.x, s.y - d.y, x - d.x, y - d.y)
    bad = ((np.minimum(aod, aoa) < COLLINEAR_TOL)
           | (np.maximum(aod, aoa) > math.pi - COLLINEAR_TOL))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise DegenerateGeometryError(
            f"relay at ({x[k]}, {y[k]}) is collinear with the baseline")
    if np.any(aod + aoa >= math.pi):
        raise GeometryError("triangle condition violated: aod + aoa >= pi")
    return aod, aoa


def _interior_angles(vx: float, vy: float, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """`_interior_angle` from one direction v to many directions w."""
    return np.arctan2(np.abs(vx * wy - vy * wx), vx * wx + vy * wy)


def _check_triangle(angles: AnglePair) -> None:
    if angles.aod + angles.aoa >= math.pi - COLLINEAR_TOL:
        raise DegenerateGeometryError(
            f"angle sum {angles.aod + angles.aoa} too close to pi"
        )


def point_from_angles(baseline: Baseline, angles: AnglePair) -> Point:
    """Unique point on the network side of the baseline with these angles."""
    _check_triangle(angles)
    return Point(*plane_xy(baseline, angles.aod, angles.aoa))


def plane_xy(baseline: Baseline, aod: float, aoa: float) -> tuple[float, float]:
    """(x, y) of `point_from_angles`, unchecked: the two angle rays' crossing."""
    d, length = baseline.destination, baseline.length
    ux, uy, nx, ny = baseline.axes
    r = length * math.sin(aod) / math.sin(aod + aoa)       # law of sines
    ca, sa = math.cos(aoa), math.sin(aoa)
    return d.x + r * (ca * ux + sa * nx), d.y + r * (ca * uy + sa * ny)


def dist_relay_destination(baseline: Baseline, angles: AnglePair) -> float:
    """Relay-to-destination distance via the law of sines."""
    _check_triangle(angles)
    return baseline.length * math.sin(angles.aod) / math.sin(angles.aod + angles.aoa)


def dist_source_relay(baseline: Baseline, angles: AnglePair) -> float:
    """Source-to-relay distance via the law of sines."""
    _check_triangle(angles)
    return baseline.length * math.sin(angles.aoa) / math.sin(angles.aod + angles.aoa)


def check_region_clear_of_baseline(region: RelayRegion, baseline: Baseline) -> None:
    """Reject regions touching the baseline axis.

    The angle map is singular on the axis through source and destination, so
    the disc must lie strictly on one side of that whole line (not merely
    avoid the segment); every region point then has a well-defined angle
    pair.
    """
    s, d = baseline.destination, baseline.source
    ux, uy = _unit(d.x - s.x, d.y - s.y)
    # perpendicular distance from the disc center to the infinite line
    off = abs(-uy * (region.center.x - s.x) + ux * (region.center.y - s.y))
    if off <= region.radius:
        raise GeometryError(
            "relay region touches the baseline axis "
            f"(center offset {off:.3f} m <= radius {region.radius:.3f} m)"
        )


def discretize_region(region: RelayRegion, cell_side: float) -> CellGrid:
    """The square-cell grid of the region (`CellGrid`)."""
    return CellGrid(region, cell_side)


def angular_span(
    region: RelayRegion,
    node: Point,
    reference: tuple[float, float],
) -> tuple[float, float]:
    """Minimal angle interval subtending the region from an exterior node.

    Angles are measured from the reference ray, oriented so that the region
    center sits at a non-negative angle (for a reference ray pointing at the
    region the span comes out symmetric about zero).  Raises GeometryError
    if the node lies inside the region.
    """
    rx, ry = _unit(*reference)
    d = dist(node, region.center)
    if d <= region.radius:
        raise GeometryError("angular span undefined: node lies inside the region")
    center_angle = signed_angle(rx, ry, region.center.x - node.x, region.center.y - node.y)
    orient = -1.0 if center_angle < 0.0 else 1.0
    half = math.asin(region.radius / d)
    mid = orient * center_angle
    return (mid - half, mid + half)


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


def sample_relays(region: RelayRegion, n: int, rng: RngStream) -> list[Point]:
    """Relay positions drawn from the region density (uniform disc)."""
    if n < 0:
        raise DomainError(f"relay count must be non-negative, got {n}")
    return region.sample(rng, n)
