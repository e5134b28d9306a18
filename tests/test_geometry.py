import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from relaytomo import geometry
from relaytomo.errors import (
    DegenerateGeometryError,
    DomainError,
    EmptyGridError,
    GeometryError,
)
from relaytomo.geometry import (
    AnglePair,
    Baseline,
    CellGrid,
    Point,
    RelayRegion,
    _unit,
    angles_from_point,
    angles_from_points,
    angular_span,
    box_shape,
    check_region_clear_of_baseline,
    discretize_region,
    dist,
    dist_relay_destination,
    dist_source_relay,
    point_from_angles,
    sample_relays,
    signed_angle,
)
from relaytomo.numerics import RngStream

SX = 100.0 * math.sqrt(3.0)
CX = 50.0 * math.sqrt(3.0)
BASELINE = Baseline(Point(SX, 0.0), Point(0.0, 0.0))
REGION = RelayRegion(Point(CX, 50.0), 40.0)


def test_isoceles_angles():
    ang = angles_from_point(BASELINE, Point(CX, 50.0))
    assert math.degrees(ang.aod) == pytest.approx(30.0, abs=1e-10)
    assert math.degrees(ang.aoa) == pytest.approx(30.0, abs=1e-10)


def test_right_angle_at_destination():
    ang = angles_from_point(BASELINE, Point(0.0, 10.0))
    assert math.degrees(ang.aoa) == pytest.approx(90.0, abs=1e-10)
    assert ang.aod == pytest.approx(math.atan2(10.0, SX), abs=1e-12)


def test_law_of_sines_values():
    ang = AnglePair(math.radians(30), math.radians(30))
    assert dist_relay_destination(BASELINE, ang) == pytest.approx(100.0, abs=1e-9)
    assert dist_source_relay(BASELINE, ang) == pytest.approx(100.0, abs=1e-9)
    ang2 = AnglePair(math.pi / 2, math.pi / 4)
    assert dist_relay_destination(Baseline(Point(1, 0), Point(0, 0)), ang2) == \
        pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_point_from_angles_right_isoceles():
    p = point_from_angles(Baseline(Point(2, 0), Point(0, 0)),
                          AnglePair(math.pi / 4, math.pi / 4))
    assert (p.x, p.y) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_inverse_of_isoceles_example():
    p = point_from_angles(BASELINE, AnglePair(math.radians(30), math.radians(30)))
    assert p.x == pytest.approx(CX, abs=1e-9)
    assert p.y == pytest.approx(50.0, abs=1e-9)


def test_source_distance_vanishes_as_aoa_shrinks():
    # with fixed aod the relay collapses onto the source
    for aoa in (1e-3, 1e-5, 1e-7):
        d = dist_source_relay(BASELINE, AnglePair(math.radians(40), aoa))
        assert d < BASELINE.length * aoa / math.sin(math.radians(40)) * 1.01


@given(st.floats(1.0, 170.0), st.floats(1.0, 170.0))
@settings(max_examples=200, deadline=None)
def test_round_trip_from_angles(aod_deg, aoa_deg):
    if aod_deg + aoa_deg >= 179.0:
        return
    ang = AnglePair(math.radians(aod_deg), math.radians(aoa_deg))
    p = point_from_angles(BASELINE, ang)
    back = angles_from_point(BASELINE, p)
    assert back.aod == pytest.approx(ang.aod, abs=1e-9)
    assert back.aoa == pytest.approx(ang.aoa, abs=1e-9)


def test_round_trip_from_points():
    gen = RngStream(21).generator()
    for _ in range(10_000):
        p = Point(float(gen.uniform(-50, 250)), float(gen.uniform(1.0, 200.0)))
        ang = angles_from_point(BASELINE, p)
        q = point_from_angles(BASELINE, ang)
        assert dist(p, q) < 1e-9 * max(1.0, dist(p, Point(0, 0)))


def test_law_of_sines_matches_euclidean():
    gen = RngStream(22).generator()
    for _ in range(10_000):
        p = Point(float(gen.uniform(-50, 250)), float(gen.uniform(0.5, 200.0)))
        ang = angles_from_point(BASELINE, p)
        assert dist_relay_destination(BASELINE, ang) == pytest.approx(
            dist(p, BASELINE.destination), rel=1e-9)
        assert dist_source_relay(BASELINE, ang) == pytest.approx(
            dist(p, BASELINE.source), rel=1e-9)


def test_collinear_relay_rejected():
    with pytest.raises(DegenerateGeometryError):
        angles_from_point(BASELINE, Point(50.0, 0.0))
    with pytest.raises(DegenerateGeometryError):
        angles_from_point(BASELINE, Point(50.0, 50.0 * 1e-12))


def test_degenerate_angle_sum_rejected():
    with pytest.raises(GeometryError):
        AnglePair(math.radians(90), math.radians(90))
    near = (math.pi - 1e-10) / 2.0
    with pytest.raises(DegenerateGeometryError):
        dist_relay_destination(BASELINE, AnglePair(near, near))


def test_angle_pair_invariants():
    with pytest.raises(GeometryError):
        AnglePair(0.0, 1.0)
    with pytest.raises(GeometryError):
        AnglePair(1.0, -0.2)


def test_baseline_distinct_points():
    with pytest.raises(GeometryError):
        Baseline(Point(1, 1), Point(1, 1))


def test_point_finite():
    with pytest.raises(GeometryError):
        Point(math.nan, 0.0)


def span_angle(
    region: RelayRegion,
    node: Point,
    reference: tuple[float, float],
    p: Point,
) -> float:
    """Oracle: angle of p seen from the node, in the angular_span orientation."""
    rx, ry = _unit(*reference)
    center_angle = signed_angle(rx, ry, region.center.x - node.x, region.center.y - node.y)
    orient = -1.0 if center_angle < 0.0 else 1.0
    return orient * signed_angle(rx, ry, p.x - node.x, p.y - node.y)


class TestDiscretize:
    def test_single_cell(self):
        grid = discretize_region(RelayRegion(Point(0, 0), 1.0), 2.0)
        assert len(grid.cells) == 1
        assert (grid.cells[0].x, grid.cells[0].y) == (0.0, 0.0)

    def test_reference_region_count_and_area(self):
        grid = discretize_region(REGION, 5.0)
        # deterministic tiling of the 80 m bounding box: 208 retained centers,
        # overestimating the disc area by ~3.5%
        assert len(grid.cells) == 208
        area_ratio = len(grid.cells) * 25.0 / (math.pi * 40.0**2)
        assert area_ratio == pytest.approx(1.0, abs=0.04)

    def test_all_centers_inside(self):
        grid = discretize_region(REGION, 5.0)
        for c in grid.cells:
            assert dist(c, REGION.center) <= REGION.radius

    def test_row_major_order(self):
        grid = discretize_region(REGION, 5.0)
        keys = [(c.y, c.x) for c in grid.cells]
        assert keys == sorted(keys)

    def test_centers_clear_of_baseline(self):
        check_region_clear_of_baseline(REGION, BASELINE)
        grid = discretize_region(REGION, 5.0)
        for c in grid.cells:
            angles_from_point(BASELINE, c)  # must not raise

    def test_empty_grid_error(self):
        with pytest.raises(EmptyGridError):
            discretize_region(RelayRegion(Point(0, 0), 1.0), 20.0)

    @pytest.mark.parametrize("side", [0.0, -1.0, math.nan, math.inf])
    def test_cell_side_must_be_positive_and_finite(self, side):
        for build in (CellGrid, discretize_region):
            with pytest.raises(DomainError, match="cell side must be positive and finite"):
                build(REGION, side)

    def test_box_cells_are_bounded_before_any_center_is_built(self, monkeypatch):
        # the 1 m grid tiles the 80 m box with 80 x 80 cells; 1 mm cells
        # (6.4e9) are counted and refused, never laid out, and a side whose
        # box ratio overflows to inf is refused before it is rounded
        assert box_shape(REGION, 5.0) == (16, 16)
        assert box_shape(REGION, 1.0) == (80, 80)
        assert box_shape(REGION, 100.0) == (1, 1)
        with pytest.raises(DomainError, match="80000 x 80000 cells, more than the 100,000"):
            box_shape(REGION, 0.001)
        with pytest.raises(DomainError, match="more than the 100,000 cells allowed"):
            box_shape(REGION, 5e-324)
        monkeypatch.setattr(geometry, "MAX_BOX_CELLS", 6400)
        assert len(CellGrid(REGION, 1.0).xy) == 5024
        monkeypatch.setattr(geometry, "MAX_BOX_CELLS", 6399)
        with pytest.raises(DomainError, match="more than the 6,399 allowed"):
            CellGrid(REGION, 1.0)

    @pytest.mark.parametrize("side", [5.0, 2.5, 1.0])
    def test_centers_are_the_scalar_loop_on_reference_grids(self, side):
        grid = discretize_region(REGION, side)
        assert grid.xy.tobytes() == oracles.cell_centers(REGION, side).tobytes()
        assert grid.cells == tuple(Point(x, y) for x, y in grid.xy.tolist())

    def test_centers_are_the_scalar_loop_on_random_regions(self):
        rng = np.random.default_rng(17)
        sizes = []
        for _ in range(40):
            region = RelayRegion(Point(*rng.uniform(-500.0, 500.0, 2)), rng.uniform(0.5, 60.0))
            side = region.radius * 10 ** rng.uniform(-1.5, 0.6)
            want = oracles.cell_centers(region, side)
            sizes.append(len(want))
            if not len(want):
                with pytest.raises(EmptyGridError):
                    CellGrid(region, side)
                continue
            assert CellGrid(region, side).xy.tobytes() == want.tobytes()
        assert min(sizes) == 0 and max(sizes) > 2000

    def test_emptiness_check_agrees_with_the_grid_on_random_regions(self):
        # `CellGrid` tests only the one center of a one-cell box; sides are
        # drawn across the range and within 1e-9 of (2 + sqrt 2) r, where that
        # center leaves the disc
        rng = np.random.default_rng(23)
        outcomes = set()
        for k in range(2000):
            region = RelayRegion(Point(*rng.uniform(-1000.0, 1000.0, 2)), rng.uniform(0.1, 100.0))
            ratio = (2.0 + math.sqrt(2.0)) * (1.0 + rng.uniform(-1e-9, 1e-9)) if k % 2 \
                else 10 ** rng.uniform(-1.5, 0.7)
            side = region.radius * ratio
            has_cells = len(oracles.cell_centers(region, side)) > 0
            if has_cells:
                CellGrid(region, side)
            else:
                with pytest.raises(EmptyGridError, match="leaves no cell center inside"):
                    CellGrid(region, side)
            outcomes.add(has_cells)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("side", [5.0, 1.0, 100.0])
    def test_centers_are_built_on_first_use(self, side):
        grid = CellGrid(REGION, side)
        assert "xy" not in vars(grid) and "cells" not in vars(grid)
        assert grid.xy.tobytes() == oracles.cell_centers(REGION, side).tobytes()

    def test_equality_is_by_value(self):
        # grids key the solver's cache: a grid is its region and cell side
        grid = discretize_region(REGION, 5.0)
        again = CellGrid(RelayRegion(Point(CX, 50.0), 40.0), 5)
        assert grid is not again and grid == again and hash(grid) == hash(again)
        assert grid != CellGrid(RelayRegion(Point(CX, 50.5), 40.0), 5.0)
        assert grid != CellGrid(RelayRegion(REGION.center, 39.0), 5.0)
        assert grid != CellGrid(REGION, 4.0)
        assert grid != grid.cells
        assert not grid.xy.flags.writeable


class TestAngularSpan:
    def test_reference_span_at_source(self):
        lo, hi = angular_span(REGION, BASELINE.source,
                              (BASELINE.destination.x - BASELINE.source.x,
                               BASELINE.destination.y - BASELINE.source.y))
        half = math.asin(40.0 / 100.0)
        assert lo == pytest.approx(math.radians(30) - half, abs=1e-12)
        assert hi == pytest.approx(math.radians(30) + half, abs=1e-12)

    def test_reference_span_at_destination_mirrors(self):
        s_span = angular_span(REGION, BASELINE.source,
                              (BASELINE.destination.x - BASELINE.source.x, 0.0))
        d_span = angular_span(REGION, BASELINE.destination,
                              (BASELINE.source.x, 0.0))
        assert s_span == pytest.approx(d_span, abs=1e-12)

    def test_disc_dead_ahead(self):
        reg = RelayRegion(Point(2, 0), 1.0)
        lo, hi = angular_span(reg, Point(0, 0), (1.0, 0.0))
        assert lo == pytest.approx(-math.pi / 6, abs=1e-12)
        assert hi == pytest.approx(math.pi / 6, abs=1e-12)

    def test_node_inside_region_rejected(self):
        with pytest.raises(GeometryError):
            angular_span(REGION, Point(CX, 60.0), (1.0, 0.0))

    def test_span_contains_sampled_points(self):
        ref = (BASELINE.destination.x - BASELINE.source.x, 0.0)
        lo, hi = angular_span(REGION, BASELINE.source, ref)
        for p in REGION.sample(RngStream(31), 10_000):
            a = span_angle(REGION, BASELINE.source, ref, p)
            assert lo - 1e-12 <= a <= hi + 1e-12


class TestRegion:
    def test_region_invariants(self):
        with pytest.raises(GeometryError):
            RelayRegion(Point(0, 0), 0.0)
        with pytest.raises(GeometryError):
            RelayRegion(Point(0, 0), -2.0)

    def test_baseline_clearance(self):
        check_region_clear_of_baseline(REGION, BASELINE)  # y in [10, 90]: fine
        with pytest.raises(GeometryError):
            check_region_clear_of_baseline(RelayRegion(Point(CX, 30.0), 40.0), BASELINE)

    def test_uniform_density_normalizes(self):
        # crude Monte Carlo consistency of the uniform density value
        val = REGION.density_at(CX, 50.0)
        assert val == pytest.approx(1.0 / (math.pi * 1600.0), rel=1e-12)
        assert REGION.density_at(CX + 41.0, 50.0) == 0.0

    def test_sampling_inside(self):
        for p in sample_relays(REGION, 2000, RngStream(8)):
            assert dist(p, REGION.center) <= REGION.radius
        assert sample_relays(REGION, 0, RngStream(8)) == []

    def test_sample_xy_matches_points_bit_for_bit(self):
        xs, ys = REGION.sample_xy(RngStream(33), 20_000)
        pts = REGION.sample(RngStream(33), 20_000)
        assert [p.x for p in pts] == xs.tolist()
        assert [p.y for p in pts] == ys.tolist()
        # the same draws through the math module, one point at a time
        gen = RngStream(33).generator()
        u_radius, u_angle = gen.random(20_000), gen.random(20_000)
        radii = REGION.radius * np.sqrt(u_radius)
        theta = 2.0 * math.pi * u_angle
        assert xs.tolist() == [float(REGION.center.x + r * math.cos(t))
                               for r, t in zip(radii, theta)]
        assert ys.tolist() == [float(REGION.center.y + r * math.sin(t))
                               for r, t in zip(radii, theta)]
        # the disc mapping `sample_xy` shares with the selftest's blocks, on
        # uneven slices of the same uniforms
        cuts = [0, 1, 7, 4096, 4097, 15_001, 20_000]
        parts = [REGION.disc_xy(u_radius[a:b], u_angle[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate([x for x, _ in parts]).tolist() == xs.tolist()
        assert np.concatenate([y for _, y in parts]).tolist() == ys.tolist()


class TestAnglesFromPoints:
    N = 100_000

    def scalar_angles(self, xs, ys):
        pairs = [angles_from_point(BASELINE, Point(x, y))
                 for x, y in zip(xs.tolist(), ys.tolist())]
        return np.array([a.aod for a in pairs]), np.array([a.aoa for a in pairs])

    def test_within_one_ulp_of_scalar_map(self):
        xs, ys = REGION.sample_xy(RngStream(34), self.N)
        aod, aoa = angles_from_points(BASELINE, xs, ys)
        s_aod, s_aoa = self.scalar_angles(xs, ys)
        assert np.all(np.abs(aod - s_aod) <= np.spacing(s_aod))
        assert np.all(np.abs(aoa - s_aoa) <= np.spacing(s_aoa))

    def test_same_histogram_as_scalar_map(self):
        xs, ys = REGION.sample_xy(RngStream(35), self.N)
        edges = np.linspace(0.0, 1.2, 21)
        counts, _, _ = np.histogram2d(*angles_from_points(BASELINE, xs, ys),
                                      bins=[edges, edges])
        s_counts, _, _ = np.histogram2d(*self.scalar_angles(xs, ys), bins=[edges, edges])
        assert counts.sum() == self.N
        np.testing.assert_array_equal(counts, s_counts)

    def test_collinear_point_in_batch_rejected(self):
        xs, ys = REGION.sample_xy(RngStream(36), 1000)
        for bad in ((50.0, 0.0), (50.0, 50.0 * 1e-12)):
            x, y = xs.copy(), ys.copy()
            x[417], y[417] = bad
            with pytest.raises(DegenerateGeometryError, match="collinear"):
                angles_from_points(BASELINE, x, y)

    def test_non_finite_coordinate_rejected(self):
        xs, ys = REGION.sample_xy(RngStream(37), 10)
        for bad in (math.nan, math.inf):
            x = xs.copy()
            x[3] = bad
            with pytest.raises(GeometryError, match="finite"):
                angles_from_points(BASELINE, x, ys)
            with pytest.raises(GeometryError, match="finite"):
                angles_from_points(BASELINE, ys, x)

    def test_triangle_condition_checked(self):
        # so far out that both angles round to pi/2: both paths reject it
        far = Point(CX, 1e20)
        with pytest.raises(GeometryError, match="triangle"):
            angles_from_point(BASELINE, far)
        with pytest.raises(GeometryError, match="triangle"):
            angles_from_points(BASELINE, np.array([CX, far.x]), np.array([50.0, far.y]))

    def test_empty_batch(self):
        aod, aoa = angles_from_points(BASELINE, np.empty(0), np.empty(0))
        assert aod.shape == aoa.shape == (0,)
