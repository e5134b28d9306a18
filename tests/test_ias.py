import math

import numpy as np
import pytest

from oracles import integrate_angle_cell
from relaytomo import ias
from relaytomo.channel import ChannelParams, HopPair, outage_capacity, outage_capacity_array
from relaytomo.errors import DegenerateGeometryError, DomainError
from relaytomo.geometry import (
    Baseline,
    Point,
    RelayRegion,
    angles_from_points,
    angular_span,
    sample_relays,
)
from relaytomo.ias import (
    DEFAULT_MASS_FLOOR,
    SINGULAR_TOL,
    AngularGrid,
    DiscreteIas,
    FlowAtom,
    _chord_kinks,
    _sampled_angle_counts,
    _uniform_bins,
    _uniform_histogram2d,
    angle_cell_mass,
    build_grid,
    continuous_ias,
    discrete_ias,
    integrate_angle_cells,
    joint_angle_pdf,
)
from relaytomo.numerics import QuadratureSpec, RngStream, gauss_legendre

SX = 100.0 * math.sqrt(3.0)
CX = 50.0 * math.sqrt(3.0)
BASELINE = Baseline(Point(SX, 0.0), Point(0.0, 0.0))
REGION = RelayRegion(Point(CX, 50.0), 40.0)
PARAMS = ChannelParams.from_db(30.0, 1.0, -3.0, 0.01)

# m=1 closed-form outage capacity of the symmetric 100 m / 100 m path
REF_CAPACITY = 0.5 * math.log2(1.0 - math.log(0.99) / 2000.0)


def cell_bounds(grid: AngularGrid, i: int, j: int) -> tuple[float, float, float, float]:
    """(aod_lo, aod_hi, aoa_lo, aoa_hi) of grid cell (i, j), absolute indices:
    one row of `AngularGrid.cell_array`, by its per-cell formula."""
    w, p = i * grid.d_aod, j * grid.d_aoa
    return (w - 0.5 * grid.d_aod, w + 0.5 * grid.d_aod,
            p - 0.5 * grid.d_aoa, p + 0.5 * grid.d_aoa)


def spans_box(grid: AngularGrid) -> tuple[float, float, float, float]:
    return (grid.i_lo * grid.d_aod - 0.5 * grid.d_aod,
            grid.i_hi * grid.d_aod + 0.5 * grid.d_aod,
            grid.j_lo * grid.d_aoa - 0.5 * grid.d_aoa,
            grid.j_hi * grid.d_aoa + 0.5 * grid.d_aoa)


def angle_cell_mass_generic(
    region: RelayRegion,
    baseline: Baseline,
    cell: tuple[float, float, float, float],
    order: int = 16,
    max_depth: int = 4,
) -> float:
    """Oracle for `angle_cell_mass`: plain tensor quadrature of the pdf,
    recursively subdividing cells that straddle the region boundary."""
    w_lo, w_hi, p_lo, p_hi = cell
    if w_hi <= w_lo or p_hi <= p_lo:
        return 0.0
    nodes, weights = gauss_legendre(order)

    def pdf_or_zero(omega: float, psi: float) -> float:
        if abs(math.sin(omega + psi)) < SINGULAR_TOL:
            return 0.0
        return joint_angle_pdf(omega, psi, region, baseline)

    def recurse(wl, wh, pl, ph, depth):
        mid_w, half_w = 0.5 * (wl + wh), 0.5 * (wh - wl)
        mid_p, half_p = 0.5 * (pl + ph), 0.5 * (ph - pl)
        vals = np.empty((order, order))
        for a, tw in enumerate(nodes):
            for b, tp in enumerate(nodes):
                vals[a, b] = pdf_or_zero(mid_w + half_w * tw, mid_p + half_p * tp)
        n_zero = int(np.count_nonzero(vals == 0.0))
        straddles = 0 < n_zero < vals.size
        if not straddles or depth >= max_depth:
            return half_w * half_p * float(weights @ vals @ weights)
        return sum(
            recurse(a0, a1, b0, b1, depth + 1)
            for a0, a1 in ((wl, mid_w), (mid_w, wh))
            for b0, b1 in ((pl, mid_p), (mid_p, ph))
        )

    return recurse(w_lo, w_hi, p_lo, p_hi, 0)


def chord_ends(omega: np.ndarray) -> np.ndarray:
    """Arrival angles, (2, ...), where the departure rays at omega enter and
    leave the disc, in the test frame (destination at the origin, source on
    the positive x axis, region above it); NaN where a ray misses."""
    dx, dy = -np.cos(omega), np.sin(omega)
    cx, cy = REGION.center.x - SX, REGION.center.y
    b = dx * cx + dy * cy
    disc = b * b - (cx * cx + cy * cy - REGION.radius**2)
    root = np.sqrt(np.where(disc > 0.0, disc, np.nan))
    return np.array([np.arctan2(t * dy, SX + t * dx) for t in (b - root, b + root)])


def scanned_kinks(cells, n: int = 4001) -> list[np.ndarray]:
    """Oracle for `_chord_kinks`: each chord end is scanned at n departure
    angles across each cell against both arrival edges, and every sign
    change is bisected down to rounding."""
    brackets = []  # (cell, lower omega, upper omega, chord end, edge)
    for k, (w_lo, w_hi, p_lo, p_hi) in enumerate(cells):
        omegas = np.linspace(w_lo, w_hi, n)
        ends = chord_ends(omegas)
        for which in (0, 1):
            for edge in (p_lo, p_hi):
                g = ends[which] - edge
                for s in np.flatnonzero(g[:-1] * g[1:] < 0.0):
                    brackets.append((k, omegas[s], omegas[s + 1], which, edge))
    cell, lo, hi, which, edge = (np.array(col) for col in zip(*brackets))
    rows = np.arange(len(brackets))
    g_lo = chord_ends(lo)[which, rows] - edge
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        same = (chord_ends(mid)[which, rows] - edge) * g_lo > 0.0
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    kinks = 0.5 * (lo + hi)
    return [np.sort(kinks[cell == k]) for k in range(len(cells))]


class TestContinuousIas:
    def test_single_relay_reference_atom(self):
        atoms = continuous_ias([Point(CX, 50.0)], BASELINE, PARAMS)
        assert len(atoms) == 1
        a = atoms[0]
        assert math.degrees(a.aod) == pytest.approx(30.0, abs=1e-9)
        assert math.degrees(a.aoa) == pytest.approx(30.0, abs=1e-9)
        assert a.capacity == pytest.approx(REF_CAPACITY, abs=1e-9)
        assert a.relay == 0

    def test_empty_relay_set(self):
        assert continuous_ias([], BASELINE, PARAMS) == []

    def test_atoms_inside_angular_spans(self):
        relays = sample_relays(REGION, 100, RngStream(51))
        atoms = continuous_ias(relays, BASELINE, PARAMS)
        s, d = BASELINE.source, BASELINE.destination
        olo, ohi = angular_span(REGION, s, (d.x - s.x, d.y - s.y))
        plo, phi = angular_span(REGION, d, (s.x - d.x, s.y - d.y))
        for a in atoms:
            assert a.aod + a.aoa < math.pi
            assert olo - 1e-12 <= a.aod <= ohi + 1e-12
            assert plo - 1e-12 <= a.aoa <= phi + 1e-12

    def test_atom_invariants(self):
        with pytest.raises(DomainError):
            FlowAtom(0.5, 0.5, -1.0, 0)


class TestJointAnglePdf:
    def test_zero_outside_region_image(self):
        # angles mapping to the disc center vs to a point far outside
        assert joint_angle_pdf(math.radians(30), math.radians(30), REGION, BASELINE) > 0
        assert joint_angle_pdf(math.radians(80), math.radians(80), REGION, BASELINE) == 0.0

    def test_singular_angle_sum(self):
        with pytest.raises(DegenerateGeometryError):
            joint_angle_pdf(math.pi / 2, math.pi / 2, REGION, BASELINE)

    def test_change_of_variables_value(self):
        # pdf = uniform density x jacobian d^2 sin(w) sin(p) / sin^3(w+p)
        w, p = math.radians(30), math.radians(30)
        jac = SX**2 * math.sin(w) * math.sin(p) / math.sin(w + p) ** 3
        expect = jac / (math.pi * 40.0**2)
        assert joint_angle_pdf(w, p, REGION, BASELINE) == pytest.approx(expect, rel=1e-12)

    def test_normalization(self):
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        total = sum(
            angle_cell_mass(REGION, BASELINE, cell_bounds(grid, i, j))
            for i in range(grid.i_lo, grid.i_hi + 1)
            for j in range(grid.j_lo, grid.j_hi + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("deg", [5.0, 2.5])
    def test_fine_grid_masses_sum_to_one(self, deg):
        grid = build_grid(REGION, BASELINE, math.radians(deg), math.radians(deg))
        total = sum(
            angle_cell_mass(REGION, BASELINE, cell_bounds(grid, i, j))
            for i in range(grid.i_lo, grid.i_hi + 1)
            for j in range(grid.j_lo, grid.j_hi + 1)
        )
        assert abs(total - 1.0) <= 1e-9

    def test_kinks_match_dense_scan(self):
        grid = build_grid(REGION, BASELINE, math.radians(2.5), math.radians(2.5))
        s, d = BASELINE.source, BASELINE.destination
        span = angular_span(REGION, s, (d.x - s.x, d.y - s.y))
        cells = []
        for i in range(grid.i_lo, grid.i_hi + 1):
            for j in range(grid.j_lo, grid.j_hi + 1):
                w_lo, w_hi, p_lo, p_hi = cell_bounds(grid, i, j)
                w_lo, w_hi = max(w_lo, span[0]), min(w_hi, span[1])
                if w_lo < w_hi:
                    cells.append((w_lo, w_hi, p_lo, p_hi))
        expected = scanned_kinks(cells)
        assert len(cells) == 399 and sum(k.size for k in expected) > 60
        kinks = _chord_kinks(REGION, BASELINE, *np.array(cells).T)
        for cell, row, want in zip(cells, kinks, expected):
            got = np.sort(row[~np.isnan(row)])
            assert got.shape == want.shape, cell
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_cell_mass_against_monte_carlo(self):
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        n = 500_000
        aod, aoa = angles_from_points(BASELINE, *REGION.sample_xy(RngStream(52), n))
        for (i, j) in ((3, 3), (2, 4), (4, 2)):
            cell = cell_bounds(grid, i, j)
            hits = np.count_nonzero((cell[0] <= aod) & (aod <= cell[1])
                                    & (cell[2] <= aoa) & (aoa <= cell[3]))
            mc = hits / n
            quad = angle_cell_mass(REGION, BASELINE, cell)
            se = math.sqrt(quad * (1 - quad) / n)
            assert abs(mc - quad) <= 4.0 * se

    def test_generic_integrator_agrees(self):
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        cell = cell_bounds(grid, 3, 3)
        exact = angle_cell_mass(REGION, BASELINE, cell)
        generic = angle_cell_mass_generic(REGION, BASELINE, cell, max_depth=5)
        assert generic == pytest.approx(exact, rel=2e-3)


def selftest_lattice(grid: AngularGrid, bins: int = 20) -> np.ndarray:
    """The selftest's bins x bins cells spanning the grid's angle box, as (bins^2, 4)."""
    w_lo, w_hi, p_lo, p_hi = spans_box(grid)
    w, p = np.linspace(w_lo, w_hi, bins + 1), np.linspace(p_lo, p_hi, bins + 1)
    return np.stack(np.broadcast_arrays(w[:-1, None], w[1:, None], p[:-1], p[1:]),
                    axis=-1).reshape(-1, 4)


def span_end_cells() -> np.ndarray:
    """Arrival bands whose departure range covers the whole span, so each cell
    is cut at both span ends and split toward both tangencies."""
    s, d = BASELINE.source, BASELINE.destination
    w_lo, w_hi = angular_span(REGION, s, (d.x - s.x, d.y - s.y))
    bands = np.linspace(0.0, math.radians(60.0), 7)
    return np.array([(w_lo - 0.1, w_hi + 0.1, lo, hi) for lo, hi in zip(bands, bands[1:])])


MIRRORED = RelayRegion(Point(CX, -50.0), 40.0)


class TestCellQuadrature:
    """`integrate_angle_cells` against the per-cell oracle, bit for bit."""

    @pytest.mark.parametrize("region, cells, order", [
        (REGION, build_grid(REGION, BASELINE, math.radians(10), math.radians(10)).cell_array(), 16),
        (REGION, build_grid(REGION, BASELINE, math.radians(5), math.radians(5)).cell_array(), 16),
        (REGION, build_grid(REGION, BASELINE, math.radians(2.5), math.radians(2.5)).cell_array(),
         16),
        (REGION, selftest_lattice(build_grid(REGION, BASELINE, math.radians(10),
                                             math.radians(10))), 12),
        (MIRRORED, build_grid(MIRRORED, BASELINE, math.radians(5), math.radians(5)).cell_array(),
         16),
        (REGION, span_end_cells(), 8),
    ], ids=["10deg", "5deg", "2.5deg", "selftest", "mirrored", "span-ends"])
    def test_matches_per_cell_oracle(self, region, cells, order):
        masses, rows, counts = integrate_angle_cells(region, BASELINE, cells, order)
        assert masses.shape == counts.shape == (len(cells),) and counts.sum() == len(rows)
        assert np.count_nonzero(masses) >= 6
        for cell, mass, cell_rows in zip(cells, masses, np.split(rows, np.cumsum(counts)[:-1])):
            want_mass, want_rows = integrate_angle_cell(region, BASELINE, tuple(cell), order)
            assert mass == want_mass, cell
            assert np.array_equal(cell_rows, want_rows), cell

    def test_span_end_cells_carry_all_mass(self):
        masses, _, _ = integrate_angle_cells(REGION, BASELINE, span_end_cells(), 16)
        assert float(masses.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_cell_array_matches_cell_bounds(self):
        grid = build_grid(REGION, BASELINE, math.radians(2.5), math.radians(5))
        want = [cell_bounds(grid, i, j) for i in range(grid.i_lo, grid.i_hi + 1)
                for j in range(grid.j_lo, grid.j_hi + 1)]
        assert np.array_equal(grid.cell_array(), np.array(want))

    def test_blocks_hold_node_budget(self, monkeypatch):
        grid = build_grid(REGION, BASELINE, math.radians(5), math.radians(5))
        quad = QuadratureSpec(8)
        whole = discrete_ias(grid, REGION, BASELINE, PARAMS, quad)
        cell_nodes = ias._MAX_INTERVALS * quad.order**2  # a cell's nodes, at most
        budget = 2 * cell_nodes + 1  # two cells per block
        blocks, sizes = [], []

        def integrate(region, baseline, cells, order):
            blocks.append(len(cells))
            return integrate_angle_cells(region, baseline, cells, order)

        def solve(hops, params):
            sizes.append(np.size(hops.d_sr))
            return outage_capacity_array(hops, params)

        monkeypatch.setattr(ias, "NODE_BUDGET", budget)
        monkeypatch.setattr(ias, "integrate_angle_cells", integrate)
        monkeypatch.setattr(ias, "outage_capacity_array", solve)
        blocked = discrete_ias(grid, REGION, BASELINE, PARAMS, quad)
        assert max(blocks) * cell_nodes <= budget and sum(blocks) == grid.n_aod * grid.n_aoa
        assert len(sizes) > 10 and max(sizes) <= budget
        assert np.array_equal(blocked.masses, whole.masses)
        assert np.array_equal(blocked.values, whole.values)


class TestUniformBins:
    """Index binning against np.histogram2d on and around every edge."""

    @staticmethod
    def probes(edges: np.ndarray) -> np.ndarray:
        mids = 0.5 * (edges[:-1] + edges[1:])
        return np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                               mids, [edges[0] - 1.0, edges[-1] + 1.0]))

    @pytest.mark.parametrize("edges", [
        np.linspace(*spans_box(build_grid(REGION, BASELINE, math.radians(10),
                                          math.radians(10)))[:2], 21),
        np.linspace(-0.35, 1.2, 21),
        np.linspace(0.1, 0.7, 8),
    ], ids=["selftest", "negative", "coarse"])
    def test_bins_match_histogram2d(self, edges):
        v = self.probes(edges)
        mid = np.array([0.5])
        want = [np.histogram2d([x], mid, bins=[edges, [0.0, 1.0]])[0][:, 0] for x in v]
        want = np.array([np.argmax(h) if h.any() else edges.size - 1 for h in want])
        assert np.array_equal(_uniform_bins(v, edges), want)
        # the last edge counts in the last bin; values off the edges are dropped
        assert _uniform_bins(edges[-1:], edges)[0] == edges.size - 2
        assert (_uniform_bins(np.array([np.nextafter(edges[0], -np.inf), edges[0] - 1.0,
                                        np.nextafter(edges[-1], np.inf)]), edges)
                == edges.size - 1).all()

    def test_counts_match_histogram2d(self):
        x_edges, y_edges = np.linspace(-0.35, 1.2, 21), np.linspace(0.1, 0.7, 8)
        x, y = (g.ravel() for g in np.meshgrid(self.probes(x_edges), self.probes(y_edges)))
        want, _, _ = np.histogram2d(x, y, bins=[x_edges, y_edges])
        got = _uniform_histogram2d(x, y, x_edges, y_edges)
        assert want.sum() < x.size and np.array_equal(got, want)


class TestSampledAngleCounts:
    """The selftest's blocked counts against one whole-array histogram."""

    BLOCK = 64

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 3 * BLOCK + 17])
    def test_blocks_match_whole_histogram(self, monkeypatch, n):
        w_lo, w_hi, p_lo, p_hi = spans_box(build_grid(REGION, BASELINE, math.radians(10),
                                                      math.radians(10)))
        w_edges, p_edges = np.linspace(w_lo, w_hi, 21), np.linspace(p_lo, p_hi, 21)
        want, _, _ = np.histogram2d(*angles_from_points(BASELINE, *REGION.sample_xy(
            RngStream(53), n)), bins=[w_edges, p_edges])
        sizes = []

        def angles(baseline, x, y):
            sizes.append(x.size)
            return angles_from_points(baseline, x, y)

        monkeypatch.setattr(ias, "SAMPLE_BLOCK", self.BLOCK)
        monkeypatch.setattr(ias, "angles_from_points", angles)
        got = _sampled_angle_counts(REGION, BASELINE, RngStream(53), n, w_edges, p_edges)
        assert np.array_equal(got, want)
        assert sum(sizes) == n and max(sizes) <= self.BLOCK
        assert len(sizes) == -(-n // self.BLOCK)

    def test_blocks_keep_the_angle_checks(self, monkeypatch):
        block = self.BLOCK

        def disc_xy(region, u_radius, u_angle):
            # only the short last block maps onto the baseline
            return np.full(u_radius.size, CX), np.full(u_radius.size,
                                                       50.0 if u_radius.size == block else 0.0)

        monkeypatch.setattr(ias, "SAMPLE_BLOCK", block)
        monkeypatch.setattr(RelayRegion, "disc_xy", disc_xy)
        edges = np.linspace(0.0, 1.0, 3)
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            _sampled_angle_counts(REGION, BASELINE, RngStream(54), 3 * self.BLOCK + 17,
                                  edges, edges)


class TestBuildGrid:
    def test_reference_grid_indices(self):
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        assert (grid.i_lo, grid.i_hi) == (0, 6)
        assert (grid.j_lo, grid.j_hi) == (0, 6)
        aod = grid.d_aod * np.arange(grid.i_lo, grid.i_hi + 1)
        np.testing.assert_allclose(np.degrees(aod), np.arange(0.0, 61.0, 10.0), atol=1e-12)

    def test_resolution_wider_than_span(self):
        # floor/ceil bounds always bracket the span, so a resolution wider
        # than the whole span still yields the two enclosing indices {0, 1}
        grid = build_grid(REGION, BASELINE, math.radians(90), math.radians(90))
        assert (grid.i_lo, grid.i_hi) == (0, 1)
        assert grid.n_aod == 2

    def test_halving_resolution_grows_range(self):
        for d in (10.0, 5.0, 2.5):
            coarse = build_grid(REGION, BASELINE, math.radians(d), math.radians(d))
            fine = build_grid(REGION, BASELINE, math.radians(d / 2), math.radians(d / 2))
            assert fine.n_aod >= coarse.n_aod
            assert fine.n_aoa >= coarse.n_aoa

    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            AngularGrid(0.0, 0.1, 0, 1, 0, 1)
        with pytest.raises(DomainError):
            AngularGrid(0.1, 0.1, 2, 1, 0, 1)

    def test_grid_bounds_its_cells_by_its_index_ranges(self):
        # a direct build is bounded as a configured one is; no cell is laid out
        assert AngularGrid(0.1, 0.1, 0, ias.MAX_GRID_CELLS - 1, 5, 5).n_aod == ias.MAX_GRID_CELLS
        for shape in ((0, ias.MAX_GRID_CELLS, 5, 5), (-3, 3, 0, ias.MAX_GRID_CELLS // 7)):
            with pytest.raises(DomainError, match=f"more than the {ias.MAX_GRID_CELLS:,} allowed"):
                AngularGrid(0.1, 0.1, *shape)


def scalar_spectrum(grid: AngularGrid, params: ChannelParams, quad: QuadratureSpec):
    """The per-node scalar oracle of discrete_ias: one outage solve per node,
    accumulated node by node."""
    values = np.zeros((grid.n_aod, grid.n_aoa))
    masses = np.zeros_like(values)
    for a, i in enumerate(range(grid.i_lo, grid.i_hi + 1)):
        for b, j in enumerate(range(grid.j_lo, grid.j_hi + 1)):
            mass, nodes = integrate_angle_cell(REGION, BASELINE, cell_bounds(grid, i, j),
                                               order=quad.order)
            if mass < DEFAULT_MASS_FLOOR:
                continue
            value = 0.0
            for omega, psi, weight in nodes:
                s = math.sin(omega + psi)
                hops = HopPair(BASELINE.length * math.sin(psi) / s,
                               BASELINE.length * math.sin(omega) / s)
                value += weight * outage_capacity(hops, params)
            masses[a, b] = mass
            values[a, b] = value / mass
    return values, masses


@pytest.fixture(scope="module")
def reference_spectrum():
    grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
    return discrete_ias(grid, REGION, BASELINE, PARAMS)


class TestDiscreteIas:
    def test_masses_sum_to_one(self, reference_spectrum):
        assert float(reference_spectrum.masses.sum()) == pytest.approx(1.0, abs=1e-4)

    def test_cell_values_within_probe_bounds(self, reference_spectrum):
        spectrum = reference_spectrum
        grid = spectrum.grid
        for a, i in enumerate(range(grid.i_lo, grid.i_hi + 1)):
            for b, j in enumerate(range(grid.j_lo, grid.j_hi + 1)):
                if spectrum.masses[a, b] == 0.0:
                    assert spectrum.values[a, b] == 0.0
                    continue
                w_lo, w_hi, p_lo, p_hi = cell_bounds(grid, i, j)
                probes = []
                for w in np.linspace(w_lo, w_hi, 5):
                    for p in np.linspace(p_lo, p_hi, 5):
                        if w <= 0 or p <= 0 or w + p >= math.pi - 1e-9:
                            continue
                        s = math.sin(w + p)
                        hops = HopPair(SX * math.sin(p) / s, SX * math.sin(w) / s)
                        probes.append(outage_capacity(hops, PARAMS))
                assert min(probes) - 1e-12 <= spectrum.values[a, b] <= max(probes) + 1e-12

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_matches_scalar_oracle(self, m):
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        params = ChannelParams.from_db(30.0, m, -3.0, 0.01)
        quad = QuadratureSpec(8)
        spectrum = discrete_ias(grid, REGION, BASELINE, params, quad)
        values, masses = scalar_spectrum(grid, params, quad)
        assert (masses > 0.0).sum() > 10
        np.testing.assert_array_equal(spectrum.masses, masses)
        np.testing.assert_array_equal(spectrum.values, values)

    def test_refinement_tightens_cell_averages(self):
        # as the grid refines, cell averages approach the center capacities
        devs = []
        for d in (10.0, 5.0, 2.5):
            grid = build_grid(REGION, BASELINE, math.radians(d), math.radians(d))
            spectrum = discrete_ias(grid, REGION, BASELINE, PARAMS, QuadratureSpec(8))
            num = 0.0
            mass = 0.0
            for a, i in enumerate(range(grid.i_lo, grid.i_hi + 1)):
                for b, j in enumerate(range(grid.j_lo, grid.j_hi + 1)):
                    if spectrum.masses[a, b] == 0.0:
                        continue
                    w, p = i * grid.d_aod, j * grid.d_aoa
                    if w <= 0 or p <= 0 or w + p >= math.pi - 1e-9:
                        continue
                    s = math.sin(w + p)
                    center = outage_capacity(
                        HopPair(SX * math.sin(p) / s, SX * math.sin(w) / s), PARAMS)
                    num += spectrum.masses[a, b] * abs(spectrum.values[a, b] - center)
                    mass += spectrum.masses[a, b]
            devs.append(num / mass)
        assert devs[0] > devs[1] > devs[2]

    def test_monotone_decay_over_interior(self, reference_spectrum):
        spectrum = reference_spectrum
        nonempty = spectrum.masses > 0.0
        interior = np.zeros_like(nonempty)
        interior[1:-1, 1:-1] = (nonempty[1:-1, 1:-1] & nonempty[:-2, 1:-1] &
                                nonempty[2:, 1:-1] & nonempty[1:-1, :-2] &
                                nonempty[1:-1, 2:])
        checked = 0
        for a in range(spectrum.values.shape[0] - 1):
            for b in range(spectrum.values.shape[1]):
                if interior[a, b] and interior[a + 1, b]:
                    assert spectrum.values[a + 1, b] <= spectrum.values[a, b] * (1 + 1e-9)
                    checked += 1
        for a in range(spectrum.values.shape[0]):
            for b in range(spectrum.values.shape[1] - 1):
                if interior[a, b] and interior[a, b + 1]:
                    assert spectrum.values[a, b + 1] <= spectrum.values[a, b] * (1 + 1e-9)
                    checked += 1
        assert checked >= 4

    def test_invariants_enforced(self, reference_spectrum):
        grid = reference_spectrum.grid
        bad = np.array(reference_spectrum.values)
        bad[0, 0] = -1.0
        with pytest.raises(DomainError):
            DiscreteIas(grid, bad, reference_spectrum.masses)


class TestEquivariance:
    def test_rigid_motions_preserve_spectra(self):
        gen = RngStream(53).generator()
        w, p = math.radians(28.0), math.radians(33.0)
        base_pdf = joint_angle_pdf(w, p, REGION, BASELINE)
        base_atom = continuous_ias([Point(CX, 50.0)], BASELINE, PARAMS)[0]
        for _ in range(5):
            theta = float(gen.uniform(0, 2 * math.pi))
            tx, ty = float(gen.uniform(-500, 500)), float(gen.uniform(-500, 500))
            ct, st_ = math.cos(theta), math.sin(theta)

            def move(pt: Point) -> Point:
                return Point(ct * pt.x - st_ * pt.y + tx, st_ * pt.x + ct * pt.y + ty)

            bl = Baseline(move(BASELINE.source), move(BASELINE.destination))
            reg = RelayRegion(move(REGION.center), REGION.radius)
            assert joint_angle_pdf(w, p, reg, bl) == pytest.approx(base_pdf, rel=1e-9)
            atom = continuous_ias([move(Point(CX, 50.0))], bl, PARAMS)[0]
            assert atom.aod == pytest.approx(base_atom.aod, abs=1e-9)
            assert atom.aoa == pytest.approx(base_atom.aoa, abs=1e-9)
            assert atom.capacity == pytest.approx(base_atom.capacity, rel=1e-9)

    def test_rigid_motion_preserves_cell_masses(self):
        theta, tx, ty = 1.2, -300.0, 80.0
        ct, st_ = math.cos(theta), math.sin(theta)

        def move(pt: Point) -> Point:
            return Point(ct * pt.x - st_ * pt.y + tx, st_ * pt.x + ct * pt.y + ty)

        bl = Baseline(move(BASELINE.source), move(BASELINE.destination))
        reg = RelayRegion(move(REGION.center), REGION.radius)
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        for (i, j) in ((3, 3), (1, 2), (4, 5)):
            cell = cell_bounds(grid, i, j)
            assert angle_cell_mass(reg, bl, cell) == pytest.approx(
                angle_cell_mass(REGION, BASELINE, cell), rel=1e-9, abs=1e-15)
