import math
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    first_stop,
    footprint_lattice,
    footprint_scan,
    gathered_hop_evidence,
    node_angle,
    quantize_angle,
    sequential_tests,
)
from relaytomo.channel import (
    LN4,
    ChannelParams,
    HopPair,
    capacity_log_pdf,
    outage_capacity,
    rho_scales,
)
from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.errors import DomainError, LocalizationError, MeasurementError
from relaytomo.geometry import CellGrid, Point, RelayRegion, dist, sample_relays
from relaytomo.measurement import (
    MAX_NODES,
    MeasurementNetwork,
    MeasurementSet,
    angle_bins,
    simulate_measurements,
)
from relaytomo.numerics import RngStream
from relaytomo import tomography
from relaytomo.tomography import (
    KIND_ARGMIN,
    KIND_FORCED_MAP,
    KIND_THRESHOLD,
    KIND_UNLOCALIZED,
    LocalizationResult,
    MsprtConfig,
    TomographyConfig,
    feasible_cells,
    localize_all,
    localize_argmin,
    msprt_localize,
    score_results,
    write_report,
)

CX = 50.0 * math.sqrt(3.0)
CFG = scenario_from_dict(default_config_dict())
NET = CFG.network()
GRID = CFG.cell_grid()
PARAMS = CFG.channel_params()
REGION = CFG.region()


def footprint_support(ms: MeasurementSet, relay: int, net: MeasurementNetwork,
                      grid: CellGrid) -> tuple[list[int], np.ndarray]:
    """The cells msprt mode weighs for one relay, with their footprint shares:
    the groups of its joint bin, from the candidate step `localize_all` runs."""
    ms, fp = ms.in_pair_order(net.ordered_pairs()), tomography._footprint(net, grid)
    ((start, count),), cells = tomography._candidates(ms, [relay], net, fp, "msprt")
    group = slice(start, start + count)
    return cells[group].tolist(), fp.group_shares[group].copy()


def joint_bin_columns(net: MeasurementNetwork, grid: CellGrid) -> dict[int, tuple]:
    """Each joint bin's node bins by its key in the footprint's table: every
    in-disc lattice point of the oracle's scan, keyed as the table keys it."""
    points, inside = footprint_lattice(net, grid)
    bins = points[inside]  # (points, nodes)
    fp = tomography._footprint(net, grid)
    keys = tomography._joint_keys(bins.T, fp.radix, fp.key_steps)
    return dict(zip(keys.tolist(), map(tuple, bins.tolist())))


def ring_net(n_nodes: int, resolution_deg: float) -> MeasurementNetwork:
    """n_nodes evenly on a ring of 1.6 region radii around the region center."""
    c, ring = REGION.center, 1.6 * REGION.radius
    phases = 2 * math.pi * np.arange(n_nodes) / n_nodes
    nodes = tuple(Point(c.x + ring * math.cos(a), c.y + ring * math.sin(a)) for a in phases)
    return MeasurementNetwork(nodes, math.radians(resolution_deg), REGION)


def binned_set(net: MeasurementNetwork, bins: np.ndarray) -> MeasurementSet:
    """A set whose relay l measures node bin bins[q, l] on every row node q
    receives, with zero capacities."""
    aoa = bins[net.receivers] * net.resolution
    return MeasurementSet(tuple(net.ordered_pairs()), aoa, np.zeros(aoa.shape),
                          np.zeros(aoa.shape + (1,)))


def padded(rows, valid: np.ndarray) -> np.ndarray:
    """Ragged rows as one table shaped like valid, its True lanes holding them; 0 elsewhere."""
    table = np.zeros(valid.shape, np.asarray(rows[0]).dtype)
    table[valid] = np.concatenate(rows)
    return table


def true_cell_of(p: Point) -> int:
    return min(range(len(GRID.cells)), key=lambda w: dist(GRID.cells[w], p))


def four_node_net() -> MeasurementNetwork:
    """The reference network with a fourth node on its ring: 12 ordered pairs."""
    ring = 48.0
    node = Point(CX + ring * math.cos(5 * math.pi / 4), 50.0 + ring * math.sin(5 * math.pi / 4))
    return MeasurementNetwork(NET.nodes + (node,), NET.resolution, REGION)


def six_node_net() -> MeasurementNetwork:
    """The reference network with three more nodes on its ring: 15 unordered
    pairs, past the 8 terms where numpy's sums turn pairwise."""
    ring = 48.0
    angles = np.radians([225.0, 105.0, -15.0])
    nodes = tuple(Point(CX + ring * math.cos(a), 50.0 + ring * math.sin(a)) for a in angles)
    return MeasurementNetwork(NET.nodes + nodes, NET.resolution, REGION)


def hops_via(pair: tuple[int, int], p: Point) -> HopPair:
    """Hop lengths of the path q1 -> p -> q2."""
    q1, q2 = pair
    return HopPair(dist(NET.nodes[q1], p), dist(p, NET.nodes[q2]))


def exact_capacity_row(cell: Point) -> np.ndarray:
    return np.array([
        outage_capacity(hops_via(pair, cell), PARAMS)
        for pair in NET.ordered_pairs()
    ])


def synthetic_set(relays, observations=10, seed=99) -> MeasurementSet:
    return simulate_measurements(NET, relays, PARAMS, observations, RngStream(seed))


def all_pairs_winners(log_lik, threshold) -> list[int]:
    """Positions of the hypotheses that beat every rival by more than threshold."""
    k = len(log_lik)
    return [ki for ki in range(k)
            if all(log_lik[ki] - log_lik[k2] > threshold for k2 in range(k) if k2 != ki)]


def sequential_oracle(candidates, weights, raw, cfg):
    """The sequential test one observation at a time over the q1 < q2 rows,
    from the prior of the weights normalized over the candidates, stopping
    when some hypothesis beats every rival by cfg.threshold: (cell index,
    decision kind, stopping index)."""
    pairs = NET.ordered_pairs()
    k = len(candidates)
    log_lik = np.log(np.asarray(weights) / np.sum(weights))
    if k == 1:
        return candidates[0], KIND_THRESHOLD, 0
    n_obs = min(raw.shape[1], cfg.max_observations)
    for o in range(n_obs):
        for ki, w in enumerate(candidates):
            for p_idx, pair in enumerate(pairs):
                if pair[0] < pair[1]:
                    log_lik[ki] += capacity_log_pdf(float(raw[p_idx, o]),
                                                    hops_via(pair, GRID.cells[w]), PARAMS)
        if not np.any(np.isfinite(log_lik)):
            return candidates[0], KIND_FORCED_MAP, o + 1
        winners = all_pairs_winners(log_lik, cfg.threshold)
        if winners:
            best = max(winners, key=lambda ki: (log_lik[ki], -ki))
            return candidates[best], KIND_THRESHOLD, o + 1
    return candidates[int(np.argmax(log_lik))], KIND_FORCED_MAP, n_obs


def set_decisions(found, raws, params, threshold, grid=GRID):
    """The set-level pass over relays given as (candidates, weights or None,
    uniform) and (unordered pairs, observations) draws: one padded table,
    one evidence call and one sequential-test pass."""
    sizes = [len(candidates) for candidates, _ in found]
    valid = np.arange(max(sizes)) < np.array(sizes)[:, None]
    cells = padded([np.asarray(candidates) for candidates, _ in found], valid)
    priors = [np.full(len(c), -math.log(len(c))) if w is None else np.log(w / w.sum())
              for c, w in found]
    evidence = tomography._capacity_evidence(tomography._footprint(NET, grid),
                                             tomography._tables(NET, grid, params)[1], cells,
                                             np.stack(raws), params)
    return tomography._sequential_tests(cells, valid, padded(priors, valid), evidence, threshold)


def l2_oracle(values) -> float:
    # a scalar loop of squares and sums, in pair order; v * v is the
    # correctly rounded square, which libm's pow(v, 2) misses on rare inputs
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total)


def residuals_oracle(ms, relay, w, net=NET) -> tuple[float, float]:
    """(e_angle, e_capacity) of cell w against relay's rows of ms, by scalar
    solves and running sums.  Angles and hops are the cell's row of the
    `net.distances` and `net.angles` calls over GRID.xy that the solver's
    footprint makes (`test_table_is_the_scalar_geometry` checks both against
    the math module), so a comparison checks the summation order and the
    outage solve alone, not how numpy and libm round."""
    d, angle = net.distances(*GRID.xy.T), net.angles(*GRID.xy.T)
    e_angle = l2_oracle(float(ms.aoa[p, relay]) - float(angle[w, q2])
                        for p, (_, q2) in enumerate(ms.pairs))
    e_capacity = l2_oracle(
        float(ms.cap_est[p, relay])
        - outage_capacity(HopPair(float(d[w, q1]), float(d[w, q2])), PARAMS)
        for p, (q1, q2) in enumerate(ms.pairs))
    return e_angle, e_capacity


class TestFeasibleCells:
    def test_matches_per_cell_oracle(self):
        # the cells whose center quantizes into every measured bin, with one
        # node_angle call per cell and pair
        relays = sample_relays(REGION, 40, RngStream(82))
        ms = synthetic_set(relays, seed=83)
        nonempty = 0
        for l in range(len(relays)):
            bins = [(q2, quantize_angle(float(ms.aoa[p_idx, l]), NET.resolution)[0])
                    for p_idx, (_, q2) in enumerate(ms.pairs)]
            want = [w for w, cell in enumerate(GRID.cells)
                    if all(quantize_angle(node_angle(NET, q2, cell), NET.resolution)[0] == b
                           for q2, b in bins)]
            assert feasible_cells(ms, l, NET, GRID) == want
            nonempty += bool(want)
        assert nonempty >= 20

    def test_contradictory_bins_empty(self):
        relay = sample_relays(REGION, 1, RngStream(81))[0]
        ms_full = synthetic_set([relay])
        aoa = ms_full.aoa.copy()
        # two rows received at the same node claiming incompatible bins
        index = {pair: k for k, pair in enumerate(ms_full.pairs)}
        aoa[index[(0, 1)], 0] = 0.0
        aoa[index[(2, 1)], 0] = math.radians(40.0)
        ms = MeasurementSet(ms_full.pairs, aoa, ms_full.cap_est, ms_full.raw)
        assert feasible_cells(ms, 0, NET, GRID) == []

    def test_conditional_containment_is_exact(self):
        # whenever the relay and its cell center quantize identically at every
        # node, the true cell must be in the feasible set
        checked = 0
        for seed in range(40):
            relays = sample_relays(REGION, 5, RngStream(8200 + seed))
            ms = synthetic_set(relays, seed=8300 + seed)
            for l, relay in enumerate(relays):
                w = true_cell_of(relay)
                same_bins = all(
                    quantize_angle(node_angle(NET, q, relay), NET.resolution)[0]
                    == quantize_angle(node_angle(NET, q, GRID.cells[w]), NET.resolution)[0]
                    for q in range(NET.n_nodes)
                )
                if same_bins:
                    assert w in feasible_cells(ms, l, NET, GRID)
                    checked += 1
        assert checked > 50

    def test_statistical_containment_rate(self):
        # bin straddling between a relay and its cell center caps containment
        # well below the ideal; the rate below is the measured floor for the
        # reference geometry (nodes at 1.2x the region radius)
        contained = 0
        total = 0
        for seed in range(100):
            relays = sample_relays(REGION, 5, RngStream(8400 + seed))
            ms = synthetic_set(relays, seed=8500 + seed)
            for l, relay in enumerate(relays):
                total += 1
                if true_cell_of(relay) in feasible_cells(ms, l, NET, GRID):
                    contained += 1
        assert contained / total >= 0.55


class TestAngleLikelihood:
    def test_support_keeps_true_cell_and_center_rule(self):
        # the footprint support holds every relay's true cell, and every cell
        # whose center passes the bin test (the center is a footprint point)
        for seed in range(40):
            relays = sample_relays(REGION, 5, RngStream(8400 + seed))
            ms = synthetic_set(relays, seed=8500 + seed)
            for l, relay in enumerate(relays):
                support, shares = footprint_support(ms, l, NET, GRID)
                assert true_cell_of(relay) in support
                assert set(feasible_cells(ms, l, NET, GRID)) <= set(support)
                assert support == sorted(support)
                assert np.all((shares > 0.0) & (shares <= 1.0))

    @pytest.mark.parametrize("scale", ["reference", "scaled", "four_nodes"])
    def test_center_rule_cells_have_footprint_share(self, scale):
        # the joint-bin table holds what a scan of every cell's footprint
        # lattice finds, shares bit for bit, and `feasible_cells` the cells
        # whose center the scan bins into every measured bin; a cell center
        # is its lattice's middle point (offset exactly 0.0), so each of
        # those has a share.  A copy of the set with its rows reversed gives
        # the same cells and shares.  Criterion 5's 20 scenes, the 50 relays
        # of the scaled scene 0 on 1 m cells (the angles do not depend on the
        # draws), and 20 scenes of a fourth node's 12 rows
        net, grid, seeds, n_relays = NET, GRID, range(20), 5
        if scale == "scaled":
            grid, seeds, n_relays = replace(CFG, cell_side_m=1.0).cell_grid(), [0], 50
        elif scale == "four_nodes":
            net = four_node_net()
        scan = footprint_scan(net, grid)
        kept = 0
        for seed in seeds:
            rng = RngStream(seed)
            ms = simulate_measurements(net, sample_relays(REGION, n_relays, rng.child(0)),
                                       PARAMS, 10, rng.child(1))
            permuted = MeasurementSet(ms.pairs[::-1], ms.aoa[::-1], ms.cap_est[::-1],
                                      ms.raw[::-1])
            for l in range(n_relays):
                bins = {q2: quantize_angle(float(ms.aoa[p, l]), net.resolution)[0]
                        for p, (_, q2) in enumerate(ms.pairs)}
                cells, shares, centers = scan(np.array([bins[q] for q in range(net.n_nodes)]))
                support, weights = footprint_support(ms, l, net, grid)
                assert support == cells
                assert weights.tobytes() == shares.tobytes()
                feasible = feasible_cells(ms, l, net, grid)
                assert feasible == centers
                support_p, weights_p = footprint_support(permuted, l, net, grid)
                assert support_p == cells
                assert weights_p.tobytes() == shares.tobytes()
                assert feasible_cells(permuted, l, net, grid) == centers
                assert set(feasible) <= set(support)
                kept += len(feasible)
        assert kept >= (50 if scale == "scaled" else 100)

    def test_share_counts_joint_bins_inside_region(self):
        relay = sample_relays(REGION, 1, RngStream(95))[0]
        ms = synthetic_set([relay], seed=96)
        bins = {q2: quantize_angle(float(ms.aoa[p, 0]), NET.resolution)[0]
                for p, (q1, q2) in enumerate(ms.pairs)}
        support, shares = footprint_support(ms, 0, NET, GRID)
        n = 9
        offsets = ((np.arange(n) + 0.5) / n - 0.5) * GRID.cell_side
        for w, share in zip(support, shares):
            c = GRID.cells[w]
            hits = sum(
                dist(p, REGION.center) <= REGION.radius and all(
                    quantize_angle(node_angle(NET, q, p), NET.resolution)[0] == b
                    for q, b in bins.items())
                for p in (Point(c.x + dx, c.y + dy) for dy in offsets for dx in offsets))
            assert share == hits / n**2

    def test_contradictory_bins_empty(self):
        relay = sample_relays(REGION, 1, RngStream(81))[0]
        ms_full = synthetic_set([relay])
        aoa = ms_full.aoa.copy()
        index = {pair: k for k, pair in enumerate(ms_full.pairs)}
        aoa[index[(0, 1)], 0] = 0.0
        aoa[index[(2, 1)], 0] = math.radians(40.0)
        ms = MeasurementSet(ms_full.pairs, aoa, ms_full.cap_est, ms_full.raw)
        support, shares = footprint_support(ms, 0, NET, GRID)
        assert support == [] and shares.size == 0

    @pytest.mark.parametrize("solve", [footprint_support, feasible_cells])
    def test_node_without_a_received_row_names_it(self, solve):
        # a relay's joint bin needs one bin at every node: a set whose rows
        # all leave node 2 unmeasured is not the network's pair set, and the
        # error lists the pairs it holds
        ms = synthetic_set(sample_relays(REGION, 1, RngStream(80)))
        rows = [p for p, (_, q2) in enumerate(ms.pairs) if q2 != 2]
        partial = MeasurementSet(tuple(ms.pairs[p] for p in rows), ms.aoa[rows],
                                 ms.cap_est[rows], ms.raw[rows])
        with pytest.raises(MeasurementError, match=r"measured node pairs \[\(0, 1\), \(1, 0\), "
                                                   r"\(2, 0\), \(2, 1\)\] do not match"):
            solve(partial, 0, NET, GRID)

    @pytest.mark.parametrize("solve", [footprint_support, feasible_cells])
    def test_out_of_range_angle_names_pair_and_relay(self, solve):
        # no node angle quantizes beyond pi plus half a bin: the angle step
        # refuses such an angle before its int32 bin cast would warn, and
        # names the caller's relay; the set's other relays still localize
        ms = synthetic_set(sample_relays(REGION, 3, RngStream(84)))
        aoa = ms.aoa.copy()
        aoa[0, 2] = 1e12
        far = MeasurementSet(ms.pairs, aoa, ms.cap_est, ms.raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementError,
                               match=rf"pair \({ms.pairs[0][0]}, {ms.pairs[0][1]}\), relay 2: "
                                     r"measured angle 5\.7\d*e\+13 deg"):
                solve(far, 2, NET, GRID)
            assert solve(far, 0, NET, GRID)[0] == solve(ms, 0, NET, GRID)[0]

    @pytest.mark.parametrize("solve", [footprint_support, feasible_cells])
    def test_foreign_pair_names_it(self, solve):
        ms = synthetic_set(sample_relays(REGION, 1, RngStream(82)))
        foreign = MeasurementSet(((0, 5),) + ms.pairs[1:], ms.aoa, ms.cap_est, ms.raw)
        with pytest.raises(MeasurementError, match=r"measured node pairs \[\(0, 5\), .* do not match"):
            solve(foreign, 0, NET, GRID)


class TestArgmin:
    def test_single_candidate_exact_row(self):
        w = 50
        row = exact_capacity_row(GRID.cells[w])
        res = localize_argmin([w], row, NET, GRID, PARAMS)
        assert res.cell_index == w
        assert res.e_capacity == pytest.approx(0.0, abs=1e-15)

    def test_exact_rows_recover_true_cell(self):
        # with analytic capacities injected, the residual vanishes only at the
        # true cell, so recovery is exact whenever the wedge contains it
        recovered = 0
        eligible = 0
        for seed in range(100):
            relay = sample_relays(REGION, 1, RngStream(8600 + seed))[0]
            ms = synthetic_set([relay], seed=8700 + seed)
            cand = feasible_cells(ms, 0, NET, GRID)
            w = true_cell_of(relay)
            if w not in cand:
                continue
            eligible += 1
            row = exact_capacity_row(GRID.cells[w])
            res = localize_argmin(cand, row, NET, GRID, PARAMS)
            if res.cell_index == w:
                recovered += 1
        assert eligible >= 30
        assert recovered / eligible >= 0.99

    def test_noisy_rows_do_worse_than_exact(self):
        exact_hits = 0
        noisy_hits = 0
        scenes = 0
        for seed in range(200):
            relay = sample_relays(REGION, 1, RngStream(8800 + seed))[0]
            ms = synthetic_set([relay], observations=10, seed=8900 + seed)
            cand = feasible_cells(ms, 0, NET, GRID)
            if not cand:
                continue
            scenes += 1
            w = true_cell_of(relay)
            exact_res = localize_argmin(cand, exact_capacity_row(GRID.cells[w]),
                                        NET, GRID, PARAMS)
            noisy_res = localize_argmin(cand, ms.cap_est[:, 0], NET, GRID, PARAMS)
            exact_hits += exact_res.cell_index == w
            noisy_hits += noisy_res.cell_index == w
        assert scenes >= 150
        assert noisy_hits < exact_hits

    def test_empty_candidates_rejected(self):
        with pytest.raises(LocalizationError):
            localize_argmin([], np.zeros(6), NET, GRID, PARAMS)

    def test_padded_lanes_never_win(self):
        # estimates that a padded lane's cell fits exactly do not pull a relay
        # whose candidates lack it there: each pick is the relay's pick alone
        caps = tomography._tables(NET, GRID, PARAMS)[1].capacity
        exact = caps[0][NET.pair_of_row]
        cells = np.array([[5, 9, 0], [7, 0, 0]])
        valid = np.array([[True, True, False], [True, False, False]])
        decisions, errs = tomography._argmin_decisions(NET, caps, cells, valid,
                                                       np.stack([exact, exact], axis=1))
        alone = [localize_argmin(candidates, exact, NET, GRID, PARAMS)
                 for candidates in ([5, 9], [7])]
        assert decisions == [(r.cell_index, KIND_ARGMIN, 0, False) for r in alone]
        assert errs == [r.e_capacity for r in alone] and min(errs) > 0.0


class TestMsprt:
    def test_single_candidate_immediate(self):
        raw = np.full((6, 10), 1e-6)
        res = msprt_localize([3], raw, NET, GRID, PARAMS,
                             MsprtConfig(max_observations=10))
        assert res.cell_index == 3
        assert res.kind == KIND_THRESHOLD
        assert res.stopped_at == 0

    def test_mirror_symmetric_tie_breaks_low(self):
        # every node on the x axis, and a region centered on it, so its grid
        # is mirror-symmetric about the axis: a cell and its mirror image have
        # identical hop distances, so identical likelihoods at every step
        region = RelayRegion(Point(30.0, 0.0), 45.0)
        nodes = (Point(-100.0, 0.0), Point(100.0, 0.0), Point(200.0, 0.0))
        net = MeasurementNetwork(nodes, math.radians(10), region)
        grid = CellGrid(region, 5.0)
        high = int(np.argmin(np.hypot(grid.xy[:, 0] - 30.0, grid.xy[:, 1] - 40.0)))
        low, = np.flatnonzero((grid.xy == grid.xy[high] * (1.0, -1.0)).all(axis=1))
        assert low < high
        raw = RngStream(83).generator().exponential(1e-4, size=(6, 8))
        res = msprt_localize([low, high], raw, net, grid, PARAMS,
                             MsprtConfig(error=0.01, max_observations=8))
        assert res.cell_index == low
        assert res.kind == KIND_FORCED_MAP

    def test_prior_scaling_invariance(self):
        relay = sample_relays(REGION, 1, RngStream(87))[0]
        ms = synthetic_set([relay], seed=88)
        cand = feasible_cells(ms, 0, NET, GRID)
        assert len(cand) >= 2
        weights = 1.0 + 0.1 * np.arange(len(cand))
        cfg = MsprtConfig(max_observations=10)
        res_a = msprt_localize(cand, ms.raw[:, 0, :], NET, GRID, PARAMS, cfg,
                               angle_weights=weights)
        res_b = msprt_localize(cand, ms.raw[:, 0, :], NET, GRID, PARAMS, cfg,
                               angle_weights=7.25 * weights)
        assert res_a.cell_index == res_b.cell_index
        assert res_a.stopped_at == res_b.stopped_at

    def test_lower_error_never_stops_earlier(self):
        # well separated hypotheses so thresholds actually fire
        cand = [true_cell_of(Point(CX - 30.0, 30.0)), true_cell_of(Point(CX + 30.0, 70.0))]
        relay = GRID.cells[cand[0]]
        ms = simulate_measurements(NET, [relay], PARAMS, 40, RngStream(86))
        stops = []
        for err in (0.05, 0.01, 1e-4):
            res = msprt_localize(cand, ms.raw[:, 0, :], NET, GRID, PARAMS,
                                 MsprtConfig(error=err, max_observations=40))
            stops.append(res.stopped_at)
        assert stops[0] <= stops[1] <= stops[2]
        assert 1 <= stops[0] < stops[2]

    def test_evidence_gap_grows_with_observations(self):
        # log-likelihood margin of the true hypothesis is non-decreasing in
        # expectation; checked on the empirical mean over 200 seeds
        cand = [GRID.cells[true_cell_of(Point(CX - 20.0, 40.0))],
                GRID.cells[true_cell_of(Point(CX + 20.0, 60.0))]]
        relay = cand[0]
        n_obs = 15
        gaps = np.zeros(n_obs)
        n_seeds = 200
        pairs = NET.ordered_pairs()
        # hop lengths per (candidate, ordered pair), broadcast against the
        # (ordered pair, observation) draws
        d = np.array([[(dist(NET.nodes[q1], c), dist(c, NET.nodes[q2])) for q1, q2 in pairs]
                      for c in cand])
        hops = HopPair(d[..., 0, None], d[..., 1, None])
        for seed in range(n_seeds):
            ms = simulate_measurements(NET, [relay], PARAMS, n_obs, RngStream(8700 + seed))
            log_pdf = capacity_log_pdf(ms.raw[:, 0, :], hops, PARAMS)
            gaps += np.cumsum((log_pdf[0] - log_pdf[1]).sum(axis=0)) / n_seeds
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))

    def test_all_zero_density_falls_back_uniform(self):
        # with m > 1 the capacity density vanishes at exactly zero, so an
        # all-zero observation is impossible under every hypothesis
        params = ChannelParams(1000.0, 2.0, -3.0, 0.01)
        raw = np.zeros((6, 3))
        res = msprt_localize([5, 9], raw, NET, GRID, params,
                             MsprtConfig(max_observations=3))
        assert res.degenerate
        assert res.cell_index == 5
        assert res.stopped_at == 1

    def test_far_tail_observation_decides(self):
        # one observation of 3 bits/s/Hz on every pair puts each hop's Q
        # below 1e-17 under every candidate; the evidence still ranks them,
        # and the m = 1 closed form of the log density,
        # log(ln4 (s1 + s2)) + i ln4 - (s1 + s2)(4^i - 1), names the leader
        assert PARAMS.nakagami_m == 1.0
        i, candidates = 3.0, [0, 104, 207]
        x = 4.0**i - 1.0
        log_lik = []
        for w in candidates:
            total = 0.0
            for pair in NET.ordered_pairs():
                if pair[0] < pair[1]:
                    hops = hops_via(pair, GRID.cells[w])
                    s1, s2 = (1.0 / (PARAMS.snr * d**PARAMS.path_loss_exp)
                              for d in (hops.d_sr, hops.d_rd))
                    assert min(s1, s2) * x > 40.0  # Q = e^-rho < 1e-17
                    total += math.log(math.log(4.0) * (s1 + s2)) + i * math.log(4.0) - (s1 + s2) * x
            log_lik.append(total)
        best = int(np.argmax(log_lik))
        cfg = MsprtConfig(max_observations=1)
        assert best != 0 and log_lik[best] - sorted(log_lik)[-2] > cfg.threshold
        raw = np.full((len(NET.ordered_pairs()), 1), i)
        res = msprt_localize(candidates, raw, NET, GRID, PARAMS, cfg)
        assert (res.cell_index, res.kind, res.stopped_at, res.degenerate) == (
            candidates[best], KIND_THRESHOLD, 1, False)

    def test_reciprocal_rows_ignored(self):
        # reciprocal orderings repeat the same fading draws, so the (q2, q1)
        # rows with q1 < q2 carry no evidence of their own
        relays = sample_relays(REGION, 5, RngStream(97))
        ms = synthetic_set(relays, seed=98)
        raw = ms.raw.copy()
        junk = RngStream(99).generator().exponential(0.3, raw.shape)
        for p_idx, (q1, q2) in enumerate(ms.pairs):
            if q1 > q2:
                raw[p_idx] = junk[p_idx]
        overwritten = MeasurementSet(ms.pairs, ms.aoa, ms.cap_est, raw)
        tomo = CFG.tomography()
        assert tomo.mode == "msprt"
        assert (localize_all(overwritten, NET, GRID, PARAMS, tomo, CFG.msprt())
                == localize_all(ms, NET, GRID, PARAMS, tomo, CFG.msprt()))

    @pytest.mark.parametrize("error", [1e-12, 0.01, 0.2, 0.6, 0.7])
    def test_matches_sequential_oracle(self, error):
        # the array evaluation, of each relay alone and of all 30 in one set,
        # takes the decision an observation-by-observation test would: same
        # cell, decision kind and stopping index
        cfg = MsprtConfig(error=error, max_observations=20)
        found, raws, wants = [], [], []
        for seed in range(30):
            relay = sample_relays(REGION, 1, RngStream(7000 + seed))[0]
            ms = synthetic_set([relay], observations=20, seed=7100 + seed)
            cand, shares = footprint_support(ms, 0, NET, GRID)
            res = msprt_localize(cand, ms.raw[:, 0, :], NET, GRID, PARAMS, cfg,
                                 angle_weights=shares)
            want = sequential_oracle(cand, shares, ms.raw[:, 0, :], cfg)
            assert (res.cell_index, res.kind, res.stopped_at) == want
            found.append((cand, shares))
            raws.append(ms.raw[NET.pair_rows, 0])
            wants.append(want)
        assert len({len(cand) for cand, _ in found}) > 3
        decisions = set_decisions(found, raws, PARAMS, cfg.threshold)
        assert [decision[:3] for decision in decisions] == wants

    @pytest.mark.parametrize("error", [1e-12, 0.01, 0.7])
    def test_leader_margin_equals_all_pairs_rule(self, error):
        # the stopping rule (the leader beats the runner-up) takes the
        # all-pairs rule's decision on every column, ties, infinities and
        # NaN included; errors above 1/2 have a negative threshold
        threshold = MsprtConfig(error=error).threshold
        gen = RngStream(131).generator()
        k = 4
        columns = [scale * gen.integers(-3, 4, k) for scale in (0.25, 1.0, 10.0, 40.0)
                   for _ in range(50)]
        inf, nan = math.inf, math.nan
        columns += [
            [5.0, 5.0, 1.0, 0.0], [2.0, 2.0, 2.0, 2.0], [1.0, 40.0, 40.0, -3.0],
            [3.0, -inf, -inf, -inf], [-inf, -inf, -inf, -inf], [-inf, 7.0, -inf, 6.5],
            [inf, 1.0, 2.0, 3.0], [inf, inf, 1.0, 2.0], [1.0, inf, -inf, 0.0],
            [nan, 1.0, 2.0, 3.0], [50.0, nan, 1.0, 2.0], [100.0, 0.0, 0.0, nan],
            [nan, nan, nan, nan], [-inf, nan, 3.0, -inf],
        ]
        log_lik = np.array(columns, dtype=float).T
        # each column as one relay of a set, its log likelihoods after one
        # observation from a zero prior: the pass raises no warning of its own
        lanes = np.tile(np.arange(k), (len(columns), 1))
        decisions = tomography._sequential_tests(lanes, lanes >= 0, np.zeros(lanes.shape),
                                                 log_lik.T[..., None], threshold)
        expected = None
        with np.errstate(invalid="ignore"):  # the oracle's inf - inf and NaN margins
            for o, (column, decision) in enumerate(zip(log_lik.T, decisions)):
                winners = all_pairs_winners(column, threshold)
                want = (0, max(winners, key=lambda ki: (column[ki], -ki))) if winners else None
                assert first_stop(column[:, None], threshold) == want
                if want is not None:
                    assert decision == (want[1], KIND_THRESHOLD, 1, False)
                elif np.isfinite(column).any():  # the MAP, NaN first
                    assert decision == (int(np.argmax(column)), KIND_FORCED_MAP, 1, False)
                else:  # impossible under every hypothesis
                    assert decision == (0, KIND_FORCED_MAP, 1, True)
                if expected is None and want is not None:
                    expected = (o, want[1])
            assert expected is not None
            assert first_stop(log_lik, threshold) == expected
            # the columns as one relay's evidence: the pass and the oracle sum
            # them alike and stop alike
            weights = np.ones(k)
            one = tomography._sequential_tests(lanes[:1], lanes[:1] >= 0,
                                               np.log(weights / weights.sum())[None],
                                               log_lik[None], threshold)
            assert one == sequential_tests([range(k)], [weights], [log_lik], threshold)

    def test_degenerate_raw_shape_rejected(self):
        with pytest.raises(LocalizationError):
            msprt_localize([0], np.zeros((2, 10)), NET, GRID, PARAMS,
                           MsprtConfig(max_observations=10))
        with pytest.raises(LocalizationError):
            msprt_localize([], np.zeros((6, 10)), NET, GRID, PARAMS,
                           MsprtConfig(max_observations=10))

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            MsprtConfig(error=0.0)
        with pytest.raises(DomainError):
            MsprtConfig(error=1.0)
        with pytest.raises(DomainError):
            MsprtConfig(error=math.nan)
        with pytest.raises(DomainError):
            MsprtConfig(error=np.full((2, 2), 0.01))
        with pytest.raises(DomainError):
            TomographyConfig(cell_side=math.nan)
        for count in (0, 2.5, True):
            with pytest.raises(DomainError, match="max_observations must be an integer >= 1"):
                MsprtConfig(max_observations=count)
        with pytest.raises(DomainError):
            TomographyConfig(mode="other")


class TestLocalizeAll:
    def test_zero_relays(self):
        ms = MeasurementSet(tuple(NET.ordered_pairs()), np.zeros((6, 0)),
                            np.zeros((6, 0)), np.zeros((6, 0, 10)))
        assert localize_all(ms, NET, GRID, PARAMS, CFG.tomography()) == []

    @pytest.mark.parametrize("mode", ["argmin", "msprt"])
    def test_cell_side_other_than_the_grids_is_refused(self, mode):
        # the solver localizes on the grid's cells; a different configured
        # side would be silently ignored
        ms = synthetic_set(sample_relays(REGION, 2, RngStream(86)))
        with pytest.raises(LocalizationError, match="cell side 2.5 m differs from the grid's 5.0 m"):
            localize_all(ms, NET, GRID, PARAMS, TomographyConfig(cell_side=2.5, mode=mode))

    def test_unlocalized_on_contradiction(self):
        relay = sample_relays(REGION, 1, RngStream(87))[0]
        ms_full = synthetic_set([relay], seed=88)
        aoa = ms_full.aoa.copy()
        index = {pair: k for k, pair in enumerate(ms_full.pairs)}
        aoa[index[(0, 1)], 0] = 0.0
        aoa[index[(2, 1)], 0] = math.radians(40.0)
        ms = MeasurementSet(ms_full.pairs, aoa, ms_full.cap_est, ms_full.raw)
        res = localize_all(ms, NET, GRID, PARAMS, CFG.tomography())
        assert res[0].kind == KIND_UNLOCALIZED
        assert res[0].position is None

    def test_results_in_relay_order(self):
        relays = sample_relays(REGION, 4, RngStream(89))
        ms = synthetic_set(relays, seed=90)
        res = localize_all(ms, NET, GRID, PARAMS, CFG.tomography(), CFG.msprt())
        assert [r.relay for r in res] == [0, 1, 2, 3]

    def test_deterministic_reports(self, tmp_path):
        relays = sample_relays(REGION, 5, RngStream(91))
        ms = synthetic_set(relays, seed=92)
        paths = []
        for tag in ("a", "b"):
            res = localize_all(ms, NET, GRID, PARAMS, CFG.tomography(), CFG.msprt())
            path = tmp_path / f"report_{tag}.txt"
            write_report(res, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("mode", ["argmin", "msprt"])
    def test_window_cuts_the_set_in_both_modes(self, mode):
        # a 3-draw test window reads what the set's first 3 draws hold,
        # argmin's outage estimates re-made from them
        tomo = TomographyConfig(cell_side=CFG.cell_side_m, mode=mode)
        short, full = MsprtConfig(max_observations=3), MsprtConfig(max_observations=10)
        changed = 0
        for seed in range(140, 146):
            ms = synthetic_set(sample_relays(REGION, 5, RngStream(seed)), seed=seed + 100)
            cut = ms.first_observations(3, PARAMS.outage_prob)
            got = repr(localize_all(ms, NET, GRID, PARAMS, tomo, short))
            assert got == repr(localize_all(cut, NET, GRID, PARAMS, tomo, short))
            changed += got != repr(localize_all(ms, NET, GRID, PARAMS, tomo, full))
        assert changed

    @pytest.mark.parametrize("mode", ["argmin", "msprt"])
    def test_each_stage_runs_once_per_set(self, mode, monkeypatch):
        # one angle step, one cache lookup of both tables, one decision pass
        # (evidence and sequential test, or argmin pick) and one
        # capacity-residual call per set, and each result built once: no
        # stage runs relay by relay
        ms, _ = mixed_scene()
        tomo = TomographyConfig(cell_side=CFG.cell_side_m, mode=mode)
        want = repr(localize_all(ms, NET, GRID, PARAMS, tomo, CFG.msprt()))  # warm caches
        calls = Counter()
        for name in ("_angle_step", "_footprint", "_tables", "_capacity_residuals",
                     "_capacity_evidence", "_sequential_tests", "_argmin_decisions",
                     "LocalizationResult"):
            def counted(*args, _name=name, _fn=getattr(tomography, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(tomography, name, counted)
        assert repr(localize_all(ms, NET, GRID, PARAMS, tomo, CFG.msprt())) == want
        decision = ({"_capacity_evidence": 1, "_sequential_tests": 1} if mode == "msprt"
                    else {"_argmin_decisions": 1})
        assert calls == {"_angle_step": 1, "_tables": 1,
                         "_capacity_residuals": 1, **decision, "LocalizationResult": 5}

    def test_scoring_summary(self):
        relays = sample_relays(REGION, 5, RngStream(93))
        ms = synthetic_set(relays, seed=94)
        res = localize_all(ms, NET, GRID, PARAMS, CFG.tomography(), CFG.msprt())
        score = score_results(res, relays, CFG.cell_side_m)
        assert score["relays"] == 5
        assert 0.0 <= score["fraction_within_one_cell"] <= 1.0
        assert score["within_one_cell"] <= score["localized"]


def localize_reprs(ms, params=PARAMS, mode="msprt") -> str:
    tomo = TomographyConfig(cell_side=CFG.cell_side_m, mode=mode)
    return repr(localize_all(ms, NET, GRID, params, tomo, CFG.msprt()))


class TestCapacityColumn:
    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_entries_equal_scalar_solves(self, m):
        params = replace(PARAMS, nakagami_m=m)
        tomography._tables.cache_clear()
        table = tomography._tables(NET, GRID, params)[1]
        caps = table.capacity
        pairs = [pair for pair in NET.ordered_pairs() if pair[0] < pair[1]]
        assert caps.shape == (len(GRID.cells), len(pairs))
        for w, cell in enumerate(GRID.cells):
            for p, pair in enumerate(pairs):
                assert caps[w, p] == outage_capacity(hops_via(pair, cell), params)
        if m != 1.0:
            assert table.rate is None and table.log_rate_sum is None
            return
        # the exponential rate and its per-cell log sum, as the evidence
        # formed them from each candidate's hops
        d_sr, d_rd = tomography._footprint(NET, GRID).hop_lengths()
        rate = np.add(*rho_scales(HopPair(d_sr, d_rd), params))
        assert np.array_equal(table.rate, rate)
        assert np.array_equal(table.log_rate_sum, np.add.reduce(np.log(LN4 * rate), axis=1))

    def test_column_is_solved_once_and_read_only(self):
        tomography._tables.cache_clear()
        table = tomography._tables(NET, GRID, PARAMS)[1]
        assert tomography._tables(NET, GRID, PARAMS)[1] is table
        for column in table:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_fresh_equal_grid_reuses_the_cached_tables(self):
        # a grid is its region and cell side: a new 1 m grid of the same
        # region finds the first one's tables, and the solver never builds
        # either grid's points
        cfg = replace(CFG, cell_side_m=1.0)
        grid, fresh = cfg.cell_grid(), replace(cfg).cell_grid()
        assert grid is not fresh and grid == fresh
        ms = synthetic_set(sample_relays(REGION, 3, RngStream(130)), seed=131)
        tomography._footprint.cache_clear()
        tomography._tables.cache_clear()
        cached = tomography._tables(NET, grid, PARAMS)
        for mode in ("msprt", "argmin"):
            results = localize_all(ms, NET, fresh, PARAMS, TomographyConfig(1.0, mode),
                                   cfg.msprt())
            assert any(r.position is not None for r in results)
        assert tomography._tables(NET, fresh, PARAMS) is cached
        assert tomography._footprint(NET, fresh) is cached[0]
        assert tomography._tables.cache_info().misses == 1
        assert tomography._footprint.cache_info().misses == 1
        assert "cells" not in vars(grid) and "cells" not in vars(fresh)

    @pytest.mark.parametrize("mode", ["msprt", "argmin"])
    def test_results_do_not_depend_on_history(self, mode):
        scenes = [synthetic_set(sample_relays(REGION, 5, RngStream(s)), seed=s + 1)
                  for s in range(120, 126)]
        m25 = replace(PARAMS, nakagami_m=2.5)
        tomography._tables.cache_clear()
        cold = localize_reprs(scenes[0], mode=mode)
        tomography._tables.cache_clear()
        cold_m25 = localize_reprs(scenes[0], m25, mode)
        for ms in scenes[1:]:
            localize_reprs(ms, mode=mode)
            localize_reprs(ms, m25, mode)
        for _ in range(2):
            assert localize_reprs(scenes[0], mode=mode) == cold
            assert localize_reprs(scenes[0], m25, mode) == cold_m25

    def test_batched_evidence_equals_per_relay_test(self):
        ms, found = mixed_scene()
        cfg = CFG.msprt()
        expected = []
        for l, (candidates, weights) in enumerate(found):
            if not candidates:
                expected.append(unlocalized(l))
                continue
            expected.append(msprt_localize(candidates, ms.raw[:, l, :], NET, GRID, PARAMS, cfg,
                                           relay=l, angle_weights=weights))
        got = localize_all(ms, NET, GRID, PARAMS, CFG.tomography(), cfg)
        # the decisions and, against scalar solves, the residuals exactly
        assert repr([replace(r, e_angle=0.0, e_capacity=0.0) if r.cell_index is not None
                     else r for r in got]) == repr(expected)
        for r in got:
            if r.cell_index is not None:
                assert (r.e_angle, r.e_capacity) == residuals_oracle(ms, r.relay, r.cell_index)

        fp = tomography._footprint(NET, GRID)
        many = [1, 3, 4]
        raws = np.stack([ms.raw[NET.pair_rows, l, :] for l in many])
        sizes = [len(found[l][0]) for l in many]
        valid = np.arange(max(sizes)) < np.array(sizes)[:, None]
        table = tomography._tables(NET, GRID, PARAMS)[1]
        cells = padded([np.asarray(found[l][0]) for l in many], valid)
        batched = tomography._capacity_evidence(fp, table, cells, raws, PARAMS)
        for l, raw, log_pdf, k in zip(many, raws, batched, sizes):
            alone, = tomography._capacity_evidence(fp, table, np.asarray(found[l][0])[None],
                                                   raw[None], PARAMS)
            assert np.array_equal(log_pdf[:k], alone)

    def test_batched_residuals_equal_per_relay_argmin(self):
        ms, _ = mixed_scene()
        expected = []
        for l in range(ms.n_relays):
            candidates = feasible_cells(ms, l, NET, GRID)
            if not candidates:
                expected.append(unlocalized(l))
                continue
            res = localize_argmin(candidates, ms.cap_est[:, l], NET, GRID, PARAMS, relay=l)
            e_angle, e_capacity = residuals_oracle(ms, l, res.cell_index)
            assert e_capacity == res.e_capacity  # the minimum the decision picked
            expected.append(replace(res, e_angle=e_angle))
        tomo = TomographyConfig(cell_side=CFG.cell_side_m, mode="argmin")
        assert repr(localize_all(ms, NET, GRID, PARAMS, tomo)) == repr(expected)


    @pytest.mark.parametrize("mode", ["msprt", "argmin"])
    def test_residuals_of_twelve_pair_rows(self, mode):
        # rows of 8 or more pairs are where a running sum and numpy's
        # pairwise sum part ways
        net = four_node_net()
        assert len(net.ordered_pairs()) == 12
        relays = sample_relays(REGION, 8, RngStream(132))
        ms = simulate_measurements(net, relays, PARAMS, 10, RngStream(133))
        tomo = TomographyConfig(cell_side=CFG.cell_side_m, mode=mode)
        results = localize_all(ms, net, GRID, PARAMS, tomo, CFG.msprt())
        localized = [r for r in results if r.cell_index is not None]
        assert len(localized) >= 6
        for r in localized:
            assert (r.e_angle, r.e_capacity) == residuals_oracle(ms, r.relay, r.cell_index, net)

    def test_overflowing_rows_are_scaled_and_the_others_keep_their_bits(self):
        # a row whose squares overflow takes its norm by scaling, as hypot
        # does, so it is finite and warns of nothing; a row whose squares are
        # finite is the plain running sum, bit for bit, whether or not a huge
        # row shares the call
        caps = tomography._tables(NET, GRID, PARAMS)[1].capacity
        cells = [0, 7, 19, 30]
        est = RngStream(134).generator().uniform(0.0, 2.0, (len(cells), len(NET.pair_of_row)))
        plain = tomography._capacity_residuals(NET, caps, cells, est)
        est[1, 0], est[3, 2:4] = 1e200, (1e160, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tomography._capacity_residuals(NET, caps, cells, est)
        diff = est - caps[np.array(cells)[:, None], NET.pair_of_row]
        for k in (0, 2):
            assert got[k] == plain[k] == l2_oracle(diff[k])
        for k in (1, 3):
            assert math.isfinite(got[k])
            assert got[k] == pytest.approx(math.hypot(*diff[k]), rel=1e-15)


class TestTableLookup:
    """A solve's one lookup of its tables, keyed by the network, grid and
    channel as values, each hash computed once per object."""

    def test_rebuilt_values_find_the_very_same_tables(self, monkeypatch):
        first, again = (scenario_from_dict(default_config_dict()) for _ in range(2))
        values = [(cfg.network(), cfg.cell_grid(), cfg.channel_params()) for cfg in (first, again)]
        for a, b in zip(*values):
            assert a is not b and a == b and hash(a) == hash(b)
        net, grid, _ = values[0]
        fresh = MeasurementNetwork(net.nodes, net.resolution, net.region), replace(grid)
        assert hash(fresh[0]) == hash(net) and hash(fresh[1]) == hash(grid)
        tables = tomography._tables(*values[0])
        assert tomography._tables(*values[1]) is tables
        ms = synthetic_set(sample_relays(REGION, 3, RngStream(136)), seed=137)
        calls = Counter()
        for name in ("_footprint", "_solve_table"):
            def counted(*args, _name=name, _fn=getattr(tomography, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tomography, name, counted)
        for mode in ("msprt", "argmin"):
            localize_all(ms, *values[1], TomographyConfig(grid.cell_side, mode), first.msprt())
        assert not calls

    def test_a_fresh_equal_grid_builds_no_centers(self):
        # the solver reads positions from the cached footprint, so a warm
        # solve on a fresh grid (as each benchmark round builds) lays out none
        ms = synthetic_set(sample_relays(REGION, 4, RngStream(138)), seed=139)
        row, raw = ms.cap_est[:, 0], ms.raw[:, 0, :]
        cfg = MsprtConfig(max_observations=ms.n_observations)

        def solves(grid):
            candidates = feasible_cells(ms, 0, NET, grid)
            solved = [localize_all(ms, NET, grid, PARAMS, TomographyConfig(grid.cell_side, mode),
                                   cfg) for mode in ("msprt", "argmin")]
            return repr(solved + [localize_argmin(candidates, row, NET, grid, PARAMS),
                                  msprt_localize(candidates, raw, NET, grid, PARAMS, cfg)])
        want = solves(GRID)
        fresh = replace(GRID)
        assert fresh is not GRID and solves(fresh) == want
        assert "xy" not in vars(fresh) and "cells" not in vars(fresh)

    def test_each_hash_is_computed_once_per_object(self, monkeypatch):
        # the region is a field of both: hashing a network or grid again
        # reads its first hash, which is its fields' hash, as a fresh equal
        # object's is
        # (a config keeps the network and grid it built: a new config's are new)
        cfg = replace(CFG)
        region_hashes = Counter()
        region_hash = RelayRegion.__hash__

        def counted(region):
            region_hashes["calls"] += 1
            return region_hash(region)
        monkeypatch.setattr(RelayRegion, "__hash__", counted)
        net, grid = cfg.network(), cfg.cell_grid()
        hashes = [hash(net), hash(grid)]
        for _ in range(3):
            assert [hash(net), hash(grid)] == hashes
        assert region_hashes["calls"] == 2
        assert hashes == [hash((net.nodes, net.resolution, net.region)),
                          hash((grid.region, grid.cell_side))]
        assert hashes == [hash(CFG.network()), hash(CFG.cell_grid())]

    def test_a_new_network_gets_its_own_tables(self):
        # a network with other nodes, built once the first is gone (so it may
        # take the first one's id), finds none of the first one's tables
        shifted = tuple(Point(p.x + 7.0, p.y - 3.0) for p in NET.nodes)
        net = MeasurementNetwork(shifted, NET.resolution, REGION)
        fp, table = tomography._tables(net, GRID, PARAMS)
        nodes = tuple(Point(p.x - 5.0, p.y + 4.0) for p in NET.nodes)
        del net
        other = MeasurementNetwork(nodes, NET.resolution, REGION)
        own_fp, own_table = tomography._tables(other, GRID, PARAMS)
        assert own_fp is not fp and own_table is not table
        x, y = GRID.xy.T
        assert np.array_equal(own_fp.angle, other.angles(x, y)[:, other.receivers])
        d_lo, d_hi = own_fp.hop_lengths()
        assert all(np.array_equal(a, b) for a, b in zip((d_lo, d_hi), other.hop_lengths(x, y)))
        assert not np.array_equal(own_table.capacity, table.capacity)


class TestEvidence:
    """The sequential test's evidence, summed over unordered pairs."""

    @pytest.mark.parametrize("snr_db, nu", [(30.0, -3.0), (10.0, -2.0), (45.0, -4.0)])
    def test_m1_sufficient_statistics_equal_summed_log_pdf(self, snr_db, nu):
        # random hops and draws, with i = 0 and i = 600 (past 4^I's overflow,
        # where the density is 0: -inf, not nan) in every row
        params = ChannelParams.from_db(snr_db, 1.0, nu, 0.01)
        gen = RngStream(150, (int(snr_db), int(-nu))).generator()
        n_cells, n_pairs, n_obs = 40, 3, 30
        d_sr, d_rd = gen.uniform(2.0, 120.0, (2, n_cells, n_pairs))
        fp = SimpleNamespace(hop_lengths=lambda cells: (d_sr[cells], d_rd[cells]))
        table = tomography._solve_table(HopPair(d_sr, d_rd), params)
        groups = [[0, 3, 7], list(range(8, 40)), [2]]
        raws = gen.exponential(0.3, (len(groups), n_pairs, n_obs))
        raws[:, :, 0] = 0.0
        raws[:, 1, 1] = 600.0
        valid = np.arange(32) < np.array([3, 32, 1])[:, None]
        cells = padded([np.array(cells) for cells in groups], valid)
        got = tomography._capacity_evidence(fp, table, cells, raws, params)
        for cells, raw, evidence in zip(groups, raws, got):
            evidence = evidence[:len(cells)]
            hops = HopPair(d_sr[cells][..., None], d_rd[cells][..., None])
            want = capacity_log_pdf(raw, hops, params).sum(axis=1)
            assert evidence.shape == want.shape == (len(cells), n_obs)
            assert np.all(evidence[:, 1] == -math.inf)
            finite = np.isfinite(want)
            assert finite.sum() == len(cells) * (n_obs - 1)
            np.testing.assert_allclose(evidence[finite], want[finite], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [0.5, 2.5])
    def test_other_shapes_sum_log_pdf(self, m):
        params = replace(PARAMS, nakagami_m=m)
        fp = tomography._footprint(NET, GRID)
        raw = RngStream(151).generator().exponential(0.3, (len(NET.pairs), 10))
        cells = [4, 50, 51, 200]
        evidence, = tomography._capacity_evidence(fp, tomography._tables(NET, GRID, params)[1],
                                                  np.array(cells)[None], raw[None], params)
        d_sr, d_rd = fp.hop_lengths(cells)
        want = capacity_log_pdf(raw, HopPair(d_sr[..., None], d_rd[..., None]), params)
        assert np.array_equal(evidence, want.sum(axis=1))

    @pytest.mark.parametrize("scale", ["reference", "scaled", "six_nodes"])
    def test_table_evidence_equals_gathered_hop_oracle(self, scale, monkeypatch):
        # the m = 1 evidence read from the channel table equals, bit for bit,
        # the evidence formed from each lane's gathered hops, padded lanes
        # included, in the default blocks and in blocks of two relays:
        # seeds 1000-1019 on 5 m cells, the scaled scene 0 on 1 m cells, and
        # 5 seeds of a six-node network
        net, grid, seeds, n_relays, n_obs = NET, GRID, range(1000, 1020), 5, 10
        if scale == "scaled":
            grid, seeds, n_relays, n_obs = replace(CFG, cell_side_m=1.0).cell_grid(), [0], 50, 100
        elif scale == "six_nodes":
            net, seeds = six_node_net(), range(1000, 1005)
        blocks = []
        evidence = tomography._capacity_evidence

        def checked(fp, table, cells, raw, params):
            got = evidence(fp, table, cells, raw, params)
            assert np.array_equal(got, gathered_hop_evidence(fp, cells, raw, params))
            blocks.append(len(cells))
            return got

        monkeypatch.setattr(tomography, "_capacity_evidence", checked)
        tomo, cfg = TomographyConfig(grid.cell_side, "msprt"), MsprtConfig(max_observations=n_obs)
        pairs = 0
        for seed in seeds:
            rng = RngStream(seed)
            ms = simulate_measurements(net, sample_relays(REGION, n_relays, rng.child(0)),
                                       PARAMS, n_obs, rng.child(1))
            whole = localize_all(ms, net, grid, PARAMS, tomo, cfg)
            widest = max(r.n_candidates for r in whole)
            blocks.clear()
            with monkeypatch.context() as small:
                small.setattr(tomography, "LANE_BUDGET", 2 * widest * len(net.pairs) * n_obs)
                assert repr(localize_all(ms, net, grid, PARAMS, tomo, cfg)) == repr(whole)
            assert max(blocks) <= 2
            pairs += blocks.count(2)
        assert pairs >= len(seeds)

    def test_negative_capacity_rejected(self):
        raw = np.full((len(NET.pairs), 2), 0.5)
        raw[1, 1] = -0.1
        with pytest.raises(DomainError, match="non-negative"):
            msprt_localize([5, 9], raw[NET.pair_of_row], NET, GRID, PARAMS, MsprtConfig())

    @pytest.mark.parametrize("scale", ["reference", "scaled"])
    def test_decisions_equal_oracle_evidence(self, scale):
        # localize_all against the sequential test fed the summed per-element
        # density: criterion 5's 20 scenes, or one relay of 100 observations
        # on 1 m cells
        if scale == "reference":
            grid, seeds, n_relays, n_obs = GRID, range(20), 5, 10
        else:
            grid, seeds, n_relays, n_obs = replace(CFG, cell_side_m=1.0).cell_grid(), [0], 1, 100
        fp = tomography._footprint(NET, grid)
        cfg = MsprtConfig(max_observations=n_obs)
        tomo = TomographyConfig(cell_side=grid.cell_side, mode="msprt")
        tested = 0
        for seed in seeds:
            rng = RngStream(seed)
            ms = simulate_measurements(NET, sample_relays(REGION, n_relays, rng.child(0)),
                                       PARAMS, n_obs, rng.child(1))
            got = localize_all(ms, NET, grid, PARAMS, tomo, cfg)
            for l, res in enumerate(got):
                candidates, weights = footprint_support(ms, l, NET, grid)
                if len(candidates) < 2:
                    continue
                d_sr, d_rd = fp.hop_lengths(candidates)
                log_pdf = capacity_log_pdf(ms.raw[NET.pair_rows, l],
                                           HopPair(d_sr[..., None], d_rd[..., None]), PARAMS)
                evidence = log_pdf.sum(axis=1)
                want, = sequential_tests([candidates], [weights], [evidence], cfg.threshold)
                cells = np.array(candidates)[None]
                assert tomography._sequential_tests(
                    cells, cells >= 0, np.log(weights / weights.sum())[None], evidence[None],
                    cfg.threshold) == [want]
                decision = (res.cell_index, res.kind, res.stopped_at, res.degenerate)
                assert decision == want and res.n_candidates == len(candidates)
                tested += 1
        assert tested >= (50 if scale == "reference" else 1)


class TestPaddedSet:
    """One set of relays with 1, 2, 9 and 45 candidates on the 1 m grid:
    numpy's pairwise sums part ways past 8 lanes, so padding crosses their
    blocks.  A fifth relay of 2 candidates measures 0 on one pair at its
    first observation: impossible under every candidate at m = 2 (the
    density is 0), +inf under every one at m = 0.5."""

    CFG1 = replace(CFG, cell_side_m=1.0)
    SIZES = (1, 2, 9, 45, 2)

    def scene(self, params) -> tuple[MeasurementSet, CellGrid]:
        # each relay's angles are its joint bin's own, measured at a cell of it
        grid = self.CFG1.cell_grid()
        fp = tomography._footprint(NET, grid)
        first = {}
        for joint, (_, count, _, _) in enumerate(fp.joint_spans.tolist()):
            first.setdefault(count, joint)
        joints = [first[k] for k in self.SIZES]
        columns = joint_bin_columns(NET, grid)
        keys = [columns[key] for key in fp.joint_keys[joints].tolist()]
        cells = fp.group_cells[fp.joint_spans[joints, 0]].tolist()
        ms = simulate_measurements(NET, [grid.cells[w] for w in cells], params, 10, RngStream(160))
        aoa = np.array([[key[q2] * NET.resolution for key in keys] for _, q2 in ms.pairs])
        raw = ms.raw.copy()
        raw[[NET.row_of[(0, 1)], NET.row_of[(1, 0)]], 4, 0] = 0.0
        return MeasurementSet(ms.pairs, aoa, ms.cap_est, raw), grid

    @pytest.mark.parametrize("m", [1.0, 2.0, 0.5])
    def test_set_pass_equals_each_relay_alone(self, m):
        # share priors and uniform ones in one set; each relay's decision is
        # the one it takes alone, and the per-relay oracle's on its evidence
        params = replace(PARAMS, nakagami_m=m)
        ms, grid = self.scene(params)
        cfg = MsprtConfig(error=0.48, max_observations=10)  # stops early and late
        found = [footprint_support(ms, l, NET, grid) for l in range(ms.n_relays)]
        assert [len(candidates) for candidates, _ in found] == list(self.SIZES)
        found = [(candidates, shares if l % 2 else None)
                 for l, (candidates, shares) in enumerate(found)]
        raws = [ms.raw[NET.pair_rows, l] for l in range(ms.n_relays)]
        decisions = set_decisions(found, raws, params, cfg.threshold, grid)
        fp = tomography._footprint(NET, grid)
        for l, ((candidates, weights), raw, decision) in enumerate(zip(found, raws, decisions)):
            alone = msprt_localize(candidates, ms.raw[:, l], NET, grid, params, cfg,
                                   angle_weights=weights)
            assert (alone.cell_index, alone.kind, alone.stopped_at, alone.degenerate) == decision
            evidence, = tomography._capacity_evidence(
                fp, tomography._tables(NET, grid, params)[1], np.array(candidates)[None],
                raw[None], params)
            assert sequential_tests([candidates], [weights], [evidence],
                                    cfg.threshold) == [decision]
        assert decisions[0] == (found[0][0][0], KIND_THRESHOLD, 0, False)
        assert any(kind == KIND_THRESHOLD and stopped > 0 for _, kind, stopped, _ in decisions)
        assert decisions[4][1:] == ((KIND_FORCED_MAP, 1, True) if m != 1.0 else
                                    decisions[4][1:])

    @pytest.mark.parametrize("m", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("mode", ["msprt", "argmin"])
    def test_blocks_change_no_result(self, m, mode, monkeypatch):
        # the set equals its relays localized one at a time, decisions and
        # residuals, and so does the set decided in blocks of two relays or
        # of one
        params = replace(PARAMS, nakagami_m=m)
        ms, grid = self.scene(params)
        tomo = TomographyConfig(cell_side=1.0, mode=mode)
        cfg = MsprtConfig(error=0.48, max_observations=10)
        got = localize_all(ms, NET, grid, params, tomo, cfg)
        alone = [localize_all(MeasurementSet(ms.pairs, ms.aoa[:, [l]], ms.cap_est[:, [l]],
                                             ms.raw[:, [l]]), NET, grid, params, tomo, cfg)[0]
                 for l in range(ms.n_relays)]
        assert repr(got) == repr([replace(r, relay=l) for l, r in enumerate(alone)])
        width = len(NET.row_of) if mode == "argmin" else len(NET.pairs) * 10
        widest = max(r.n_candidates for r in got)
        for budget in (2 * widest * width, 1):
            monkeypatch.setattr(tomography, "LANE_BUDGET", budget)
            assert repr(localize_all(ms, NET, grid, params, tomo, cfg)) == repr(got)
        kinds = Counter(r.kind for r in got)
        assert kinds[KIND_ARGMIN if mode == "argmin" else KIND_THRESHOLD] >= 2

    @pytest.mark.parametrize("budget", [tomography.LANE_BUDGET, 1])
    @pytest.mark.parametrize("scale", ["reference", "scaled"])
    def test_argmin_picks_the_center_rules_first_minimum(self, scale, budget, monkeypatch):
        # argmin's table gathered from the center cells gives each relay the
        # scan's center-rule cells as its count, and the first of them of
        # least scalar residual as its pick and e_capacity, in one block or
        # one relay a block: seeds 1000-1019 on 5 m cells, the scaled scene 0
        # on 1 m cells
        grid, seeds, n_relays, n_obs = GRID, range(1000, 1020), 5, 10
        if scale == "scaled":
            grid, seeds, n_relays, n_obs = self.CFG1.cell_grid(), [0], 50, 100
        monkeypatch.setattr(tomography, "LANE_BUDGET", budget)
        scan, d = footprint_scan(NET, grid), NET.distances(*grid.xy.T)
        tomo, tested = TomographyConfig(grid.cell_side, "argmin"), 0
        for seed in seeds:
            rng = RngStream(seed)
            ms = simulate_measurements(NET, sample_relays(REGION, n_relays, rng.child(0)),
                                       PARAMS, n_obs, rng.child(1))
            for l, r in enumerate(localize_all(ms, NET, grid, PARAMS, tomo)):
                bins = {q2: quantize_angle(float(ms.aoa[p, l]), NET.resolution)[0]
                        for p, (_, q2) in enumerate(ms.pairs)}
                _, _, centers = scan(np.array([bins[q] for q in range(NET.n_nodes)]))
                if not centers:
                    assert r.kind == KIND_UNLOCALIZED
                    continue
                errs = [l2_oracle(float(ms.cap_est[p, l])
                                  - outage_capacity(HopPair(float(d[w, q1]), float(d[w, q2])),
                                                    PARAMS)
                                  for p, (q1, q2) in enumerate(ms.pairs)) for w in centers]
                k = errs.index(min(errs))
                assert (r.cell_index, r.n_candidates, r.e_capacity) == (centers[k], len(centers),
                                                                        errs[k])
                tested += len(centers) > 1
        assert tested >= (10 if scale == "scaled" else 30)

    @pytest.mark.parametrize("side", [5.0, 1.0])
    def test_group_priors_are_each_joint_bins_log_shares(self, side):
        # the sequential test's prior, read from the table, is the log of each
        # share over its joint bin's own total, as a relay's shares give it
        fp = tomography._footprint(NET, replace(CFG, cell_side_m=side).cell_grid())
        for start, count, _, _ in fp.joint_spans.tolist():
            span = slice(start, start + count)
            shares = fp.group_shares[span]
            assert np.array_equal(fp.group_priors[span], np.log(shares / shares.sum()))


class TestJointKey:
    """The joint-bin key past int64: MAX_NODES nodes on a ring of 1.6 region
    radii at 1 degree, on 5 m cells, where int64 holds the bins of 7 nodes at
    once and the key takes three steps; and the key at the admitted edge,
    the bin of pi + resolution / 2."""

    NET16 = ring_net(MAX_NODES, 1.0)

    def test_angle_step_equals_the_scan_past_int64(self):
        # 20 seeded relays and 20 cell centers (a center is a lattice point,
        # so its joint bin holds one), and copies of each with one node's bin
        # moved by -3, -1, +1 and +3: each one's cells, shares and center
        # cells are the scan's, and a joint bin that no lattice point lies in
        # gets none
        net, fp = self.NET16, tomography._footprint(self.NET16, GRID)
        assert len(fp.key_steps) == 3
        relays = sample_relays(REGION, 20, RngStream(170))
        xy = np.vstack(([(p.x, p.y) for p in relays], GRID.xy[::10][:20]))
        base = angle_bins(net.angles(*xy.T), net.resolution).T  # (nodes, 40)
        moved = np.tile(base, 5)
        for k, shift in enumerate((-3, -1, 1, 3), start=1):
            moved[np.arange(40) % net.n_nodes, 40 * k + np.arange(40)] += shift
        ms, scan = binned_set(net, moved), footprint_scan(net, GRID)
        spans = tomography._angle_step(ms, np.arange(ms.n_relays), net, fp)
        for l, (start, count, first, centers) in enumerate(spans.tolist()):
            cells, shares, center_rule = scan(moved[:, l])
            assert fp.group_cells[start:start + count].tolist() == cells
            assert fp.group_shares[start:start + count].tobytes() == shares.tobytes()
            assert fp.center_cells[first:first + centers].tolist() == center_rule
        assert spans[20:40, 3].all() and (spans[:, 1] == 0).sum() >= 100

    @pytest.mark.parametrize("mode", ["msprt", "argmin"])
    def test_localize_all_past_int64(self, mode):
        # 240 ordered pairs: the relays at cell centers localize, each into
        # one of its candidates, the others as their joint bins allow
        net, grid = self.NET16, GRID
        centers = [grid.cells[w] for w in (30, 100, 170)]
        relays = sample_relays(REGION, 3, RngStream(171)) + centers
        ms = simulate_measurements(net, relays, PARAMS, 10, RngStream(172))
        got = localize_all(ms, net, grid, PARAMS, TomographyConfig(grid.cell_side, mode))
        assert [r.relay for r in got] == list(range(6))
        for l, r in enumerate(got):
            support = (footprint_support(ms, l, net, grid)[0] if mode == "msprt" else
                       feasible_cells(ms, l, net, grid))
            assert r.n_candidates == len(support)
            assert r.cell_index in support if support else r.kind == KIND_UNLOCALIZED
        assert all(r.kind != KIND_UNLOCALIZED for r in got[3:])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distinct_columns_get_distinct_keys(self, data):
        # columns of admitted bins, the edge bins +-top among them: keyed as
        # the build keys the lattice, equal keys mark equal columns and keys
        # sort as the columns do; keyed again from the filled format, they
        # keep their keys, and a column outside them gets none of theirs
        n_nodes = data.draw(st.integers(3, MAX_NODES))
        resolution = math.radians(data.draw(st.sampled_from([10.0, 1.0, 1e-3, 1e-7])))
        top = int(angle_bins(math.pi + resolution / 2, resolution))
        digit = st.one_of(st.sampled_from([-top, top]), st.integers(-top, top))
        column = st.tuples(*[digit] * n_nodes)
        lattice = data.draw(st.lists(column, min_size=1, max_size=25))
        others = data.draw(st.lists(column, min_size=1, max_size=10))
        steps = []
        keys = tomography._joint_keys(np.array(lattice, np.int32).T, 2 * top + 1, steps)
        assert keys.dtype == np.int64 and len(steps) >= 1
        ordered = sorted(range(len(lattice)), key=lambda l: (lattice[l], l))
        assert keys[ordered].tolist() == sorted(keys.tolist())
        for a, b in zip(ordered, ordered[1:]):
            assert (keys[a] == keys[b]) == (lattice[a] == lattice[b])
        again = tomography._joint_keys(np.array(lattice + others, np.int32).T, 2 * top + 1, steps)
        assert again[:len(lattice)].tolist() == keys.tolist()
        for column, key in zip(others, again[len(lattice):].tolist()):
            assert (key in keys.tolist()) == (column in lattice)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("mode", ["msprt", "argmin"])
    @pytest.mark.parametrize("ring", [False, True])
    def test_edge_angle_is_unlocalized(self, ring, mode, sign):
        # an angle of exactly pi + resolution / 2 is admitted and bins to
        # +-top, past every node's lattice bins: the key's radix holds that
        # digit, so it carries into no other node's, and relays at cell
        # centers that measure it at one node find no joint bin
        net = self.NET16 if ring else NET
        grid, edge = GRID, sign * (math.pi + net.resolution / 2)
        top = int(angle_bins(edge, net.resolution)) * int(sign)
        assert tomography._footprint(net, grid).radix == 2 * top + 1
        cells = [grid.cells[w] for w in (30, 100, 170)]
        ms = simulate_measurements(net, cells, PARAMS, 10, RngStream(173))
        aoa = ms.aoa.copy()
        for l in (1, 2):  # relay l at node l
            aoa[net.receivers == l, l] = edge
        got = localize_all(MeasurementSet(ms.pairs, aoa, ms.cap_est, ms.raw), net, grid, PARAMS,
                           TomographyConfig(grid.cell_side, mode))
        assert got[0].kind != KIND_UNLOCALIZED
        assert [r.kind for r in got[1:]] == [KIND_UNLOCALIZED] * 2

    def test_hop_lengths_sum_pairs_as_gathered_rows(self):
        # a per-cell sum over the 120 unordered pairs of rates formed from
        # `hop_lengths` equals, bit for bit, the same sum over the rows
        # gathered into a (cells, 1, pairs) table, as the evidence gathers
        # them: numpy sums both pairwise
        x, y = GRID.xy.T
        rate = np.add(*rho_scales(HopPair(*self.NET16.hop_lengths(x, y)), PARAMS))
        gathered = rate[np.arange(len(rate))[:, None]]
        assert np.array_equal(np.add.reduce(rate, axis=-1),
                              np.add.reduce(gathered, axis=-1)[:, 0])

    def test_residual_gather_equals_the_broadcast_index(self):
        # the residuals gather the per-pair capacities with two takes, cells
        # then each row's pair: on 240 rows and a padded (relays, candidates)
        # table, whose padded lanes repeat each relay's last candidate, the
        # norms equal those of the table's broadcast index, bit for bit
        net = self.NET16
        caps = tomography._tables(net, GRID, PARAMS)[1].capacity
        relays = sample_relays(REGION, 6, RngStream(174))
        ms = simulate_measurements(net, relays, PARAMS, 10, RngStream(175))
        gen = RngStream(176).generator()
        sizes = np.array([1, 4, 2, 7, 3, 5])
        lanes = np.arange(sizes.max())
        cells = gen.integers(0, len(GRID.xy), (6, sizes.max()))
        cells = np.take_along_axis(cells, np.minimum(lanes, sizes[:, None] - 1), axis=1)
        cap_rows = ms.cap_est.T[:, None]
        got = tomography._capacity_residuals(net, caps, cells, cap_rows)
        broadcast = tomography._l2_norms(cap_rows - caps[cells[..., None], net.pair_of_row])
        assert len(net.pair_of_row) == 240 and got.shape == (6, sizes.max())
        assert np.array_equal(got, broadcast)


def mixed_scene() -> tuple[MeasurementSet, list]:
    """Five relays: one with a single candidate, one unlocalized, three with
    many; and each relay's `footprint_support`."""
    single = Point(67.35482724448657, 52.94261260624085)
    relays = [single] + sample_relays(REGION, 4, RngStream(128))
    ms_full = synthetic_set(relays, seed=129)
    aoa = ms_full.aoa.copy()
    index = {pair: k for k, pair in enumerate(ms_full.pairs)}
    aoa[index[(0, 1)], 2] = 0.0  # contradictory bins: relay 2 unlocalized
    aoa[index[(2, 1)], 2] = math.radians(40.0)
    ms = MeasurementSet(ms_full.pairs, aoa, ms_full.cap_est, ms_full.raw)
    found = [footprint_support(ms, l, NET, GRID) for l in range(5)]
    sizes = [len(candidates) for candidates, _ in found]
    assert sizes[0] == 1 and sizes[2] == 0 and min(sizes[1:2] + sizes[3:]) > 1
    return ms, found


def unlocalized(relay: int) -> LocalizationResult:
    return LocalizationResult(relay, None, None, 0, KIND_UNLOCALIZED, math.nan, math.nan, 0)
