import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import quantize_angle
from relaytomo.channel import ChannelParams, HopPair, outage_capacity, sample_instant_capacity
from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.errors import DomainError, GeometryError, MeasurementError
from relaytomo.geometry import Point, RelayRegion, dist, sample_relays
from relaytomo.measurement import (
    MAX_NODES,
    MeasurementNetwork,
    MeasurementSet,
    angle_bins,
    estimate_outage_capacity,
    read_measurements,
    read_relays,
    simulate_measurements,
    write_measurements,
    write_relays,
)
from relaytomo.numerics import RngStream

GOLDEN = Path(__file__).parent / "golden" / "measurements.golden"

CX = 50.0 * math.sqrt(3.0)
REGION = RelayRegion(Point(CX, 50.0), 40.0)
PARAMS = ChannelParams.from_db(30.0, 1.0, -3.0, 0.01)


def three_node_net(ring: float = 100.0) -> MeasurementNetwork:
    nodes = tuple(
        Point(CX + ring * math.cos(ph), 50.0 + ring * math.sin(ph))
        for ph in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                   math.pi / 2 + 4 * math.pi / 3)
    )
    return MeasurementNetwork(nodes, math.radians(10), REGION)


class TestQuantizeAngle:
    def test_basic(self):
        idx, ang = quantize_angle(math.radians(33.0), math.radians(10.0))
        assert idx == 3
        assert math.degrees(ang) == pytest.approx(30.0, abs=1e-12)

    def test_tie_rounds_away_from_zero(self):
        idx, _ = quantize_angle(math.radians(35.0), math.radians(10.0))
        assert idx == 4
        idx_neg, _ = quantize_angle(math.radians(-35.0), math.radians(10.0))
        assert idx_neg == -4

    def test_reference_span_edge(self):
        idx, ang = quantize_angle(math.radians(6.42), math.radians(10.0))
        assert idx == 1
        assert math.degrees(ang) == pytest.approx(10.0, abs=1e-12)

    @given(st.floats(-math.pi, math.pi), st.floats(0.01, 0.6))
    @settings(max_examples=300, deadline=None)
    def test_error_within_half_bin(self, theta, d_theta):
        _, ang = quantize_angle(theta, d_theta)
        assert abs(theta - ang) <= d_theta / 2 + 1e-12

    def test_bad_resolution(self):
        with pytest.raises(DomainError):
            quantize_angle(1.0, 0.0)
        with pytest.raises(DomainError):
            quantize_angle(1.0, math.nan)
        with pytest.raises(DomainError):
            angle_bins(np.ones(3), math.nan)

    def test_array_form_matches_scalar(self):
        # bin edges, ties, signed zeros and random angles
        d_theta = math.radians(10.0)
        theta = np.concatenate((
            (np.arange(-40, 41) + 0.5) * d_theta, np.arange(-40, 41) * d_theta,
            [0.0, -0.0, 1e-300, -1e-300],
            RngStream(17).generator().uniform(-math.pi, math.pi, 2000)))
        want = [quantize_angle(t, d_theta)[0] for t in theta.tolist()]
        assert angle_bins(theta, d_theta).tolist() == want


class TestQuantileEstimator:
    def test_first_order_statistic(self):
        samples = list(range(1, 101))
        assert estimate_outage_capacity(samples, 0.01) == 1.0

    def test_short_window_degrades_to_minimum(self):
        samples = [5.0, 3.0, 9.0, 4.0, 8.0, 7.0, 1.5, 2.0, 6.0, 2.5]
        assert estimate_outage_capacity(samples, 0.01) == 1.5

    def test_converges_to_outage_capacity(self):
        # density at the 1% quantile is ~38 here, so 2e-4 is a ~7.6 sigma band
        hops = HopPair(4.0, 4.2)
        params = ChannelParams(5.0, 1.0, -3.0, 0.01)
        draws = sample_instant_capacity(hops, params, RngStream(61), size=1_000_000)
        est = estimate_outage_capacity(draws, 0.01)
        assert est == pytest.approx(outage_capacity(hops, params), abs=2e-4)

    def test_estimate_sharpens_with_window(self):
        hops = HopPair(1.0, 1.2)
        params = ChannelParams(10.0, 1.0, -3.0, 0.01)
        true = outage_capacity(hops, params)
        draws = sample_instant_capacity(hops, params, RngStream(62), size=1_000_000)
        errors = [abs(estimate_outage_capacity(draws[:n], 0.01) - true)
                  for n in (100, 10_000, 1_000_000)]
        assert errors[2] < errors[0]
        assert errors[2] < errors[1]

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            estimate_outage_capacity([], 0.01)
        with pytest.raises(MeasurementError):
            estimate_outage_capacity(np.zeros((3, 2, 0)), 0.01)

    @pytest.mark.parametrize("n", [1, 2, 10, 101])
    @pytest.mark.parametrize("p_out", [1e-300, 0.01, 0.5, 0.99, 1.0 - 2**-53])
    def test_windows_along_last_axis_equal_scalar_calls(self, n, p_out):
        # a (pairs, relays, observations) array, with ties and the clamps
        # of p_out near 0 (the minimum) and near 1 (the maximum)
        draws = RngStream(75).generator().exponential(size=(6, 4, n)).round(1)
        got = estimate_outage_capacity(draws, p_out)
        assert got.shape == (6, 4)
        want = [[estimate_outage_capacity(window, p_out) for window in row] for row in draws]
        assert got.tobytes() == np.array(want).tobytes()
        if p_out == 1e-300:
            assert np.array_equal(got, draws.min(axis=-1))
        if p_out > 0.99:
            assert np.array_equal(got, draws.max(axis=-1))

    def test_one_window_gives_a_float(self):
        assert type(estimate_outage_capacity(np.array([3.0, 1.0, 2.0]), 0.5)) is float
        assert type(estimate_outage_capacity([2.5], 0.01)) is float


class TestNetwork:
    def test_requires_three_nodes(self):
        with pytest.raises(GeometryError):
            MeasurementNetwork((Point(0, 0), Point(1, 0)), 0.1, REGION)

    @pytest.mark.parametrize("resolution", [0.0, math.nan, math.inf])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(DomainError):
            MeasurementNetwork(three_node_net().nodes, resolution, REGION)

    def test_rejects_interior_node(self):
        with pytest.raises(GeometryError):
            MeasurementNetwork((Point(CX, 50), Point(0, 0), Point(300, 0)), 0.1, REGION)

    def test_node_count_is_bounded_first(self):
        # the bound fires before any per-node check: these nodes all lie
        # inside the region and the resolution is invalid
        inside = (REGION.center,) * (MAX_NODES + 1)
        for resolution in (0.1, 0.0):
            with pytest.raises(DomainError, match=f"^{MAX_NODES + 1} measuring nodes, "
                                                 f"more than the {MAX_NODES} allowed$"):
                MeasurementNetwork(inside, resolution, REGION)

    def test_ordered_pairs_enumeration(self):
        net = three_node_net()
        assert net.ordered_pairs() == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_pair_tables(self):
        net = MeasurementNetwork(three_node_net().nodes + (Point(CX, -60.0),), 0.1, REGION)
        rows = net.ordered_pairs()
        assert net.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert [rows[k] for k in net.pair_rows] == list(net.pairs)
        assert [net.pairs[k] for k in net.pair_of_row] == [tuple(sorted(pair)) for pair in rows]
        assert net.receivers.tolist() == [q2 for _, q2 in rows]
        assert all(net.row_of[pair] == k for k, pair in enumerate(rows))

    def test_table_is_the_scalar_geometry(self):
        # numpy's hypot and arctan2 round some results one ulp away from the
        # math module's; the bins of 2,000 points are exactly the scalar ones.
        # The hop lengths of unordered pair (lo, hi) are the distances to lo
        # and to hi
        net = three_node_net()
        x, y = REGION.sample_xy(RngStream(77), 2000)
        for shape in ((0,), (2000,), (40, 50)):
            px, py = x[:np.prod(shape)].reshape(shape), y[:np.prod(shape)].reshape(shape)
            d, angle = net.distances(px, py), net.angles(px, py)
            assert d.shape == angle.shape == shape + (3,)
            d_lo, d_hi = net.hop_lengths(px, py)
            assert d_lo.shape == d_hi.shape == shape + (len(net.pairs),)
            for k, (lo, hi) in enumerate(net.pairs):
                assert np.array_equal(d_lo[..., k], d[..., lo])
                assert np.array_equal(d_hi[..., k], d[..., hi])
            points = [Point(a, b) for a, b in zip(px.ravel().tolist(), py.ravel().tolist())]
            for q, node in enumerate(net.nodes):
                want_d = np.array([dist(p, node) for p in points])
                want_angle = np.array([oracles.node_angle(net, q, p) for p in points])
                assert np.all(np.abs(d[..., q].ravel() - want_d) <= np.spacing(want_d))
                assert np.all(np.abs(angle[..., q].ravel() - want_angle)
                              <= np.spacing(np.abs(want_angle)))
                bins = angle_bins(angle[..., q], net.resolution)
                assert bins.dtype == np.int32
                assert bins.ravel().tolist() == [quantize_angle(a, net.resolution)[0]
                                                 for a in want_angle.tolist()]

    def test_rejects_resolution_whose_bins_overflow_int32(self):
        nodes = three_node_net().nodes
        for resolution in (math.radians(1e-8), math.pi / (2**31 - 1)):
            with pytest.raises(DomainError, match="32-bit"):
                MeasurementNetwork(nodes, resolution, REGION)
        # the finest resolution accepted bins every angle localize_all
        # admits, up to pi plus half a bin, inside int32
        net = MeasurementNetwork(nodes, math.pi / (2**31 - 2), REGION)
        edge = math.pi + net.resolution / 2
        bins = angle_bins(np.array([-edge, -math.pi, math.pi, edge]), net.resolution)
        assert bins.tolist() == [-(2**31 - 1), -(2**31 - 2), 2**31 - 2, 2**31 - 1]


class TestSimulate:
    def test_single_relay_bearings(self):
        net = three_node_net()
        relay = Point(CX + 7.0, 50.0 + 11.0)
        ms = simulate_measurements(net, [relay], PARAMS, 4, RngStream(63))
        assert ms.aoa.shape == (6, 1)
        for p_idx, (q1, q2) in enumerate(ms.pairs):
            # oracle: bearing of the relay at the receiver, measured from the
            # node's ray toward the region center, then snapped to the grid
            node = net.nodes[q2]
            ref = math.atan2(REGION.center.y - node.y, REGION.center.x - node.x)
            raw = math.atan2(relay.y - node.y, relay.x - node.x) - ref
            raw = math.atan2(math.sin(raw), math.cos(raw))
            _, expect = quantize_angle(raw, net.resolution)
            assert ms.aoa[p_idx, 0] == pytest.approx(expect, abs=1e-12)

    def test_single_observation_equals_estimate(self):
        net = three_node_net()
        ms = simulate_measurements(net, [Point(CX, 55.0)], PARAMS, 1, RngStream(64))
        np.testing.assert_allclose(ms.cap_est, ms.raw[:, :, 0])

    def test_reciprocity_exact(self):
        net = three_node_net()
        relays = sample_relays(REGION, 4, RngStream(65))
        ms = simulate_measurements(net, relays, PARAMS, 10, RngStream(66))
        index = {pair: k for k, pair in enumerate(ms.pairs)}
        for (q1, q2) in ms.pairs:
            fwd, rev = index[(q1, q2)], index[(q2, q1)]
            np.testing.assert_array_equal(ms.cap_est[fwd], ms.cap_est[rev])
            np.testing.assert_array_equal(ms.raw[fwd], ms.raw[rev])

    def test_observation_vectors_complete(self):
        net = three_node_net()
        relays = sample_relays(REGION, 3, RngStream(67))
        ms = simulate_measurements(net, relays, PARAMS, 7, RngStream(68))
        for l in range(ms.n_relays):
            for o in range(ms.n_observations):
                vec = ms.raw[:, l, o]
                assert vec.shape == (len(ms.pairs),)
                assert np.all(np.isfinite(vec)) and np.all(vec >= 0.0)

    def test_deterministic(self):
        net = three_node_net()
        relays = sample_relays(REGION, 3, RngStream(69))
        a = simulate_measurements(net, relays, PARAMS, 5, RngStream(70))
        b = simulate_measurements(net, relays, PARAMS, 5, RngStream(70))
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.aoa, b.aoa)

    def test_rejects_zero_observations(self):
        with pytest.raises(DomainError):
            simulate_measurements(three_node_net(), [Point(CX, 50.0)], PARAMS, 0,
                                  RngStream(71))

    def test_first_observations_re_estimates(self):
        relays = sample_relays(REGION, 3, RngStream(72))
        ms = simulate_measurements(three_node_net(), relays, PARAMS, 10, RngStream(73))
        assert ms.first_observations(10, PARAMS.outage_prob) is ms
        cut = ms.first_observations(4, PARAMS.outage_prob)
        assert cut.pairs == ms.pairs and np.array_equal(cut.aoa, ms.aoa)
        np.testing.assert_array_equal(cut.raw, ms.raw[:, :, :4])
        for p_idx in range(len(ms.pairs)):
            for l in range(ms.n_relays):
                assert cut.cap_est[p_idx, l] == estimate_outage_capacity(
                    ms.raw[p_idx, l, :4], PARAMS.outage_prob)


def assert_same_bits(got: MeasurementSet, want: MeasurementSet) -> None:
    assert got.pairs == want.pairs
    for field in ("aoa", "cap_est", "raw"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSimulatorOracle:
    """`simulate_measurements` equals the path-by-path protocol bit for bit."""

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_reference_scene(self, m):
        raw = default_config_dict()
        raw["channel"]["nakagami_m"] = m
        cfg = scenario_from_dict(raw)
        net, params = cfg.network(), cfg.channel_params()
        relays = sample_relays(cfg.region(), cfg.relays, cfg.rng().child(0))
        args = (net, relays, params, cfg.observations)
        assert_same_bits(simulate_measurements(*args, cfg.rng().child(1)),
                         oracles.simulate_measurements(*args, cfg.rng().child(1)))

    @pytest.mark.parametrize("n_relays, observations", [(12, 10), (0, 5), (7, 1)],
                             ids=["four_nodes", "no_relays", "one_observation"])
    def test_four_node_network(self, n_relays, observations):
        net = MeasurementNetwork(three_node_net(60.0).nodes + (Point(CX, -60.0),),
                                 math.radians(2.0), REGION)
        relays = sample_relays(REGION, n_relays, RngStream(78))
        args = (net, relays, PARAMS, observations)
        got = simulate_measurements(*args, RngStream(79))
        assert_same_bits(got, oracles.simulate_measurements(*args, RngStream(79)))
        assert got.aoa.shape == (12, n_relays)


class TestSerialization:
    def build_reference_set(self) -> MeasurementSet:
        pairs = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
        aoa = np.radians([[30.0, -10.0], [20.0, 0.0], [-40.0, 10.0],
                          [50.0, -20.0], [0.0, 30.0], [-30.0, 40.0]])
        cap = np.array([[0.001953125, 1.5e-06]] * 2 + [[0.25, 0.0625]] * 2 +
                       [[3.5e-05, 0.0001220703125]] * 2)
        vals = [0.001953125, 0.0078125, 0.03125, 1.5e-06, 6e-06, 2.4e-05]
        raw = np.zeros((6, 2, 3))
        for p in range(6):
            for l in range(2):
                for o in range(3):
                    raw[p, l, o] = vals[(p + l + o) % 6]
        return MeasurementSet(pairs, aoa, cap, raw)

    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "measurements.txt"
        write_measurements(self.build_reference_set(), out)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_measurements(self.build_reference_set(), first)
        ms = read_measurements(first)
        write_measurements(ms, second)
        assert first.read_bytes() == second.read_bytes()

    def test_simulated_round_trip(self, tmp_path):
        net = three_node_net()
        relays = sample_relays(REGION, 3, RngStream(72))
        ms = simulate_measurements(net, relays, PARAMS, 6, RngStream(73))
        f1, f2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        write_measurements(ms, f1)
        write_measurements(read_measurements(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_simulated_set_read_back_bit_exact(self, tmp_path):
        # every field lands in its own array cell; angles pass through the
        # file's ten-decimal degrees and come back by math.radians
        net = three_node_net()
        ms = simulate_measurements(net, sample_relays(REGION, 4, RngStream(75)), PARAMS, 5,
                                   RngStream(76))
        path = tmp_path / "m.txt"
        write_measurements(ms, path)
        back = read_measurements(path)
        assert back.pairs == ms.pairs
        assert back.cap_est.tobytes() == ms.cap_est.tobytes()
        assert back.raw.tobytes() == ms.raw.tobytes()
        written = [math.radians(float(f"{math.degrees(a):.10f}")) for a in ms.aoa.ravel()]
        assert back.aoa.tobytes() == np.array(written).reshape(ms.aoa.shape).tobytes()

    def test_relay_round_trip(self, tmp_path):
        relays = sample_relays(REGION, 5, RngStream(74))
        path = tmp_path / "relays.txt"
        write_relays(relays, path)
        back = read_relays(path)
        assert len(back) == 5
        for a, b in zip(relays, back):
            assert dist(a, b) == 0.0

    def test_missing_file(self):
        with pytest.raises(MeasurementError):
            read_measurements("/nonexistent/measurements.txt")
        with pytest.raises(MeasurementError):
            read_relays("/nonexistent/relays.txt")

    def test_malformed_record(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 0\n")
        with pytest.raises(MeasurementError):
            read_measurements(bad)
        bad.write_text("0 1 -1 10.0 0.5 0.5\n")
        with pytest.raises(MeasurementError, match="negative relay index"):
            read_measurements(bad)

    @pytest.mark.parametrize("field", ["aoa", "cap_est", "raw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        arrays = {"aoa": np.zeros((1, 2)), "cap_est": np.zeros((1, 2)),
                  "raw": np.zeros((1, 2, 3))}
        arrays[field][(0, 1) if field != "raw" else (0, 1, 2)] = value
        with pytest.raises(MeasurementError, match="finite"):
            MeasurementSet(((0, 1),), arrays["aoa"], arrays["cap_est"], arrays["raw"])

    def test_shape_validation(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(((0, 1),), np.zeros((1, 2)), np.zeros((2, 2)),
                           np.zeros((1, 2, 3)))
