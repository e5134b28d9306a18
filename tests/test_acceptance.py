"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 5 asserts a 70% end-to-end localization bar on seeds 0-19.  The
sequential solver measures 0.870 there and 0.787 on fresh seeds 1000-1199;
the test docstring gives the model fixes that lifted it from 0.660.  The
bar, its seeds and its budget are the stated ones, not recalibrated.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import capacity_pdf
from relaytomo.channel import (
    ChannelParams,
    HopPair,
    outage_capacity,
    outage_cdf,
    outage_solver_check,
)
from relaytomo.config import default_config_dict, scenario_from_dict
from relaytomo.geometry import angles_from_point, dist, sample_relays
from relaytomo.ias import angle_pdf_check, build_grid, discrete_ias
from relaytomo.measurement import (
    quantize_angle,
    read_measurements,
    simulate_measurements,
    write_measurements,
)
from relaytomo.numerics import RngStream
from relaytomo.tomography import (
    MsprtConfig,
    TomographyConfig,
    feasible_cells,
    localize_all,
    msprt_localize,
    score_results,
    write_report,
)

CFG = scenario_from_dict(default_config_dict())
BASELINE = CFG.baseline()
REGION = CFG.region()
PARAMS = CFG.channel_params()


@contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f} s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f} s)")


def test_criterion_1_outage_capacity_oracles():
    with criterion("1 outage-capacity oracles"):
        start = time.monotonic()
        # two 100 m hops; the m=1 closed form P(I) = 1 - exp(-(4^I - 1)(s1 + s2))
        # inverts to I = (1/2) log2(1 - ln(1 - p_out)/(s1 + s2)); with snr
        # 1000 and nu = -3 each s_i = 1/(snr d^nu) = 1000.
        n = 10_000_000
        solved, closed, empirical, below = outage_solver_check(PARAMS, RngStream(1001), n)
        assert closed is not None
        assert solved == pytest.approx(closed, abs=1e-9)
        assert solved == pytest.approx(closed, rel=1e-12)
        assert empirical == pytest.approx(solved, abs=2e-4)
        # the draws below the solved capacity, within 6 sigma of n p
        p = PARAMS.outage_prob
        assert abs(below - n * p) <= 6.0 * math.sqrt(n * p * (1.0 - p))
        assert time.monotonic() - start <= 30.0


def test_criterion_2_angle_pdf_oracles():
    with criterion("2 joint-angle-pdf oracles"):
        start = time.monotonic()
        grid = build_grid(REGION, BASELINE, math.radians(10), math.radians(10))
        total, frac = angle_pdf_check(REGION, BASELINE, grid, RngStream(1002),
                                      n=1_000_000)
        assert total == pytest.approx(1.0, abs=1e-4)
        assert frac >= 0.95
        assert time.monotonic() - start <= 60.0


def test_criterion_3_density_matches_cdf_derivative():
    with criterion("3 capacity-density derivative check"):
        gen = RngStream(1003).generator()
        checked = 0
        for m in (0.5, 1.0, 2.0, 4.0):
            for _ in range(13):
                params = ChannelParams(float(gen.uniform(2, 500)), m, -3.0, 0.01)
                hops = HopPair(float(gen.uniform(0.5, 3.0)),
                               float(gen.uniform(0.5, 3.0)))
                q10 = outage_capacity(hops, ChannelParams(params.snr, m, -3.0, 0.1))
                q90 = outage_capacity(hops, ChannelParams(params.snr, m, -3.0, 0.9))
                i = float(gen.uniform(q10, q90))
                h = 1e-6
                fd = (outage_cdf(i + h, hops, params)
                      - outage_cdf(i - h, hops, params)) / (2 * h)
                assert capacity_pdf(i, hops, params) == pytest.approx(fd, rel=1e-4)
                checked += 1
        assert checked >= 50


def test_criterion_4_spectrum_decays_with_angles():
    with criterion("4 discrete-spectrum monotone decay"):
        grid = CFG.angular_grid()
        spectrum = discrete_ias(grid, REGION, BASELINE, PARAMS, CFG.quadrature())
        nonempty = spectrum.masses > 0.0
        interior = np.zeros_like(nonempty)
        interior[1:-1, 1:-1] = (nonempty[1:-1, 1:-1] & nonempty[:-2, 1:-1] &
                                nonempty[2:, 1:-1] & nonempty[1:-1, :-2] &
                                nonempty[1:-1, 2:])
        pairs_checked = 0
        n_i, n_j = spectrum.values.shape
        for a in range(n_i - 1):
            for b in range(n_j):
                if interior[a, b] and interior[a + 1, b]:
                    assert spectrum.values[a + 1, b] <= spectrum.values[a, b] * (1 + 1e-9)
                    pairs_checked += 1
        for a in range(n_i):
            for b in range(n_j - 1):
                if interior[a, b] and interior[a, b + 1]:
                    assert spectrum.values[a, b + 1] <= spectrum.values[a, b] * (1 + 1e-9)
                    pairs_checked += 1
        assert pairs_checked >= 4


def test_criterion_5_end_to_end_localization():
    """End-to-end simulate -> invert at the stated operating point.

    Measured rate: 0.870 (0.787 on seeds 1000-1199).  It was 0.660 while
    the solver's likelihood did not match the simulator in two ways: (a)
    the angle step kept a cell only if its center quantized into every
    measured bin, while the simulator quantizes the relay's own position,
    so a relay and its cell center often straddled a bin edge and the true
    cell was dropped for 44% of relays; the sequential test now weighs each
    cell by the share of its in-region footprint that lands in every
    measured bin jointly and keeps the true cell for every relay; (b) the
    test summed the evidence of both orderings of each node pair, which
    share their fading draws, so each draw counted twice against the prior
    and the stopping thresholds.
    """
    with criterion("5 end-to-end localization rate"):
        start = time.monotonic()
        net, grid = CFG.network(), CFG.cell_grid()
        fractions = []
        for seed in range(20):
            rng = RngStream(seed)
            relays = sample_relays(REGION, 5, rng.child(0))
            ms = simulate_measurements(net, relays, PARAMS, 10, rng.child(1))
            results = localize_all(
                ms, net, grid, PARAMS,
                TomographyConfig(cell_side=CFG.cell_side_m, mode="msprt"),
                MsprtConfig(error=CFG.msprt_error, max_observations=10))
            fractions.append(
                score_results(results, relays, CFG.cell_side_m)["fraction_within_one_cell"])
        mean = float(np.mean(fractions))
        print(f"\n  localization fraction within one cell side: {mean:.3f} "
              f"(per-seed {['%.1f' % f for f in fractions]})")
        assert time.monotonic() - start <= 120.0
        assert mean >= 0.70


def test_criterion_6_accuracy_monotone_in_observations():
    with criterion("6 sequential-test consistency ladder"):
        net, grid = CFG.network(), CFG.cell_grid()
        windows = (1, 10, 100)
        correct = {o: 0 for o in windows}
        total = 0
        for k in range(200):
            rng = RngStream(6000 + k)
            relays = sample_relays(REGION, 1, rng.child(0))
            ms = simulate_measurements(net, relays, PARAMS, max(windows), rng.child(1))
            candidates = feasible_cells(ms, 0, net, grid)
            total += 1
            if not candidates:
                continue
            true_cell = min(range(len(grid.cells)),
                            key=lambda w: dist(grid.cells[w], relays[0]))
            for o in windows:
                res = msprt_localize(
                    candidates, ms.raw[:, 0, :o], net, grid, PARAMS,
                    MsprtConfig(error=1e-12, max_observations=o))
                correct[o] += res.cell_index == true_cell
        rates = [correct[o] / total for o in windows]
        print(f"\n  correct-cell rates over windows {windows}: "
              f"{['%.3f' % r for r in rates]}")
        assert rates[0] <= rates[1] <= rates[2]


def test_criterion_7_invariant_bundle(tmp_path):
    with criterion("7 invariant bundle"):
        from relaytomo.geometry import (
            dist_relay_destination,
            dist_source_relay,
            point_from_angles,
        )

        # geometry round trip at 1e-9
        gen = RngStream(1007).generator()
        for _ in range(2000):
            p = sample_relays(REGION, 1, RngStream(int(gen.integers(1 << 30))))[0]
            ang = angles_from_point(BASELINE, p)
            q = point_from_angles(BASELINE, ang)
            assert dist(p, q) < 1e-9 * max(1.0, dist(p, BASELINE.destination))
            # law of sines equals Euclidean distances
            assert dist_relay_destination(BASELINE, ang) == pytest.approx(
                dist(p, BASELINE.destination), rel=1e-9)
            assert dist_source_relay(BASELINE, ang) == pytest.approx(
                dist(p, BASELINE.source), rel=1e-9)

        # quantization error bounded by half a bin
        for _ in range(2000):
            theta = float(gen.uniform(-math.pi, math.pi))
            step = float(gen.uniform(0.01, 0.5))
            _, snapped = quantize_angle(theta, step)
            assert abs(theta - snapped) <= step / 2 + 1e-12

        # reciprocity equality of capacity estimates
        net = CFG.network()
        relays = sample_relays(REGION, 4, RngStream(1008))
        ms = simulate_measurements(net, relays, PARAMS, 10, RngStream(1009))
        index = {pair: k for k, pair in enumerate(ms.pairs)}
        for (q1, q2) in ms.pairs:
            np.testing.assert_array_equal(ms.cap_est[index[(q1, q2)]],
                                          ms.cap_est[index[(q2, q1)]])

        # MAP selection invariant under prior rescaling
        grid = CFG.cell_grid()
        cand = feasible_cells(ms, 0, net, grid)
        assert cand
        priors = {w: 1.0 + 0.05 * k for k, w in enumerate(cand)}
        scaled = {w: 3.17 * v for w, v in priors.items()}
        res_a = msprt_localize(cand, ms.raw[:, 0, :], net, grid, PARAMS,
                               MsprtConfig(max_observations=10, priors=priors))
        res_b = msprt_localize(cand, ms.raw[:, 0, :], net, grid, PARAMS,
                               MsprtConfig(max_observations=10, priors=scaled))
        assert res_a.cell_index == res_b.cell_index

        # rerunning the full pipeline is byte identical
        files = []
        for tag in ("a", "b"):
            rng = RngStream(314)
            rel = sample_relays(REGION, 5, rng.child(0))
            mset = simulate_measurements(net, rel, PARAMS, 10, rng.child(1))
            mfile = tmp_path / f"meas_{tag}.txt"
            write_measurements(mset, mfile)
            results = localize_all(mset, net, grid, PARAMS, CFG.tomography(),
                                   CFG.msprt())
            rfile = tmp_path / f"report_{tag}.txt"
            write_report(results, rfile)
            files.append((mfile.read_bytes(), rfile.read_bytes()))
        assert files[0] == files[1]
        # and the serialized form survives a parse/serialize cycle bit-exactly
        dup = tmp_path / "dup.txt"
        write_measurements(read_measurements(tmp_path / "meas_a.txt"), dup)
        assert dup.read_bytes() == (tmp_path / "meas_a.txt").read_bytes()
