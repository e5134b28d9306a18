import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from oracles import capacity_pdf, solve_increasing_root
from relaytomo.channel import (
    ChannelParams,
    HopPair,
    capacity_log_pdf,
    outage_capacity,
    outage_capacity_array,
    outage_cdf,
    sample_instant_capacity,
)
from relaytomo.errors import DomainError
from relaytomo.numerics import RngStream

REF_PARAMS = ChannelParams.from_db(30.0, 1.0, -3.0, 0.01)
REF_HOPS = HopPair(100.0, 100.0)


def closed_form_capacity(hops: HopPair, params: ChannelParams) -> float:
    """m=1 analytic inversion: independent of the root solver."""
    assert params.nakagami_m == 1.0
    s1 = 1.0 / (params.snr * hops.d_sr**params.path_loss_exp)
    s2 = 1.0 / (params.snr * hops.d_rd**params.path_loss_exp)
    return 0.5 * math.log2(1.0 - math.log1p(-params.outage_prob) / (s1 + s2))


def analytic_cdf(i, hops: HopPair, params: ChannelParams):
    """Vectorized oracle built on scipy's incomplete gamma."""
    m, snr, nu = params.nakagami_m, params.snr, params.path_loss_exp
    x = np.expm1(np.asarray(i) * math.log(4.0))
    r1 = m * x / (snr * hops.d_sr**nu)
    r2 = m * x / (snr * hops.d_rd**nu)
    return 1.0 - (1.0 - scipy.special.gammainc(m, r1)) * (1.0 - scipy.special.gammainc(m, r2))


class TestOutageCdf:
    def test_zero_rate(self):
        assert outage_cdf(0.0, REF_HOPS, REF_PARAMS) == 0.0

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_past_float_range_is_one(self, m):
        # 4^600 overflows a float; the cdf is 1 there, not an OverflowError
        assert outage_cdf(600.0, REF_HOPS, ChannelParams(1000.0, m, -3.0, 0.01)) == 1.0

    def test_reference_scenario_target(self):
        i_star = closed_form_capacity(REF_HOPS, REF_PARAMS)
        assert outage_cdf(i_star, REF_HOPS, REF_PARAMS) == pytest.approx(0.01, abs=1e-6)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-8, 2e-5, 50)
        vals = [outage_cdf(float(i), REF_HOPS, REF_PARAMS) for i in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_snr(self):
        i = 1e-5
        lo = outage_cdf(i, REF_HOPS, ChannelParams(500.0, 1.0, -3.0, 0.01))
        hi = outage_cdf(i, REF_HOPS, ChannelParams(2000.0, 1.0, -3.0, 0.01))
        assert hi < lo

    def test_matches_scipy_oracle(self):
        gen = RngStream(40).generator()
        for _ in range(50):
            params = ChannelParams(float(gen.uniform(1, 2000)),
                                   float(gen.choice([0.5, 1.0, 2.0, 4.0])),
                                   -3.0, 0.01)
            hops = HopPair(float(gen.uniform(0.5, 200)), float(gen.uniform(0.5, 200)))
            i = float(gen.uniform(0, 2.0))
            assert outage_cdf(i, hops, params) == pytest.approx(
                float(analytic_cdf(i, hops, params)), abs=1e-12)


class TestOutageCapacity:
    def test_reference_closed_form(self):
        solved = outage_capacity(REF_HOPS, REF_PARAMS)
        assert solved == pytest.approx(closed_form_capacity(REF_HOPS, REF_PARAMS),
                                       abs=1e-9)

    def test_reference_value_with_unit_received_snr(self):
        # 0.5 log2(1 - ln(0.99) / 2) presumes snr d^nu = 1 per hop: with
        # snr = 1000 and nu = -3, that is 10 m hops (1000 * 10^-3 = 1)
        solved = outage_capacity(HopPair(10.0, 10.0), REF_PARAMS)
        assert solved == pytest.approx(0.5 * math.log2(1.0 - math.log(0.99) / 2.0),
                                       rel=1e-12, abs=0.0)

    def test_vanishes_with_outage_target(self):
        caps = [outage_capacity(REF_HOPS, ChannelParams(1000.0, 1.0, -3.0, p))
                for p in (0.1, 0.01, 1e-4, 1e-7)]
        assert all(b < a for a, b in zip(caps, caps[1:]))
        assert caps[-1] < 1e-9

    def test_monte_carlo_quantile(self):
        caps = sample_instant_capacity(REF_HOPS, REF_PARAMS, RngStream(41),
                                       size=1_000_000)
        empirical = float(np.quantile(caps, 0.01))
        assert empirical == pytest.approx(outage_capacity(REF_HOPS, REF_PARAMS),
                                          abs=2e-4)

    def test_monotone_in_snr_and_distance(self):
        gen = RngStream(42).generator()
        for _ in range(20):
            m = float(gen.choice([0.5, 1.0, 2.0, 4.0]))
            d = float(gen.uniform(1, 50))
            p1 = ChannelParams(100.0, m, -3.0, 0.01)
            p2 = ChannelParams(400.0, m, -3.0, 0.01)
            assert outage_capacity(HopPair(d, d), p2) > outage_capacity(HopPair(d, d), p1)
            assert outage_capacity(HopPair(d * 2, d), p1) < \
                outage_capacity(HopPair(d, d), p1)

    def test_half_log_convention_probe(self):
        # replacing 4^I by 2^I in the cdf must exactly double the solution
        params = ChannelParams(50.0, 2.0, -3.0, 0.05)
        hops = HopPair(2.0, 3.0)
        i4 = outage_capacity(hops, params)
        s1 = params.nakagami_m / (params.snr * hops.d_sr**params.path_loss_exp)
        s2 = params.nakagami_m / (params.snr * hops.d_rd**params.path_loss_exp)

        def base2_cdf_shifted(i):
            x = math.expm1(i * math.log(2.0))
            m = params.nakagami_m
            q1 = 1.0 - scipy.special.gammainc(m, s1 * x)
            q2 = 1.0 - scipy.special.gammainc(m, s2 * x)
            return 1.0 - q1 * q2 - params.outage_prob

        i2 = solve_increasing_root(base2_cdf_shifted, 0.0, 1.0, 1e-13)
        assert i2 == pytest.approx(2.0 * i4, rel=1e-9)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 2.5, 4.0, 50.0, 1000.0])
    def test_array_solve_matches_scalar(self, m):
        # every path of a batch equals its own one-path solve, bit for bit,
        # and scipy's root to 1e-11
        gen = RngStream(31).generator()
        d = np.exp(gen.uniform(math.log(0.2), math.log(300.0), (2, 3, 20)))
        # short hops carry capacities above 1
        d[:, 0, :4] = [[0.2, 0.2, 0.3, 0.25], [0.2, 0.3, 0.2, 0.25]]
        for p_out in (0.01, 0.5):
            params = ChannelParams.from_db(30.0, m, -3.0, p_out)
            got = outage_capacity_array(HopPair(d[0], d[1]), params)
            want = [[outage_capacity(HopPair(float(a), float(b)), params)
                     for a, b in zip(r1, r2)] for r1, r2 in zip(d[0], d[1])]
            np.testing.assert_array_equal(got, want)
            assert got.max() > 1.0
            scipy_roots = [oracles.outage_capacity(float(a), float(b), params)
                           for a, b in zip(d[0].ravel()[::3], d[1].ravel()[::3])]
            np.testing.assert_allclose(got.ravel()[::3], scipy_roots, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5, 4.0])
    def test_every_path_equals_its_own_solve(self, m):
        # a 200-path batch, as the spectrum and the capacity column solve
        # them, path by path against one-path solves; hops of 0.2-300 m
        # spread the series lengths, so a stop rule shared across the batch
        # would show
        d = np.exp(RngStream(32).generator().uniform(math.log(0.2), math.log(300.0), (2, 200)))
        for p_out in (0.01, 0.5, 0.9):
            params = ChannelParams.from_db(30.0, m, -3.0, p_out)
            got = outage_capacity_array(HopPair(d[0], d[1]), params)
            want = [outage_capacity(HopPair(float(a), float(b)), params) for a, b in d.T]
            np.testing.assert_array_equal(got, want, err_msg=f"p = {p_out}")

    @pytest.mark.parametrize("m", [0.1, 0.5, 1.0, 2.5, 4.0, 50.0, 100.0, 1000.0])
    def test_stress_grid_matches_scipy(self, m):
        # outage targets from 1e-6 to 0.999 at 0, 30 and 60 dB on 8-90 m
        # hops, to 1e-11 relative of scipy's log-space root; these corners
        # include every-argument-in-one-branch batches and starts far from
        # the root
        gen = RngStream(33, (int(m * 10),)).generator()
        d = gen.uniform(8.0, 90.0, (2, 6))
        d[:, 0] = 8.0, 90.0
        for p_out in (1e-6, 0.01, 0.5, 0.9, 0.999):
            for snr_db in (0.0, 30.0, 60.0):
                params = ChannelParams.from_db(snr_db, m, -3.0, p_out)
                got = outage_capacity_array(HopPair(d[0], d[1]), params)
                want = [oracles.outage_capacity(float(a), float(b), params) for a, b in d.T]
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0,
                                           err_msg=f"p = {p_out}, {snr_db} dB")

    def test_zero_db_half_shape(self):
        # at 0 dB and m = 0.5 the capacities are 5e-11 to 8e-9, so only a
        # stop rule relative to the root meets 1e-11 here
        params = ChannelParams.from_db(0.0, 0.5, -3.0, 0.01)
        d = RngStream(34).generator().uniform(8.0, 90.0, (2, 50))
        got = outage_capacity_array(HopPair(d[0], d[1]), params)
        want = [oracles.outage_capacity(float(a), float(b), params) for a, b in d.T]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    def test_batch_shapes(self):
        params = ChannelParams.from_db(30.0, 2.5, -3.0, 0.01)
        one = outage_capacity_array(HopPair(40.0, 60.0), params)
        assert one.shape == () and float(one) == outage_capacity(HopPair(40.0, 60.0), params)
        assert outage_capacity_array(HopPair(np.array([]), np.array([])), params).shape == (0,)
        assert outage_capacity_array(HopPair(np.ones((0, 3)), 60.0), params).shape == (0, 3)
        grid = outage_capacity_array(HopPair(np.array([[40.0], [50.0]]), np.array([60.0, 70.0, 80.0])),
                                     params)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == outage_capacity(HopPair(50.0, 80.0), params)
        assert outage_capacity_array(REF_HOPS, REF_PARAMS).shape == ()

    def test_extreme_shapes(self):
        # at m = 0.003 and p near 1 the start lies past rho = e^700, where
        # the solve caps it; at m = 0.03 and p = 1e-13 the root's rho is
        # below the smallest float, and the solve bisects up to its step cap
        d = RngStream(35).generator().uniform(8.0, 90.0, (2, 5))
        params = ChannelParams.from_db(30.0, 0.003, -3.0, 1.0 - 1e-12)
        got = outage_capacity_array(HopPair(d[0], d[1]), params)
        want = [oracles.outage_capacity(float(a), float(b), params) for a, b in d.T]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)
        with pytest.raises(DomainError, match="did not converge within 100 steps"):
            outage_capacity_array(HopPair(d[0], d[1]), ChannelParams.from_db(30.0, 0.03, -3.0, 1e-13))

    def test_unsolvable_inputs_raise(self):
        with pytest.raises(DomainError, match="finite"):
            outage_capacity_array(HopPair(np.array([10.0, math.inf]), 10.0), REF_PARAMS)
        with pytest.raises(DomainError, match="finite"):
            outage_capacity_array(HopPair(math.nan, 10.0), REF_PARAMS)
        # the incomplete gamma's iteration cap
        with pytest.raises(DomainError, match="did not converge"):
            outage_capacity(REF_HOPS, ChannelParams(1000.0, 1e6, -3.0, 0.01))

    def test_array_solve_rejects_non_positive_hops(self):
        with pytest.raises(DomainError):
            outage_capacity_array(HopPair(np.array([10.0, 0.0]), np.array([10.0, 10.0])),
                                  REF_PARAMS)
        with pytest.raises(DomainError):
            outage_capacity_array(HopPair(np.array([10.0]), -1.0), REF_PARAMS)


class TestCapacityPdf:
    def test_finite_difference_oracle(self):
        gen = RngStream(43).generator()
        checked = 0
        for m in (0.5, 1.0, 2.0, 4.0):
            for _ in range(13):
                params = ChannelParams(float(gen.uniform(2, 500)), m, -3.0, 0.01)
                hops = HopPair(float(gen.uniform(0.5, 3.0)), float(gen.uniform(0.5, 3.0)))
                # evaluate between the 10% and 90% capacity quantiles, where
                # the density is large enough for central differences to resolve
                q10 = outage_capacity(hops, ChannelParams(params.snr, m, -3.0, 0.1))
                q90 = outage_capacity(hops, ChannelParams(params.snr, m, -3.0, 0.9))
                i = float(gen.uniform(q10, q90))
                h = 1e-6
                fd = (outage_cdf(i + h, hops, params) -
                      outage_cdf(i - h, hops, params)) / (2 * h)
                assert capacity_pdf(i, hops, params) == pytest.approx(fd, rel=1e-4)
                checked += 1
        assert checked >= 50

    def test_normalizes_to_one(self):
        for m in (0.5, 1.0, 2.0):
            params = ChannelParams(100.0, m, -3.0, 0.01)
            hops = HopPair(1.5, 2.5)
            upper = solve_increasing_root(
                lambda i: outage_cdf(i, hops, params) - (1.0 - 1e-12), 0.0, 1.0, 1e-10)
            total, err = scipy.integrate.quad(
                lambda i: capacity_pdf(i, hops, params), 0.0, upper, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_reference_closed_form_at_zero(self):
        # m=1 symmetric hops: density at zero equals ln4 * (rho1 + rho2)
        val = capacity_pdf(0.0, REF_HOPS, REF_PARAMS)
        assert val == pytest.approx(math.log(4.0) * 2000.0, rel=1e-12)

    def test_m1_closed_form_curve(self):
        s = 2000.0
        for i in (1e-7, 1e-6, 3e-6, 1e-5):
            x = math.expm1(i * math.log(4.0))
            expect = math.log(4.0) * (4.0**i) * s * math.exp(-x * s)
            assert capacity_pdf(i, REF_HOPS, REF_PARAMS) == pytest.approx(expect, rel=1e-12)

    def test_non_negative(self):
        gen = RngStream(44).generator()
        for _ in range(100):
            params = ChannelParams(float(gen.uniform(1, 1000)),
                                   float(gen.uniform(0.3, 5)), -3.0, 0.01)
            hops = HopPair(float(gen.uniform(0.5, 100)), float(gen.uniform(0.5, 100)))
            assert capacity_pdf(float(gen.uniform(0, 1)), hops, params) >= 0.0

    def test_log_pdf_consistent(self):
        params = ChannelParams(100.0, 2.0, -3.0, 0.01)
        hops = HopPair(1.0, 2.0)
        i = 0.3
        assert capacity_log_pdf(i, hops, params) == pytest.approx(
            math.log(capacity_pdf(i, hops, params)), abs=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 2.5, 4.0])
    def test_log_pdf_broadcast_matches_scalar(self, m):
        # one (hops, hops, capacities) array against the scalar density, at
        # i = 0 and far enough into the tail that the density underflows.
        # The scalar density forms each hop's Q as 1 - P, which keeps 12
        # digits only while Q >= 1e-3; scipy's log-space form judges the
        # rest, where the scalar density is off or 0
        params = ChannelParams(1000.0, m, -3.0, 0.01)
        gen = RngStream(49, (int(m * 2),)).generator()
        d_sr = gen.uniform(5.0, 120.0, (4, 3, 1))
        d_rd = gen.uniform(5.0, 120.0, (4, 3, 1))
        i = np.concatenate([[0.0, 1e-12, 5.0, 40.0], gen.exponential(0.05, 16)])
        hops = HopPair(d_sr, d_rd)
        got = capacity_log_pdf(i, hops, params)
        assert got.shape == (4, 3, i.size)
        value = np.empty(got.shape)
        for (a, b, o), _ in np.ndenumerate(got):
            value[a, b, o] = capacity_pdf(float(i[o]), HopPair(float(d_sr[a, b, 0]),
                                                               float(d_rd[a, b, 0])), params)
        s1, s2 = oracles.rho_scales(hops, params)
        x = np.expm1(i * oracles.LN4)
        log_q = np.minimum(oracles.log_upper_gamma(m, s1 * x), oracles.log_upper_gamma(m, s2 * x))
        scalar = (value > 0.0) & (log_q >= math.log(1e-3))
        assert scalar.sum() >= 30 and (value == 0.0).any()
        np.testing.assert_allclose(got[scalar], np.log(value[scalar]), rtol=1e-12, atol=0.0)
        tail = oracles.capacity_log_pdf(i, hops, params)[~scalar]
        np.testing.assert_allclose(got[~scalar], tail, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 2.5, 4.0])
    def test_log_pdf_far_tail_matches_scipy(self, m):
        # capacities up to 6 bits/s/Hz on 5-90 m hops at 30 dB drive hop Q
        # values far below the smallest float: the log density stays finite
        # and within 1e-12 of scipy's log-space form (relative past 1 nat)
        params = ChannelParams.from_db(30.0, m, -3.0, 0.01)
        gen = RngStream(53, (int(m * 2),)).generator()
        n = 20_000
        i = gen.uniform(0.0, 6.0, n)
        hops = HopPair(gen.uniform(5.0, 90.0, n), gen.uniform(5.0, 90.0, n))
        got = capacity_log_pdf(i, hops, params)
        want = oracles.capacity_log_pdf(i, hops, params)
        assert np.isfinite(want).all()
        assert (want < -745.0).sum() > n // 2  # e^-745 is below the smallest float
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    def test_log_pdf_past_overflow_is_minus_inf(self, m):
        # past i ~ 512 4^I overflows: the density is 0 to any float, not nan
        params = ChannelParams(1000.0, m, -3.0, 0.01)
        got = capacity_log_pdf(np.array([600.0, 1.0]), HopPair(50.0, 60.0), params)
        assert got[0] == -math.inf and np.isfinite(got[1])

    @pytest.mark.parametrize("m, edge", [(0.5, math.inf), (2.5, -math.inf)])
    def test_log_pdf_at_zero_capacity(self, m, edge):
        # the hazard u is slope / rho = 0/0 at i = 0: the density there is
        # infinite for m < 1 and 0 for m > 1, never nan
        params = ChannelParams(1000.0, m, -3.0, 0.01)
        got = capacity_log_pdf(np.array([0.0, 1.0]), HopPair(50.0, 60.0), params)
        assert got[0] == edge and np.isfinite(got[1])

    def test_log_pdf_scalar_inputs_give_float(self):
        assert isinstance(capacity_log_pdf(0.3, REF_HOPS, REF_PARAMS), float)


class TestSampler:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
    def test_distribution_matches_cdf(self, m):
        params = ChannelParams(1000.0, m, -3.0, 0.01)
        hops = HopPair(80.0, 120.0)
        draws = np.sort(sample_instant_capacity(hops, params,
                                                RngStream(45, (int(m * 2),)),
                                                size=1_000_000))
        cdf_vals = analytic_cdf(draws, hops, params)
        n = draws.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(float(np.max(ecdf_hi - cdf_vals)), float(np.max(cdf_vals - ecdf_lo)))
        assert ks < 0.002

    def test_low_snr_collapse(self):
        params = ChannelParams(1e-9, 1.0, -3.0, 0.01)
        draws = sample_instant_capacity(HopPair(1.0, 1.0), params, RngStream(46),
                                        size=100_000)
        assert float(draws.mean()) < 1e-8

    def test_bottleneck_hop_dominates(self):
        params = ChannelParams(1000.0, 1.0, -3.0, 0.01)
        draws = sample_instant_capacity(HopPair(1.0, 1e6), params, RngStream(47),
                                        size=100_000)
        assert float(np.quantile(draws, 0.99)) < 1e-3

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("size", [1, 10_000, 1_000_000])
    def test_matches_two_log_form(self, m, size):
        # the capacity of each hop's gain, then the smaller of the two; and
        # the one-log expression that the in-place transform replaces
        params = ChannelParams(1000.0, m, -3.0, 0.01)
        hops = HopPair(80.0, 120.0)
        gen = RngStream(49).generator()
        g1 = gen.gamma(m, hops.d_sr**-3.0 / m, size=size)
        g2 = gen.gamma(m, hops.d_rd**-3.0 / m, size=size)
        want = 0.5 * np.minimum(np.log2(1.0 + 1000.0 * g1), np.log2(1.0 + 1000.0 * g2))
        assert np.array_equal(0.5 * np.log2(1.0 + 1000.0 * np.minimum(g1, g2)), want)
        got = sample_instant_capacity(hops, params, RngStream(49), size=size)
        assert got.shape == (size,) and np.array_equal(got, want)


class TestParams:
    def test_db_conversion(self):
        assert ChannelParams.from_db(30.0, 1.0, -3.0, 0.01).snr == pytest.approx(1000.0)

    def test_invariants(self):
        with pytest.raises(DomainError):
            ChannelParams(-1.0, 1.0, -3.0, 0.01)
        with pytest.raises(DomainError):
            ChannelParams(1.0, 0.0, -3.0, 0.01)
        with pytest.raises(DomainError):
            ChannelParams(1.0, 1.0, -3.0, 1.5)
        for snr, m in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError):
                ChannelParams(snr, m, -3.0, 0.01)
        with pytest.raises(DomainError, match="overflows"):
            ChannelParams.from_db(5000.0, 1.0, -3.0, 0.01)
        with pytest.raises(DomainError):
            HopPair(0.0, 1.0)
        with pytest.raises(DomainError):
            HopPair(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            outage_cdf(-0.1, REF_HOPS, REF_PARAMS)
