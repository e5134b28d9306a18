import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import BracketError, solve_increasing_root
from relaytomo.errors import DomainError
from relaytomo.numerics import (
    QuadratureSpec,
    RngStream,
    log_upper_gamma_and_slope,
    log_upper_gamma_array,
    regularized_lower_gamma,
    regularized_lower_gamma_array,
)

# reference scenario constants: snr 1000 (30 dB), hops 100 m, nu = -3,
# outage target 1%; the m=1 closed-form outage capacity is
#   0.5 * log2(1 - ln(0.99) / (rho1 + rho2)),  rho_i = 1/(snr * d_i^nu) = 1000
REF_CAPACITY = 0.5 * math.log2(1.0 - math.log(0.99) / 2000.0)


def log_q_integer(m: int, x: float) -> float:
    """log Q(m, x) = -x + log sum_{k<m} x^k / k!, the sum taken in log space."""
    logs = [k * math.log(x) - math.lgamma(k + 1) for k in range(m)]
    top = max(logs)
    return -x + top + math.log(math.fsum(math.exp(t - top) for t in logs))


class TestLogUpperGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 2.5, 4.0])
    def test_matches_scipy_into_far_tail(self, a):
        # both branches and far past the x ~ 700 where Q underflows: finite
        # wherever scipy's log-space form is, and within 1e-12 of it
        # (relative past 1 nat)
        gen = RngStream(23).generator()
        xs = np.concatenate([gen.exponential(a, 500), gen.uniform(0.0, 80.0, 500),
                             10.0 ** gen.uniform(-12.0, 7.0, 1500),
                             [0.0, 1e-300, max(a - 1.0, 1e-3), a + 1.0, 700.0, 800.0]])
        got = log_upper_gamma_array(a, xs.reshape(2, -1)).ravel()
        want = oracles.log_upper_gamma(a, xs)
        assert np.isfinite(want).all() and (want < -745.0).sum() > 300
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("m", [1, 2, 4, 30, 256, 257])
    def test_integer_shapes_past_scipy_underflow(self, m):
        # m = 1's closed form and the general branch at larger integer
        # shapes, against the finite sum taken in log space
        gen = RngStream(24, (m,)).generator()
        xs = np.concatenate([gen.gamma(m, 1.0, 200), 10.0 ** gen.uniform(-6.0, 6.0, 200),
                             [m - 1.0 or 1e-3, m, 800.0, 1e6]])
        got = log_upper_gamma_array(float(m), xs)
        want = np.array([log_q_integer(m, float(x)) for x in xs])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.5, 50.0])
    def test_slope_matches_scipy(self, a):
        # the solver's kernel: log Q bit for bit as the checked form gives
        # it, and its slope x^a e^-x / (Gamma(a) Q) on both branches,
        # against scipy's log-space form
        gen = RngStream(25).generator()
        xs = np.concatenate([10.0 ** gen.uniform(-12.0, 3.0, 400), [a + 1.0, 700.0, 1e200]])
        log_q, slope = log_upper_gamma_and_slope(a, xs)
        np.testing.assert_array_equal(log_q, log_upper_gamma_array(a, xs))
        want_log = oracles.log_upper_gamma(a, xs)
        want = np.exp(a * np.log(xs) - xs - scipy.special.gammaln(a) - want_log)
        big = xs > 1e6  # the exponent cancels there; the slope tends to x
        np.testing.assert_allclose(slope[~big], want[~big], rtol=1e-11)
        np.testing.assert_allclose(slope[big], xs[big], rtol=1e-5)

    def test_limits_and_domain(self):
        assert log_upper_gamma_array(1.0, 800.0) == -800.0  # scipy's Q is 0 there
        for a in (0.5, 1.0, 2.0, 3.0):
            got = log_upper_gamma_array(a, np.array([0.0, math.nan, math.inf]))
            assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == -math.inf
            with pytest.raises(DomainError):
                log_upper_gamma_array(a, np.array([1.0, -0.1]))
        with pytest.raises(DomainError):
            log_upper_gamma_array(0.0, np.ones(3))


class TestRegularizedLowerGamma:
    def test_exponential_special_case(self):
        assert regularized_lower_gamma(1.0, 0.5) == pytest.approx(
            1.0 - math.exp(-0.5), abs=1e-14)

    def test_zero_argument(self):
        assert regularized_lower_gamma(2.0, 0.0) == 0.0

    def test_half_shape_matches_erf(self):
        # P(1/2, 1) equals erf(1); math.erf is an independent route
        assert regularized_lower_gamma(0.5, 1.0) == pytest.approx(
            math.erf(1.0), abs=1e-12)

    def test_against_scipy_grid(self):
        for a in (0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0, 25.0, 50.0):
            for x in (1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0, 150.0):
                assert regularized_lower_gamma(a, x) == pytest.approx(
                    scipy.special.gammainc(a, x), abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_monotone_and_limits(self, a):
        xs = np.linspace(0.0, 40.0 + 4 * a, 300)
        vals = [regularized_lower_gamma(a, float(x)) for x in xs]
        assert vals[0] == 0.0
        assert all(b >= c - 1e-15 for b, c in zip(vals[1:], vals[:-1]))
        assert vals[-1] > 1.0 - 1e-10

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.5, 4.0, 30.0])
    def test_array_form_matches_scalar(self, a):
        # both branches, the split point itself, zero and the far tail
        gen = RngStream(21).generator()
        # series arguments that stop within 16 terms, past 16 and (for
        # a = 30) past 48
        series = np.linspace(0.0, a + 1.0, 1202)[1:-1]
        stops = {series_terms(a, float(x)) for x in series}
        assert min(stops) <= 16 < max(stops)
        assert (max(stops) > 48) == (a == 30.0)
        xs = np.concatenate([gen.exponential(a, 500), gen.uniform(0.0, 80.0, 500),
                             [0.0, 1e-300, 1e-9, a + 1.0, 700.0],
                             series])  # 2205 = 5 x 441
        got = regularized_lower_gamma_array(a, xs.reshape(5, -1)).ravel()
        want = np.array([regularized_lower_gamma(a, float(x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_array_form_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_lower_gamma_array(0.0, np.ones(3))
        with pytest.raises(DomainError):
            regularized_lower_gamma_array(1.0, np.array([1.0, -0.1]))

    @pytest.mark.parametrize("x", [1e6, 1e6 + 1.0], ids=["series", "fraction"])
    def test_iteration_cap_raises(self, x):
        # at a = 1e6 near x = a neither expansion converges within 500 terms
        with pytest.raises(DomainError, match=re.escape(f"a=1000000.0, x={x}")):
            regularized_lower_gamma(1e6, x)
        with pytest.raises(DomainError, match=r"a=1000000\.0"):
            regularized_lower_gamma_array(1e6, np.array([0.5, x]))

    def test_nan_argument_gives_nan(self):
        assert math.isnan(regularized_lower_gamma(2.0, math.nan))
        got = regularized_lower_gamma_array(2.0, np.array([math.nan, 1.0]))
        assert math.isnan(got[0]) and got[1] == pytest.approx(regularized_lower_gamma(2.0, 1.0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_lower_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_lower_gamma(1.0, -0.1)


def series_terms(a: float, x: float) -> int:
    """Iterations the scalar series of P(a, x) runs before it stops: the
    first multiple of 4 at which its term is below 1e-15 of its sum."""
    ap, term, total = a, 1.0 / a, 1.0 / a
    for n in range(1, 501):
        ap += 1.0
        term *= x / ap
        total += term
        if n % 4 == 0 and abs(term) < abs(total) * 1e-15:
            return n
    return 500


class TestSolveIncreasingRoot:
    def test_linear(self):
        assert solve_increasing_root(lambda x: x - 2.0, 0.0, 4.0, 1e-12) == \
            pytest.approx(2.0, abs=1e-11)

    def test_cubic(self):
        assert solve_increasing_root(lambda x: x**3 - 8.0, 0.0, 4.0, 1e-9) == \
            pytest.approx(2.0, abs=1e-8)

    def test_reference_outage_equation(self):
        # invert the two-hop outage cdf for the reference scenario (m=1)
        def shifted(i):
            x = math.expm1(i * math.log(4.0))
            return 1.0 - math.exp(-2000.0 * x) - 0.01

        root = solve_increasing_root(shifted, 0.0, 1.0, 1e-14)
        assert root == pytest.approx(REF_CAPACITY, abs=1e-12)

    def test_upper_bound_doubling(self):
        root = solve_increasing_root(lambda x: x - 1000.0, 0.0, 1.0, 1e-9)
        assert root == pytest.approx(1000.0, abs=1e-8)

    def test_doubling_cap(self):
        with pytest.raises(BracketError):
            solve_increasing_root(lambda x: -1.0, 0.0, 1.0, 1e-9, max_doublings=10)

    def test_positive_at_lower_end(self):
        with pytest.raises(BracketError):
            solve_increasing_root(lambda x: x + 1.0, 0.0, 4.0, 1e-9)

    @given(st.floats(0.1, 4.0), st.floats(-3.0, 3.0), st.floats(0.2, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_bracket_property(self, slope, root, span):
        # randomized monotone functions: returned point brackets the root
        f = lambda x: slope * (x - root) ** 3 + 0.5 * slope * (x - root)
        tol = 1e-9
        r = solve_increasing_root(f, root - span, root + span, tol)
        assert f(r - tol) <= 0.0 <= f(r + tol)


class TestQuadratureSpec:
    def test_order_invariant(self):
        with pytest.raises(DomainError):
            QuadratureSpec(order=1)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(99, (1, 2)).generator().random(8)
        b = RngStream(99, (1, 2)).generator().random(8)
        assert np.array_equal(a, b)

    def test_children_distinct(self):
        parent = RngStream(99)
        a = parent.child(0).generator().random(8)
        b = parent.child(1).generator().random(8)
        assert not np.array_equal(a, b)
