"""Tests for the special functions and grid utilities."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trialeff import (
    DegenerateDensityError,
    DomainError,
    Grid,
    TrialCounts,
    grid_integral,
    grid_normalize,
    grid_quantile,
    log_binomial_coefficient,
    normal_cdf,
    normal_quantile,
    regularized_incomplete_beta,
)
from trialeff.numerics import grid_cdf

mp.mp.dps = 50


def exact_log_comb(n: int, k: int) -> float:
    """High-precision oracle: log of the exact integer coefficient."""
    return float(mp.log(mp.mpf(math.comb(n, k))))


class TestLogBinomialCoefficient:
    def test_choose_zero_is_one(self):
        assert log_binomial_coefficient(5, 0) == 0.0
        assert log_binomial_coefficient(5, 5) == 0.0

    def test_small_exact_case(self):
        assert log_binomial_coefficient(4, 2) == pytest.approx(math.log(6), rel=1e-15)

    def test_large_case_against_exact_oracle(self):
        expected = exact_log_comb(36523, 170)
        got = log_binomial_coefficient(36523, 170)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k",
        [(10**7, 3), (10**7, 5000), (10**7, 20_000), (200_000, 100_000)],
    )
    def test_wide_range_against_lgamma_oracle(self, n, k):
        expected = float(
            mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
        )
        assert log_binomial_coefficient(n, k) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=2, max_value=60), st.data())
    def test_pascal_recurrence_matches_exact_integers(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        lhs = math.exp(log_binomial_coefficient(n, k))
        rhs = math.comb(n - 1, k - 1) + math.comb(n - 1, k)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k", [(3, 4), (-1, 0), (5, -2), (math.inf, 3), (math.nan, 3), (2.5, 1), (True, 0)]
    )
    def test_domain_errors(self, n, k):
        with pytest.raises(DomainError):
            log_binomial_coefficient(n, k)

    @pytest.mark.parametrize(
        "n, ms",
        [
            (41, range(1, 41)),
            (10**3, range(1, 41)),
            (10**7, range(1, 41)),
            (2 * 10**6, range(9_990, 10_011)),
            (10**7, range(9_990, 10_011)),
        ],
    )
    def test_small_and_large_m_against_mpmath(self, n, ms):
        # m on both sides of the Stirling-series switch at 15, and m near
        # 10,000 at large n, where the sensitivity analyses evaluate it.
        expected = [
            float(mp.loggamma(n + 1) - mp.loggamma(m + 1) - mp.loggamma(n - m + 1))
            for m in ms
        ]
        assert [log_binomial_coefficient(n, m) for m in ms] == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 41, 10**3, 36523, 2 * 10**6 + 1])
    def test_symmetric_in_k_and_n_minus_k(self, n):
        for k in {0, 1, 2, 15, 16, n // 3, n // 2, 10_000}:
            if k <= n:
                assert log_binomial_coefficient(n, k) == log_binomial_coefficient(n, n - k)

    def test_n_beyond_float_range_rejected(self):
        assert log_binomial_coefficient(10**300, 1) == pytest.approx(
            300 * math.log(10), rel=1e-15
        )
        for k in (1, 20_000):
            with pytest.raises(DomainError, match="does not fit in a float"):
                log_binomial_coefficient(10**400, k)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, True, -1])
    def test_trial_counts_share_the_count_check(self, bad):
        with pytest.raises(DomainError):
            TrialCounts(n_v=bad, t_v=0, n_c=10, t_c=1)


def series_incomplete_beta(x: Fraction, a: int, b: int) -> Fraction:
    """Exact term-by-term series for integer shapes.

    B(x; a, b) = sum_k (-1)^k C(b-1, k) x^(a+k) / (a + k), a finite sum
    for integer b, evaluated in exact rational arithmetic and then
    regularized by the exact beta function.
    """
    total = Fraction(0)
    for k in range(b):
        term = Fraction(math.comb(b - 1, k), a + k) * x ** (a + k)
        total += -term if k % 2 else term
    beta_ab = Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )
    return total / beta_ab


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_exact_series(self):
        expected = float(series_incomplete_beta(Fraction(3, 10), 2, 5))
        got = regularized_incomplete_beta(0.3, 2.0, 5.0)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "x,a,b",
        [
            (0.3, 2.0, 5.0),
            (0.97, 0.5, 0.5),
            (0.004654, 161.0, 36362.0),
            (0.002327, 161.0, 36362.0),
            (0.012, 100.0, 11535.0),
            (0.85, 1996.0, 4.0),
            (1e-6, 1.5, 2.5),
            (0.5, 3000.0, 3000.0),
        ],
    )
    def test_against_high_precision_oracle(self, x, a, b):
        expected = float(mp.betainc(a, b, 0, x, regularized=True))
        got = regularized_incomplete_beta(x, a, b)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)

    @given(
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
        st.floats(min_value=0.05, max_value=200.0),
        st.floats(min_value=0.05, max_value=200.0),
    )
    @settings(max_examples=200)
    def test_reflection_identity(self, x, a, b):
        lhs = regularized_incomplete_beta(x, a, b)
        rhs = regularized_incomplete_beta(1.0 - x, b, a)
        assert lhs + rhs == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)])
    def test_domain_errors(self, x, a, b):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(x, a, b)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_conventional_critical_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.8) == pytest.approx(0.841621, abs=1e-6)

    @pytest.mark.parametrize(
        "p",
        [1e-12, 1e-8, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12],
    )
    def test_against_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(
            scipy.stats.norm.ppf(p), abs=1e-8
        )

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=300)
    def test_roundtrip_through_cdf(self, z):
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-7)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7])
    def test_domain_errors(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestGrid:
    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            Grid(np.array([0.0, 0.0, 1.0]), np.ones(3))  # not strictly increasing
        with pytest.raises(DomainError):
            Grid(np.array([0.0, 1.0]), np.array([1.0, -0.5]))  # negative density
        with pytest.raises(DomainError):
            Grid(np.array([0.0]), np.array([1.0]))  # too short
        with pytest.raises(DomainError):
            Grid(np.array([0.0, 1.0]), np.array([1.0, np.inf]))  # non-finite
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            Grid(np.array([0.0, np.nan, 1.0]), np.ones(3))  # NaN point
        for ends in ([0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(DomainError, match="finite and strictly increasing"):
                Grid(np.array(ends), np.ones(2))  # infinite end point
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            Grid(np.array([0.0, 0.7, 0.5, 1.0]), np.ones(4))  # decreasing
        with pytest.raises(DomainError, match="finite and non-negative"):
            Grid(np.array([0.0, 0.5, 1.0]), np.array([1.0, np.nan, 1.0]))  # NaN value
        with pytest.raises(DomainError, match="one-dimensional"):
            Grid(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(DomainError, match="equal length"):
            Grid(np.array([0.0, 0.5, 1.0]), np.ones(2))

    def test_values_are_immutable(self):
        g = Grid(np.linspace(0, 1, 5), np.ones(5))
        with pytest.raises(ValueError):
            g.values[0] = 2.0

    def test_adopts_a_read_only_array_that_owns_its_data(self):
        points = np.linspace(0, 1, 5).copy()  # linspace returns a view
        values = np.ones(5)
        points.flags.writeable = False
        values.flags.writeable = False
        g = Grid(points, values)
        assert np.shares_memory(g.points, points) and np.shares_memory(g.values, values)
        owner = np.arange(10.0)
        owner.flags.writeable = False
        assert np.shares_memory(Grid(points, owner[::2]).values, owner)

    def test_copies_an_array_that_can_still_be_written(self):
        values = np.ones(5)
        g = Grid(np.linspace(0, 1, 5), values)
        values[0] = 7.0
        assert g.values[0] == 1.0 and not np.shares_memory(g.values, values)
        # A read-only view of a writeable array is copied as well.
        owner = np.ones(5)
        view = owner[:]
        view.flags.writeable = False
        g = Grid(np.linspace(0, 1, 5), view)
        owner[0] = 7.0
        assert g.values[0] == 1.0 and not np.shares_memory(g.values, owner)

    @pytest.mark.parametrize("frozen", [False, True], ids=["copied", "adopted"])
    def test_arrays_cannot_be_made_writeable(self, frozen):
        points, values = np.linspace(0, 1, 5), np.ones(5)
        points.flags.writeable = values.flags.writeable = not frozen
        g = Grid(points, values)
        for array in (g.points, g.values):
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_with_values_shares_the_points_and_checks_only_the_values(self):
        g = Grid(np.linspace(0, 1, 5), np.ones(5))
        cdf = grid_cdf(g)
        h = g.with_values(np.arange(5.0))
        assert h.points is g.points and h._steps is g._steps
        assert grid_integral(h) == float(np.trapezoid(np.arange(5.0), g.points))
        assert grid_cdf(h) is not cdf and grid_cdf(h)[1] != cdf[1]
        with pytest.raises(DomainError, match="finite and non-negative"):
            g.with_values(np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(DomainError, match="equal length"):
            g.with_values(np.ones(4))
        with pytest.raises(DomainError, match="one-dimensional"):
            g.with_values(np.ones((5, 1)))

    def test_cdf_is_one_read_only_array(self):
        g = grid_normalize(Grid(np.linspace(0, 1, 11), np.linspace(1, 2, 11)))
        cdf = grid_cdf(g)
        assert grid_cdf(g) is cdf
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        with pytest.raises(ValueError):
            cdf[0] = 0.5

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=10.0),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=2,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_integral_is_numpy_trapezoid_bit_for_bit(self, steps_and_values):
        steps, values = (np.array(col) for col in zip(*steps_and_values))
        points = np.cumsum(steps)
        g = Grid(points, values)
        assert grid_integral(g) == float(np.trapezoid(values, points))
        reversed_values = values[::-1]
        assert grid_integral(g.with_values(reversed_values)) == float(
            np.trapezoid(reversed_values, points)
        )

    def test_normalize_constant_density(self):
        g = grid_normalize(Grid(np.linspace(0, 1, 101), np.full(101, 7.0)))
        np.testing.assert_allclose(g.values, 1.0, atol=1e-14)

    def test_normalize_linear_density(self):
        x = np.linspace(0, 1, 1001)
        g = grid_normalize(Grid(x, 2 * x))
        assert grid_integral(g) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_rejects_zero_density(self):
        with pytest.raises(DegenerateDensityError):
            grid_normalize(Grid(np.linspace(0, 1, 11), np.zeros(11)))

    def test_uniform_quantile_is_identity(self):
        g = grid_normalize(Grid(np.linspace(0, 1, 101), np.ones(101)))
        assert grid_quantile(g, 0.25) == pytest.approx(0.25, abs=1e-12)
        assert grid_quantile(g, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_density_median_at_center(self):
        x = np.linspace(0, 1, 2001)
        density = np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2)
        g = grid_normalize(Grid(x, density))
        assert grid_quantile(g, 0.5) == pytest.approx(0.5, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=5, max_size=40),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_quantile_monotone_in_q(self, values, q1, q2):
        # Flush tiny magnitudes to exact zero (keeping flat CDF segments
        # in play) and guarantee a normalizable amount of mass.
        values = [v if v > 1e-9 else 0.0 for v in values]
        if max(values) == 0.0:
            values[0] = 1.0
        g = grid_normalize(Grid(np.linspace(0, 1, len(values)), np.array(values)))
        lo, hi = sorted((q1, q2))
        assert grid_quantile(g, lo) <= grid_quantile(g, hi) + 1e-15

    def test_quantile_domain(self):
        g = grid_normalize(Grid(np.linspace(0, 1, 11), np.ones(11)))
        with pytest.raises(DomainError):
            grid_quantile(g, 0.0)
        with pytest.raises(DomainError):
            grid_quantile(g, 1.0)
