"""Tests for the conditional-binomial posterior machinery."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trialeff import (
    ClampedModeWarning,
    DegenerateDataError,
    DiagnosticProfile,
    DomainError,
    FalsePositiveParadoxError,
    PERFECT_TEST,
    TRIAL_PRESETS,
    SimulationConfig,
    TrialCounts,
    cramer_rao_at_prevalence,
    cramer_rao_interval,
    credible_interval,
    fisher_information,
    fisher_rr_interval,
    grid_integral,
    grid_quantile,
    log_binomial_coefficient,
    log_likelihood,
    map_estimate,
    marginal_likelihood,
    marginalize_over_diagnostics,
    normal_quantile,
    observed_rate,
    posterior,
    posterior_at_prevalence,
    wald_efficacy_interval,
)
from trialeff.numerics import grid_cdf
from trialeff.posterior import _cached_uniform_prior

AZ = TRIAL_PRESETS["az"]
PFIZER = TRIAL_PRESETS["pfizer"]
MODERNA = TRIAL_PRESETS["moderna"]


def kernel_log_density(alpha, n, t_c, rate):
    """Reference kernel used by the quadrature oracles in this module."""
    p = rate / (2.0 - alpha)
    return t_c * np.log(p) + (n - t_c) * np.log1p(-p)


def reference_posterior(counts, pi, d, grid_size, rescaled):
    """Abscissae, density and CDF built from scratch, as the grid pipeline must give them.

    ``np.linspace``, then the kernel expression with zero density where the
    success probability reaches one, then ``np.trapezoid`` normalization
    and cumulative trapezoid sums.
    """
    alpha = np.linspace(0.0, 1.0, grid_size)
    rate = observed_rate(counts.overall_rate if pi is None else pi, d)
    n = counts.t / rate if rescaled else counts.n
    with np.errstate(divide="ignore", invalid="ignore"):
        log_density = np.where(
            rate / (2.0 - alpha) < 1.0, kernel_log_density(alpha, n, counts.t_c, rate), -np.inf
        )
    density = np.exp(log_density - log_density.max())
    density = density / np.trapezoid(density, alpha)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) * 0.5 * np.diff(alpha))))
    return alpha, density, cdf / cdf[-1]


class TestObservedRate:
    def test_perfect_test_is_identity(self):
        assert observed_rate(0.01, PERFECT_TEST) == pytest.approx(0.01)

    def test_false_positive_floor(self):
        d = DiagnosticProfile(sensitivity=0.99, specificity=0.99)
        assert observed_rate(0.0, d) == pytest.approx(0.01)

    def test_direct_arithmetic(self):
        d = DiagnosticProfile(sensitivity=0.95, specificity=0.999)
        assert observed_rate(0.01, d) == pytest.approx(0.01049, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_stays_in_unit_interval(self, pi):
        d = DiagnosticProfile(sensitivity=0.9, specificity=0.97)
        assert 0.0 <= observed_rate(pi, d) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            observed_rate(1.2, PERFECT_TEST)


class TestLogLikelihood:
    def test_matches_exact_binomial_logpmf(self):
        counts = TrialCounts(n_v=40, t_v=3, n_c=40, t_c=7)
        for alpha in (0.0, 0.25, 0.4, 0.77, 0.99):
            p = 0.11 / (2.0 - alpha)
            expected = scipy.stats.binom.logpmf(7, 80, p)
            assert log_likelihood(alpha, counts, pi=0.11) == pytest.approx(
                expected, abs=1e-9
            )

    def test_maximized_where_success_probability_hits_observed_fraction(self):
        counts = TrialCounts(n_v=500, t_v=20, n_c=500, t_c=60)
        alpha = np.linspace(0.0, 1.0, 200001)
        values = [log_likelihood(a, counts) for a in alpha]
        best = alpha[int(np.argmax(values))]
        assert best == pytest.approx(map_estimate(counts), abs=1e-5)

    def test_pfizer_argmax_matches_reported_mode(self):
        alpha = np.linspace(0.0, 1.0, 200001)
        values = [log_likelihood(a, PFIZER) for a in alpha]
        best = alpha[int(np.argmax(values))]
        assert best == pytest.approx(0.951, abs=1e-3)

    def test_rejects_success_probability_outside_unit_interval(self):
        counts = TrialCounts(n_v=50, t_v=10, n_c=50, t_c=40)
        with pytest.raises(DomainError):
            log_likelihood(1.0, counts, pi=1.0)  # p = 1 exactly
        with pytest.raises(DomainError):
            log_likelihood(0.5, counts, pi=0.0)  # p = 0

    def test_degenerate_without_control_cases(self):
        counts = TrialCounts(n_v=50, t_v=3, n_c=50, t_c=0)
        with pytest.raises(DegenerateDataError):
            log_likelihood(0.5, counts, pi=0.03)


class TestPosterior:
    def test_az_reproduces_reported_mode_and_interval(self):
        est = credible_interval(posterior(AZ), 0.95)
        assert est.point == pytest.approx(0.703, abs=0.01)
        assert est.lower == pytest.approx(0.391, abs=0.01)
        assert est.upper == pytest.approx(0.909, abs=0.01)

    def test_moderna_reproduces_reported_mode_and_interval(self):
        est = credible_interval(posterior(MODERNA), 0.95)
        assert est.point == pytest.approx(0.941, abs=0.01)
        assert est.lower == pytest.approx(0.754, abs=0.01)
        assert est.upper == pytest.approx(0.995, abs=0.01)

    @pytest.mark.parametrize("counts", [AZ, PFIZER, MODERNA])
    def test_density_normalized_to_machine_precision(self, counts):
        post = posterior(counts)
        assert grid_integral(post.grid) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("counts", [AZ, PFIZER, MODERNA])
    def test_grid_argmax_agrees_with_closed_form(self, counts):
        post = posterior(counts)
        step = post.efficacies[1] - post.efficacies[0]
        argmax = post.efficacies[int(np.argmax(post.density))]
        assert abs(argmax - map_estimate(counts)) <= step

    def test_imbalanced_arms_attach_warning(self):
        counts = TrialCounts(n_v=10000, t_v=30, n_c=9000, t_c=101)
        post = posterior(counts)
        assert any("arm sizes differ" in w for w in post.warnings)

    def test_heavily_imbalanced_arms_rejected(self):
        counts = TrialCounts(n_v=10000, t_v=30, n_c=5000, t_c=101)
        with pytest.raises(DomainError):
            posterior(counts)

    def test_false_positive_paradox(self):
        with pytest.raises(FalsePositiveParadoxError):
            posterior(AZ, pi=0.0)

    def test_minimum_grid_size_enforced(self):
        with pytest.raises(DomainError):
            posterior(AZ, grid_size=501)

    def test_maximum_grid_size_enforced_before_allocating(self):
        # 10**12 points would be a 7 TiB array; the cap raises first.
        with pytest.raises(DomainError, match="grid_size must be at most"):
            posterior(PFIZER, grid_size=10**12)

    def test_degenerate_without_control_cases(self):
        counts = TrialCounts(n_v=100, t_v=2, n_c=100, t_c=0)
        with pytest.raises(DegenerateDataError):
            posterior(counts)


class TestPosteriorAtPrevalence:
    def test_observed_rate_input_matches_default_analysis(self):
        base = posterior(AZ)
        again = posterior_at_prevalence(AZ, AZ.overall_rate)
        np.testing.assert_allclose(again.density, base.density, rtol=1e-9)

    @pytest.mark.parametrize("counts", [AZ, PFIZER, MODERNA])
    def test_prevalence_one_collapses_onto_pooled_wald(self, counts):
        est = credible_interval(posterior_at_prevalence(counts, 1.0), 0.95)
        wald = wald_efficacy_interval(counts, 0.95)
        assert est.lower == pytest.approx(wald.lower, abs=0.01)
        assert est.upper == pytest.approx(wald.upper, abs=0.01)

    def test_credible_width_non_increasing_in_prevalence(self):
        widths = []
        for pi in (0.005, 0.02, 0.1, 0.3, 0.5, 0.9):
            est = credible_interval(posterior_at_prevalence(AZ, pi), 0.95)
            widths.append(est.width)
        assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            posterior_at_prevalence(AZ, 0.0)
        with pytest.raises(DomainError):
            posterior_at_prevalence(AZ, 1.2)

    @pytest.mark.parametrize("analysis", [posterior_at_prevalence, cramer_rao_at_prevalence])
    def test_prevalence_too_small_to_rescale(self, analysis):
        # N = t/T overflows to inf: the grid kernel would turn NaN and the
        # information bound would give a zero-width interval.
        with pytest.raises(DomainError, match="too small to rescale"):
            analysis(PFIZER, 1e-307)


class TestMapEstimate:
    def test_no_effect_when_case_counts_match(self):
        counts = TrialCounts(n_v=1000, t_v=40, n_c=1000, t_c=40)
        assert map_estimate(counts) == pytest.approx(0.0, abs=1e-12)

    def test_complete_protection(self):
        counts = TrialCounts(n_v=1000, t_v=0, n_c=1000, t_c=40)
        assert map_estimate(counts) == pytest.approx(1.0, abs=1e-12)

    def test_pfizer_closed_form(self):
        assert map_estimate(PFIZER) == pytest.approx(2.0 - 170.0 / 162.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::trialeff.ClampedModeWarning")
    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=100)
    def test_reduces_to_case_ratio_for_perfect_test(self, t_v, t_c):
        # With pi = t/n and a perfect test the mode is exactly 1 - t_v/t_c
        # (clamped at zero once the vaccinated arm has more cases).
        counts = TrialCounts(n_v=500, t_v=t_v, n_c=500, t_c=t_c)
        expected = max(0.0, 1.0 - t_v / t_c)
        assert map_estimate(counts) == pytest.approx(expected, abs=1e-12)

    def test_clamping_warns(self):
        counts = TrialCounts(n_v=500, t_v=90, n_c=500, t_c=30)
        with pytest.warns(ClampedModeWarning):
            value = map_estimate(counts)
        assert value == 0.0

    def test_imperfect_specificity_deflates_fixed_counts(self):
        leaky = DiagnosticProfile(sensitivity=1.0, specificity=0.999)
        assert map_estimate(AZ, d=leaky) < map_estimate(AZ)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            map_estimate(TrialCounts(n_v=10, t_v=1, n_c=10, t_c=0))


class TestFisherInformation:
    def test_direct_arithmetic_case(self):
        assert fisher_information(0.0, 100, 0.5) == pytest.approx(100 * 0.5 / (4 * 1.5))

    def test_linear_in_population_size(self):
        base = fisher_information(0.4, 1000, 0.07)
        assert fisher_information(0.4, 7000, 0.07) == pytest.approx(7 * base, rel=1e-12)

    def test_decreasing_as_prevalence_falls_at_fixed_efficacy(self):
        values = [fisher_information(0.6, 5000, pi) for pi in (0.3, 0.1, 0.05, 0.01)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_monte_carlo_score_variance(self):
        alpha, n, pi = 0.55, 20000, 0.08
        rate = pi
        p = rate / (2.0 - alpha)
        rng = np.random.default_rng(1234)
        draws = rng.binomial(n, p, size=100_000)
        h = 1e-4
        score = (
            kernel_log_density(alpha + h, n, draws, rate)
            - kernel_log_density(alpha - h, n, draws, rate)
        ) / (2 * h)
        assert fisher_information(alpha, n, pi) == pytest.approx(
            float(np.var(score)), rel=0.02
        )

    def test_matches_expected_finite_difference_hessian(self):
        alpha, n, pi = 0.3, 50000, 0.12
        p = pi / (2.0 - alpha)
        rng = np.random.default_rng(99)
        draws = rng.binomial(n, p, size=100_000)
        h = 1e-4
        hessian = (
            kernel_log_density(alpha + h, n, draws, pi)
            - 2.0 * kernel_log_density(alpha, n, draws, pi)
            + kernel_log_density(alpha - h, n, draws, pi)
        ) / h**2
        assert fisher_information(alpha, n, pi) == pytest.approx(
            float(-np.mean(hessian)), rel=0.01
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            fisher_information(1.8, 100, 0.5)  # 2 - alpha - pi <= 0
        with pytest.raises(DomainError):
            fisher_information(0.5, 0, 0.5)
        with pytest.raises(DomainError):
            fisher_information(0.5, 100, 0.0)


class TestCramerRaoInterval:
    def test_width_vanishes_with_population_size(self):
        small = cramer_rao_interval(TrialCounts(n_v=5000, t_v=30, n_c=5000, t_c=100))
        big = cramer_rao_interval(
            TrialCounts(n_v=5_000_000, t_v=30_000, n_c=5_000_000, t_c=100_000)
        )
        assert big.width < small.width / 10
        assert big.width < 0.02

    def test_half_width_matches_posterior_curvature_at_mode(self):
        # The expected information equals the observed curvature of the
        # log posterior at its mode, so the half-width must line up with
        # the finite-difference second derivative.
        mode = map_estimate(PFIZER)
        h = 1e-5
        curvature = -(
            log_likelihood(mode + h, PFIZER)
            - 2 * log_likelihood(mode, PFIZER)
            + log_likelihood(mode - h, PFIZER)
        ) / h**2
        est = cramer_rao_interval(PFIZER)
        z = normal_quantile(0.975)
        assert est.upper - est.point == pytest.approx(
            z / math.sqrt(curvature), rel=0.01
        )

    def test_symmetric_about_mode(self):
        est = cramer_rao_interval(AZ)
        assert est.point - est.lower == pytest.approx(est.upper - est.point, rel=1e-12)

    def test_bounds_flagged_not_clamped_outside_unit_interval(self):
        est = cramer_rao_interval(TrialCounts(n_v=200, t_v=1, n_c=200, t_c=30))
        assert est.upper > 1.0
        assert any("outside [0, 1]" in w for w in est.warnings)

    def test_false_positive_paradox_as_in_posterior(self):
        # At prevalence 0 the observed rate equals the false positive
        # rate: every analysis of the counts must refuse it alike.
        leaky = DiagnosticProfile(sensitivity=0.95, specificity=0.99)
        for analysis in (posterior, cramer_rao_interval, map_estimate):
            with pytest.raises(FalsePositiveParadoxError):
                analysis(AZ, 0.0, leaky)


class TestCredibleInterval:
    def test_pfizer_equal_tailed_bounds(self):
        est = credible_interval(posterior(PFIZER), 0.95)
        assert est.lower == pytest.approx(0.749, abs=0.01)
        assert est.upper == pytest.approx(0.996, abs=0.01)

    def test_tiny_level_collapses_to_median(self):
        post = posterior(AZ)
        est = credible_interval(post, 1e-9)
        median = grid_quantile(post.grid, 0.5)
        assert est.width < 1e-6
        assert est.lower == pytest.approx(median, abs=1e-6)

    def test_hpd_no_wider_than_equal_tailed(self):
        post = posterior(AZ)
        hpd = credible_interval(post, 0.95, method="hpd")
        et = credible_interval(post, 0.95, method="equal-tailed")
        assert hpd.width <= et.width + 1e-9

    def test_hpd_holds_requested_mass(self):
        post = posterior(AZ)
        hpd = credible_interval(post, 0.95, method="hpd")
        cdf = grid_cdf(post.grid)
        mass = np.interp(hpd.upper, post.efficacies, cdf) - np.interp(
            hpd.lower, post.efficacies, cdf
        )
        assert mass == pytest.approx(0.95, abs=0.002)

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError):
            credible_interval(posterior(AZ), 0.95, method="shortest-ish")

    def test_level_domain(self):
        with pytest.raises(DomainError):
            credible_interval(posterior(AZ), 0.0)


class TestMarginalLikelihood:
    @pytest.mark.parametrize("counts", [AZ, PFIZER, MODERNA])
    def test_matches_quadrature(self, counts):
        analytic = marginal_likelihood(counts)
        alpha = np.linspace(0.0, 1.0, 200001)
        full = kernel_log_density(alpha, counts.n, counts.t_c, counts.overall_rate)
        full = full + log_binomial_coefficient(counts.n, counts.t_c)
        quadrature = float(np.trapezoid(np.exp(full), alpha))
        assert analytic == pytest.approx(quadrature, rel=1e-6)

    def test_cancellation_branch_when_rate_far_above_case_fraction(self):
        # Both regularized beta values sit near one here; the
        # complementary difference keeps the result accurate.
        counts = TrialCounts(n_v=250, t_v=5, n_c=250, t_c=10)
        rate = 0.3
        analytic = marginal_likelihood(counts, pi=rate)
        alpha = np.linspace(0.0, 1.0, 400001)
        full = kernel_log_density(alpha, counts.n, counts.t_c, rate)
        full = full + log_binomial_coefficient(counts.n, counts.t_c)
        quadrature = float(np.trapezoid(np.exp(full), alpha))
        assert analytic == pytest.approx(quadrature, rel=1e-6)

    def test_scaling_the_kernel_scales_the_integral(self):
        analytic = marginal_likelihood(AZ)
        alpha = np.linspace(0.0, 1.0, 200001)
        full = kernel_log_density(alpha, AZ.n, AZ.t_c, AZ.overall_rate)
        full = full + log_binomial_coefficient(AZ.n, AZ.t_c) + math.log(7.0)
        scaled = float(np.trapezoid(np.exp(full), alpha))
        assert scaled == pytest.approx(7.0 * analytic, rel=1e-6)

    def test_single_control_case_falls_back_with_warning(self):
        counts = TrialCounts(n_v=400, t_v=0, n_c=400, t_c=1)
        with pytest.warns(UserWarning, match="numerical integration"):
            value = marginal_likelihood(counts)
        assert value > 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            marginal_likelihood(TrialCounts(n_v=10, t_v=1, n_c=10, t_c=0))


class TestMarginalizeOverDiagnostics:
    def test_point_ranges_reduce_to_single_profile(self):
        mixed = marginalize_over_diagnostics(
            AZ, se_range=(1.0, 1.0), sp_range=(1.0, 1.0), grid_size=4001
        )
        plain = posterior(AZ, grid_size=4001)
        np.testing.assert_allclose(mixed.density, plain.density, rtol=1e-10)

    def test_uncertainty_in_test_widens_interval(self):
        mixed = marginalize_over_diagnostics(
            AZ, se_range=(0.95, 1.0), sp_range=(0.999, 1.0), grid_size=4001
        )
        plain = posterior(AZ, grid_size=4001)
        wide = credible_interval(mixed, 0.95)
        narrow = credible_interval(plain, 0.95)
        assert wide.width > narrow.width

    def test_mixture_stays_normalized(self):
        mixed = marginalize_over_diagnostics(
            AZ, se_range=(0.9, 1.0), sp_range=(0.995, 1.0), grid_size=4001
        )
        assert grid_integral(mixed.grid) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"grid_size": 501}, "grid_size must be at least"),
            ({"grid_size": 10**12}, "grid_size must be at most"),
            ({"pi": 1.5}, "prevalence must lie"),
            ({"lattice_size": 0}, "lattice_size must be at least 1, got 0"),
            ({"lattice_size": -1}, "lattice_size must be a non-negative integer"),
            ({"lattice_size": 2.5}, "lattice_size must be a non-negative integer"),
        ],
    )
    def test_invalid_input_is_not_reported_as_infeasible_lattice(self, kwargs, message):
        kwargs = {"lattice_size": 3, **kwargs}
        with pytest.raises(DomainError, match=message) as raised:
            marginalize_over_diagnostics(
                AZ, se_range=(0.9, 1.0), sp_range=(0.99, 1.0), **kwargs
            )
        assert not isinstance(raised.value, FalsePositiveParadoxError)

    def test_error_when_every_lattice_point_is_infeasible(self):
        with pytest.raises(FalsePositiveParadoxError):
            marginalize_over_diagnostics(
                AZ, se_range=(0.3, 0.4), sp_range=(0.3, 0.4), grid_size=4001
            )


MISCLASSIFYING = DiagnosticProfile(sensitivity=0.95, specificity=0.999)
READINGS = {
    "own-cohort": (None, PERFECT_TEST, False),
    "pi": (0.005, PERFECT_TEST, False),
    "rescaled": (0.01, PERFECT_TEST, True),
    "rescaled-pi-one": (1.0, PERFECT_TEST, True),
    "misclassified": (None, MISCLASSIFYING, False),
}
# So many cases that the shifted log density is below exp's floor (its
# value is 0.0) on over a third of a 20001-point grid, at both ends, with
# subnormal values where it crosses the floor.
NARROW = TrialCounts(n_v=3_000_000, t_v=9_000, n_c=3_000_000, t_c=30_000)
SMALLEST_NORMAL = np.finfo(np.float64).tiny


class TestBitIdentity:
    @pytest.mark.parametrize("grid_size", [2001, 20001])
    @pytest.mark.parametrize("reading", READINGS)
    def test_posterior_is_the_reference_bit_for_bit(self, reading, grid_size):
        pi, d, rescaled = READINGS[reading]
        build = posterior_at_prevalence if rescaled else posterior
        post = build(PFIZER, pi, d, grid_size)
        alpha, density, cdf = reference_posterior(PFIZER, pi, d, grid_size, rescaled)
        assert (post.efficacies == alpha).all()
        assert (post.density == density).all()
        assert (grid_cdf(post.grid) == cdf).all()

    @pytest.mark.parametrize("grid_size", [2001, 20001])
    def test_mixture_is_the_old_loop_bit_for_bit(self, grid_size):
        se_range, sp_range, size = (0.3, 1.0), (0.6, 1.0), 5
        mixed = marginalize_over_diagnostics(AZ, se_range, sp_range, None, grid_size, size)
        accumulated = np.zeros(grid_size)
        kept = 0
        for se in np.linspace(*se_range, size):
            for sp in np.linspace(*sp_range, size):
                try:
                    profile = DiagnosticProfile(sensitivity=se, specificity=sp)
                    part = posterior(AZ, AZ.overall_rate, profile, grid_size)
                except DomainError:
                    continue
                accumulated += part.density
                kept += 1
        assert 0 < kept < size * size  # the loop skipped some points
        mixture = accumulated / kept
        alpha = np.linspace(0.0, 1.0, grid_size)
        assert (mixed.density == mixture / np.trapezoid(mixture, alpha)).all()

    def test_narrow_posterior_is_the_reference_bit_for_bit(self):
        post = posterior(NARROW, grid_size=20001)
        alpha, density, cdf = reference_posterior(NARROW, None, PERFECT_TEST, 20001, False)
        assert (density == 0.0).mean() >= 0.3 and density[0] == density[-1] == 0.0
        assert ((density > 0.0) & (density < SMALLEST_NORMAL)).any()
        assert (post.density == density).all()
        assert (grid_cdf(post.grid) == cdf).all()

    def test_narrow_mixture_is_the_reference_bit_for_bit(self):
        se_range, sp_range, size = (0.95, 1.0), (0.9999, 1.0), 3
        mixed = marginalize_over_diagnostics(NARROW, se_range, sp_range, None, 20001, size)
        accumulated = np.zeros(20001)
        for se in np.linspace(*se_range, size):
            for sp in np.linspace(*sp_range, size):
                profile = DiagnosticProfile(sensitivity=se, specificity=sp)
                alpha, density, _ = reference_posterior(
                    NARROW, NARROW.overall_rate, profile, 20001, False
                )
                accumulated += density
        mixture = accumulated / size**2
        assert (mixture == 0.0).mean() >= 0.3
        assert (mixed.density == mixture / np.trapezoid(mixture, alpha)).all()


class TestSharedAbscissae:
    def test_posteriors_of_one_size_share_read_only_efficacies(self):
        first = posterior(PFIZER, grid_size=2001)
        second = posterior_at_prevalence(AZ, 0.01, MISCLASSIFYING, grid_size=2001)
        mixed = marginalize_over_diagnostics(AZ, (0.9, 1.0), (0.99, 1.0), None, 2001, 2)
        for post in (second, mixed):
            assert np.shares_memory(post.efficacies, first.efficacies)
        with pytest.raises(ValueError):
            first.efficacies.flags.writeable = True
        with pytest.raises(ValueError):
            first.efficacies[0] = 0.5
        assert not np.shares_memory(posterior(PFIZER, grid_size=4001).efficacies, first.efficacies)

    @pytest.mark.parametrize("grid_size", [501, 10**12])
    def test_rejected_size_adds_no_cache_entry(self, grid_size):
        before = _cached_uniform_prior.cache_info()
        with pytest.raises(DomainError, match="grid_size must be"):
            posterior(PFIZER, grid_size=grid_size)
        assert _cached_uniform_prior.cache_info() == before


OUT_OF_RANGE = r"level must lie in \(0, 1\)"
# The largest double below 1: (1 + level)/2 rounds to 1 and has no normal quantile.
TAIL_ROUNDS_TO_ONE = r"level must leave \(1 \+ level\)/2 below 1"


@pytest.mark.parametrize(
    "level, message",
    [pytest.param(level, OUT_OF_RANGE, id=str(level)) for level in (0.0, 1.0, 1.5, math.nan)]
    + [pytest.param(0.9999999999999999, TAIL_ROUNDS_TO_ONE, id="largest-below-1")],
)
def test_every_level_check_is_the_same_check(level, message):
    post = posterior(AZ, grid_size=2001)
    for build in (
        lambda: credible_interval(post, level, "hpd"),
        lambda: credible_interval(post, level),
        lambda: cramer_rao_interval(AZ, level=level),
        lambda: cramer_rao_at_prevalence(AZ, 0.5, level=level),
        lambda: wald_efficacy_interval(AZ, level),
        lambda: fisher_rr_interval(AZ, level),
        lambda: SimulationConfig(n_per_arm=100, prevalence=0.1, ve=0.5, level=level),
    ):
        with pytest.raises(DomainError, match=rf"{message}, got {level}"):
            build()


def test_level_just_below_the_rejected_one_keeps_its_intervals():
    level = 0.9999999999999998
    post = posterior(PFIZER, grid_size=2001)
    bounds = {
        "equal-tailed": credible_interval(post, level),
        "hpd": credible_interval(post, level, "hpd"),
        "cramer-rao": cramer_rao_interval(PFIZER, level=level),
        "wald": wald_efficacy_interval(PFIZER, level),
        "fisher-rr": fisher_rr_interval(PFIZER, level),
    }
    assert {name: (est.lower, est.upper) for name, est in bounds.items()} == {
        "equal-tailed": (1.6315549751106145e-05, 1.0),
        "hpd": (3.263109950221229e-05, 1.0),
        "cramer-rao": (0.27526603619878565, 1.625968531702449),
        "wald": (0.02870895287188402, 0.9974541008006466),
        "fisher-rr": (-0.6303370339294085, 0.7297917291272258),
    }


class TestIdentity:
    def test_posteriors_compare_and_hash_by_identity(self):
        first = posterior(PFIZER, grid_size=2001)
        second = posterior(PFIZER, grid_size=2001)
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2
