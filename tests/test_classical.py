"""Tests for the pooled Wald and information-bound risk-ratio intervals.

Frozen expected values were computed independently with 50-digit
arithmetic straight from the interval formulas.
"""

import math

import pytest

from trialeff import (
    DomainError,
    TRIAL_PRESETS,
    TrialCounts,
    ZeroCellError,
    fisher_rr_interval,
    wald_efficacy_interval,
    wald_log_variance,
)

AZ = TRIAL_PRESETS["az"]
PFIZER = TRIAL_PRESETS["pfizer"]
MODERNA = TRIAL_PRESETS["moderna"]

# Reported 95% intervals from the three trials' own interim analyses.
REPORTED = {
    "az": (0.704, 0.548, 0.806),
    "pfizer": (0.950, 0.903, 0.976),
    "moderna": (0.941, 0.893, 0.968),
}


class TestWaldLogVariance:
    def test_zero_at_full_attack_rate(self):
        counts = TrialCounts(n_v=50, t_v=50, n_c=60, t_c=60)
        assert wald_log_variance(counts) == pytest.approx(0.0, abs=1e-15)

    def test_converges_to_reciprocal_counts_at_low_rates(self):
        counts = TrialCounts(n_v=100_000, t_v=120, n_c=100_000, t_c=400)
        limit = 1 / 120 + 1 / 400
        assert wald_log_variance(counts) == pytest.approx(limit, rel=0.01)

    def test_pfizer_value(self):
        assert wald_log_variance(PFIZER) == pytest.approx(0.1310633182, abs=1e-9)

    def test_zero_counts_rejected(self):
        with pytest.raises(ZeroCellError):
            wald_log_variance(TrialCounts(n_v=100, t_v=0, n_c=100, t_c=5))

    def test_zero_control_cases_not_directed_to_conditional_method(self):
        # The conditional method cannot help here: it exits 3 on these counts.
        counts = TrialCounts(n_v=1000, t_v=3, n_c=1000, t_c=0)
        with pytest.raises(
            ZeroCellError,
            match=r"zero cases in control arm; log risk ratio undefined "
            r"\(no method identifies efficacy without control-arm cases\)",
        ):
            wald_log_variance(counts)


class TestWaldEfficacyInterval:
    def test_az_frozen_values(self):
        est = wald_efficacy_interval(AZ)
        assert est.point == pytest.approx(0.7018449908, abs=1e-9)
        assert est.lower == pytest.approx(0.5525688038, abs=1e-9)
        assert est.upper == pytest.approx(0.8013182579, abs=1e-9)

    def test_pfizer_frozen_values(self):
        est = wald_efficacy_interval(PFIZER)
        assert est.lower == pytest.approx(0.8988995788, abs=1e-9)
        assert est.upper == pytest.approx(0.9755410604, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(REPORTED))
    def test_agrees_with_trial_reported_intervals_within_one_point(self, name):
        est = wald_efficacy_interval(TRIAL_PRESETS[name])
        point, lower, upper = REPORTED[name]
        assert abs(est.point - point) <= 0.01
        assert abs(est.lower - lower) <= 0.01
        assert abs(est.upper - upper) <= 0.01

    def test_identical_arms_give_symmetric_null_interval(self):
        counts = TrialCounts(n_v=2000, t_v=40, n_c=2000, t_c=40)
        est = wald_efficacy_interval(counts)
        assert est.point == pytest.approx(0.0, abs=1e-12)
        # Symmetric on the log-RR scale: bounds are reciprocal around 1.
        assert (1 - est.lower) * (1 - est.upper) == pytest.approx(1.0, rel=1e-12)

    def test_arm_exchange_maps_bounds_to_reciprocals(self):
        swapped = TrialCounts(n_v=AZ.n_c, t_v=AZ.t_c, n_c=AZ.n_v, t_c=AZ.t_v)
        est = wald_efficacy_interval(AZ)
        mirrored = wald_efficacy_interval(swapped)
        assert 1 - mirrored.upper == pytest.approx(1 / (1 - est.lower), rel=1e-12)
        assert 1 - mirrored.lower == pytest.approx(1 / (1 - est.upper), rel=1e-12)

    def test_width_barely_reacts_to_population_size_when_cases_are_rare(self):
        t_v, t_c = 30, 100
        widths = []
        for scale in (10, 100, 1000):
            n_arm = (t_v + t_c) * scale
            counts = TrialCounts(n_v=n_arm, t_v=t_v, n_c=n_arm, t_c=t_c)
            widths.append(wald_efficacy_interval(counts).width)
        assert max(widths) / min(widths) < 1.02

    def test_zero_vaccinated_cases_directs_to_conditional_method(self):
        counts = TrialCounts(n_v=1000, t_v=0, n_c=1000, t_c=25)
        with pytest.raises(ZeroCellError, match="zero cases in vaccinated arm"):
            wald_efficacy_interval(counts)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            wald_efficacy_interval(AZ, level=1.0)


class TestFisherRRInterval:
    def test_pfizer_frozen_values(self):
        est = fisher_rr_interval(PFIZER)
        assert est.point == pytest.approx(0.0497273476, abs=1e-9)
        half = est.upper - est.point
        assert half == pytest.approx(0.1623601713, abs=1e-9)
        assert est.lower == pytest.approx(-0.1126328237, abs=1e-9)
        assert est.lower_undetermined
        assert any("undetermined" in w for w in est.warnings)
        assert est.efficacy_lower == pytest.approx(0.7879124811, abs=1e-9)

    def test_halving_population_at_fixed_rates_widens_by_sqrt2(self):
        full = fisher_rr_interval(TrialCounts(n_v=20000, t_v=60, n_c=20000, t_c=200))
        half = fisher_rr_interval(TrialCounts(n_v=10000, t_v=30, n_c=10000, t_c=100))
        assert half.width == pytest.approx(math.sqrt(2) * full.width, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(TRIAL_PRESETS))
    def test_wider_than_pooled_wald_on_rr_scale(self, name):
        counts = TRIAL_PRESETS[name]
        rr_est = fisher_rr_interval(counts)
        wald = wald_efficacy_interval(counts)
        # Map the Wald efficacy bounds back to the RR scale.
        wald_rr_width = (1 - wald.lower) - (1 - wald.upper)
        assert rr_est.width >= wald_rr_width

    def test_large_sample_gap_to_pooled_wald(self):
        # The absolute gap between the two RR-scale widths vanishes with
        # the sample size, while their variance ratio tends to the constant
        # (1+r)^2 (1 - pi_c/2) / (r (1 + r - 2 r pi_c)); at RR = 1 and
        # equal arms that variance ratio is 3, so the width ratio is
        # sqrt(3), not 1.
        widths = {}
        for n_arm in (10_000, 1_000_000):
            t_c = n_arm // 2
            counts = TrialCounts(n_v=n_arm, t_v=t_c, n_c=n_arm, t_c=t_c)
            est9 = fisher_rr_interval(counts)
            wald = wald_efficacy_interval(counts)
            widths[n_arm] = (est9.width, (1 - wald.lower) - (1 - wald.upper))
        gap_small = widths[10_000][0] - widths[10_000][1]
        gap_big = widths[1_000_000][0] - widths[1_000_000][1]
        assert gap_big < gap_small / 9
        ratio = widths[1_000_000][0] / widths[1_000_000][1]
        assert ratio == pytest.approx(math.sqrt(3.0), rel=1e-3)

    def test_zero_control_cases_rejected(self):
        with pytest.raises(ZeroCellError):
            fisher_rr_interval(TrialCounts(n_v=100, t_v=5, n_c=100, t_c=0))

    def test_zero_vaccinated_cases_allowed(self):
        est = fisher_rr_interval(TrialCounts(n_v=1000, t_v=0, n_c=1000, t_c=30))
        assert est.point == 0.0
        assert est.lower_undetermined
