"""Tests for the sample-size calculators."""

import math

import pytest

from trialeff import (
    DomainError,
    SampleSizeSpec,
    cramer_rao_sample_size,
    generic_two_sample,
    sample_size_table,
    wald_sample_size,
)


class TestGenericTwoSample:
    def test_unit_variance_unit_difference(self):
        # 2 * (1.96 + 0.84)^2 = 15.68 rounds up to 16 per group.
        assert generic_two_sample(sigma=1.0, delta=1.0) == 16

    def test_doubling_sigma_quadruples_before_rounding(self):
        base = generic_two_sample(sigma=1.0, delta=0.01)
        assert generic_two_sample(sigma=2.0, delta=0.01) == pytest.approx(4 * base, rel=1e-4)

    def test_huge_difference_floors_at_one(self):
        assert generic_two_sample(sigma=0.1, delta=50.0) == 1

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_nonpositive_difference_rejected(self, delta):
        with pytest.raises(DomainError, match=f"delta must be positive, got {delta}"):
            generic_two_sample(sigma=1.0, delta=delta)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(DomainError, match=f"sigma must be positive, got {sigma}"):
            generic_two_sample(sigma=sigma, delta=1.0)

    @pytest.mark.parametrize(
        "sigma, delta", [(1.0, 1e-200), (1e200, 0.1)], ids=["delta-underflow", "sigma-overflow"]
    )
    def test_size_outside_the_float_range_rejected(self, sigma, delta):
        with pytest.raises(DomainError, match="not a finite float"):
            generic_two_sample(sigma=sigma, delta=delta)


class TestWaldSampleSize:
    def test_frozen_reference_point(self):
        # Direct evaluation with z = 1.96 + 0.84: the bracket is
        # 1.96/0.02 - 2 = 96 and d = asinh(0.125), giving 96838 total.
        spec = SampleSizeSpec(ve=0.6, delta=0.1, pi=0.05)
        n = wald_sample_size(spec)
        assert n == 96838
        assert n < 165_957  # materially below the information-bound size

    def test_strictly_decreasing_in_prevalence(self):
        sizes = [
            wald_sample_size(SampleSizeSpec(ve=0.5, delta=0.1, pi=pi))
            for pi in (0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_proportional_to_squared_z_sum(self):
        spec = SampleSizeSpec(ve=0.3, delta=0.2, pi=0.05)
        # alpha=0.05/beta=0.2 gives z-sum 2.8; alpha~0.000063/beta=0.5
        # gives z-sum 4.0 with rounded quantiles, so sizes scale by
        # (4.0/2.8)^2.
        base = wald_sample_size(spec)
        inflated = wald_sample_size(
            SampleSizeSpec(ve=0.3, delta=0.2, pi=0.05, alpha=0.0000633425, beta=0.5)
        )
        assert inflated == pytest.approx(base * (4.0 / 2.8) ** 2, rel=1e-4)

    def test_full_efficacy_rejected(self):
        with pytest.raises(DomainError):
            SampleSizeSpec(ve=1.0, delta=0.1, pi=0.05)

    @pytest.mark.parametrize(
        "delta, pi", [(1e-200, 0.1), (0.1, 5e-324)], ids=["delta-underflow", "pi-underflow"]
    )
    def test_size_outside_the_float_range_rejected(self, delta, pi):
        with pytest.raises(DomainError, match="not a finite float"):
            wald_sample_size(SampleSizeSpec(ve=0.6, delta=delta, pi=pi))


class TestCramerRaoSampleSize:
    @pytest.mark.parametrize(
        "ve,delta,pi,expected",
        [
            (0.0, 0.1, 0.5, 37_632),
            (0.9, 0.4, 0.5, 285),
            (0.6, 0.2, 0.01, 213_593),
        ],
    )
    def test_published_grid_cells(self, ve, delta, pi, expected):
        assert cramer_rao_sample_size(SampleSizeSpec(ve=ve, delta=delta, pi=pi)) == expected

    def test_exact_quantiles_shift_the_answer(self):
        spec = SampleSizeSpec(ve=0.0, delta=0.1, pi=0.5)
        assert cramer_rao_sample_size(spec, rounded_z=False) == 37_675

    def test_inverse_square_scaling_in_delta(self):
        n_fine = cramer_rao_sample_size(SampleSizeSpec(ve=0.3, delta=0.05, pi=0.1))
        n_coarse = cramer_rao_sample_size(SampleSizeSpec(ve=0.3, delta=0.2, pi=0.1))
        assert n_fine == pytest.approx(16 * n_coarse, rel=1e-4)

    def test_near_inverse_scaling_in_prevalence_when_rare(self):
        n1 = cramer_rao_sample_size(SampleSizeSpec(ve=0.3, delta=0.1, pi=0.001))
        n2 = cramer_rao_sample_size(SampleSizeSpec(ve=0.3, delta=0.1, pi=0.0005))
        assert n2 / n1 == pytest.approx(2.0, rel=0.01)

    def test_agrees_with_wald_size_at_high_incidence_low_efficacy(self):
        for ve in (0.0, 0.15, 0.3):
            spec = SampleSizeSpec(ve=ve, delta=0.1, pi=0.5)
            cr = cramer_rao_sample_size(spec)
            wald = wald_sample_size(spec)
            assert abs(cr - wald) / wald < 0.15

    @pytest.mark.parametrize(
        "delta, pi", [(1e-200, 0.1), (1e-10, 1e-300)], ids=["delta-underflow", "size-overflow"]
    )
    def test_size_outside_the_float_range_rejected(self, delta, pi):
        with pytest.raises(DomainError, match="not a finite float"):
            cramer_rao_sample_size(SampleSizeSpec(ve=0.5, delta=delta, pi=pi))

    def test_exceeds_wald_size_when_rare_and_effective(self):
        for ve in (0.6, 0.75, 0.9):
            for pi in (0.01, 0.005, 0.001):
                spec = SampleSizeSpec(ve=ve, delta=0.1, pi=pi)
                assert cramer_rao_sample_size(spec) >= wald_sample_size(spec)


class TestSampleSizeTable:
    def test_single_cell_matches_direct_call(self):
        rows = sample_size_table([0.6], [0.2], [0.01])
        assert len(rows) == 1
        assert rows[0].n == cramer_rao_sample_size(SampleSizeSpec(ve=0.6, delta=0.2, pi=0.01))

    def test_default_grid_shape(self):
        rows = sample_size_table()
        assert len(rows) == 112
        assert all(row.n is not None for row in rows)

    def test_first_bad_cell_raised_with_its_inputs(self):
        with pytest.raises(
            DomainError, match=r"ve=0\.5, delta=0\.1, pi=1\.5: prevalence must lie in \(0, 1\]"
        ):
            sample_size_table([0.5], [0.1], [0.05, 1.5])

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            sample_size_table(method="bootstrap")

    def test_wald_method_column(self):
        rows = sample_size_table([0.6], [0.1], [0.05], method="wald")
        assert rows[0].n == 96838


@pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.1, math.nan])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_every_error_rate_check_is_the_same_check(name, value):
    for build in (
        lambda: generic_two_sample(1.0, 0.5, **{name: value}),
        lambda: SampleSizeSpec(ve=0.5, delta=0.1, pi=0.05, **{name: value}),
    ):
        with pytest.raises(DomainError, match=rf"{name} must lie in \(0, 1\), got {value}"):
            build()
