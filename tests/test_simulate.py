"""Tests for the Monte Carlo trial simulator and coverage harness."""

import functools
import importlib
import json
import operator

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trialeff import (
    DiagnosticProfile,
    DomainError,
    EstimationError,
    IntervalEstimate,
    SimulationConfig,
    coverage_study,
    map_estimate,
    replicates_to_csv,
    simulate_trial,
)
from trialeff.posterior import _interval
from trialeff.simulate import (
    CoverageReport,
    MethodResult,
    ReplicateRecord,
    _substream_states,
    _substreams,
)

POSTERIOR_MODULE = importlib.import_module("trialeff.posterior")
SIMULATE_MODULE = importlib.import_module("trialeff.simulate")
ALL_METHODS = ("conditional", "wald", "cramer-rao", "fisher-rr")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def make_config(**overrides):
    base = dict(
        n_per_arm=2000,
        prevalence=0.05,
        ve=0.7,
        replicates=200,
        seed=20240131,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestSimulateTrial:
    def test_full_protection_never_yields_vaccinated_cases(self):
        config = make_config(ve=1.0)
        for rep in range(200):
            counts = simulate_trial(config, np.random.default_rng((1, rep)))
            assert counts.t_v == 0

    def test_null_effect_makes_arms_exchangeable(self):
        config = make_config(ve=0.0, n_per_arm=500, prevalence=0.1)
        rng = np.random.default_rng(7)
        draws = [simulate_trial(config, rng) for _ in range(10_000)]
        t_v = np.array([c.t_v for c in draws])
        t_c = np.array([c.t_c for c in draws])
        result = scipy.stats.ks_2samp(t_v, t_c)
        assert result.pvalue > 0.01

    def test_observed_mean_matches_misclassified_rate(self):
        d = DiagnosticProfile(sensitivity=0.9, specificity=0.995)
        config = make_config(
            n_per_arm=1000, prevalence=0.02, ve=0.5, diagnostic=d
        )
        rng = np.random.default_rng(11)
        draws = np.array(
            [simulate_trial(config, rng).t_c for _ in range(100_000)], dtype=float
        )
        pi_c = config.prevalence
        expected_rate = d.sensitivity * pi_c + d.false_positive_rate * (1 - pi_c)
        expected = config.n_per_arm * expected_rate
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * stderr

    def test_counts_respect_bounds(self):
        d = DiagnosticProfile(sensitivity=0.8, specificity=0.9)
        config = make_config(n_per_arm=50, prevalence=0.5, ve=0.3, diagnostic=d)
        for rep in range(500):
            counts = simulate_trial(config, np.random.default_rng((2, rep)))
            assert 0 <= counts.t_v <= 50
            assert 0 <= counts.t_c <= 50


class TestCoverageStudy:
    def test_deterministic_given_seed(self):
        config = make_config(replicates=60)
        first = coverage_study(config)
        second = coverage_study(config)
        assert first.to_json() == second.to_json()

    def test_single_replicate_coverage_is_binary(self):
        report = coverage_study(make_config(replicates=1))
        for result in report.methods.values():
            assert result.coverage in (0.0, 1.0)

    def test_every_method_reports(self):
        config = make_config(
            replicates=40, methods=("conditional", "wald", "cramer-rao", "fisher-rr")
        )
        report = coverage_study(config)
        assert set(report.methods) == {"conditional", "wald", "cramer-rao", "fisher-rr"}
        for result in report.methods.values():
            assert result.evaluated + result.failures == 40

    def test_zero_cell_replicates_counted_as_failures(self):
        # Expected vaccinated-arm cases ~0.5, so many replicates have
        # t_v = 0: undefined for Wald, fine for the conditional method.
        config = make_config(
            n_per_arm=500, prevalence=0.01, ve=0.9, replicates=100, seed=5
        )
        report = coverage_study(config)
        assert report.methods["wald"].failures > 0
        assert report.methods["conditional"].failures == 0
        wald = report.methods["wald"]
        assert wald.evaluated == 100 - wald.failures

    def test_high_incidence_wald_calibrated_conditional_conservative(self):
        # Seed-fixed simulation oracle at high incidence: the pooled
        # Wald interval sits near nominal coverage while the
        # prevalence-aware interval is wider and over-covers under the
        # two-independent-binomials generative model.
        config = make_config(
            n_per_arm=25_000,
            prevalence=0.5,
            ve=0.7,
            replicates=1000,
            seed=314159,
        )
        report = coverage_study(config)
        wald = report.methods["wald"]
        conditional = report.methods["conditional"]
        assert 0.93 <= wald.coverage <= 0.97
        assert conditional.coverage > wald.coverage
        assert conditional.mean_width > 1.5 * wald.mean_width

    def test_low_incidence_conditional_wider_than_wald(self):
        config = make_config(
            n_per_arm=25_000,
            prevalence=0.004,
            ve=0.9,
            replicates=300,
            seed=271828,
        )
        report = coverage_study(config)
        assert (
            report.methods["conditional"].mean_width
            > report.methods["wald"].mean_width
        )

    def test_config_validation(self):
        with pytest.raises(DomainError):
            make_config(replicates=0)
        with pytest.raises(DomainError):
            make_config(prevalence=0.0)
        with pytest.raises(DomainError):
            make_config(methods=("conditional", "bayes-factor"))
        with pytest.raises(DomainError, match="at least one interval method"):
            make_config(methods=())
        # Caught per replicate, a bad grid would be tallied as method failures.
        with pytest.raises(DomainError, match="grid_size must be at least"):
            make_config(grid_size=2000)
        with pytest.raises(DomainError, match="grid_size must be at most"):
            make_config(grid_size=10**12)
        # Beyond int64, numpy's binomial draw raises OverflowError.
        with pytest.raises(DomainError, match=r"n_per_arm must lie in \[1, 9223372036854775807\]"):
            make_config(n_per_arm=10**30)
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            make_config(seed=-1)
        with pytest.raises(DomainError, match="replicates must be a non-negative integer"):
            make_config(replicates=2.5)

    def test_tallies_match_the_records(self):
        methods = ("conditional", "wald", "cramer-rao", "fisher-rr")
        config = make_config(
            n_per_arm=500, prevalence=0.01, ve=0.9, replicates=120, seed=5, methods=methods
        )
        report = coverage_study(config, keep_replicates=True)
        assert report.methods["wald"].failures > 0
        for method in methods:
            rows = [rec for rec in report.records if rec.method == method]
            done = [rec for rec in rows if rec.covered is not None]
            result = report.methods[method]
            assert len(rows) == config.replicates
            assert result.evaluated == len(done)
            assert result.failures == len(rows) - len(done)
            assert result.coverage == sum(rec.covered for rec in done) / len(done)
            # Added left to right from 0.0, as the report adds them.
            widths = [rec.upper - rec.lower for rec in done]
            assert result.mean_width == functools.reduce(operator.add, widths, 0.0) / len(done)

    def test_no_evaluated_replicate_reports_null_not_nan(self):
        # About 0.02 expected cases per arm: no method is defined on any draw.
        config = make_config(n_per_arm=20, prevalence=0.001, ve=0.5, replicates=3)
        report = coverage_study(config)
        for result in report.methods.values():
            assert (result.coverage, result.mean_width, result.evaluated) == (None, None, 0)
            assert result.failures == 3
        doc = json.loads(report.to_json(), parse_constant=_reject_constant)
        assert doc["methods"]["wald"]["coverage"] is None

    def test_repeated_methods_run_once_in_first_seen_order(self):
        config = make_config(replicates=5, methods=("wald", "conditional", "wald"))
        assert config.methods == ("wald", "conditional")
        report = coverage_study(config, keep_replicates=True)
        assert list(report.methods) == ["wald", "conditional"]
        assert len(report.records) == 5 * 2

    def test_replicate_dump_rows(self):
        config = make_config(
            n_per_arm=500, prevalence=0.01, ve=0.9, replicates=50, seed=5
        )
        report = coverage_study(config, keep_replicates=True)
        assert report.records is not None
        assert len(report.records) == 50 * len(config.methods)
        text = replicates_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "replicate,t_v,t_c,method,lower,upper,covered"
        assert len(lines) == 1 + len(report.records)
        # Failed replicates leave the bound fields empty.
        wald_failures = report.methods["wald"].failures
        empty = sum(1 for line in lines[1:] if line.endswith(",,,"))
        assert empty == wald_failures

    def test_repeated_draws_match_a_per_replicate_reference_loop(self):
        # About 12 expected control-arm cases: most replicates repeat an
        # earlier (t_v, t_c), whose outcome the study reuses.
        config = make_config(
            n_per_arm=25_000, prevalence=0.0005, ve=0.9, replicates=300, seed=9,
            methods=ALL_METHODS,
        )
        expected = []
        for index in range(config.replicates):
            counts = simulate_trial(config, np.random.default_rng((config.seed, index)))
            for method in config.methods:
                try:
                    est = _interval(method, counts, config.level, grid_size=config.grid_size)
                except EstimationError:
                    lower = upper = covered = None
                else:
                    if isinstance(est, IntervalEstimate):
                        lower, upper = est.efficacy_lower, est.efficacy_upper
                    else:
                        lower, upper = est.lower, est.upper
                    covered = lower <= config.ve <= upper
                expected.append((index, counts.t_v, counts.t_c, method, lower, upper, covered))
        report = coverage_study(config, keep_replicates=True)
        assert len({(t_v, t_c) for _, t_v, t_c, *_ in expected}) < config.replicates // 2
        got = [
            (r.replicate, r.t_v, r.t_c, r.method, r.lower, r.upper, r.covered)
            for r in report.records
        ]
        assert got == expected

    def test_each_distinct_draw_builds_one_posterior(self, monkeypatch):
        calls = []
        build = POSTERIOR_MODULE.posterior

        def counting(counts, *args, **kwargs):
            calls.append((counts.t_v, counts.t_c))
            return build(counts, *args, **kwargs)

        monkeypatch.setattr(POSTERIOR_MODULE, "posterior", counting)
        config = make_config(
            n_per_arm=25_000, prevalence=0.0005, ve=0.9, replicates=300, seed=9,
            methods=("conditional",),
        )
        report = coverage_study(config, keep_replicates=True)
        distinct = {(rec.t_v, rec.t_c) for rec in report.records}
        assert len(calls) == len(set(calls)) == len(distinct) < config.replicates

    def test_dump_requires_keep_replicates(self):
        report = coverage_study(make_config(replicates=5))
        with pytest.raises(DomainError):
            replicates_to_csv(report)


def _reference_evaluate(config, counts):
    outcomes = []
    for method in config.methods:
        try:
            est = _interval(method, counts, config.level, grid_size=config.grid_size)
        except EstimationError:
            outcomes.append((None, None, None))
            continue
        if isinstance(est, IntervalEstimate):
            lower, upper = est.efficacy_lower, est.efficacy_upper
        else:
            lower, upper = est.lower, est.upper
        outcomes.append((lower, upper, lower <= config.ve <= upper))
    return outcomes


def reference_study(config, keep_replicates=False):
    """The study as first written: a default_rng((seed, index)) and records per replicate."""
    outcomes = {}
    records = []
    for index in range(config.replicates):
        counts = simulate_trial(config, np.random.default_rng((config.seed, index)))
        key = (counts.t_v, counts.t_c)
        if key not in outcomes:
            outcomes[key] = _reference_evaluate(config, counts)
        records.extend(
            ReplicateRecord(index, *key, method, *outcome)
            for method, outcome in zip(config.methods, outcomes[key])
        )
    methods = {}
    for method in config.methods:
        done = [rec for rec in records if rec.method == method and rec.covered is not None]
        width_total = 0.0
        for rec in done:
            width_total += rec.upper - rec.lower
        evaluated = len(done)
        methods[method] = MethodResult(
            coverage=sum(rec.covered for rec in done) / evaluated if evaluated else None,
            mean_width=width_total / evaluated if evaluated else None,
            evaluated=evaluated,
            failures=config.replicates - evaluated,
        )
    return CoverageReport(
        config=config,
        replicates=config.replicates,
        methods=methods,
        records=tuple(records) if keep_replicates else None,
    )


def _pcg64_state(seed, index):
    state = np.random.default_rng((seed, index)).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
    def test_states_are_default_rng_states(self, seed):
        assert _substream_states(seed, 0, 3) == [_pcg64_state(seed, i) for i in range(3)]
        assert _substream_states(seed, 2**32 - 1, 2**32) == [_pcg64_state(seed, 2**32 - 1)]

    @pytest.mark.parametrize(
        "seed, start, stop, wide",
        [(2**32, 0, 3, 0), (2**64 + 5, 0, 2, 0), (7, 2**32 - 2, 2**32 + 2, 2**32)],
        ids=["seed-2**32", "seed-2**64+5", "index-2**32"],
    )
    def test_words_beyond_one_uint32_take_default_rng(self, seed, start, stop, wide, monkeypatch):
        # A second entropy word for the seed or the index changes the
        # hashing, so those substreams come from default_rng itself.
        seeded = []
        build = np.random.default_rng

        def spy(entropy):
            seeded.append(entropy)
            return build(entropy)

        monkeypatch.setattr(np.random, "default_rng", spy)
        draws = [rng.random(3).tolist() for rng in _substreams(seed, start, stop)]
        assert seeded == [(seed, i) for i in range(wide, stop)]
        monkeypatch.undo()
        assert draws == [np.random.default_rng((seed, i)).random(3).tolist() for i in range(start, stop)]

    def test_blocks_draw_what_default_rng_draws(self, monkeypatch):
        monkeypatch.setattr(SIMULATE_MODULE, "_BLOCK", 3)
        draws = [rng.binomial(1000, 0.3, 2).tolist() for rng in _substreams(11, 2, 12)]
        assert draws == [np.random.default_rng((11, i)).binomial(1000, 0.3, 2).tolist() for i in range(2, 12)]


STUDY_METHODS = st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=4, unique=True)


class TestStudyMatchesTheReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        methods=STUDY_METHODS,
        n_per_arm=st.integers(1, 3000),
        prevalence=st.sampled_from([1e-4, 0.002, 0.01, 0.05, 0.3, 1.0]),
        ve=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        sensitivity=st.sampled_from([1.0, 0.9]),
        specificity=st.sampled_from([1.0, 0.999, 0.95]),
        replicates=st.integers(1, 25),
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
        block=st.integers(1, 8),
    )
    def test_report_and_dump_equal_the_reference(
        self, methods, n_per_arm, prevalence, ve, sensitivity, specificity, replicates, seed, block
    ):
        config = SimulationConfig(
            n_per_arm=n_per_arm, prevalence=prevalence, ve=ve,
            diagnostic=DiagnosticProfile(sensitivity, specificity),
            replicates=replicates, seed=seed, methods=tuple(methods),
        )
        expected = reference_study(config, keep_replicates=True)
        with pytest.MonkeyPatch.context() as patch:
            # Small blocks put block boundaries inside these short studies.
            patch.setattr(SIMULATE_MODULE, "_BLOCK", block)
            got = coverage_study(config, keep_replicates=True)
        assert got.to_json() == expected.to_json()
        assert replicates_to_csv(got) == replicates_to_csv(expected)
        assert coverage_study(config).to_json() == expected.to_json()

    def test_study_over_several_blocks(self):
        config = make_config(
            n_per_arm=25_000, prevalence=0.0005, ve=0.9, replicates=2 * 1024 + 7, seed=3,
            methods=("wald", "fisher-rr"),
        )
        expected = reference_study(config, keep_replicates=True)
        got = coverage_study(config, keep_replicates=True)
        assert got.to_json() == expected.to_json()
        assert replicates_to_csv(got) == replicates_to_csv(expected)


class TestMisclassificationBiasDirections:
    def test_specificity_loss_deflates_raw_count_map(self):
        d = DiagnosticProfile(sensitivity=1.0, specificity=0.999)
        config = make_config(
            n_per_arm=25_000, prevalence=0.01, ve=0.7, diagnostic=d,
            replicates=300, seed=13,
        )
        maps = []
        for rep in range(config.replicates):
            counts = simulate_trial(config, np.random.default_rng((config.seed, rep)))
            maps.append(map_estimate(counts))
        assert np.mean(maps) < config.ve

    def test_sensitivity_loss_inflates_test_aware_map(self):
        # Analysing the observed counts with the true (Se, Sp) profile
        # and the observed rate as prevalence shifts the mode upward;
        # direction only, no magnitude claim.
        d = DiagnosticProfile(sensitivity=0.95, specificity=1.0)
        config = make_config(
            n_per_arm=25_000, prevalence=0.01, ve=0.7, diagnostic=d,
            replicates=300, seed=17,
        )
        maps = []
        for rep in range(config.replicates):
            counts = simulate_trial(config, np.random.default_rng((config.seed, rep)))
            maps.append(map_estimate(counts, d=d))
        assert np.mean(maps) > config.ve
