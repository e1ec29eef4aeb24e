"""Monte Carlo harness: simulate two-arm trials and measure interval coverage.

Each replicate draws true case counts per arm, pushes them through the
diagnostic test at the individual level (a thinning of true cases plus
false positives among non-cases), analyses the observed counts as raw
data, and records whether each requested interval method covered the
true efficacy.

Each replicate draws from its own substream, ``default_rng((seed,
index))``, so the report is bit-identical for a given seed and config
and any single replicate can be drawn again on its own.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, EstimationError
from .numerics import _as_count, _check_level, _check_prevalence
from .posterior import _METHODS, MIN_GRID_SIZE, _check_grid_size, _interval
from .trial import PERFECT_TEST, DiagnosticProfile, IntervalEstimate, TrialCounts

# numpy's binomial draws take n as an int64; a larger n raises OverflowError.
_MAX_BINOMIAL_N = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one coverage study.

    ``prevalence`` is the true control-arm attack rate; the vaccinated
    arm gets (1 - ve) times that.  ``diagnostic`` shapes the data
    generation only; analysis always runs on the observed counts as if
    the test were perfect.
    """

    n_per_arm: int
    prevalence: float
    ve: float
    diagnostic: DiagnosticProfile = PERFECT_TEST
    replicates: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("conditional", "wald")
    level: float = 0.95
    grid_size: int = MIN_GRID_SIZE

    def __post_init__(self):
        for name in ("n_per_arm", "replicates", "seed"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        if not 1 <= self.n_per_arm <= _MAX_BINOMIAL_N:
            raise DomainError(
                f"n_per_arm must lie in [1, {_MAX_BINOMIAL_N}], got {self.n_per_arm}"
            )
        _check_prevalence(self.prevalence)
        if not 0.0 <= self.ve <= 1.0:
            raise DomainError(f"true efficacy must lie in [0, 1], got {self.ve}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be at least 1, got {self.replicates}")
        _check_level(self.level)
        _check_grid_size(self.grid_size)
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise DomainError(f"unknown interval methods: {sorted(unknown)}")
        # A repeated name would be evaluated and dumped twice but tallied once.
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))

    @property
    def prevalence_vaccinated(self) -> float:
        return (1.0 - self.ve) * self.prevalence

    def as_dict(self) -> dict:
        return {
            "n_per_arm": self.n_per_arm,
            "prevalence": self.prevalence,
            "ve": self.ve,
            "sensitivity": self.diagnostic.sensitivity,
            "specificity": self.diagnostic.specificity,
            "replicates": self.replicates,
            "seed": self.seed,
            "methods": list(self.methods),
            "level": self.level,
            "grid_size": self.grid_size,
        }


@dataclass(frozen=True)
class MethodResult:
    """Coverage tally for one interval method; None when nothing was evaluated."""

    coverage: float | None
    mean_width: float | None
    evaluated: int
    failures: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplicateRecord:
    """One replicate/method outcome; bounds are None when undefined."""

    replicate: int
    t_v: int
    t_c: int
    method: str
    lower: float | None
    upper: float | None
    covered: bool | None


@dataclass(frozen=True)
class CoverageReport:
    """Per-method empirical coverage for one simulation config.

    ``records`` carries the per-replicate detail when the study was run
    with ``keep_replicates=True``; it is not part of the JSON report.
    """

    config: SimulationConfig
    replicates: int
    methods: dict[str, MethodResult] = field(default_factory=dict)
    records: tuple[ReplicateRecord, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "replicates": self.replicates,
            "methods": {name: res.as_dict() for name, res in self.methods.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def replicates_to_csv(report: CoverageReport) -> str:
    """CSV dump of per-replicate outcomes; needs keep_replicates=True."""
    if report.records is None:
        raise DomainError("coverage study was run without keep_replicates")
    lines = ["replicate,t_v,t_c,method,lower,upper,covered"]
    for rec in report.records:
        if rec.covered is None:
            lines.append(f"{rec.replicate},{rec.t_v},{rec.t_c},{rec.method},,,")
        else:
            lines.append(
                f"{rec.replicate},{rec.t_v},{rec.t_c},{rec.method},"
                f"{rec.lower!r},{rec.upper!r},{int(rec.covered)}"
            )
    return "\n".join(lines) + "\n"


def _observe_arm(rng: np.random.Generator, n: int, true_rate: float, d: DiagnosticProfile) -> int:
    """True cases thinned by sensitivity plus false positives among non-cases."""
    true_cases = int(rng.binomial(n, true_rate))
    detected = int(rng.binomial(true_cases, d.sensitivity)) if true_cases else 0
    false_pos = (
        int(rng.binomial(n - true_cases, d.false_positive_rate))
        if d.false_positive_rate > 0.0 and n > true_cases
        else 0
    )
    return detected + false_pos


def simulate_trial(config: SimulationConfig, rng: np.random.Generator) -> TrialCounts:
    """Draw one trial's observed counts under the configured truth."""
    n = config.n_per_arm
    t_v = _observe_arm(rng, n, config.prevalence_vaccinated, config.diagnostic)
    t_c = _observe_arm(rng, n, config.prevalence, config.diagnostic)
    return TrialCounts(n_v=n, t_v=t_v, n_c=n, t_c=t_c)


def _evaluate(config: SimulationConfig, counts: TrialCounts) -> list[tuple]:
    """Each method's ``(lower, upper, covered)`` on one draw; all None when undefined."""
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


def coverage_study(config: SimulationConfig, keep_replicates: bool = False) -> CoverageReport:
    """Run the configured replicates and tally per-method coverage.

    Replicates where a method is undefined (zero cells, degenerate
    draws) are counted as failures and excluded from that method's
    coverage denominator.  An outcome depends on the draw only through
    its counts, so each distinct ``(t_v, t_c)`` is evaluated once and its
    outcome reused for every replicate that repeats it, which many do at
    low incidence.
    """
    outcomes: dict[tuple[int, int], list[tuple]] = {}
    records = []
    for index in range(config.replicates):
        counts = simulate_trial(config, np.random.default_rng((config.seed, index)))
        key = (counts.t_v, counts.t_c)
        if key not in outcomes:
            outcomes[key] = _evaluate(config, counts)
        records.extend(
            ReplicateRecord(index, *key, method, *outcome)
            for method, outcome in zip(config.methods, outcomes[key])
        )
    methods: dict[str, MethodResult] = {}
    for method in config.methods:
        done = [rec for rec in records if rec.method == method and rec.covered is not None]
        # Widths add left to right from 0.0; builtin sum compensates its
        # float additions from Python 3.12 on, which would move last bits.
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
