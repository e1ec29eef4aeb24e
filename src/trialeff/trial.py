"""Domain types: trial counts, diagnostic test profiles, interval results."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .numerics import _as_count, _check_range


@dataclass(frozen=True)
class TrialCounts:
    """Participant and case counts for a two-arm (vaccinated/control) trial."""

    n_v: int
    t_v: int
    n_c: int
    t_c: int

    def __post_init__(self):
        for name in ("n_v", "t_v", "n_c", "t_c"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        if self.n_v <= 0 or self.n_c <= 0:
            raise DomainError("both arms must have at least one participant")
        if not 0 <= self.t_v <= self.n_v:
            raise DomainError(f"require 0 <= t_v <= n_v, got t_v={self.t_v}, n_v={self.n_v}")
        if not 0 <= self.t_c <= self.n_c:
            raise DomainError(f"require 0 <= t_c <= n_c, got t_c={self.t_c}, n_c={self.n_c}")

    @property
    def n(self) -> int:
        """Total participants across both arms."""
        return self.n_v + self.n_c

    @property
    def t(self) -> int:
        """Total cases across both arms."""
        return self.t_v + self.t_c

    @property
    def attack_rate_v(self) -> float:
        return self.t_v / self.n_v

    @property
    def attack_rate_c(self) -> float:
        return self.t_c / self.n_c

    @property
    def overall_rate(self) -> float:
        return self.t / self.n

    @property
    def risk_ratio(self) -> float:
        if self.t_c == 0:
            raise DomainError("risk ratio undefined with zero control-arm cases")
        return self.attack_rate_v / self.attack_rate_c


@dataclass(frozen=True)
class DiagnosticProfile:
    """Sensitivity/specificity of the case-classification procedure.

    ``false_positive_rate`` and ``discrimination`` are the two derived
    constants the misclassification algebra runs on; a non-positive
    discrimination would mean the test is no better than chance and is
    rejected outright.
    """

    sensitivity: float
    specificity: float

    def __post_init__(self):
        _check_range(self.sensitivity, "sensitivity", "[0, 1]")
        _check_range(self.specificity, "specificity", "[0, 1]")
        if self.discrimination <= 0.0:
            raise DomainError(
                "sensitivity + specificity must exceed 1 "
                f"(got {self.sensitivity} + {self.specificity})"
            )

    @property
    def false_positive_rate(self) -> float:
        return 1.0 - self.specificity

    @property
    def discrimination(self) -> float:
        return self.sensitivity + self.specificity - 1.0


PERFECT_TEST = DiagnosticProfile(sensitivity=1.0, specificity=1.0)


@dataclass(frozen=True)
class EfficacyEstimate:
    """Point estimate with interval bounds on the efficacy scale."""

    point: float
    lower: float
    upper: float
    level: float
    method: str
    warnings: tuple[str, ...] = ()

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate with interval bounds on the risk-ratio scale.

    A negative lower bound is retained as computed and flagged
    ``lower_undetermined`` rather than clamped; the efficacy-scale
    properties apply the 1 - RR transform.
    """

    point: float
    lower: float
    upper: float
    level: float
    method: str
    lower_undetermined: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def efficacy_point(self) -> float:
        return 1.0 - self.point

    @property
    def efficacy_lower(self) -> float:
        return 1.0 - self.upper

    @property
    def efficacy_upper(self) -> float:
        return 1.0 - self.lower


# Interim phase-3 primary-endpoint counts of the three 2020 COVID-19
# vaccine trials, used as named presets by the CLI and the tests.
TRIAL_PRESETS: dict[str, TrialCounts] = {
    "az": TrialCounts(n_v=5807, t_v=30, n_c=5829, t_c=101),
    "pfizer": TrialCounts(n_v=18198, t_v=8, n_c=18325, t_c=162),
    "moderna": TrialCounts(n_v=14134, t_v=11, n_c=14073, t_c=185),
}
