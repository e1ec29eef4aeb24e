"""Classical interval estimators for comparison with the posterior model.

Two estimators live here: the pooled Wald interval (log-normal
approximation for the risk ratio with the summed per-arm variance) and
the information-bound risk-ratio interval that stays honest about its
lower bound going negative instead of shrinking toward spurious
precision at low incidence.
"""

from __future__ import annotations

import math

from .errors import ZeroCellError
from .numerics import _check_level, normal_quantile
from .trial import EfficacyEstimate, IntervalEstimate, TrialCounts


def wald_log_variance(counts: TrialCounts) -> float:
    """Variance of log RR: (1 - pi_v)/t_v + (1 - pi_c)/t_c.

    Converges to 1/t_v + 1/t_c once attack rates are small, so the
    result barely reacts to the population sizes in the rare-disease
    regime.
    """
    if counts.t_v == 0:
        raise ZeroCellError(
            "zero cases in vaccinated arm; log risk ratio undefined "
            "(the conditional-binomial method handles this case)"
        )
    if counts.t_c == 0:
        raise ZeroCellError(
            "zero cases in control arm; log risk ratio undefined "
            "(no method identifies efficacy without control-arm cases)"
        )
    return (
        (1.0 - counts.attack_rate_v) / counts.t_v
        + (1.0 - counts.attack_rate_c) / counts.t_c
    )


def wald_efficacy_interval(counts: TrialCounts, level: float = 0.95) -> EfficacyEstimate:
    """Pooled Wald interval on efficacy: 1 - exp(ln RR +/- z * s).

    The lower efficacy bound comes from the plus branch.  Zero case
    counts are a typed error rather than a continuity correction; the
    posterior model is the intended tool for that regime.
    """
    _check_level(level)
    spread = math.sqrt(wald_log_variance(counts))
    z = normal_quantile(0.5 * (1.0 + level))
    rr = counts.risk_ratio
    return EfficacyEstimate(
        point=1.0 - rr,
        lower=1.0 - rr * math.exp(z * spread),
        upper=1.0 - rr * math.exp(-z * spread),
        level=level,
        method="wald",
    )


def fisher_rr_interval(counts: TrialCounts, level: float = 0.95) -> IntervalEstimate:
    """Information-bound interval for the risk ratio.

    RR +/- z * (n_c/n_v)(1 + t_v/t_c) * sqrt((1 + t_v/t_c - pi)/t) with
    pi = t/n.  The half-width is the efficacy information bound mapped
    through RR = (n_c/n_v)(1 - alpha).  A negative lower bound is kept
    and flagged undetermined.
    """
    _check_level(level)
    if counts.t_c == 0:
        raise ZeroCellError(
            "zero cases in control arm; risk-ratio interval undefined"
        )
    rr = counts.risk_ratio
    case_ratio = 1.0 + counts.t_v / counts.t_c
    z = normal_quantile(0.5 * (1.0 + level))
    half = (
        z
        * (counts.n_c / counts.n_v)
        * case_ratio
        * math.sqrt((case_ratio - counts.overall_rate) / counts.t)
    )
    lower = rr - half
    undetermined = lower < 0.0
    notes = (
        ("lower bound is negative and therefore undetermined on the risk-ratio scale",)
        if undetermined
        else ()
    )
    return IntervalEstimate(
        point=rr,
        lower=lower,
        upper=rr + half,
        level=level,
        method="fisher-rr",
        lower_undetermined=undetermined,
        warnings=notes,
    )
