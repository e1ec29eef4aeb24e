"""Sample-size calculators for two-arm efficacy trials.

Three calculators: the generic two-sample normal formula, the total
sample size backed by the pooled Wald variance of log RR, and the total
backed by the information bound of the conditional-binomial model.  The
last is the prevalence-honest one; the Wald formula undershoots it
badly at low incidence.

The z-scores default to two-decimal rounding (1.96 and 0.84 at the
default error rates), which matches the convention sample-size tables
are normally published with; pass ``rounded_z=False`` for full-precision
quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import _check_prevalence, normal_quantile

DEFAULT_VE_GRID = (0.0, 0.3, 0.6, 0.9)
DEFAULT_DELTA_GRID = (0.1, 0.2, 0.3, 0.4)
DEFAULT_PI_GRID = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005)


def _check_error_rates(alpha: float, beta: float) -> None:
    """DomainError unless both error rates lie strictly inside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")


@dataclass(frozen=True)
class SampleSizeSpec:
    """Design inputs: anticipated efficacy, detectable difference, rates."""

    ve: float
    delta: float
    pi: float
    alpha: float = 0.05
    beta: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.ve < 1.0:
            raise DomainError(f"anticipated efficacy must lie in [0, 1), got {self.ve}")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"effect size must lie in (0, 1], got {self.delta}")
        _check_prevalence(self.pi)
        _check_error_rates(self.alpha, self.beta)
        if 2.0 - self.ve - self.pi <= 0.0:
            raise DomainError("require 2 - VE - pi > 0")


def _z_sum(alpha: float, beta: float, rounded_z: bool) -> float:
    z_alpha = normal_quantile(1.0 - alpha / 2.0)
    z_beta = normal_quantile(1.0 - beta)
    if rounded_z:
        z_alpha = round(z_alpha, 2)
        z_beta = round(z_beta, 2)
    return z_alpha + z_beta


def _nearest_int(x: float) -> int:
    return int(math.floor(x + 0.5))


def _raw_size(formula) -> float:
    """``formula()``; a DomainError when a divisor underflows or the size overflows."""
    try:
        raw = formula()
    except (OverflowError, ZeroDivisionError):
        raw = math.inf
    if not math.isfinite(raw):
        raise DomainError("the sample size is not a finite float")
    return raw


def generic_two_sample(
    sigma: float,
    delta: float,
    alpha: float = 0.05,
    beta: float = 0.2,
    rounded_z: bool = True,
) -> int:
    """Per-group size 2*sigma^2/delta^2 * (z_{1-a/2} + z_{1-b})^2, rounded up."""
    # Negated tests, so that a NaN fails them too.
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    _check_error_rates(alpha, beta)
    raw = _raw_size(lambda: 2.0 * sigma**2 / delta**2 * _z_sum(alpha, beta, rounded_z) ** 2)
    return max(1, math.ceil(raw))


def wald_sample_size(spec: SampleSizeSpec, rounded_z: bool = True) -> int:
    """Total two-arm sample size from the pooled Wald variance of log RR.

    n = 2 (z_{1-a/2} + z_{1-b})^2 / d^2 * ((2-VE)^2 / (pi (1-VE)) - 2)
    with d = asinh(delta / (2 (1-VE))).
    """
    half_ratio = spec.delta / (2.0 * (1.0 - spec.ve))
    d = math.asinh(half_ratio)
    raw = _raw_size(lambda: 2.0 * _z_sum(spec.alpha, spec.beta, rounded_z) ** 2 / d**2
                    * ((2.0 - spec.ve) ** 2 / (spec.pi * (1.0 - spec.ve)) - 2.0))
    return _nearest_int(raw)


def cramer_rao_sample_size(spec: SampleSizeSpec, rounded_z: bool = True) -> int:
    """Total two-arm sample size from the information bound.

    n = 4 (z_{1-a/2} + z_{1-b})^2 / (pi delta^2) * (2-VE)^2 (2-VE-pi).
    """
    raw = _raw_size(
        lambda: 4.0
        * _z_sum(spec.alpha, spec.beta, rounded_z) ** 2
        / (spec.pi * spec.delta**2)
        * (2.0 - spec.ve) ** 2
        * (2.0 - spec.ve - spec.pi)
    )
    return _nearest_int(raw)


_METHODS = {
    "wald": wald_sample_size,
    "cramer-rao": cramer_rao_sample_size,
}


@dataclass(frozen=True)
class SampleSizeRow:
    ve: float
    delta: float
    pi: float
    alpha: float
    beta: float
    method: str
    n: int


def sample_size_table(
    ve_values=DEFAULT_VE_GRID,
    delta_values=DEFAULT_DELTA_GRID,
    pi_values=DEFAULT_PI_GRID,
    alpha: float = 0.05,
    beta: float = 0.2,
    method: str = "cramer-rao",
    rounded_z: bool = True,
) -> list[SampleSizeRow]:
    """Full (VE, delta, pi) grid of total sample sizes.

    Every cell is defined on valid lists (2 - VE - pi > 0 holds inside
    each value's own range), so the first cell outside the chosen
    formula's domain raises a ``DomainError`` naming that cell.
    """
    if method not in _METHODS:
        raise DomainError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    calculator = _METHODS[method]
    rows: list[SampleSizeRow] = []
    for ve in ve_values:
        for delta in delta_values:
            for pi in pi_values:
                try:
                    spec = SampleSizeSpec(ve=ve, delta=delta, pi=pi, alpha=alpha, beta=beta)
                    n = calculator(spec, rounded_z=rounded_z)
                except DomainError as exc:
                    raise DomainError(f"ve={ve}, delta={delta}, pi={pi}: {exc}") from exc
                rows.append(SampleSizeRow(ve, delta, pi, alpha, beta, method, n))
    return rows
