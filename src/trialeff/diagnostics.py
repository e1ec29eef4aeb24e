"""Predictive values of a diagnostic test and the prevalence threshold."""

from __future__ import annotations

import math

from .errors import DomainError
from .numerics import _check_range
from .trial import DiagnosticProfile


def ppv(pi: float, d: DiagnosticProfile) -> float:
    """Positive predictive value Se*pi / (Se*pi + (1-Sp)(1-pi))."""
    _check_range(pi, "prevalence", "[0, 1]")
    true_pos = d.sensitivity * pi
    denom = true_pos + d.false_positive_rate * (1.0 - pi)
    if denom <= 0.0:
        raise DomainError("no positive results possible at these settings")
    return true_pos / denom


def npv(pi: float, d: DiagnosticProfile) -> float:
    """Negative predictive value Sp*(1-pi) / (Sp*(1-pi) + (1-Se)*pi)."""
    _check_range(pi, "prevalence", "[0, 1]")
    true_neg = d.specificity * (1.0 - pi)
    denom = true_neg + (1.0 - d.sensitivity) * pi
    if denom <= 0.0:
        raise DomainError("no negative results possible at these settings")
    return true_neg / denom


def prevalence_threshold(d: DiagnosticProfile) -> float:
    """Prevalence below which the PPV drops off steeply.

    Closed form (sqrt(Se*(1-Sp)) + Sp - 1) / (Se + Sp - 1); equivalently
    the prevalence at which d(PPV)/d(pi) = 1, since
    d(PPV)/d(pi) = Se*(1-Sp)/(c1 + c2*pi)^2.
    """
    c1 = d.false_positive_rate
    return (math.sqrt(d.sensitivity * c1) - c1) / d.discrimination
