"""Conditional-binomial posterior of trial efficacy.

The model treats the observed control-arm case count as binomial with
success probability T/(2 - alpha) out of the full cohort, where
T = c1 + c2*pi is the observed infection rate under a possibly imperfect
diagnostic procedure (c1 = false positive rate, c2 = Se + Sp - 1) and
alpha is the efficacy carrying a uniform prior on [0, 1].  That makes
the posterior explicitly prevalence-dependent, which is the whole point:
at low incidence it is materially wider than the classical pooled
intervals computed from the same counts.

Two analysis entry points exist:

* :func:`posterior` evaluates the model at the trial's own population
  size, with the prevalence defaulting to the observed rate t/n.  An
  explicit ``pi`` keeps the population size fixed and reinterprets the
  infection rate (sensitivity analysis, e.g. a misclassification-aware
  reading of raw counts).
* :func:`posterior_at_prevalence` keeps the observed case totals fixed
  and rescales the population size to t/T so the assumed prevalence is
  self-consistent.  ``prevalence=1`` collapses the model onto the pooled
  Wald limit; lowering it shows how the same counts lose precision as
  the disease gets rarer.

Both readings are one model with a cohort size N and an observed rate
T, resolved once per analysis; :func:`cramer_rao_interval` and
:func:`cramer_rao_at_prevalence` are the same pair for the information
bound.
"""

from __future__ import annotations

import functools
import math
import warnings as _warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classical import fisher_rr_interval, wald_efficacy_interval
from .errors import (
    ClampedModeWarning,
    DegenerateDataError,
    DomainError,
    FalsePositiveParadoxError,
)
from .numerics import (
    Grid,
    _as_count,
    _check_level,
    _check_prevalence,
    grid_cdf,
    grid_normalize,
    grid_quantile,
    log_binomial_coefficient,
    normal_quantile,
    regularized_incomplete_beta,
)
from .trial import PERFECT_TEST, DiagnosticProfile, EfficacyEstimate, IntervalEstimate, TrialCounts

# Arm-size imbalance handling: the equal-split form of the model assumes
# participants are divided evenly, which real trials only approximate.
_BALANCE_WARN = 0.02
_BALANCE_FAIL = 0.10

DEFAULT_GRID_SIZE = 20_001
MIN_GRID_SIZE = 2_001
# An efficacy step of 1e-6, 50 times finer than the default; the cap turns
# a runaway size into a DomainError instead of a failed allocation.
MAX_GRID_SIZE = 1_000_001


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density of efficacy on [0, 1].

    ``diagnostic`` is None when the grid is a mixture over a lattice of
    diagnostic profiles rather than a single profile.
    """

    grid: Grid
    prevalence: float
    diagnostic: DiagnosticProfile | None
    counts: TrialCounts
    warnings: tuple[str, ...] = ()

    @property
    def efficacies(self) -> np.ndarray:
        return self.grid.points

    @property
    def density(self) -> np.ndarray:
        return self.grid.values


def observed_rate(pi: float, d: DiagnosticProfile) -> float:
    """Fraction testing positive at true prevalence ``pi``: c1 + c2*pi."""
    if not 0.0 <= pi <= 1.0:
        raise DomainError(f"prevalence must lie in [0, 1], got {pi}")
    return d.false_positive_rate + d.discrimination * pi


class _Model(NamedTuple):
    """One resolved analysis: cohort size N, control cases and observed rate T."""

    total_n: float
    t_c: int
    rate: float
    prevalence: float

    @property
    def raw_mode(self) -> float:
        """Closed-form posterior mode 2 - N*T/t_c, before clamping to [0, 1]."""
        return 2.0 - self.total_n * self.rate / self.t_c


def _resolve(
    counts: TrialCounts, pi: float | None, d: DiagnosticProfile, rescaled: bool
) -> _Model:
    """Resolve one reading of the counts, with every guard in one order.

    The own-cohort reading keeps N = n and takes the prevalence t/n unless
    ``pi`` is given; the rescaled reading keeps the case totals and sets
    N = t/T.  Guards: prevalence domain, then no control-arm cases, then
    an observed rate no larger than the false positive rate, then a
    rescaled N too large for a float.
    """
    if rescaled:
        _check_prevalence(pi)
    prevalence = counts.overall_rate if pi is None else float(pi)
    rate = observed_rate(prevalence, d)
    if counts.t_c == 0:
        raise DegenerateDataError(
            "no cases in the control arm; efficacy is unidentifiable"
        )
    if rate <= d.false_positive_rate:
        raise FalsePositiveParadoxError(
            f"observed rate {rate:.2g} does not exceed the false positive "
            f"rate {d.false_positive_rate:.2g}"
        )
    total_n = counts.t / rate if rescaled else counts.n
    if not math.isfinite(total_n):
        raise DomainError(
            f"prevalence {prevalence:.3g} is too small to rescale: "
            f"the cohort t/T = {counts.t}/{rate:.3g} overflows"
        )
    return _Model(total_n, counts.t_c, rate, prevalence)


def log_likelihood(
    alpha: float,
    counts: TrialCounts,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
) -> float:
    """Log of the unnormalized binomial kernel at a single efficacy value.

    Returns ln C(n, t_c) + t_c ln p + (n - t_c) ln(1 - p) with
    p = (c1 + c2*pi)/(2 - alpha).
    """
    model = _resolve(counts, pi, d, rescaled=False)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"efficacy must lie in [0, 1], got {alpha}")
    p = model.rate / (2.0 - alpha)
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"kernel success probability {p} outside (0, 1); "
            "check prevalence and diagnostic profile"
        )
    return (
        log_binomial_coefficient(counts.n, counts.t_c)
        + counts.t_c * math.log(p)
        + (counts.n - counts.t_c) * math.log1p(-p)
    )


def _check_grid_size(grid_size: int) -> None:
    if grid_size < MIN_GRID_SIZE:
        raise DomainError(f"grid_size must be at least {MIN_GRID_SIZE}, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be at most {MAX_GRID_SIZE}, got {grid_size}")


def _uniform_prior(grid_size: int) -> Grid:
    """The uniform prior on ``grid_size`` evenly spaced efficacies in [0, 1].

    Built on first use and cached for a few sizes; its read-only points
    and their step widths are shared by every posterior of that size.  The
    size is checked first, so a rejected size is never cached.
    """
    _check_grid_size(grid_size)
    return _cached_uniform_prior(grid_size)


@functools.lru_cache(maxsize=4)
def _cached_uniform_prior(grid_size: int) -> Grid:
    return Grid(np.linspace(0.0, 1.0, grid_size), np.ones(grid_size))


def _log_kernel(alpha: np.ndarray, model: _Model) -> np.ndarray:
    """Vectorized log kernel without the count-independent constant.

    The success probability p rises with alpha and is positive once
    resolved, so only a tail can reach 1; it gets zero density instead
    of raising, which keeps prevalence-one analyses usable.  The terms
    are formed in place but in the order of
    ``t_c * log(p) + (N - t_c) * log1p(-p)``, so every value is the one
    that expression gives.
    """
    # The result is allocated before the scratch p, which is freed on
    # return: in the lattice mixture this order lets each build reuse freed
    # heap memory, where the reverse order has it trimmed and faulted back
    # in every second build.
    out = np.empty_like(alpha)
    p = np.subtract(2.0, alpha)
    np.divide(model.rate, p, out=p)
    k = int(np.searchsorted(p, 1.0))
    inside = p[:k]
    out[k:] = -np.inf
    head = np.log(inside, out=out[:k])
    head *= model.t_c
    np.negative(inside, out=inside)
    np.log1p(inside, out=inside)
    inside *= model.total_n - model.t_c
    head += inside
    return out


def _balance_warnings(counts: TrialCounts) -> tuple[str, ...]:
    imbalance = abs(counts.n_v - counts.n_c) / counts.n
    if imbalance > _BALANCE_FAIL:
        raise DomainError(
            f"arm sizes differ by {imbalance:.0%}; the equal-split model "
            "does not apply"
        )
    if imbalance > _BALANCE_WARN:
        return (
            f"arm sizes differ by {imbalance:.1%}; the model assumes "
            "participants equally divided between arms",
        )
    return ()


def _build_grid(
    counts: TrialCounts, model: _Model, d: DiagnosticProfile, grid_size: int
) -> PosteriorGrid:
    prior = _uniform_prior(grid_size)
    notes = _balance_warnings(counts)
    density = _log_kernel(prior.points, model)
    density -= density.max()
    np.exp(density, out=density)
    density.flags.writeable = False
    grid = grid_normalize(prior.with_values(density))
    return PosteriorGrid(
        grid=grid,
        prevalence=model.prevalence,
        diagnostic=d,
        counts=counts,
        warnings=notes,
    )


def posterior(
    counts: TrialCounts,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> PosteriorGrid:
    """Normalized posterior of efficacy at the trial's population size.

    The prevalence defaults to the observed rate t/n; an explicit value
    reinterprets the infection rate while keeping the population size.
    """
    return _build_grid(counts, _resolve(counts, pi, d, rescaled=False), d, grid_size)


def posterior_at_prevalence(
    counts: TrialCounts,
    prevalence: float,
    d: DiagnosticProfile = PERFECT_TEST,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> PosteriorGrid:
    """Reanalyze fixed observed case totals under an assumed prevalence.

    The population size is set to t/T so the assumed prevalence is
    consistent with the observed totals; with ``prevalence`` equal to
    t/n and a perfect test this coincides with :func:`posterior`.
    """
    return _build_grid(counts, _resolve(counts, prevalence, d, rescaled=True), d, grid_size)


def map_estimate(
    counts: TrialCounts,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
) -> float:
    """Closed-form posterior mode 2 - n(c1 + c2*pi)/t_c, clamped to [0, 1].

    With a perfect test and pi = t/n this reduces exactly to 1 - t_v/t_c.
    A warning is emitted when the closed form leaves the prior support.
    """
    raw = _resolve(counts, pi, d, rescaled=False).raw_mode
    if not 0.0 <= raw <= 1.0:
        _warnings.warn(
            f"closed-form mode {raw:.4f} lies outside [0, 1]; clamped",
            ClampedModeWarning,
            stacklevel=2,
        )
        return min(1.0, max(0.0, raw))
    return raw


def fisher_information(
    alpha: float,
    n: float,
    pi: float,
    d: DiagnosticProfile = PERFECT_TEST,
) -> float:
    """Expected information about efficacy: n*T / ((2-a)^2 (2-a-T))."""
    if n < 1:
        raise DomainError(f"population size must be at least 1, got {n}")
    rate = observed_rate(pi, d)
    if rate <= 0.0:
        raise DomainError("information undefined at zero observed rate")
    remainder = 2.0 - alpha - rate
    if remainder <= 0.0:
        raise DomainError(
            f"require 2 - alpha - (c1 + c2*pi) > 0, got {remainder}"
        )
    return n * rate / ((2.0 - alpha) ** 2 * remainder)


def cramer_rao_interval(
    counts: TrialCounts,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
    level: float = 0.95,
) -> EfficacyEstimate:
    """Symmetric interval mode +/- z/sqrt(I) from the information bound.

    Bounds are deliberately not clamped: values outside [0, 1] are
    flagged in the warnings instead, since the asymmetry of the exact
    posterior is precisely what this approximation misses.
    """
    return _information_interval(counts, pi, d, level, rescaled=False)


def cramer_rao_at_prevalence(
    counts: TrialCounts,
    prevalence: float,
    d: DiagnosticProfile = PERFECT_TEST,
    level: float = 0.95,
) -> EfficacyEstimate:
    """Information-bound interval under the rescaled-population reading."""
    return _information_interval(counts, prevalence, d, level, rescaled=True)


def _information_interval(
    counts: TrialCounts, pi: float | None, d: DiagnosticProfile, level: float, rescaled: bool
) -> EfficacyEstimate:
    _check_level(level)
    model = _resolve(counts, pi, d, rescaled)
    raw = model.raw_mode
    mode = min(1.0, max(0.0, raw))
    info = fisher_information(mode, model.total_n, model.prevalence, d)
    half = normal_quantile(0.5 * (1.0 + level)) / math.sqrt(info)
    lower, upper = mode - half, mode + half
    notes: list[str] = []
    if not 0.0 <= raw <= 1.0:
        notes.append(f"closed-form mode {raw:.4f} clamped to [0, 1]")
    if lower < 0.0 or upper > 1.0:
        notes.append("interval extends outside [0, 1]")
    return EfficacyEstimate(
        point=mode,
        lower=lower,
        upper=upper,
        level=level,
        method="cramer-rao",
        warnings=tuple(notes),
    )


def _grid_mode(grid: Grid) -> float:
    """Argmax refined by a local quadratic fit in log density."""
    values = grid.values
    i = int(np.argmax(values))
    if 0 < i < len(values) - 1 and values[i - 1] > 0 and values[i + 1] > 0:
        y0, y1, y2 = np.log(values[i - 1 : i + 2])
        curvature = y0 - 2.0 * y1 + y2
        if curvature < 0.0:
            offset = 0.5 * (y0 - y2) / curvature
            offset = min(0.5, max(-0.5, offset))
            step = grid.points[i + 1] - grid.points[i]
            return float(grid.points[i] + offset * step)
    return float(grid.points[i])


def _hpd_bounds(grid: Grid, level: float) -> tuple[float, float]:
    # Shortest interval holding the requested mass, found by scanning the
    # lower tail probability; adequate for the unimodal densities here.
    cdf = grid_cdf(grid)
    lowers = np.linspace(0.0, 1.0 - level, 2001)
    lo_pts = np.interp(lowers, cdf, grid.points)
    hi_pts = np.interp(lowers + level, cdf, grid.points)
    k = int(np.argmin(hi_pts - lo_pts))
    return float(lo_pts[k]), float(hi_pts[k])


def credible_interval(
    post: PosteriorGrid,
    level: float = 0.95,
    method: str = "equal-tailed",
) -> EfficacyEstimate:
    """Credible interval from a normalized posterior grid.

    Equal-tailed by default (the quantiles at (1 +/- level)/2); "hpd"
    selects the shortest interval of the requested mass instead.
    """
    _check_level(level)
    if method == "equal-tailed":
        lower = grid_quantile(post.grid, 0.5 * (1.0 - level))
        upper = grid_quantile(post.grid, 0.5 * (1.0 + level))
    elif method == "hpd":
        lower, upper = _hpd_bounds(post.grid, level)
    else:
        raise DomainError(f"unknown interval rule {method!r}")
    return EfficacyEstimate(
        point=_grid_mode(post.grid),
        lower=lower,
        upper=upper,
        level=level,
        method="conditional-binomial",
        warnings=post.warnings,
    )


# Interval methods in the CLI's order: CLI name -> the name its estimate reports.
_METHODS = {"conditional": "conditional-binomial", "wald": "wald",
            "cramer-rao": "cramer-rao", "fisher-rr": "fisher-rr"}


def _interval(
    method: str,
    counts: TrialCounts,
    level: float,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
    grid_size: int = DEFAULT_GRID_SIZE,
    rule: str = "equal-tailed",
) -> EfficacyEstimate | IntervalEstimate:
    """The named method's interval; a given ``pi`` selects the rescaled reading.

    Methods are called through their module-global names, so code that
    rebinds one of those names (a tracer, a test double) sees the call.
    """
    if method == "conditional":
        if pi is None:
            post = posterior(counts, None, d, grid_size)
        else:
            post = posterior_at_prevalence(counts, pi, d, grid_size)
        return credible_interval(post, level, rule)
    if method == "cramer-rao":
        if pi is None:
            return cramer_rao_interval(counts, None, d, level)
        return cramer_rao_at_prevalence(counts, pi, d, level)
    if method == "wald":
        return wald_efficacy_interval(counts, level)
    if method == "fisher-rr":
        return fisher_rr_interval(counts, level)
    raise DomainError(f"unknown interval method {method!r}")


def marginal_likelihood(
    counts: TrialCounts,
    pi: float | None = None,
    d: DiagnosticProfile = PERFECT_TEST,
) -> float:
    """Integral over [0, 1] of the unnormalized kernel exp(log_likelihood).

    Closed form via the incomplete beta function:

        g = C(n, t_c) * T * B(t_c-1, n-t_c+1)
            * [I_T(t_c-1, n-t_c+1) - I_{T/2}(t_c-1, n-t_c+1)]

    valid for t_c >= 2; a single control-arm case falls back to
    trapezoid integration with a warning.
    """
    model = _resolve(counts, pi, d, rescaled=False)
    n, t_c, rate = counts.n, counts.t_c, model.rate
    if t_c < 2:
        _warnings.warn(
            "closed form needs at least two control-arm cases; "
            "falling back to numerical integration",
            stacklevel=2,
        )
        alpha = _uniform_prior(DEFAULT_GRID_SIZE).points
        log_kernel = _log_kernel(alpha, model) + log_binomial_coefficient(n, t_c)
        return float(np.trapezoid(np.exp(log_kernel), alpha))
    a, b = t_c - 1.0, n - t_c + 1.0
    log_front = (
        log_binomial_coefficient(n, t_c)
        + math.log(rate)
        + math.lgamma(a)
        + math.lgamma(b)
        - math.lgamma(a + b)
    )
    lo = regularized_incomplete_beta(rate / 2.0, a, b)
    if lo > 0.5:
        # Both regularized values sit near one; difference their
        # complements to dodge the cancellation.
        diff = regularized_incomplete_beta(1.0 - rate / 2.0, b, a) - (
            regularized_incomplete_beta(1.0 - rate, b, a)
        )
    else:
        diff = regularized_incomplete_beta(rate, a, b) - lo
    return math.exp(log_front) * diff


def marginalize_over_diagnostics(
    counts: TrialCounts,
    se_range: tuple[float, float],
    sp_range: tuple[float, float],
    pi: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    lattice_size: int = 21,
) -> PosteriorGrid:
    """Average the posterior over a uniform sensitivity/specificity lattice.

    Lattice points where the test would be no better than chance, or
    where the observed rate would not exceed the false positive rate,
    are excluded with a warning; it is an error only if nothing is left.
    """
    lattice_size = _as_count(lattice_size, "lattice_size")
    if lattice_size < 1:
        raise DomainError(f"lattice_size must be at least 1, got {lattice_size}")
    se_values = _lattice(se_range, lattice_size, "sensitivity")
    sp_values = _lattice(sp_range, lattice_size, "specificity")
    prior = _uniform_prior(grid_size)
    # Resolving under a perfect test raises the prevalence and count
    # errors here, before the loop could count them as infeasible points;
    # its paradox check fails only at prevalence 0, where every point does.
    prevalence = _resolve(counts, pi, PERFECT_TEST, rescaled=False).prevalence
    notes = _balance_warnings(counts)
    accumulated = np.zeros(grid_size)
    kept = 0
    skipped = 0
    for se in se_values:
        for sp in sp_values:
            try:
                profile = DiagnosticProfile(sensitivity=se, specificity=sp)
                part = posterior(counts, prevalence, profile, grid_size)
            except DomainError:
                skipped += 1
                continue
            accumulated += part.grid.values
            kept += 1
    if kept == 0:
        raise FalsePositiveParadoxError(
            "every point of the diagnostic lattice is infeasible for "
            "these counts"
        )
    if skipped:
        notes = notes + (
            f"excluded {skipped} of {skipped + kept} diagnostic lattice points",
        )
    accumulated /= kept
    accumulated.flags.writeable = False
    mixture = grid_normalize(prior.with_values(accumulated))
    return PosteriorGrid(
        grid=mixture,
        prevalence=prevalence,
        diagnostic=None,
        counts=counts,
        warnings=notes,
    )


def _lattice(bounds: tuple[float, float], size: int, name: str) -> np.ndarray:
    lo, hi = bounds
    if not 0.0 <= lo <= hi <= 1.0:
        raise DomainError(f"{name} range must satisfy 0 <= lo <= hi <= 1, got {bounds}")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, size)
