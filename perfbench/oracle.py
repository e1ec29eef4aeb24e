"""Independent oracles for the values trialeff reports.

Nothing here imports trialeff.  The conditional-binomial posterior is
evaluated through its closed form: with p = T/(2 - alpha) the efficacy
posterior is a Beta(t_c - 1, N - t_c + 1) truncated to p in [T/2, T],
where N is the population size (n, or t/T for a prevalence
reanalysis) and T the observed rate.  Quantiles come from scipy's
inverse regularized incomplete beta, HPD intervals from minimizing the
interval width over the lower tail mass, and the diagnostic lattice
mixture from the equal-weight average of the per-point truncated-beta
CDFs.  Wald, Cramer-Rao, Fisher-RR, the sample-size formulas and the
predictive values are their closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# Largest accepted gap for values read off a density grid (conditional
# bounds and modes, mixture bounds) and for closed forms.
GRID_TOL = 2e-4
CLOSED_TOL = 1e-9
# Relative tolerance for the marginal likelihood and density integrals.
EVIDENCE_RTOL = 1e-7
INTEGRAL_TOL = 1e-6


def z_score(level: float) -> float:
    return float(special.ndtri(0.5 * (1.0 + level)))


class TruncatedBeta:
    """Efficacy posterior of one (t_c, N, T) triple on alpha in [0, 1]."""

    def __init__(self, t_c: int, total_n: float, rate: float):
        if t_c < 2:
            raise ValueError("closed-form oracle needs t_c >= 2")
        self.a = t_c - 1.0
        self.b = total_n - t_c + 1.0
        self.rate = rate
        lo, hi = rate / 2.0, rate
        self.cdf_lo = special.betainc(self.a, self.b, lo)
        self.cdf_hi = special.betainc(self.a, self.b, hi)
        self.sf_lo = special.betaincc(self.a, self.b, lo)
        self.sf_hi = special.betaincc(self.a, self.b, hi)
        # Work on whichever tail keeps the truncation masses accurate.
        self.upper_tail = self.cdf_lo > 0.5
        mass = (self.sf_lo - self.sf_hi) if self.upper_tail else (self.cdf_hi - self.cdf_lo)
        if not mass > 0.0:
            raise ValueError("truncation interval carries no representable mass")

    def quantile(self, q: float) -> float:
        if q <= 0.0:
            return 0.0
        if q >= 1.0:
            return 1.0
        if self.upper_tail:
            p = special.betainccinv(self.a, self.b, self.sf_lo - q * (self.sf_lo - self.sf_hi))
        else:
            p = special.betaincinv(self.a, self.b, self.cdf_lo + q * (self.cdf_hi - self.cdf_lo))
        return min(1.0, max(0.0, 2.0 - self.rate / p))

    def equal_tailed(self, level: float) -> tuple[float, float]:
        return self.quantile(0.5 * (1.0 - level)), self.quantile(0.5 * (1.0 + level))

    def hpd(self, level: float) -> tuple[float, float]:
        return shortest_interval(self.quantile, level)


def shortest_interval(quantile, level: float, scan: int = 0) -> tuple[float, float]:
    """Shortest [Q(u), Q(u + level)] over the lower tail mass u.

    A unimodal density gives a unimodal width in u, so a bounded Brent
    search suffices; ``scan`` > 0 first brackets the minimum on a grid
    of that many points, for mixtures that need not be unimodal.
    """
    top = 1.0 - level

    def width(u: float) -> float:
        return quantile(u + level) - quantile(u)

    lo, hi = 0.0, top
    if scan:
        us = np.linspace(0.0, top, scan)
        widths = [width(u) for u in us]
        k = int(np.argmin(widths))
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, scan - 1)]
    res = optimize.minimize_scalar(width, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-13})
    best = min((res.x, lo, hi), key=width)
    return quantile(best), quantile(best + level)


class LatticeMixture:
    """Equal-weight mixture of truncated-beta posteriors, one per lattice point.

    All points share t_c and N and differ only in the observed rate T.
    """

    def __init__(self, t_c: int, total_n: float, rates):
        self.a = t_c - 1.0
        self.b = total_n - t_c + 1.0
        self.rates = np.asarray(rates, dtype=float)
        self.upper = special.betainc(self.a, self.b, self.rates / 2.0) > 0.5
        self.ref = self._tail(self.rates / 2.0)
        self.mass = self._cut(self.rates)
        if not np.all(self.mass > 0.0):
            raise ValueError("a lattice component carries no representable mass")
        self.log_norm = special.betaln(self.a, self.b) + np.log(self.mass)
        self._grid = np.linspace(0.0, 1.0, 401)
        x = self.rates[:, None] / (2.0 - self._grid[None, :])
        self._grid_cdf = np.clip(self._cut(x) / self.mass[:, None], 0.0, 1.0).mean(axis=0)

    def _tail(self, x):
        """Incomplete beta on each component's accurate side (upper: survival)."""
        out = np.empty(np.shape(x))
        up = np.broadcast_to(self.upper.reshape((-1,) + (1,) * (np.ndim(x) - 1)), np.shape(x))
        out[up] = special.betaincc(self.a, self.b, x[up])
        out[~up] = special.betainc(self.a, self.b, x[~up])
        return out

    def _cut(self, x):
        """Per-component mass between T/2 and x."""
        ref = self.ref.reshape((-1,) + (1,) * (np.ndim(x) - 1))
        sign = np.where(self.upper, -1.0, 1.0).reshape(ref.shape)
        return sign * (self._tail(x) - ref)

    def cdf(self, alpha: float) -> float:
        return float(np.clip(self._cut(self.rates / (2.0 - alpha)) / self.mass, 0.0, 1.0).mean())

    def pdf(self, alpha: float) -> float:
        x = self.rates / (2.0 - alpha)
        log_pdf = (self.a - 1.0) * np.log(x) + (self.b - 1.0) * np.log1p(-x) - self.log_norm
        return float(np.mean(np.exp(log_pdf) * x * x / self.rates))

    def quantile(self, q: float) -> float:
        if q <= 0.0:
            return 0.0
        if q >= 1.0:
            return 1.0
        grid, table = self._grid, self._grid_cdf
        k = min(max(int(np.searchsorted(table, q)), 1), len(grid) - 1)
        lo, hi = grid[k - 1], grid[k]
        span = table[k] - table[k - 1]
        x = lo + (q - table[k - 1]) / span * (hi - lo) if span > 0.0 else 0.5 * (lo + hi)
        # Newton steps kept inside the bracket, bisection otherwise.
        for _ in range(100):
            f = self.cdf(x) - q
            if f > 0.0:
                hi = x
            else:
                lo = x
            slope = self.pdf(x)
            step = x - f / slope if slope > 0.0 else 0.5 * (lo + hi)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - x) < 1e-14 or hi - lo < 1e-14:
                return step
            x = step
        return x

    def equal_tailed(self, level: float) -> tuple[float, float]:
        return self.quantile(0.5 * (1.0 - level)), self.quantile(0.5 * (1.0 + level))

    def hpd(self, level: float) -> tuple[float, float]:
        return shortest_interval(self.quantile, level, scan=21)


def marginal_likelihood(n: int, t_c: int, rate: float) -> float:
    """C(n, t_c) * T * B(a, b) * [I_T(a, b) - I_{T/2}(a, b)], a = t_c - 1, b = n - t_c + 1."""
    a, b = t_c - 1.0, n - t_c + 1.0
    log_front = (
        special.gammaln(n + 1.0) - special.gammaln(t_c + 1.0) - special.gammaln(n - t_c + 1.0)
        + math.log(rate) + special.betaln(a, b)
    )
    if special.betainc(a, b, rate / 2.0) > 0.5:
        diff = special.betaincc(a, b, rate / 2.0) - special.betaincc(a, b, rate)
    else:
        diff = special.betainc(a, b, rate) - special.betainc(a, b, rate / 2.0)
    return math.exp(log_front) * diff


def posterior_mode(t_c: int, total_n: float, rate: float) -> float:
    return min(1.0, max(0.0, 2.0 - total_n * rate / t_c))


def wald(n_v, t_v, n_c, t_c, level):
    """Pooled Wald efficacy interval; None when a cell is zero."""
    if t_v == 0 or t_c == 0:
        return None
    rr = (t_v / n_v) / (t_c / n_c)
    spread = math.sqrt((1.0 - t_v / n_v) / t_v + (1.0 - t_c / n_c) / t_c)
    z = z_score(level)
    return 1.0 - rr, 1.0 - rr * math.exp(z * spread), 1.0 - rr * math.exp(-z * spread)


def cramer_rao(t_c: int, total_n: float, rate: float, level: float):
    """Information-bound interval mode +/- z/sqrt(I); None where I is undefined."""
    mode = posterior_mode(t_c, total_n, rate)
    remainder = 2.0 - mode - rate
    if remainder <= 0.0:
        return None
    info = total_n * rate / ((2.0 - mode) ** 2 * remainder)
    half = z_score(level) / math.sqrt(info)
    return mode, mode - half, mode + half


def fisher_rr(n_v, t_v, n_c, t_c, level):
    """Risk-ratio information-bound interval (point, lower, upper); None at t_c = 0."""
    if t_c == 0:
        return None
    rr = (t_v / n_v) / (t_c / n_c)
    t = t_v + t_c
    case_ratio = 1.0 + t_v / t_c
    half = z_score(level) * (n_c / n_v) * case_ratio * math.sqrt((case_ratio - t / (n_v + n_c)) / t)
    return rr, rr - half, rr + half


def _z_sum_rounded(alpha: float = 0.05, beta: float = 0.2) -> float:
    return round(float(special.ndtri(1.0 - alpha / 2.0)), 2) + round(float(special.ndtri(1.0 - beta)), 2)


def sample_size(method: str, ve: float, delta: float, pi: float) -> int:
    """Total two-arm sample size with the conventional two-decimal z-scores."""
    z2 = _z_sum_rounded() ** 2
    if method == "cramer-rao":
        raw = 4.0 * z2 / (pi * delta**2) * (2.0 - ve) ** 2 * (2.0 - ve - pi)
    else:
        d = math.asinh(delta / (2.0 * (1.0 - ve)))
        raw = 2.0 * z2 / d**2 * ((2.0 - ve) ** 2 / (pi * (1.0 - ve)) - 2.0)
    return int(math.floor(raw + 0.5))


def predictive_values(pi: float, se: float, sp: float) -> tuple[float, float]:
    ppv = se * pi / (se * pi + (1.0 - sp) * (1.0 - pi))
    npv = sp * (1.0 - pi) / (sp * (1.0 - pi) + (1.0 - se) * pi)
    return ppv, npv


def density_equal_tailed(alpha, density, level: float) -> tuple[float, float]:
    """Equal-tailed bounds read off a tabulated density (trapezoid CDF)."""
    alpha = np.asarray(alpha, dtype=float)
    density = np.asarray(density, dtype=float)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(alpha))))
    cdf /= cdf[-1]
    return tuple(float(np.interp(q, cdf, alpha)) for q in (0.5 * (1.0 - level), 0.5 * (1.0 + level)))


def trapezoid(alpha, density) -> float:
    alpha = np.asarray(alpha, dtype=float)
    density = np.asarray(density, dtype=float)
    return float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(alpha)))
