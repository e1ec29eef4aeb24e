"""Special functions and density-grid utilities used across the package.

All likelihood work elsewhere is done in log space, so the only
primitives needed here, all pure, are a log binomial coefficient in
Loader's Stirling-error form, the regularized incomplete beta function,
the normal quantile, and trapezoid helpers for tabulated densities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateDensityError, DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def log_binomial_coefficient(n: int, k: int) -> float:
    """Natural logarithm of the binomial coefficient C(n, k).

    Loader's form (2000), with m = min(k, n - k) and stirlerr the error of
    Stirling's formula for ln x!: stirlerr(n) - stirlerr(m) - stirlerr(n - m)
    - 1/2 ln(2 pi m) + m ln(n/m) - (n - m + 1/2) ln(1 - m/n).  Its cost does
    not depend on n or m, and its relative error stays below 1e-12.
    """
    n = _as_count(n, "n")
    k = _as_count(k, "k")
    if k > n:
        raise DomainError(f"require 0 <= k <= n, got n={n}, k={k}")
    if n > sys.float_info.max:
        raise DomainError(f"n={n} does not fit in a float")
    m = min(k, n - k)
    if m == 0:
        return 0.0
    return (
        _stirlerr(n) - _stirlerr(m) - _stirlerr(n - m) - 0.5 * math.log(2.0 * math.pi * m)
        + m * math.log(n / m) - (n - m + 0.5) * math.log1p(-m / n)
    )


def _stirlerr(n: int) -> float:
    """ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi); the 5-term series needs n > 15."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - math.log(_SQRT_2PI)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _as_count(value, name: str) -> int:
    """``value`` as an int, or DomainError unless it is a non-negative whole number."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        whole = None
    if isinstance(value, bool) or whole is None or value != whole or whole < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return whole


def _check_level(level: float) -> None:
    """DomainError unless the interval level lies strictly inside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")


def _check_prevalence(pi: float) -> None:
    """DomainError unless an assumed prevalence lies in (0, 1]."""
    if not 0.0 < pi <= 1.0:
        raise DomainError(f"prevalence must lie in (0, 1], got {pi}")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation (modified Lentz) with the usual
    symmetry switch at x = (a + 1)/(a + b + 2) so that the fraction is
    always evaluated on its rapidly converging side.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(
    a: float, b: float, x: float, max_iter: int = 2000, eps: float = 1e-15
) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < eps:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})"
    )


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc, accurate into both tails."""
    return 0.5 * math.erfc(-z / _SQRT2)


# Acklam's rational approximation for the inverse normal CDF.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF).

    Acklam's rational approximation refined by one Halley step on the
    erfc-based CDF; absolute error is far below the 1e-8 target over the
    whole open interval.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p}")
    x = _acklam(p)
    # One Halley step; skipped once exp(x^2/2) would overflow, where the
    # raw approximation is already at its accuracy floor.
    if abs(x) < 37.0:
        err = normal_cdf(x) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def _acklam(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - _ACKLAM_LOW:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log1p(-p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, adopted or copied.

    ``a`` is adopted when it is read-only and owns its data, or is a view
    of such an array; anything else is copied first.  Either way the view
    returned cannot be made writeable again.
    """
    owner = a if a.base is None else a.base
    if a.flags.writeable or not (
        isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable
    ):
        a = a.copy()
        a.flags.writeable = False
    return a.view()


def _density_values(values, shape: tuple[int, ...]) -> np.ndarray:
    """Finite, non-negative float values of the given shape, read-only."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise DomainError("grid points and values must be one-dimensional")
    if values.shape != shape:
        raise DomainError(
            f"points and values must have equal length, got "
            f"{shape[0]} and {values.shape[0]}"
        )
    # min and max propagate a NaN, which fails both comparisons.
    if not (values.min() >= 0.0 and values.max() < math.inf):
        raise DomainError("grid values must be finite and non-negative")
    return _read_only(values)


@dataclass(frozen=True)
class Grid:
    """A non-negative density tabulated on strictly increasing abscissae.

    The arrays are read-only: an input that is read-only and owns its
    data (or is a view of such an array) is adopted, anything else is
    copied.  The step widths between the points are computed once and
    shared by every grid :meth:`with_values` makes on the same points;
    the CDF that :func:`grid_cdf` computes on first use is kept too.
    """

    points: np.ndarray
    values: np.ndarray
    _steps: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 1:
            raise DomainError("grid points and values must be one-dimensional")
        if points.shape[0] < 2:
            raise DomainError("a grid needs at least two points")
        values = _density_values(self.values, points.shape)
        steps = np.subtract(points[1:], points[:-1])
        # A NaN fails every comparison, so strictly increasing points with
        # finite ends are all finite.
        if not (math.isfinite(points[0]) and math.isfinite(points[-1]) and (steps > 0.0).all()):
            raise DomainError("grid points must be finite and strictly increasing")
        steps.flags.writeable = False
        object.__setattr__(self, "points", _read_only(points))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_steps", steps)

    def __len__(self) -> int:
        return self.points.shape[0]

    def with_values(self, values) -> Grid:
        """A grid of ``values`` on these points, sharing them and their steps.

        Only the values are checked, and adopted or copied as by the
        constructor.
        """
        grid = object.__new__(Grid)
        object.__setattr__(grid, "points", self.points)
        object.__setattr__(grid, "values", _density_values(values, self.points.shape))
        object.__setattr__(grid, "_steps", self._steps)
        object.__setattr__(grid, "_cdf", None)
        return grid


def grid_integral(g: Grid) -> float:
    """Trapezoid-rule integral of the tabulated density.

    The operations of ``np.trapezoid(g.values, g.points)`` in its order,
    with the products formed in place, so the result is bit-identical.
    """
    terms = np.add(g.values[1:], g.values[:-1])
    terms *= g._steps
    terms /= 2.0
    return float(terms.sum())


def grid_normalize(g: Grid) -> Grid:
    """Rescale the density so its trapezoid integral equals one."""
    total = grid_integral(g)
    if not math.isfinite(total) or total <= 0.0:
        raise DegenerateDensityError(
            "density integrates to zero; nothing to normalize"
        )
    quotient = g.values / total
    quotient.flags.writeable = False
    return g.with_values(quotient)


def grid_cdf(g: Grid) -> np.ndarray:
    """Cumulative trapezoid sums of the density, rescaled to end at one.

    Computed on the first call and kept on the grid; every call returns
    the same read-only array.
    """
    if g._cdf is not None:
        return g._cdf
    cdf = np.empty(len(g))
    cdf[0] = 0.0
    segments = np.add(g.values[1:], g.values[:-1], out=cdf[1:])
    segments *= 0.5
    segments *= g._steps
    np.cumsum(segments, out=segments)
    total = cdf[-1]
    if total <= 0.0:
        raise DegenerateDensityError("density integrates to zero")
    cdf /= total
    cdf.flags.writeable = False
    object.__setattr__(g, "_cdf", cdf)
    return cdf


def grid_quantile(g: Grid, q: float) -> float:
    """Quantile of a normalized grid by linear interpolation of the CDF.

    Consistent with trapezoid normalization and non-decreasing in q.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile requires 0 < q < 1, got {q}")
    cdf = grid_cdf(g)
    i = int(np.searchsorted(cdf, q, side="left"))
    i = min(max(i, 1), len(cdf) - 1)
    lo, hi = cdf[i - 1], cdf[i]
    if hi <= lo:
        return float(g.points[i])
    frac = (q - lo) / (hi - lo)
    return float(g.points[i - 1] + frac * (g.points[i] - g.points[i - 1]))
