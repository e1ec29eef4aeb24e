"""Property tests over ``cli.main`` argv: any float input ends in a typed exit.

Every float flag of ``estimate``, ``sample-size`` and ``coverage`` is drawn
from all doubles (NaN and both infinities included) plus edge values.  The
run must exit 0, 2 or 3; a failure must leave stdout empty; a success must
print strict JSON; and no message may be the normal quantile's own, which
would mean an input reached it unchecked.

The flags of ``curve`` (the four figures and the posterior dump) are drawn
from edge values.  The same exits are allowed, and a success must print a
CSV with the documented header, one width for every row, the grid's
``alpha`` column in every density panel and only finite, non-negative
densities.  The flags of ``diagnostics`` are drawn from all doubles too, in
the point and the ``--curve`` form: a success prints strict JSON or the
whole 999-row sweep.

The library entry points are called with floats from all doubles plus edge
values: only the package's typed errors may escape, and the only warnings
are the documented ones, a clamped mode and ``marginal_likelihood``'s
fallback for a single control-arm case.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trialeff import (
    PERFECT_TEST,
    TRIAL_PRESETS,
    ClampedModeWarning,
    DiagnosticProfile,
    EstimationError,
    SampleSizeSpec,
    TrialCounts,
    cramer_rao_interval,
    cramer_rao_sample_size,
    credible_interval,
    generic_two_sample,
    log_likelihood,
    map_estimate,
    marginal_likelihood,
    marginalize_over_diagnostics,
    npv,
    observed_rate,
    posterior,
    posterior_at_prevalence,
    ppv,
    wald_sample_size,
)
from trialeff.cli import main

EDGES = (0.0, 1.0, 5e-324, 1e-17, 5e-17, 0.9999999999999999)
# Floats in [0, 1] as well, so that a run with every flag in range is common.
values = st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(0.0, 1.0))


def flag(name: str, value: float) -> str:
    # The "--flag=value" form, so argparse never mistakes "-1e-17" for an option.
    return f"--{name}={value!r}"


@st.composite
def estimate_argv(draw):
    argv = ["estimate", "--trial", "pfizer", "--grid", "2001",
            "--method", draw(st.sampled_from(["all", "conditional", "wald",
                                              "cramer-rao", "fisher-rr"])),
            "--interval", draw(st.sampled_from(["equal-tailed", "hpd"]))]
    for name in ("level", "se", "sp"):
        argv.append(flag(name, draw(values)))
    if draw(st.booleans()):
        argv.append(flag("pi", draw(values)))
    return argv


@st.composite
def sample_size_argv(draw):
    argv = ["sample-size", "--method", draw(st.sampled_from(["wald", "cramer-rao"]))]
    for name in ("ve", "delta", "pi", "alpha", "beta"):
        argv.append(flag(name, draw(values)))
    if draw(st.booleans()):
        argv.append("--exact-z")
    return argv


@st.composite
def coverage_argv(draw):
    argv = ["coverage", "--n-per-arm", "500", "--replicates", "3", "--seed", "5",
            "--grid", "2001", "--methods", "conditional,wald,cramer-rao,fisher-rr"]
    for name in ("pi-c", "ve", "se", "sp", "level"):
        argv.append(flag(name, draw(values)))
    return argv


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level validation failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(estimate_argv(), sample_size_argv(), coverage_argv()))
@example(["estimate", "--trial", "pfizer", "--grid", "2001", "--level=0.9999999999999999"])
@example(["estimate", "--trial", "pfizer", "--grid", "2001", "--method", "wald",
          "--level=0.9999999999999999"])
@example(["coverage", "--n-per-arm", "500", "--replicates", "3", "--pi-c=0.05", "--ve=0.6",
          "--grid", "2001", "--level=0.9999999999999999"])
@example(["sample-size", "--ve=0.5", "--delta=0.1", "--pi=0.1", "--alpha=1e-17"])
@example(["sample-size", "--ve=0.5", "--delta=0.1", "--pi=0.1", "--beta=5e-17"])
def test_any_float_input_ends_in_a_typed_exit(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (code, err)
    assert "quantile requires" not in err
    if code != 0:
        assert out == ""
        return
    doc = json.loads(out, parse_constant=reject_constant)
    if argv[0] == "estimate":
        for block in doc["results"]:
            assert "quantile requires" not in block.get("error", "")


CURVE_EDGES = (math.nan, math.inf, -math.inf, 0.0, 1.0, 5e-324, 1e-300, 0.66)
CURVE_HEADERS = {
    "1": ["panel", "pi", "n", "alpha", "density"],
    "2": ["trial", "curve", "alpha", "density"],
    "3": ["panel", "se", "sp", "pi", "alpha", "density"],
    "4": ["method", "ve", "delta", "pi", "n"],
    "dump": ["alpha", "density"],
}
# The default --grid, whose points every density panel lists in order.
GRID_ALPHAS = [repr(alpha) for alpha in np.linspace(0.0, 1.0, 2001).tolist()]


def count_flag(name: str, value: float) -> str:
    # The integer flags take 0 and 1 as integers; the other edges stay
    # floats, which argparse rejects.
    if value in (0.0, 1.0):
        return f"--{name}={int(value)}"
    return flag(name, value)


@st.composite
def curve_argv(draw):
    figure = draw(st.sampled_from(["1", "2", "3", "4", "dump"]))
    if figure == "dump":
        argv = ["curve", "--trial", draw(st.sampled_from(["az", "moderna", "pfizer"]))]
    else:
        argv = ["curve", "--figure", figure]
    edges = st.sampled_from(CURVE_EDGES)
    for name in ("pi-list", "ve", "se", "sp", "delta", "pi"):
        if draw(st.booleans()):
            count = draw(st.integers(1, 2)) if name == "pi-list" else 1
            values = [draw(edges) for _ in range(count)]
            argv.append(f"--{name}=" + ",".join(map(repr, values)))
    for name in ("n", "t"):
        if draw(st.booleans()):
            argv.append(count_flag(name, draw(edges)))
    return figure, argv


@settings(max_examples=300, deadline=None)
@given(curve_argv())
def test_any_curve_input_ends_in_a_typed_exit_or_a_whole_csv(case):
    figure, argv = case
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
        return
    header, *rows = csv.reader(io.StringIO(out))
    assert header == CURVE_HEADERS[figure]
    assert rows and all(len(row) == len(header) for row in rows)
    if figure == "4":
        return
    assert len(rows) % len(GRID_ALPHAS) == 0
    for start in range(0, len(rows), len(GRID_ALPHAS)):
        panel = rows[start:start + len(GRID_ALPHAS)]
        assert len({tuple(row[:-2]) for row in panel}) == 1
        assert [row[-2] for row in panel] == GRID_ALPHAS
    for row in rows:
        density = float(row[-1])
        assert math.isfinite(density) and density >= 0.0


@st.composite
def diagnostics_argv(draw):
    argv = ["diagnostics", flag("se", draw(values)), flag("sp", draw(values))]
    if draw(st.booleans()):
        argv.append(flag("pi", draw(values)))
    if draw(st.booleans()):
        argv.append("--curve")
    return argv


@settings(max_examples=300, deadline=None)
@given(diagnostics_argv())
def test_any_diagnostics_input_ends_in_a_typed_exit(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
        return
    if "--curve" not in argv:
        json.loads(out, parse_constant=reject_constant)
        return
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["pi", "ppv", "npv"]
    assert len(rows) == 999
    for row in rows:
        assert len(row) == 3 and all(math.isfinite(float(cell)) for cell in row)


LIBRARY_EDGES = (0.0, 1.0, 5e-324, 1e-300, 0.9999999999999999)
library_values = st.one_of(st.sampled_from(LIBRARY_EDGES), st.floats(), st.floats(0.0, 1.0))
COUNTS = {
    **TRIAL_PRESETS,
    "one-control-case": TrialCounts(n_v=1000, t_v=0, n_c=1000, t_c=1),
    "no-control-case": TrialCounts(n_v=1000, t_v=3, n_c=1000, t_c=0),
}
GRID = 2001


def profile(d):
    return PERFECT_TEST if d is None else DiagnosticProfile(*d)


# Each entry point called with the counts ``c``, a prevalence ``pi`` (None
# for the default reading), a (sensitivity, specificity) pair ``d`` (None
# for a perfect test) and five more floats ``x``.
LIBRARY_CALLS = {
    "posterior": lambda c, pi, d, x: posterior(c, pi, profile(d), GRID),
    "posterior_at_prevalence": lambda c, pi, d, x: posterior_at_prevalence(
        c, x[0], profile(d), GRID),
    "credible_interval": lambda c, pi, d, x: credible_interval(
        posterior(c, pi, profile(d), GRID), x[0], "hpd" if x[1] > 0.5 else "equal-tailed"),
    "cramer_rao_interval": lambda c, pi, d, x: cramer_rao_interval(c, pi, profile(d), x[0]),
    "map_estimate": lambda c, pi, d, x: map_estimate(c, pi, profile(d)),
    "marginal_likelihood": lambda c, pi, d, x: marginal_likelihood(c, pi, profile(d)),
    "log_likelihood": lambda c, pi, d, x: log_likelihood(x[0], c, pi, profile(d)),
    "marginalize_over_diagnostics": lambda c, pi, d, x: marginalize_over_diagnostics(
        c, (x[0], x[1]), (x[2], x[3]), pi, GRID, lattice_size=3),
    "observed_rate": lambda c, pi, d, x: observed_rate(x[0], profile(d)),
    "ppv": lambda c, pi, d, x: ppv(x[0], profile(d)),
    "npv": lambda c, pi, d, x: npv(x[0], profile(d)),
    "DiagnosticProfile": lambda c, pi, d, x: profile(d),
    "generic_two_sample": lambda c, pi, d, x: generic_two_sample(*x[:4], x[4] > 0.5),
    "wald_sample_size": lambda c, pi, d, x: wald_sample_size(SampleSizeSpec(*x), x[0] > 0.5),
    "cramer_rao_sample_size": lambda c, pi, d, x: cramer_rao_sample_size(
        SampleSizeSpec(*x), x[0] > 0.5),
}
SINGLE_CASE_FALLBACK = "closed form needs at least two control-arm cases"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(LIBRARY_CALLS)),
    st.sampled_from(sorted(COUNTS)),
    st.none() | library_values,
    st.none() | st.tuples(library_values, library_values),
    st.lists(library_values, min_size=5, max_size=5),
)
@example("posterior", "pfizer", 5e-324, None, [0.95] * 5)
@example("cramer_rao_interval", "pfizer", 5e-324, None, [0.95] * 5)
@example("marginal_likelihood", "pfizer", 5e-324, None, [0.95] * 5)
def test_any_float_input_to_the_library_raises_only_typed_errors(name, counts, pi, d, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            LIBRARY_CALLS[name](COUNTS[counts], pi, d, x)
        except EstimationError:
            pass
    for warning in caught:
        assert warning.category is ClampedModeWarning or (
            name == "marginal_likelihood" and str(warning.message).startswith(SINGLE_CASE_FALLBACK)
        ), (warning.category, str(warning.message))
