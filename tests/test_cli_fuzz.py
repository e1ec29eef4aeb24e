"""Property test over ``cli.main`` argv: any float input ends in a typed exit.

Every float flag of ``estimate``, ``sample-size`` and ``coverage`` is drawn
from all doubles (NaN and both infinities included) plus edge values.  The
run must exit 0, 2 or 3; a failure must leave stdout empty; a success must
print strict JSON; and no message may be the normal quantile's own, which
would mean an input reached it unchecked.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level validation failures
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert "quantile requires" not in err
    if code != 0:
        assert out == ""
        return
    doc = json.loads(out, parse_constant=reject_constant)
    if argv[0] == "estimate":
        for block in doc["results"]:
            assert "quantile requires" not in block.get("error", "")
