"""Command-line interface: estimators, sample sizes, curve data, simulation.

Machine-readable output only: JSON documents on stdout for point
results, CSV for tables and curves (LF line endings, ``.`` decimal
separator).  Human diagnostics go to stderr.  Exit codes: 0 success,
1 stdout closed by its reader, 2 domain/validation error, 3 degenerate
data.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

from .diagnostics import npv, ppv, prevalence_threshold
from .errors import DegenerateDataError, DomainError, EstimationError
from .numerics import _check_level, _check_prevalence, _check_range
from .posterior import (
    _METHODS,
    DEFAULT_GRID_SIZE,
    MIN_GRID_SIZE,
    PosteriorGrid,
    _interval,
    posterior,
    posterior_at_prevalence,
)
from .sample_size import (
    _METHODS as _SIZE_METHODS,
    DEFAULT_DELTA_GRID,
    DEFAULT_PI_GRID,
    DEFAULT_VE_GRID,
    SampleSizeRow,
    SampleSizeSpec,
    sample_size_table,
)
from .simulate import SimulationConfig, coverage_study, replicates_to_csv
from .trial import TRIAL_PRESETS, DiagnosticProfile, IntervalEstimate, TrialCounts

_CURVE_PI_DEFAULT = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
_FIG3_PI_DEFAULT = (0.1, 0.05, 0.01, 0.005, 0.001)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="trialeff",
        description="Prevalence-aware efficacy estimation for two-arm trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="interval estimates from trial counts")
    est.add_argument("--se", type=float, default=1.0, help="diagnostic sensitivity")
    est.add_argument("--sp", type=float, default=1.0, help="diagnostic specificity")
    est.add_argument(
        "--pi",
        type=float,
        default=None,
        help="assumed prevalence; the observed totals are reanalysed as if "
        "drawn from a cohort of size t/T (default: t/n, the observed rate)",
    )
    est.add_argument(
        "--method",
        choices=(*_METHODS, "all"),
        default="all",
    )
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    est.add_argument(
        "--interval", choices=("equal-tailed", "hpd"), default="equal-tailed",
        help="credible-interval rule for the conditional method",
    )

    size = sub.add_parser("sample-size", help="trial-design sample sizes")
    size.add_argument("--ve", type=str, help="anticipated efficacy (comma list with --table)")
    size.add_argument("--delta", type=str, help="detectable difference (comma list with --table)")
    size.add_argument("--pi", type=str, help="event rate (comma list with --table)")
    size.add_argument("--alpha", type=float, default=0.05)
    size.add_argument("--beta", type=float, default=0.2)
    size.add_argument("--method", choices=tuple(_SIZE_METHODS), default="cramer-rao")
    size.add_argument(
        "--exact-z", action="store_true",
        help="use full-precision normal quantiles instead of the "
        "conventional two-decimal z-scores",
    )
    size.add_argument("--table", action="store_true", help="emit the full grid as CSV")

    curve = sub.add_parser("curve", help="CSV curve data for the standard figures")
    curve.add_argument(
        "--figure", type=int, default=None, choices=(1, 2, 3, 4),
        help="figure to reproduce; omit to dump one posterior from counts",
    )
    curve.add_argument("--pi", type=float, default=None, help="assumed prevalence (posterior dump)")
    curve.add_argument("--pi-list", type=str, default=None, help="comma-separated prevalences")
    curve.add_argument("--ve", type=float, default=None, help="true efficacy override")
    curve.add_argument("--n", type=int, default=50000, help="population size (figures 1 and 3)")
    curve.add_argument("--t", type=int, default=2000, help="total cases (figure 1, fixed-cases panel)")
    curve.add_argument("--se", type=float, default=None, help="sensitivity override (figure 3)")
    curve.add_argument("--sp", type=float, default=None, help="specificity override (figure 3)")
    curve.add_argument("--delta", type=float, default=0.1, help="effect size (figure 4)")
    curve.add_argument("--grid", type=int, default=MIN_GRID_SIZE)

    cov = sub.add_parser("coverage", help="Monte Carlo coverage study")
    cov.add_argument("--n-per-arm", type=int, required=True)
    cov.add_argument("--pi-c", type=float, required=True, help="true control-arm prevalence")
    cov.add_argument("--ve", type=float, required=True, help="true efficacy")
    cov.add_argument("--se", type=float, default=1.0)
    cov.add_argument("--sp", type=float, default=1.0)
    cov.add_argument("--replicates", type=int, default=1000)
    cov.add_argument("--seed", type=int, default=0)
    cov.add_argument("--methods", type=str, default="conditional,wald")
    cov.add_argument("--level", type=float, default=0.95)
    cov.add_argument("--grid", type=int, default=MIN_GRID_SIZE)
    cov.add_argument(
        "--dump", type=Path, default=None,
        help="also write per-replicate outcomes to this CSV file",
    )

    diag = sub.add_parser("diagnostics", help="predictive values and prevalence threshold")
    diag.add_argument("--se", type=float, required=True)
    diag.add_argument("--sp", type=float, required=True)
    diag.add_argument("--pi", type=float, default=None)
    diag.add_argument("--curve", action="store_true", help="emit a prevalence sweep as CSV")

    for command in (est, curve):
        command.add_argument("--trial", choices=sorted(TRIAL_PRESETS), help="named preset counts")
        command.add_argument("--tv", type=int, help="cases in vaccinated arm")
        command.add_argument("--nv", type=int, help="participants in vaccinated arm")
        command.add_argument("--tc", type=int, help="cases in control arm")
        command.add_argument("--nc", type=int, help="participants in control arm")
    for command in sub.choices.values():
        command.add_argument("--output", type=Path, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a rebound handler (a test double) is the one called.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        _emit(handler(args), args.output)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has exited.  Python flushes stdout again at
        # exit, so its descriptor goes to devnull first, as the signal
        # module's note on SIGPIPE recommends.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


# ---------------------------------------------------------------------------
# output helpers


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
        # A reader that has gone raises here, inside main, not at exit.
        sys.stdout.flush()
    else:
        with _output_file(output) as handle:
            handle.write(text)


@contextlib.contextmanager
def _output_file(path: Path):
    """``path`` opened for writing on entry; an OSError opening or writing it is a DomainError."""
    try:
        with path.open("w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _document(command: str, method: str, inputs: dict, results) -> str:
    """The JSON envelope every point result shares."""
    doc = {
        "command": command,
        "method": method,
        "inputs": inputs,
        "results": results,
        "warnings": [],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _density_block(fixed: tuple, post: PosteriorGrid, cells: list[str]) -> str:
    """The CSV rows ``(*fixed, alpha, density)``, one per grid point.

    csv.writer formats the fixed cells once, into a prefix.  It writes a
    Python float as its ``repr``, so each grid point is just its two
    ``repr``s; ``tolist`` makes them Python floats, whose ``repr`` is not
    numpy's ``np.float64(...)``.  ``cells`` are ``_alpha_cells`` of
    ``post.efficacies``.
    """
    # The empty last cell leaves the prefix's trailing comma.
    prefix = _csv_text([(*fixed, "")])[:-1] if fixed else ""
    # One join over every row's four pieces, each slot filled at C speed.
    pieces = [prefix, "", "", "\n"] * len(cells)
    pieces[1::4] = cells
    pieces[2::4] = map(repr, post.density.tolist())
    return "".join(pieces)


def _alpha_cells(points) -> list[str]:
    """The text ``f"{alpha!r},"`` of each grid point."""
    return [f"{alpha!r}," for alpha in points.tolist()]


def _density_csv(header: tuple, panels: list[tuple[tuple, PosteriorGrid]]) -> str:
    # Every posterior is built before any is formatted: interleaving the
    # formatting with the builds leaves each build slower.  Posteriors of
    # one grid size share one efficacy array, so each array's cells are
    # formatted once; every panel outlives this call, so no id is reused.
    cells: dict[int, list[str]] = {}
    blocks = [_csv_text([header])]
    for fixed, post in panels:
        key = id(post.efficacies)
        if key not in cells:
            cells[key] = _alpha_cells(post.efficacies)
        blocks.append(_density_block(fixed, post, cells[key]))
    return "".join(blocks)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise DomainError(f"{flag} received an empty list")
    return values


# ---------------------------------------------------------------------------
# estimate


def _resolve_counts(args) -> TrialCounts:
    explicit = [args.tv, args.nv, args.tc, args.nc]
    if args.trial is not None:
        if any(v is not None for v in explicit):
            raise DomainError("give either --trial or explicit counts, not both")
        return TRIAL_PRESETS[args.trial]
    if any(v is None for v in explicit):
        raise DomainError("provide --trial or all of --tv --nv --tc --nc")
    return TrialCounts(n_v=args.nv, t_v=args.tv, n_c=args.nc, t_c=args.tc)


def _estimate_one(
    method: str,
    counts: TrialCounts,
    d: DiagnosticProfile,
    args,
) -> dict:
    # An explicit --pi reanalyses the observed totals at that prevalence
    # (population rescaled to t/T); the default keeps the trial's own
    # population size with the observed rate as prevalence.
    est = _interval(method, counts, args.level, args.pi, d, args.grid, args.interval)
    block = asdict(est)
    if isinstance(est, IntervalEstimate):
        block["scale"] = "risk-ratio"
        block["efficacy"] = {
            "point": est.efficacy_point,
            "lower": est.efficacy_lower,
            "upper": est.efficacy_upper,
        }
    return block


def _cmd_estimate(args) -> str:
    counts = _resolve_counts(args)
    d = DiagnosticProfile(sensitivity=args.se, specificity=args.sp)
    # A bad level or prevalence is the input's fault, not one method's: it
    # must not become an error block under every method of --method all.
    _check_level(args.level)
    if args.pi is not None:
        _check_prevalence(args.pi)
    requested = _METHODS if args.method == "all" else (args.method,)
    results = []
    for method in requested:
        try:
            results.append(_estimate_one(method, counts, d, args))
        except EstimationError as exc:
            # A single undefined method should not sink the other blocks.
            if args.method != "all" or isinstance(exc, DegenerateDataError):
                raise
            results.append({"method": _METHODS[method], "error": str(exc)})
    inputs = {
        **asdict(counts),
        **asdict(d),
        "prevalence": args.pi if args.pi is not None else counts.overall_rate,
        "level": args.level,
        "grid_size": args.grid,
        "interval": args.interval,
    }
    return _document("estimate", args.method, inputs, results)


# ---------------------------------------------------------------------------
# sample-size


def _cmd_sample_size(args) -> str:
    flags = (("--ve", args.ve), ("--delta", args.delta), ("--pi", args.pi))
    rounded_z = not args.exact_z
    if args.table:
        grids = (DEFAULT_VE_GRID, DEFAULT_DELTA_GRID, DEFAULT_PI_GRID)
        lists = [
            _parse_float_list(text, flag) if text else list(grid)
            for (flag, text), grid in zip(flags, grids)
        ]
        rows = sample_size_table(
            *lists,
            alpha=args.alpha,
            beta=args.beta,
            method=args.method,
            rounded_z=rounded_z,
        )
        header = [field.name for field in fields(SampleSizeRow)]
        return _csv_text([header, *map(astuple, rows)])

    if any(text is None for _, text in flags):
        raise DomainError("provide --ve, --delta and --pi (or use --table)")
    values = []
    for flag, text in flags:
        parsed = _parse_float_list(text, flag)
        if len(parsed) != 1:
            raise DomainError(f"{flag} takes one number without --table, got {text!r}")
        values.append(parsed[0])
    spec = SampleSizeSpec(*values, alpha=args.alpha, beta=args.beta)
    total = _SIZE_METHODS[args.method](spec, rounded_z=rounded_z)
    inputs = {**asdict(spec), "rounded_z": rounded_z}
    return _document("sample-size", args.method, inputs, {"total_sample_size": total})


# ---------------------------------------------------------------------------
# curve


def _pi_list(args, default: tuple[float, ...]) -> list[float]:
    if not args.pi_list:
        return list(default)
    pis = _parse_float_list(args.pi_list, "--pi-list")
    for pi in pis:
        _check_prevalence(pi)
    return pis


def _control_rate(pi: float, ve: float) -> float:
    """Control-arm attack rate 2*pi/(2 - ve) of equal arms at overall prevalence ``pi``."""
    rate_c = 2.0 * pi / (2.0 - ve)
    if rate_c > 1.0:
        raise DomainError(f"prevalence {pi} infeasible at efficacy {ve}")
    return rate_c


def _split_cases(total_cases: int, ve: float) -> tuple[int, int]:
    t_c = int(round(total_cases / (2.0 - ve)))
    t_c = min(max(t_c, 1), total_cases)
    return total_cases - t_c, t_c


def _figure1(args) -> str:
    pis = _pi_list(args, _CURVE_PI_DEFAULT)
    panels = []
    # Fixed-population panel: the case totals scale with the prevalence.
    ve = args.ve if args.ve is not None else 0.7
    n = args.n
    half = n // 2
    for pi in pis:
        _control_rate(pi, ve)  # the case split below implies this rate; check it is feasible
        total_cases = int(round(n * pi))
        t_v, t_c = _split_cases(total_cases, ve)
        counts = TrialCounts(n_v=half, t_v=t_v, n_c=n - half, t_c=t_c)
        post = posterior(counts, pi=pi, grid_size=args.grid)
        panels.append((("fixed-population", pi, n), post))
    # Fixed-cases panel: the same totals reanalysed at each prevalence.
    ve_fixed = args.ve if args.ve is not None else 0.9
    t = args.t
    t_v, t_c = _split_cases(t, ve_fixed)
    for pi in pis:
        n_arm = max(t_c, t_v, math.ceil(t / (2.0 * pi)))
        counts = TrialCounts(n_v=n_arm, t_v=t_v, n_c=n_arm, t_c=t_c)
        post = posterior_at_prevalence(counts, pi, grid_size=args.grid)
        panels.append((("fixed-cases", pi, round(t / pi)), post))
    return _density_csv(("panel", "pi", "n", "alpha", "density"), panels)


def _figure2(args) -> str:
    names = [args.trial] if args.trial else sorted(TRIAL_PRESETS)
    panels = []
    for name in names:
        counts = TRIAL_PRESETS[name]
        post = posterior(counts, grid_size=args.grid)
        panels.append(((name, "conditional"), post))
        limit = posterior_at_prevalence(counts, 1.0, grid_size=args.grid)
        panels.append(((name, "wald-limit"), limit))
    return _density_csv(("trial", "curve", "alpha", "density"), panels)


def _figure3(args) -> str:
    if (args.se is None) != (args.sp is None):
        raise DomainError("override --se and --sp together for figure 3")
    if args.se is not None:
        profiles = [("custom", DiagnosticProfile(args.se, args.sp))]
    else:
        profiles = [
            ("specificity-loss", DiagnosticProfile(sensitivity=1.0, specificity=0.999)),
            ("sensitivity-loss", DiagnosticProfile(sensitivity=0.95, specificity=1.0)),
        ]
    pis = _pi_list(args, _FIG3_PI_DEFAULT)
    ve = args.ve if args.ve is not None else 0.7
    half = args.n // 2
    panels = []
    for label, profile in profiles:
        for pi in pis:
            rate_c = _control_rate(pi, ve)
            rate_v = (1.0 - ve) * rate_c
            t_c = int(round(half * (profile.sensitivity * rate_c
                                    + profile.false_positive_rate * (1.0 - rate_c))))
            t_v = int(round(half * (profile.sensitivity * rate_v
                                    + profile.false_positive_rate * (1.0 - rate_v))))
            counts = TrialCounts(n_v=half, t_v=t_v, n_c=half, t_c=t_c)
            post = posterior(counts, d=profile, grid_size=args.grid)
            panels.append(((label, profile.sensitivity, profile.specificity, pi), post))
    return _density_csv(("panel", "se", "sp", "pi", "alpha", "density"), panels)


def _figure4(args) -> str:
    pis = _pi_list(args, DEFAULT_PI_GRID)
    ve_values = [args.ve] if args.ve is not None else list(DEFAULT_VE_GRID)
    rows = [("method", "ve", "delta", "pi", "n")]
    for method in _SIZE_METHODS:
        rows.extend(
            (row.method, row.ve, row.delta, row.pi, row.n)
            for row in sample_size_table(ve_values, [args.delta], pis, method=method)
        )
    return _csv_text(rows)


def _dump_posterior(args) -> str:
    counts = _resolve_counts(args)
    se = 1.0 if args.se is None else args.se
    sp = 1.0 if args.sp is None else args.sp
    d = DiagnosticProfile(sensitivity=se, specificity=sp)
    prevalence = args.pi if args.pi is not None else counts.overall_rate
    post = posterior_at_prevalence(counts, prevalence, d, args.grid)
    return _density_csv(("alpha", "density"), [((), post)])


def _cmd_curve(args) -> str:
    # Checked before any panel is built: outside [0, 1] the case split
    # divides by zero at 2 and yields curves of no trial elsewhere.
    if args.ve is not None:
        _check_range(args.ve, "--ve", "[0, 1]")
    builders = {None: _dump_posterior, 1: _figure1, 2: _figure2, 3: _figure3, 4: _figure4}
    return builders[args.figure](args)


# ---------------------------------------------------------------------------
# coverage


def _cmd_coverage(args) -> str:
    config = SimulationConfig(
        n_per_arm=args.n_per_arm,
        prevalence=args.pi_c,
        ve=args.ve,
        diagnostic=DiagnosticProfile(sensitivity=args.se, specificity=args.sp),
        replicates=args.replicates,
        seed=args.seed,
        methods=tuple(part.strip() for part in args.methods.split(",") if part.strip()),
        level=args.level,
        grid_size=args.grid,
    )
    if args.dump is None:
        report = coverage_study(config)
    else:
        # Opened before the study, so a path that cannot be written fails at once.
        with _output_file(args.dump) as dump:
            report = coverage_study(config, keep_replicates=True)
            dump.write(replicates_to_csv(report))
    results = report.as_dict()
    inputs = results.pop("config")
    return _document("coverage", "monte-carlo", inputs, results)


# ---------------------------------------------------------------------------
# diagnostics


def _cmd_diagnostics(args) -> str:
    profile = DiagnosticProfile(sensitivity=args.se, specificity=args.sp)
    if args.curve:
        sweep = [i / 1000 for i in range(1, 1000)]
        rows = [(pi, ppv(pi, profile), npv(pi, profile)) for pi in sweep]
        return _csv_text([("pi", "ppv", "npv"), *rows])
    if args.pi is None:
        raise DomainError("provide --pi for a point evaluation or --curve for a sweep")
    results = {
        "ppv": ppv(args.pi, profile),
        "npv": npv(args.pi, profile),
        "prevalence_threshold": prevalence_threshold(profile),
    }
    inputs = {**asdict(profile), "pi": args.pi}
    return _document("diagnostics", "predictive-values", inputs, results)
