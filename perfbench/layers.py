"""Per-layer metrics of the traced run, and what each is expected to move.

SPANS maps each traced span to the statistics reported for it and to
the workloads on which it is bypassed (``calls`` must be 0 there and is
> 0 on every other workload).  Which end-to-end metric each group of
layer metrics should move, and on which workload, is tabulated in
README.md.
"""

from __future__ import annotations

ALL = ("coverage", "estimate", "sensitivity", "figures")
_COVERAGE_ONLY = ("estimate", "sensitivity", "figures")
_LATTICE_ONLY = ("coverage", "estimate", "figures")
_FIGURES_ONLY = ("coverage", "estimate", "sensitivity")
_INTERVALS = ("sensitivity", "figures")

# span -> (stats, workloads where calls == 0)
SPANS = {
    "posterior.posterior": (("calls", "self_ms", "p50_us", "grid_points"), ()),
    "posterior.posterior_at_prevalence": (("calls", "self_ms"), ("coverage", "sensitivity")),
    "posterior.credible_interval": (("calls", "self_ms", "p50_us"), ("figures",)),
    "numerics.grid_quantile": (("calls", "self_ms"), ("figures",)),
    "numerics.grid_normalize": (("calls", "self_ms"), ()),
    "simulate.coverage_study": (("calls", "self_ms"), _COVERAGE_ONLY),
    "simulate.simulate_trial": (("calls", "self_ms"), _COVERAGE_ONLY),
    "simulate.replicates_to_csv": (("calls", "self_ms"), _COVERAGE_ONLY),
    "classical.wald_efficacy_interval": (("calls", "self_ms", "errors"), _INTERVALS),
    "classical.fisher_rr_interval": (("calls", "self_ms"), _INTERVALS),
    "posterior.cramer_rao_interval": (("calls", "self_ms"), _INTERVALS),
    "posterior.cramer_rao_at_prevalence": (("calls", "self_ms"), ("coverage",) + _INTERVALS),
    "numerics.normal_quantile": (("calls", "self_ms"), ("sensitivity",)),
    "posterior.marginalize_over_diagnostics": (("calls", "self_ms"), _LATTICE_ONLY),
    "numerics.log_binomial_coefficient": (("calls", "self_ms", "p50_us"), _LATTICE_ONLY),
    "numerics.regularized_incomplete_beta": (("calls", "self_ms"), _LATTICE_ONLY),
    "posterior.marginal_likelihood": (("calls", "self_ms", "p50_us"), _LATTICE_ONLY),
    "cli.estimate": (("calls", "self_ms"), ("coverage", "sensitivity", "figures")),
    "cli.curve": (("calls", "self_ms"), _FIGURES_ONLY),
    "cli.sample_size": (("calls", "self_ms"), _FIGURES_ONLY),
    "cli.diagnostics": (("calls", "self_ms"), _FIGURES_ONLY),
    "sample_size.sample_size_table": (("calls", "self_ms"), _FIGURES_ONLY),
    "diagnostics.ppv": (("calls", "self_ms"), _FIGURES_ONLY),
    "diagnostics.npv": (("calls", "self_ms"), _FIGURES_ONLY),
}

# Metrics that are not a span statistic: name -> (unit, better).
DERIVED = {
    "simulate.method_failure_ratio": ("ratio", "lower"),
    "posterior.marginalize_over_diagnostics.lattice_points": ("count", "lower"),
    "posterior.marginalize_over_diagnostics.kept_ratio": ("ratio", "higher"),
    "workload.ops_per_pass": ("count", "higher"),
    "workload.m_le_cutoff": ("count", "higher"),
    "workload.m_gt_cutoff": ("count", "higher"),
    "workload.lattice_excluded": ("count", "lower"),
    "workload.typed_errors.conditional": ("count", "lower"),
    "workload.typed_errors.wald": ("count", "lower"),
    "workload.typed_errors.cramer-rao": ("count", "lower"),
    "workload.typed_errors.fisher-rr": ("count", "lower"),
    "workload.exit2": ("count", "lower"),
    "workload.exit3": ("count", "lower"),
    "workload.intervals": ("count", "higher"),
    "workload.grid_points_per_interval": ("count", "lower"),
    "trace.untraced_ops_per_s": ("ops/s", "higher"),
    "trace.traced_ops_per_s": ("ops/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "check.fail_ratio": ("ratio", "lower"),
    "check.max_abs_err": ("efficacy", "lower"),
}

_UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "p50_us": ("us", "lower"),
          "grid_points": ("count", "lower"), "errors": ("count", "lower")}


def metric_specs() -> list[dict]:
    """Every per-layer metric as a BENCHMARK.json entry, in report order."""
    specs = []
    for span, (stats, _bypass) in SPANS.items():
        for stat in stats:
            unit, better = _UNITS[stat]
            specs.append({"name": f"{span}.{stat}", "unit": unit, "better": better})
    for name, (unit, better) in DERIVED.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs

