"""The four seeded workloads: input pools, the timed op and its checks.

Each workload builds a pool of inputs from the seed (one *pass*); the
benchmark runs whole passes closed-loop and checks the first pass's
outputs against the oracles in ``oracle.py``.  Only public trialeff
names are used, and no grid size or worker count is ever set.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
from collections import Counter

import numpy as np

import trialeff
from trialeff import cli

LEVEL = 0.95
METHODS = ("conditional", "wald", "cramer-rao", "fisher-rr")
# min(t_c, n - t_c) above which the package's log binomial coefficient
# switches from a term sum to lgamma; recorded as a workload property.
CUTOFF = 10_000
README_PFIZER = (0.9506, 0.7488, 0.9953)
README_SAMPLE_SIZE = ("cramer-rao", 0.0, 0.1, 0.5, 37632)


class Check:
    """Problems found in one output, bound errors and workload-property counts."""

    def __init__(self):
        self.problems: list[str] = []
        self.errors: list[float] = []
        self.props: Counter = Counter()

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def close(self, got, want, tol: float, what: str, bound: bool = False) -> None:
        err = abs(float(got) - float(want))
        if bound:
            self.errors.append(err)
        self.expect(err <= tol * max(1.0, abs(float(want))), f"{what}: got {got!r}, oracle {want!r}")

    def regime(self, n: float, t_c: int) -> None:
        self.props["m_le_cutoff" if min(t_c, n - t_c) <= CUTOFF else "m_gt_cutoff"] += 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI document with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _count_args(n_v, t_v, n_c, t_c) -> list[str]:
    return ["--tv", str(t_v), "--nv", str(n_v), "--tc", str(t_c), "--nc", str(n_c)]


def _draw_trial(rng, n_range, rate_range, ve_range, imbalance: float):
    """Per-arm n and attack rate log-uniform, VE uniform; redrawn until t_c >= 2."""
    while True:
        n_c = int(round(_log_uniform(rng, *n_range)))
        rate = _log_uniform(rng, *rate_range)
        ve = float(rng.uniform(*ve_range))
        u = float(rng.uniform(-imbalance, imbalance))
        n_v = int(round(n_c * (1.0 + u) / (1.0 - u)))
        t_c = int(rng.binomial(n_c, rate))
        t_v = int(rng.binomial(n_v, rate * (1.0 - ve)))
        if t_c >= 2:
            return n_v, t_v, n_c, t_c


def _csv_rows(text: str, header: list[str], chk: Check) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    chk.expect(reader.fieldnames == header, f"columns {reader.fieldnames} != {header}")
    return list(reader)


def _density_panels(rows, keys, chk: Check, panels: int) -> dict:
    """Group density rows by panel; each must share one grid and integrate to 1."""
    from oracle import INTEGRAL_TOL, trapezoid

    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    chk.expect(len(groups) == panels, f"{len(groups)} density panels, expected {panels}")
    out = {}
    sizes = set()
    for key, group in groups.items():
        alpha = np.array([float(r["alpha"]) for r in group])
        density = np.array([float(r["density"]) for r in group])
        sizes.add(len(alpha))
        chk.expect(len(alpha) >= 2 and alpha[0] == 0.0 and alpha[-1] == 1.0
                   and bool(np.all(np.diff(alpha) > 0)), f"panel {key}: alpha grid malformed")
        chk.expect(bool(np.all(density >= 0.0)), f"panel {key}: negative density")
        chk.expect(abs(trapezoid(alpha, density) - 1.0) <= INTEGRAL_TOL, f"panel {key}: does not integrate to 1")
        out[key] = (alpha, density)
    chk.expect(len(sizes) == 1 and len(rows) == panels * sizes.pop(), "row count is not panels x grid points")
    return out


# ---------------------------------------------------------------------------
# estimate


class Estimate:
    name = "estimate"
    unit = "docs/s"

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        pool = [
            {"argv": ["estimate", "--trial", name, "--method", "all"], "counts": _preset(name),
             "rc": 0, "preset": name}
            for name in sorted(trialeff.TRIAL_PRESETS)
        ]
        kinds = ["plain"] * 15 + ["pi"] * 14 + ["hpd"] * 14 + ["se-sp"] * 14
        for kind in kinds:
            n_v, t_v, n_c, t_c = _draw_trial(rng, (1e3, 1e6), (1e-4, 0.2), (0.0, 0.95), 0.02)
            rate = (t_v + t_c) / (n_v + n_c)
            inp = {"argv": ["estimate", *_count_args(n_v, t_v, n_c, t_c), "--method", "all"],
                   "counts": (n_v, t_v, n_c, t_c), "rc": 0}
            if kind == "pi":
                inp["pi"] = _log_uniform(rng, rate, 0.9)
                inp["argv"] += ["--pi", repr(inp["pi"])]
            elif kind == "hpd":
                inp["hpd"] = True
                inp["argv"] += ["--interval", "hpd"]
            elif kind == "se-sp":
                inp["se"] = float(rng.uniform(0.85, 0.99))
                inp["sp"] = 1.0 - float(rng.uniform(0.02, 0.2)) * rate
                inp["argv"] += ["--se", repr(inp["se"]), "--sp", repr(inp["sp"])]
            pool.append(inp)
        # Expected typed failures: no control cases (exit 3), a test no
        # better than chance and more cases than participants (exit 2).
        for _ in range(2):
            n_v, t_v, n_c, _t_c = _draw_trial(rng, (1e3, 1e5), (1e-3, 0.05), (0.0, 0.5), 0.02)
            pool.append({"argv": ["estimate", *_count_args(n_v, max(t_v, 1), n_c, 0), "--method", "all"],
                         "rc": 3})
        n_v, t_v, n_c, t_c = _draw_trial(rng, (1e3, 1e5), (1e-3, 0.05), (0.0, 0.5), 0.02)
        pool.append({"argv": ["estimate", *_count_args(n_v, t_v, n_c, t_c), "--se", "0.5", "--sp", "0.45",
                              "--method", "all"], "rc": 2})
        pool.append({"argv": ["estimate", *_count_args(n_v, n_v + 1, n_c, t_c), "--method", "all"], "rc": 2})
        rng.shuffle(pool)
        return pool

    def units(self, inp) -> int:
        return 1

    def run(self, inp):
        return run_cli(inp["argv"])

    def fingerprint(self, out):
        return out

    def check(self, inp, out, chk: Check) -> None:
        import oracle

        rc, text = out
        if not chk.expect(rc == inp["rc"], f"exit code {rc}, expected {inp['rc']}"):
            return
        if rc != 0:
            chk.props[f"exit{rc}"] += 1
            chk.expect(text == "", "error exit wrote to stdout")
            return
        doc = json.loads(text)
        n_v, t_v, n_c, t_c = inp["counts"]
        n, t = n_v + n_c, t_v + t_c
        chk.regime(n, t_c)
        se, sp = inp.get("se", 1.0), inp.get("sp", 1.0)
        c1, c2 = 1.0 - sp, se + sp - 1.0
        if "pi" in inp:
            rate = c1 + c2 * inp["pi"]
            total_n = t / rate
        else:
            rate = c1 + c2 * t / n
            total_n = n
        results = doc["results"]
        chk.expect(doc["command"] == "estimate" and len(results) == len(METHODS), "malformed estimate document")
        expected = {
            "wald": oracle.wald(n_v, t_v, n_c, t_c, LEVEL),
            "cramer-rao": oracle.cramer_rao(t_c, total_n, rate, LEVEL),
            "fisher-rr": oracle.fisher_rr(n_v, t_v, n_c, t_c, LEVEL),
        }
        post = oracle.TruncatedBeta(t_c, total_n, rate)
        lower, upper = post.hpd(LEVEL) if inp.get("hpd") else post.equal_tailed(LEVEL)
        expected["conditional"] = (oracle.posterior_mode(t_c, total_n, rate), lower, upper)
        for method, block in zip(METHODS, results):
            chk.expect(block["method"].startswith(method), f"block {block['method']} where {method} expected")
            want = expected[method]
            if want is None:
                chk.props[f"typed_errors.{method}"] += 1
                chk.expect("error" in block, f"{method}: oracle undefined but a value was reported")
                continue
            if not chk.expect("error" not in block, f"{method}: unexpected error {block.get('error')}"):
                continue
            tol = oracle.GRID_TOL if method == "conditional" else oracle.CLOSED_TOL
            for key, value in zip(("point", "lower", "upper"), want):
                chk.close(block[key], value, tol, f"{method}.{key}", bound=key != "point")
            if method == "fisher-rr":
                chk.expect(block["lower_undetermined"] == (want[1] < 0.0), "fisher-rr undetermined flag")
                eff = block["efficacy"]
                for key, value in zip(("point", "lower", "upper"), (1.0 - want[0], 1.0 - want[2], 1.0 - want[1])):
                    chk.close(eff[key], value, oracle.CLOSED_TOL, f"fisher-rr.efficacy.{key}", bound=key != "point")
        if inp.get("preset") == "pfizer":
            block = results[0]
            got = tuple(round(block[k], 4) for k in ("point", "lower", "upper"))
            chk.expect(got == README_PFIZER, f"pfizer README pin {got} != {README_PFIZER}")


def _preset(name: str):
    c = trialeff.TRIAL_PRESETS[name]
    return c.n_v, c.t_v, c.n_c, c.t_c


# ---------------------------------------------------------------------------
# coverage

REPLICATES = 200
N_PER_ARM = 25_000
INCIDENCES = (0.05, 0.004, 0.0005)
EFFICACIES = (0.5, 0.9)
MISCLASSIFYING = trialeff.DiagnosticProfile(sensitivity=0.95, specificity=0.999)
DUMP_HEADER = ["replicate", "t_v", "t_c", "method", "lower", "upper", "covered"]


class Coverage:
    name = "coverage"
    unit = "replicates/s"

    def build(self, seed: int) -> list[dict]:
        # The sweep's levels are fixed (the README's coverage example is 25,000
        # per arm at VE 0.9); the seed draws every study's replicates, so the
        # cost of a pass does not move with the seed.
        rng = np.random.default_rng(seed)
        pool = []
        for incidence in INCIDENCES:
            for ve in EFFICACIES:
                for diagnostic in (trialeff.PERFECT_TEST, MISCLASSIFYING):
                    config = trialeff.SimulationConfig(
                        n_per_arm=N_PER_ARM,
                        prevalence=incidence,
                        ve=ve,
                        diagnostic=diagnostic,
                        replicates=REPLICATES,
                        seed=int(rng.integers(2**31)),
                        methods=METHODS,
                    )
                    # The first study (high incidence, perfect test) takes the --dump path.
                    pool.append({"config": config, "dump": not pool})
        return pool

    def units(self, inp) -> int:
        return inp["config"].replicates

    def run(self, inp):
        report = trialeff.coverage_study(inp["config"], keep_replicates=inp["dump"])
        return report, trialeff.replicates_to_csv(report) if inp["dump"] else None

    def fingerprint(self, out):
        report, dump = out
        return report.to_json(), dump

    def check(self, inp, out, chk: Check) -> None:
        report, dump = out
        config = inp["config"]
        chk.expect(report.replicates == config.replicates, "replicate count")
        chk.expect(tuple(report.methods) == METHODS, f"methods {tuple(report.methods)}")
        for method, res in report.methods.items():
            chk.props[f"typed_errors.{method}"] += res.failures
            chk.props["attempts"] += res.evaluated + res.failures
            chk.expect(res.evaluated + res.failures == config.replicates, f"{method}: tally does not add up")
            if res.evaluated:
                chk.expect(0.0 <= res.coverage <= 1.0 and math.isfinite(res.mean_width)
                           and res.mean_width > 0.0, f"{method}: coverage or width out of range")
        if dump is not None:
            self._check_dump(config, report, dump, chk)

    def _check_dump(self, config, report, dump: str, chk: Check) -> None:
        """Dumped bounds against the oracle on the dumped counts, and the tallies they imply."""
        import oracle

        n = config.n_per_arm
        rows = _csv_rows(dump, DUMP_HEADER, chk)
        chk.expect(len(rows) == config.replicates * len(METHODS), "dump row count")
        tally = {m: [0, 0, 0.0, 0] for m in METHODS}  # covered, evaluated, width, failures
        regimes = {}
        for row in rows:
            method, t_v, t_c = row["method"], int(row["t_v"]), int(row["t_c"])
            regimes[row["replicate"]] = t_c
            if method == "conditional":
                want = (None if t_c == 0
                        else oracle.TruncatedBeta(t_c, 2 * n, (t_v + t_c) / (2 * n)).equal_tailed(LEVEL))
                tol = oracle.GRID_TOL
            elif method == "wald":
                want = oracle.wald(n, t_v, n, t_c, config.level)
                want = want and want[1:]
                tol = oracle.CLOSED_TOL
            elif method == "cramer-rao":
                want = None if t_c == 0 else oracle.cramer_rao(t_c, 2 * n, (t_v + t_c) / (2 * n), config.level)
                want = want and want[1:]
                tol = oracle.CLOSED_TOL
            else:
                rr = oracle.fisher_rr(n, t_v, n, t_c, config.level)
                want = rr and (1.0 - rr[2], 1.0 - rr[1])
                tol = oracle.CLOSED_TOL
            entry = tally[method]
            if want is None:
                chk.expect(row["lower"] == row["upper"] == row["covered"] == "", f"{method}: bounds where undefined")
                entry[3] += 1
                continue
            if not chk.expect(row["lower"] != "", f"{method}: missing bounds at t_v={t_v}, t_c={t_c}"):
                continue
            lower, upper = float(row["lower"]), float(row["upper"])
            chk.close(lower, want[0], tol, f"dump {method}.lower", bound=True)
            chk.close(upper, want[1], tol, f"dump {method}.upper", bound=True)
            chk.expect(row["covered"] == str(int(lower <= config.ve <= upper)), f"{method}: covered flag")
            entry[0] += row["covered"] == "1"
            entry[1] += 1
            entry[2] += upper - lower
        for t_c in regimes.values():
            chk.regime(2 * n, t_c)
        for method, (covered, evaluated, width, failures) in tally.items():
            res = report.methods[method]
            chk.expect((res.evaluated, res.failures) == (evaluated, failures), f"{method}: report tally != dump")
            if evaluated:
                chk.close(res.coverage, covered / evaluated, 1e-12, f"{method}: coverage")
                chk.close(res.mean_width, width / evaluated, 1e-12, f"{method}: mean width")


# ---------------------------------------------------------------------------
# sensitivity

STRATA = 6
TC_RANGE = (10.0, 30_000.0)


class Sensitivity:
    name = "sensitivity"
    unit = "trials/s"

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        size = inspect.signature(trialeff.marginalize_over_diagnostics).parameters["lattice_size"].default
        lo, hi = (math.log10(v) for v in TC_RANGE)
        width = (hi - lo) / STRATA
        pool = []
        for k in range(STRATA):
            # One trial per equal log-width stratum of t_c, jittered within the
            # central tenth of it, at a control attack rate near 1%: the lattice
            # evidence costs O(t_c) below the cutoff and the incomplete beta
            # grows with n, so this keeps a pass's cost the same for every seed.
            t_c = int(round(10 ** (lo + width * (k + 0.5 + rng.uniform(-0.05, 0.05)))))
            n_c = int(round(t_c / rng.uniform(0.009, 0.011)))
            t_v = int(round(t_c * (1.0 - rng.uniform(0.3, 0.9))))
            counts = trialeff.TrialCounts(n_v=n_c, t_v=t_v, n_c=n_c, t_c=t_c)
            se_range = (float(rng.uniform(0.85, 0.98)), 1.0)
            sp_range = (1.0 - float(rng.uniform(0.02, 0.2)) * counts.overall_rate, 1.0)
            lattice = [(float(se), float(sp)) for se in np.linspace(*se_range, size)
                       for sp in np.linspace(*sp_range, size)]
            pool.append({"counts": counts, "se_range": se_range, "sp_range": sp_range, "lattice": lattice})
        rng.shuffle(pool)
        return pool

    def units(self, inp) -> int:
        return 1

    def run(self, inp):
        counts = inp["counts"]
        mixture = trialeff.marginalize_over_diagnostics(counts, inp["se_range"], inp["sp_range"])
        et = trialeff.credible_interval(mixture, LEVEL)
        hpd = trialeff.credible_interval(mixture, LEVEL, method="hpd")
        evidence = []
        for se, sp in inp["lattice"]:
            try:
                profile = trialeff.DiagnosticProfile(sensitivity=se, specificity=sp)
                evidence.append(trialeff.marginal_likelihood(counts, None, profile))
            except trialeff.DomainError:
                evidence.append(None)
        return mixture, et, hpd, evidence

    def fingerprint(self, out):
        mixture, et, hpd, evidence = out
        return (mixture.density.tobytes(), (et.point, et.lower, et.upper),
                (hpd.point, hpd.lower, hpd.upper), tuple(evidence))

    def check(self, inp, out, chk: Check) -> None:
        import oracle

        mixture, et, hpd, evidence = out
        counts = inp["counts"]
        n, t_c = counts.n, counts.t_c
        chk.regime(n, t_c)
        chk.expect(abs(oracle.trapezoid(mixture.efficacies, mixture.density) - 1.0) <= oracle.INTEGRAL_TOL,
                   "mixture does not integrate to 1")
        prevalence = counts.overall_rate
        rates = []
        for (se, sp), got in zip(inp["lattice"], evidence):
            if se + sp <= 1.0:
                chk.props["lattice_excluded"] += 1
                chk.expect(got is None, f"evidence reported at infeasible point se={se}, sp={sp}")
                continue
            rate = (1.0 - sp) + (se + sp - 1.0) * prevalence
            rates.append(rate)
            if chk.expect(got is not None, f"no evidence at se={se}, sp={sp}"):
                want = oracle.marginal_likelihood(n, t_c, rate)
                chk.expect(abs(got - want) <= oracle.EVIDENCE_RTOL * abs(want),
                           f"evidence at se={se}, sp={sp}: got {got!r}, oracle {want!r}")
        chk.props["lattice_points"] += len(inp["lattice"])
        mix = oracle.LatticeMixture(t_c, n, rates)
        for label, est, want in (("equal-tailed", et, mix.equal_tailed(LEVEL)), ("hpd", hpd, mix.hpd(LEVEL))):
            chk.close(est.lower, want[0], oracle.GRID_TOL, f"mixture {label} lower", bound=True)
            chk.close(est.upper, want[1], oracle.GRID_TOL, f"mixture {label} upper", bound=True)


# ---------------------------------------------------------------------------
# figures

FIGURE_PANELS = {"1": (("panel", "pi"), 12), "2": (("trial", "curve"), 6), "3": (("panel", "pi"), 10)}
FIGURE_HEADERS = {
    "1": ["panel", "pi", "n", "alpha", "density"],
    "2": ["trial", "curve", "alpha", "density"],
    "3": ["panel", "se", "sp", "pi", "alpha", "density"],
    "4": ["method", "ve", "delta", "pi", "n"],
}
TABLE_HEADER = ["ve", "delta", "pi", "alpha", "beta", "method", "n"]


class Figures:
    name = "figures"
    unit = "docs/s"

    def build(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        pool = [{"argv": ["curve", "--figure", f], "kind": f"figure{f}"} for f in "1234"]
        n_v, t_v, n_c, t_c = _draw_trial(rng, (1e3, 1e5), (1e-3, 0.05), (0.3, 0.95), 0.02)
        pool.append({"argv": ["curve", *_count_args(n_v, t_v, n_c, t_c)], "kind": "dump",
                     "counts": (n_v, t_v, n_c, t_c)})
        for method in ("wald", "cramer-rao"):
            pool.append({"argv": ["sample-size", "--table", "--method", method], "kind": "table",
                         "method": method})
        se, sp = float(rng.uniform(0.8, 0.99)), float(rng.uniform(0.9, 0.999))
        pool.append({"argv": ["diagnostics", "--se", repr(se), "--sp", repr(sp), "--curve"],
                     "kind": "predictive", "se": se, "sp": sp})
        rng.shuffle(pool)
        return pool

    def units(self, inp) -> int:
        return 1

    def run(self, inp):
        return run_cli(inp["argv"])

    def fingerprint(self, out):
        return out

    def check(self, inp, out, chk: Check) -> None:
        import oracle

        rc, text = out
        if not chk.expect(rc == 0, f"exit code {rc}"):
            return
        kind = inp["kind"]
        if kind in ("figure1", "figure2", "figure3"):
            fig = kind[-1]
            keys, panels = FIGURE_PANELS[fig]
            groups = _density_panels(_csv_rows(text, FIGURE_HEADERS[fig], chk), keys, chk, panels)
            if fig == "2":
                for (name, curve), (alpha, density) in groups.items():
                    n_v, t_v, n_c, t_c = _preset(name)
                    t = t_v + t_c
                    post = (oracle.TruncatedBeta(t_c, n_v + n_c, t / (n_v + n_c)) if curve == "conditional"
                            else oracle.TruncatedBeta(t_c, t, 1.0))
                    self._bounds(alpha, density, post, chk, f"figure 2 {name} {curve}")
        elif kind == "dump":
            n_v, t_v, n_c, t_c = inp["counts"]
            chk.regime(n_v + n_c, t_c)
            groups = _density_panels(_csv_rows(text, ["alpha", "density"], chk), (), chk, 1)
            prevalence = (t_v + t_c) / (n_v + n_c)
            post = oracle.TruncatedBeta(t_c, (t_v + t_c) / prevalence, prevalence)
            self._bounds(*groups[()], post, chk, "posterior dump")
        elif kind == "figure4":
            rows = _csv_rows(text, FIGURE_HEADERS["4"], chk)
            chk.expect(len(rows) == 56, f"figure 4 has {len(rows)} rows, expected 56")
            self._sizes(rows, chk)
        elif kind == "table":
            rows = _csv_rows(text, TABLE_HEADER, chk)
            chk.expect(len(rows) == 112, f"table has {len(rows)} rows, expected 112")
            chk.expect(all(r["method"] == inp["method"] for r in rows), "table method column")
            self._sizes(rows, chk)
            method, ve, delta, pi, pinned = README_SAMPLE_SIZE
            if inp["method"] == method:
                hits = [r for r in rows if (float(r["ve"]), float(r["delta"]), float(r["pi"])) == (ve, delta, pi)]
                chk.expect(len(hits) == 1 and hits[0]["n"] == str(pinned), "README sample-size pin 37632")
        else:
            rows = _csv_rows(text, ["pi", "ppv", "npv"], chk)
            chk.expect(len(rows) == 999, f"predictive-value curve has {len(rows)} rows, expected 999")
            for row in rows:
                ppv, npv = oracle.predictive_values(float(row["pi"]), inp["se"], inp["sp"])
                chk.close(row["ppv"], ppv, 1e-12, "ppv")
                chk.close(row["npv"], npv, 1e-12, "npv")

    @staticmethod
    def _bounds(alpha, density, post, chk: Check, what: str) -> None:
        import oracle

        got = oracle.density_equal_tailed(alpha, density, LEVEL)
        for label, g, w in zip(("lower", "upper"), got, post.equal_tailed(LEVEL)):
            chk.close(g, w, oracle.GRID_TOL, f"{what} {label}", bound=True)

    @staticmethod
    def _sizes(rows, chk: Check) -> None:
        import oracle

        for row in rows:
            want = oracle.sample_size(row["method"], float(row["ve"]), float(row["delta"]), float(row["pi"]))
            chk.expect(row["n"] == str(want), f"sample size {row}: oracle {want}")


WORKLOADS = {w.name: w for w in (Coverage(), Estimate(), Sensitivity(), Figures())}
