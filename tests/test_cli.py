"""Tests for the command-line interface: output contracts and exit codes."""

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialeff import TRIAL_PRESETS, Grid, PosteriorGrid, cli, posterior
from trialeff.cli import main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level validation failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestEstimate:
    def test_pfizer_preset_conditional_block(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--method", "all"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "all"
        assert doc["inputs"]["t_c"] == 162
        assert isinstance(doc["warnings"], list)
        blocks = {block["method"]: block for block in doc["results"]}
        cond = blocks["conditional-binomial"]
        assert cond["point"] == pytest.approx(0.951, abs=0.001)
        assert cond["lower"] == pytest.approx(0.749, abs=0.01)
        assert cond["upper"] == pytest.approx(0.996, abs=0.01)
        assert blocks["fisher-rr"]["lower_undetermined"] is True

    def test_explicit_counts_match_preset(self, capsys):
        code_a, out_a, _ = run_cli(
            ["estimate", "--tv", "8", "--nv", "18198", "--tc", "162", "--nc", "18325",
             "--method", "conditional"],
            capsys,
        )
        code_b, out_b, _ = run_cli(
            ["estimate", "--trial", "pfizer", "--method", "conditional"], capsys
        )
        assert code_a == code_b == 0
        assert json.loads(out_a)["results"] == json.loads(out_b)["results"]

    def test_zero_vaccinated_cases_wald_exits_2_with_reason(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--tv", "0", "--nv", "1000", "--tc", "30", "--nc", "1000",
             "--method", "wald"],
            capsys,
        )
        assert code == 2
        assert "zero cases in vaccinated arm" in err
        assert out == ""

    def test_zero_control_cases_exit_3(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--tv", "3", "--nv", "1000", "--tc", "0", "--nc", "1000",
             "--method", "conditional"],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:")

    def test_zero_cases_in_both_arms_exit_3(self, capsys):
        # No control-arm cases is degenerate data whichever posterior
        # reading is asked for, even when the observed rate is also 0.
        counts = ["--tv", "0", "--nv", "1000", "--tc", "0", "--nc", "1000"]
        for extra in (
            ["--method", "conditional"],
            ["--method", "cramer-rao"],
            ["--method", "conditional", "--pi", "0.01"],
            ["--method", "all"],
        ):
            code, out, err = run_cli(["estimate", *counts, *extra], capsys)
            assert (code, out) == (3, ""), extra
            assert "no cases in the control arm" in err

    def test_prevalence_one_matches_wald(self, capsys):
        _, out_cond, _ = run_cli(
            ["estimate", "--trial", "pfizer", "--pi", "1.0", "--method", "conditional"],
            capsys,
        )
        _, out_wald, _ = run_cli(
            ["estimate", "--trial", "pfizer", "--method", "wald"], capsys
        )
        cond = json.loads(out_cond)["results"][0]
        wald = json.loads(out_wald)["results"][0]
        assert cond["lower"] == pytest.approx(wald["lower"], abs=0.01)
        assert cond["upper"] == pytest.approx(wald["upper"], abs=0.01)

    def test_method_all_keeps_going_past_undefined_methods(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--tv", "0", "--nv", "1000", "--tc", "30", "--nc", "1000"],
            capsys,
        )
        assert code == 0
        blocks = {b["method"]: b for b in json.loads(out)["results"]}
        assert "error" in blocks["wald"]
        assert blocks["conditional-binomial"]["point"] == pytest.approx(1.0, abs=1e-6)

    def test_oversized_grid_exits_2(self, capsys):
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--method", "conditional",
             "--grid", "1000000000000"],
            capsys,
        )
        assert code == 2
        assert "grid_size must be at most" in err
        assert out == ""

    @pytest.mark.parametrize(
        "method", ["all", "conditional", "wald", "cramer-rao", "fisher-rr"]
    )
    def test_bad_level_exits_2_under_every_method(self, method, capsys):
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--level", "1.5", "--method", method],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "level must lie in (0, 1), got 1.5" in err

    @pytest.mark.parametrize(
        "method", ["all", "conditional", "wald", "cramer-rao", "fisher-rr"]
    )
    def test_level_whose_upper_tail_rounds_to_one_exits_2(self, method, capsys):
        level = "0.9999999999999999"
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--level", level, "--method", method], capsys
        )
        assert (code, out) == (2, "")
        assert f"level must leave (1 + level)/2 below 1, got {level}" in err

    @pytest.mark.parametrize("pi", ["inf", "nan", "0", "2"])
    @pytest.mark.parametrize(
        "method", ["all", "conditional", "wald", "cramer-rao", "fisher-rr"]
    )
    def test_bad_prevalence_exits_2_under_every_method(self, method, pi, capsys):
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--pi", pi, "--method", method], capsys
        )
        assert (code, out) == (2, "")
        assert "prevalence must lie in (0, 1]" in err

    @pytest.mark.parametrize("method", ["conditional", "cramer-rao"])
    def test_prevalence_too_small_to_rescale_exits_2(self, method, capsys):
        code, out, err = run_cli(
            ["estimate", "--trial", "pfizer", "--pi", "1e-307", "--method", method], capsys
        )
        assert (code, out) == (2, "")
        assert "too small to rescale" in err

    def test_prevalence_too_small_to_rescale_under_method_all(self, capsys):
        code, out, _ = run_cli(["estimate", "--trial", "pfizer", "--pi", "1e-307"], capsys)
        assert code == 0
        blocks = {b["method"]: b for b in json.loads(out)["results"]}
        for method in ("conditional-binomial", "cramer-rao"):
            assert "too small to rescale" in blocks[method]["error"]
        assert "error" not in blocks["wald"]
        assert "error" not in blocks["fisher-rr"]
        # An error block names its method as a result block does.
        _, passing, _ = run_cli(["estimate", "--trial", "pfizer"], capsys)
        assert list(blocks) == [b["method"] for b in json.loads(passing)["results"]]

    def test_conflicting_count_sources_rejected(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--trial", "az", "--tv", "1", "--nv", "10", "--tc", "2",
             "--nc", "10"],
            capsys,
        )
        assert code == 2
        assert "either --trial or explicit counts" in err


class TestSampleSize:
    def test_single_value_json(self, capsys):
        code, out, _ = run_cli(
            ["sample-size", "--ve", "0", "--delta", "0.1", "--pi", "0.5",
             "--method", "cramer-rao"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["total_sample_size"] == 37632
        assert doc["inputs"]["rounded_z"] is True

    def test_single_value_uses_the_named_method(self, capsys):
        argv = ["sample-size", "--ve", "0.6", "--delta", "0.1", "--pi", "0.01"]
        sizes = {}
        for method in ("wald", "cramer-rao"):
            code, out, _ = run_cli(argv + ["--method", method], capsys)
            assert code == 0
            sizes[method] = json.loads(out)["results"]["total_sample_size"]
        code, out, _ = run_cli(
            ["sample-size", "--table", "--ve", "0.6", "--delta", "0.1", "--pi", "0.01",
             "--method", "wald"],
            capsys,
        )
        assert int(parse_csv(out)[0]["n"]) == sizes["wald"]
        assert sizes["wald"] < sizes["cramer-rao"]

    def test_zero_delta_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sample-size", "--ve", "0.5", "--delta", "0", "--pi", "0.1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ve", "0.5", "--delta", "1e-200", "--pi", "0.1", "--method", "cramer-rao"],
            ["--ve", "0.5", "--delta", "1e-200", "--pi", "0.1", "--method", "wald"],
            ["--ve", "0.5", "--delta", "1e-10", "--pi", "1e-300"],
        ],
        ids=["delta-underflow-cramer-rao", "delta-underflow-wald", "size-overflow"],
    )
    def test_size_outside_the_float_range_exits_2(self, flags, capsys):
        code, out, err = run_cli(["sample-size", *flags], capsys)
        assert (code, out) == (2, "")
        assert "the sample size is not a finite float" in err

    @pytest.mark.parametrize("table", [[], ["--table"]], ids=["single", "table"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--alpha", "1e-17", "alpha must leave 1 - alpha/2 below 1, got 1e-17"),
         ("--beta", "5e-17", "beta must leave 1 - beta below 1, got 5e-17")],
        ids=["alpha", "beta"],
    )
    def test_rate_whose_complement_rounds_to_one_exits_2(self, flag, value, message, table,
                                                         capsys):
        code, out, err = run_cli(
            ["sample-size", "--ve", "0.5", "--delta", "0.1", "--pi", "0.1", flag, value,
             *table],
            capsys,
        )
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("ve", ["abc", "0.5,0.6"])
    def test_single_value_flag_takes_one_number(self, ve, capsys):
        code, out, err = run_cli(
            ["sample-size", "--ve", ve, "--delta", "0.1", "--pi", "0.1"], capsys
        )
        assert (code, out) == (2, "")
        assert "--ve" in err

    def test_default_table_has_112_rows(self, capsys):
        code, out, _ = run_cli(["sample-size", "--table"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 112
        assert list(rows[0]) == ["ve", "delta", "pi", "alpha", "beta", "method", "n"]
        first = rows[0]
        assert first["ve"] == "0.0" and first["pi"] == "0.5"
        assert first["n"] == "37632"
        assert out.endswith("\n") and "\r" not in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pi", "nan"], "pi=nan: prevalence must lie in (0, 1], got nan"),
            (["--ve", "inf"], "ve=inf, delta=0.1, pi=0.5: anticipated efficacy must lie in [0, 1)"),
            (["--delta", "1e-200"], "ve=0.0, delta=1e-200, pi=0.5: the sample size is not a finite"),
        ],
        ids=["pi-nan", "ve-inf", "delta-underflow"],
    )
    def test_table_with_an_undefined_cell_exits_2(self, flags, message, capsys):
        code, out, err = run_cli(["sample-size", "--table", *flags], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_table_with_explicit_lists(self, capsys):
        code, out, _ = run_cli(
            ["sample-size", "--table", "--ve", "0.6,0.9", "--delta", "0.1",
             "--pi", "0.05,0.01", "--method", "wald"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[0]["method"] == "wald"
        assert rows[0]["n"] == "96838"


class TestCurve:
    def test_figure_2_conditional_argmax(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--figure", "2", "--trial", "pfizer"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        cond = [r for r in rows if r["curve"] == "conditional"]
        assert cond, "expected conditional curve rows"
        alphas = np.array([float(r["alpha"]) for r in cond])
        dens = np.array([float(r["density"]) for r in cond])
        step = alphas[1] - alphas[0]
        assert abs(alphas[int(np.argmax(dens))] - 0.951) <= step + 1e-12

    def test_figure_2_wald_limit_curve_present(self, capsys):
        _, out, _ = run_cli(["curve", "--figure", "2", "--trial", "az"], capsys)
        curves = {r["curve"] for r in parse_csv(out)}
        assert curves == {"conditional", "wald-limit"}

    def test_figure_1_panels_and_default_population(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--figure", "1", "--pi-list", "0.1,0.01", "--grid", "2001"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        panels = {r["panel"] for r in rows}
        assert panels == {"fixed-population", "fixed-cases"}
        fixed_n = {r["n"] for r in rows if r["panel"] == "fixed-population"}
        assert fixed_n == {"50000"}

    def test_figure_3_bias_directions(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--figure", "3", "--pi-list", "0.01", "--grid", "2001"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        by_panel = {}
        for row in rows:
            by_panel.setdefault(row["panel"], []).append(
                (float(row["alpha"]), float(row["density"]))
            )
        modes = {
            panel: max(pairs, key=lambda p: p[1])[0]
            for panel, pairs in by_panel.items()
        }
        assert modes["specificity-loss"] < 0.7
        assert modes["sensitivity-loss"] > 0.7

    def test_figure_4_contains_reference_cell(self, capsys):
        code, out, _ = run_cli(["curve", "--figure", "4"], capsys)
        assert code == 0
        rows = parse_csv(out)
        hit = [
            r
            for r in rows
            if r["method"] == "cramer-rao"
            and float(r["pi"]) == 0.0005
            and float(r["ve"]) == 0.9
        ]
        assert len(hit) == 1
        assert hit[0]["n"] == "8344237"

    def test_figure_4_undefined_cell_exits_2(self, capsys):
        code, out, err = run_cli(["curve", "--figure", "4", "--delta", "0"], capsys)
        assert (code, out) == (2, "")
        assert "ve=0.0, delta=0.0, pi=0.5: effect size must lie in (0, 1]" in err

    def test_invalid_figure_exits_2(self, capsys):
        code, _, err = run_cli(["curve", "--figure", "9"], capsys)
        assert code == 2

    def test_posterior_dump_without_figure(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--tv", "8", "--nv", "18198", "--tc", "162", "--nc", "18325",
             "--grid", "2001"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["alpha", "density"]
        assert len(rows) == 2001
        dens = np.array([float(r["density"]) for r in rows])
        alphas = np.array([float(r["alpha"]) for r in rows])
        assert alphas[int(np.argmax(dens))] == pytest.approx(0.9505, abs=0.001)

    def test_posterior_dump_requires_counts(self, capsys):
        code, _, err = run_cli(["curve"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "1", "--ve", "2"],
            ["--figure", "3", "--ve", "2"],
            ["--figure", "1", "--ve", "1.5"],
            ["--figure", "1", "--ve", "-1"],
            ["--figure", "3", "--ve", "-3"],
            ["--figure", "1", "--pi-list", "inf"],
            ["--figure", "1", "--pi-list", "nan"],
            ["--figure", "3", "--pi-list", "0.1,0"],
        ],
    )
    def test_out_of_range_efficacy_or_prevalence_exits_2(self, argv, capsys):
        code, out, err = run_cli(["curve", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "must lie in" in err

    @pytest.mark.parametrize("figure", ["1", "3"])
    def test_infeasible_prevalence_is_named_in_the_inputs_terms(self, figure, capsys):
        # Both figures give the control arm an attack rate of 2*pi/(2 - ve),
        # which exceeds one above pi = 0.65 at the default efficacy 0.7.
        code, out, err = run_cli(["curve", "--figure", figure, "--pi-list", "0.66"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: prevalence 0.66 infeasible at efficacy 0.7\n"
        code, out, _ = run_cli(["curve", "--figure", figure, "--pi-list", "0.65"], capsys)
        assert code == 0 and out

    FIG1 = ["panel", "pi", "n", "alpha", "density"]
    FIG3 = ["panel", "se", "sp", "pi", "alpha", "density"]

    @pytest.mark.parametrize(
        "argv, fieldnames",
        [
            (["--figure", "1", "--pi-list", "0.1,0.01"], FIG1),
            (["--figure", "3", "--pi-list", "0.1,0.01"], FIG3),
            (["--figure", "1", "--ve", "0.5"], FIG1),
            (["--figure", "3", "--se", "0.9", "--sp", "0.99"], FIG3),
            (
                ["--tv", "8", "--nv", "18198", "--tc", "162", "--nc", "18325",
                 "--pi", "0.01", "--se", "0.95", "--sp", "0.999"],
                ["alpha", "density"],
            ),
        ],
    )
    def test_density_panels_match_a_dict_writer(self, argv, fieldnames, capsys, monkeypatch):
        panels = []
        block = cli._density_block

        def spy(fixed, post, cells):
            panels.append((fixed, post))
            return block(fixed, post, cells)

        monkeypatch.setattr(cli, "_density_block", spy)
        code, out, _ = run_cli(["curve", *argv], capsys)
        assert code == 0
        assert panels
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for fixed, post in panels:
            for alpha, density in zip(post.efficacies, post.density):
                row = dict(zip(fieldnames, fixed))
                row["alpha"] = float(alpha)
                row["density"] = float(density)
                writer.writerow(row)
        # The first differing line, not pytest's diff of two megabyte strings.
        lines, expected = out.splitlines(), buffer.getvalue().splitlines()
        assert len(lines) == len(expected)
        assert next(((a, b) for a, b in zip(lines, expected) if a != b), None) is None


# repr switches notation at 1e-4 and 1e16; 5e-324 is the smallest subnormal.
_GRID_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e15 + 0.5, 2.5e-308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
_FIXED_CELLS = st.one_of(
    st.sampled_from(["", "a,b", 'say "hi"', "line\nbreak", " pad "]),
    st.text(max_size=8),
    st.integers(),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    fixed=st.lists(_FIXED_CELLS, max_size=4).map(tuple),
    points=st.lists(st.tuples(_GRID_FLOATS, _GRID_FLOATS), max_size=8),
)
def test_density_block_equals_csv_writer_rows(fixed, points):
    post = SimpleNamespace(
        efficacies=np.array([alpha for alpha, _ in points], dtype=float),
        density=np.array([density for _, density in points], dtype=float),
    )
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        (*fixed, alpha, density) for alpha, density in points
    )
    cells = cli._alpha_cells(post.efficacies)
    assert cli._density_block(fixed, post, cells) == buffer.getvalue()


class TestAlphaCells:
    """Each efficacy array's ``alpha`` cells, formatted once per CSV."""

    @staticmethod
    def alpha_column(text):
        return [line.split(",")[-2] for line in text.splitlines()[1:]]

    def test_panels_on_one_array_format_its_cells_once(self, monkeypatch):
        formatted = []
        alpha_cells = cli._alpha_cells
        monkeypatch.setattr(
            cli, "_alpha_cells", lambda points: formatted.append(points) or alpha_cells(points)
        )
        code = main(["curve", "--figure", "1", "--pi-list", "0.1,0.01,0.001"])
        assert code == 0
        assert len(formatted) == 1

    @pytest.mark.parametrize(
        "points",
        [np.linspace(0.0, 1.0, 2001), np.linspace(0.0, 1.0, 2001) ** 2],
        ids=["equal-points", "other-points"],
    )
    def test_other_points_of_the_same_length_format_their_own_column(self, points):
        shared = posterior(TRIAL_PRESETS["pfizer"], grid_size=2001)
        custom = PosteriorGrid(Grid(points, shared.density))
        text = cli._density_csv(("panel", "alpha", "density"), [(("a",), shared), (("b",), custom)])
        column = self.alpha_column(text)
        assert column[:2001] == [repr(alpha) for alpha in shared.efficacies.tolist()]
        assert column[2001:] == [repr(alpha) for alpha in points.tolist()]


class TestCoverage:
    BASE = [
        "coverage", "--n-per-arm", "400", "--pi-c", "0.05", "--ve", "0.6",
        "--replicates", "30", "--seed", "99",
    ]

    def test_fixed_seed_output_is_byte_identical(self, capsys):
        code_a, out_a, _ = run_cli(self.BASE, capsys)
        code_b, out_b, _ = run_cli(self.BASE, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_single_replicate_coverage_binary(self, capsys):
        code, out, _ = run_cli(
            ["coverage", "--n-per-arm", "400", "--pi-c", "0.05", "--ve", "0.6",
             "--replicates", "1", "--seed", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        for result in doc["results"]["methods"].values():
            assert result["coverage"] in (0.0, 1.0)

    def test_repeated_method_echoed_and_dumped_once(self, capsys, tmp_path):
        dump = tmp_path / "d.csv"
        code, out, _ = run_cli(
            ["coverage", "--n-per-arm", "2000", "--pi-c", "0.05", "--ve", "0.5",
             "--replicates", "5", "--methods", "wald,wald", "--dump", str(dump)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["methods"] == ["wald"]
        assert list(doc["results"]["methods"]) == ["wald"]
        assert len(parse_csv(dump.read_text())) == 5

    def test_level_whose_upper_tail_rounds_to_one_exits_2(self, capsys):
        code, out, err = run_cli(
            [*self.BASE, "--level", "0.9999999999999999", "--methods",
             "conditional,wald,cramer-rao,fisher-rr"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "level must leave (1 + level)/2 below 1" in err

    def test_invalid_method_exits_2(self, capsys):
        code, _, err = run_cli(
            ["coverage", "--n-per-arm", "400", "--pi-c", "0.05", "--ve", "0.6",
             "--methods", "conditional,frequentist-magic"],
            capsys,
        )
        assert code == 2

    def test_no_method_exits_2(self, capsys):
        code, out, err = run_cli(
            ["coverage", "--n-per-arm", "400", "--pi-c", "0.05", "--ve", "0.6",
             "--methods", ","],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "at least one interval method" in err

    @pytest.mark.parametrize("grid", ["501", "1000000000000"])
    def test_out_of_range_grid_exits_2(self, grid, capsys):
        code, out, err = run_cli(
            ["coverage", "--n-per-arm", "2000", "--pi-c", "0.05", "--ve", "0.5",
             "--replicates", "3", "--grid", grid, "--methods", "conditional"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "grid_size must be at" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-per-arm", "1000000000000000000000000000000"], "n_per_arm must lie in"),
            (["--seed", "-1"], "seed must be a non-negative integer"),
        ],
    )
    def test_out_of_range_count_exits_2(self, flags, message, capsys):
        argv = ["coverage", "--n-per-arm", "2000", "--pi-c", "0.05", "--ve", "0.5",
                "--replicates", "2", *flags]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_no_evaluated_replicate_is_strict_json_null(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run_cli(
            ["coverage", "--n-per-arm", "20", "--pi-c", "0.001", "--ve", "0.5",
             "--replicates", "3", "--methods", "wald,conditional"],
            capsys,
        )
        assert code == 0
        methods = json.loads(out, parse_constant=reject)["results"]["methods"]
        for result in methods.values():
            assert result["coverage"] is None
            assert result["mean_width"] is None
            assert result["failures"] == 3


class TestDiagnostics:
    def test_point_values(self, capsys):
        code, out, _ = run_cli(
            ["diagnostics", "--se", "0.99", "--sp", "0.99", "--pi", "0.05"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["prevalence_threshold"] == pytest.approx(0.0913, abs=1e-4)

    def test_perfect_test_point(self, capsys):
        code, out, _ = run_cli(
            ["diagnostics", "--se", "1", "--sp", "1", "--pi", "0.3"], capsys
        )
        doc = json.loads(out)
        assert doc["results"]["ppv"] == 1.0
        assert doc["results"]["npv"] == 1.0

    def test_curve_matches_formulas(self, capsys):
        code, out, _ = run_cli(
            ["diagnostics", "--se", "0.95", "--sp", "0.95", "--curve"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 999
        sample = rows[49]  # pi = 0.05
        assert float(sample["pi"]) == pytest.approx(0.05)
        assert float(sample["ppv"]) == pytest.approx(0.5, abs=1e-9)

    def test_useless_test_exits_2(self, capsys):
        code, _, err = run_cli(
            ["diagnostics", "--se", "0.5", "--sp", "0.5", "--pi", "0.1"], capsys
        )
        assert code == 2

    def test_missing_mode_exits_2(self, capsys):
        code, _, err = run_cli(["diagnostics", "--se", "0.9", "--sp", "0.9"], capsys)
        assert code == 2


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # Only the package's typed errors map to exit codes; any other
    # exception is a fault in the program and must surface as one.
    def broken(args):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "_cmd_diagnostics", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["diagnostics", "--se", "0.9", "--sp", "0.9", "--pi", "0.1"])


class TestOutputFile:
    def test_csv_written_to_path(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["sample-size", "--table", "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text(encoding="utf-8"))
        assert len(rows) == 112
