"""Golden CLI outputs: exit code and exact stdout bytes.

Covers every CLI example in the README (the coverage study cut to 200
replicates), a few estimate variants and the exit-2/exit-3 cases.  JSON
documents are compared with the text files in ``tests/golden``; the
large CSV outputs are compared by their SHA-256 digest.
"""

import hashlib
from pathlib import Path

import pytest

from trialeff.cli import main

GOLDEN = Path(__file__).parent / "golden"

PFIZER_COUNTS = ["--tv", "8", "--nv", "18198", "--tc", "162", "--nc", "18325"]

# name -> argv; stdout must equal golden/<name>.json and the exit code is 0.
JSON_CASES = {
    "estimate_pfizer_all": ["estimate", "--trial", "pfizer", "--method", "all"],
    "estimate_counts_conditional": ["estimate", *PFIZER_COUNTS, "--method", "conditional"],
    "estimate_pfizer_pi1_conditional": [
        "estimate", "--trial", "pfizer", "--pi", "1.0", "--method", "conditional",
    ],
    "estimate_pfizer_pi001": ["estimate", "--trial", "pfizer", "--pi", "0.01"],
    "estimate_pfizer_hpd": ["estimate", "--trial", "pfizer", "--interval", "hpd"],
    "estimate_pfizer_misclassified": [
        "estimate", "--trial", "pfizer", "--se", "0.95", "--sp", "0.999",
    ],
    "sample_size_single": [
        "sample-size", "--ve", "0", "--delta", "0.1", "--pi", "0.5", "--method", "cramer-rao",
    ],
    "diagnostics_point": ["diagnostics", "--se", "0.99", "--sp", "0.99", "--pi", "0.05"],
}

# name -> (argv, sha256 of stdout); the exit code is 0.
CSV_CASES = {
    "sample_size_table": (
        ["sample-size", "--table", "--method", "cramer-rao"],
        "8773a0c81dccd8ed4d0dbd1c3f812cf6ec3133b1801d21c807545f36e545151b",
    ),
    "sample_size_table_lists": (
        ["sample-size", "--table", "--ve", "0.6,0.9", "--delta", "0.1",
         "--pi", "0.05,0.01", "--method", "wald"],
        "7be1a51c3110868bc4f28764c66661019dedfab22a5c8620f0cc568307b2fa08",
    ),
    "curve_figure_1": (
        ["curve", "--figure", "1"],
        "4242d6cb7fcc0bc4849ff10f6e1a972ec5dd0887d240c3147d19cc66ae8fb837",
    ),
    "curve_figure_2_pfizer": (
        ["curve", "--figure", "2", "--trial", "pfizer"],
        "61fe7948662750e9eb8e2096d66ee4c3a656395ab0ff69e296ec54a14c73278a",
    ),
    "curve_figure_3": (
        ["curve", "--figure", "3"],
        "25952ad7a3417aa7982e0f1d81e223fa660007213c8c5e9833e9665eaea2b70a",
    ),
    "curve_figure_4": (
        ["curve", "--figure", "4"],
        "f24434a130bb41e695fb930fd3adda70d3790213750ded8985b87b41f2dc4bcc",
    ),
    "curve_posterior_dump": (
        ["curve", *PFIZER_COUNTS],
        "27bf942463c82e5fce315b38f8540fb9fc65d25f85d79acdbfd04135eb6f9a63",
    ),
    "diagnostics_curve": (
        ["diagnostics", "--se", "0.95", "--sp", "0.95", "--curve"],
        "780c6a6a89faac22c9d13ecb43ca327c310f9c80f688e519e548fe318ad4aeaa",
    ),
}

# The README coverage example, cut from 10,000 to 200 replicates; its
# stdout must equal golden/coverage_readme.json.
COVERAGE = [
    "coverage", "--n-per-arm", "25000", "--pi-c", "0.004", "--ve", "0.9",
    "--replicates", "200", "--seed", "7", "--methods", "conditional,wald",
]
COVERAGE_DUMP_SHA256 = "ece2c333d3119c40220f38537d84c5ed2d1361a2575f6e753e7f10add9ae6d26"

# name -> (argv, exit code); stdout must be empty.
ERROR_CASES = {
    "zero_control_cases": (
        ["estimate", "--tv", "3", "--nv", "1000", "--tc", "0", "--nc", "1000",
         "--method", "conditional"],
        3,
    ),
    "zero_vaccinated_cases_wald": (
        ["estimate", "--tv", "0", "--nv", "1000", "--tc", "30", "--nc", "1000",
         "--method", "wald"],
        2,
    ),
    "conflicting_count_sources": (
        ["estimate", "--trial", "az", "--tv", "1", "--nv", "10", "--tc", "2", "--nc", "10"],
        2,
    ),
    "zero_delta": (["sample-size", "--ve", "0.5", "--delta", "0", "--pi", "0.1"], 2),
    "invalid_figure": (["curve", "--figure", "9"], 2),
    "dump_without_counts": (["curve"], 2),
    "unknown_coverage_method": (
        ["coverage", "--n-per-arm", "400", "--pi-c", "0.05", "--ve", "0.6",
         "--methods", "conditional,frequentist-magic"],
        2,
    ),
    "useless_test": (["diagnostics", "--se", "0.5", "--sp", "0.5", "--pi", "0.1"], 2),
    "diagnostics_without_mode": (["diagnostics", "--se", "0.9", "--sp", "0.9"], 2),
}


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level validation failures
        code = exc.code
    out, _ = capsys.readouterr()
    return code, out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_document(name, capsys):
    code, out = run_cli(JSON_CASES[name], capsys)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_digest(name, capsys):
    argv, digest = CSV_CASES[name]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert sha256(out) == digest


def test_coverage_with_dump(capsys, tmp_path):
    dump = tmp_path / "replicates.csv"
    code, out = run_cli([*COVERAGE, "--dump", str(dump)], capsys)
    assert code == 0
    assert out == (GOLDEN / "coverage_readme.json").read_text(encoding="utf-8")
    assert sha256(dump.read_text(encoding="utf-8")) == COVERAGE_DUMP_SHA256


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_exit(name, capsys):
    argv, expected = ERROR_CASES[name]
    code, out = run_cli(argv, capsys)
    assert code == expected
    assert out == ""
