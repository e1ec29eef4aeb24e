"""Tests for the CLI frame: the installed entry point, one parser per
process, no state carried between calls, and one writer for stdout and
``--output``."""

import argparse
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trialeff
from trialeff.cli import main

GOLDEN = Path(__file__).parent / "golden"
PFIZER_ALL = ["estimate", "--trial", "pfizer", "--method", "all"]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level validation failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _module_env():
    env = dict(os.environ)
    src = str(Path(trialeff.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (PFIZER_ALL, 0, ""),
        (["sample-size", "--ve", "0.5", "--delta", "0", "--pi", "0.1"], 2, "error: effect size"),
        (["estimate", "--tv", "3", "--nv", "1000", "--tc", "0", "--nc", "1000"], 3, "error: "),
        (["estimate", "--method", "magic"], 2, "invalid choice: 'magic'"),
    ],
    ids=["ok", "domain-error", "degenerate-data", "argparse-error"],
)
def test_module_entry_point(argv, code, stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "trialeff", *argv],
        capture_output=True, env=_module_env(), timeout=120, check=False,
    )
    assert proc.returncode == code
    assert stderr.encode() in proc.stderr
    if code == 0:
        assert proc.stdout == (GOLDEN / "estimate_pfizer_all.json").read_bytes()
    else:
        assert proc.stdout == b""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, on a descriptor the test owns."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_exits_1_silently(monkeypatch, capsys, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["diagnostics", "--se", "0.9", "--sp", "0.9", "--pi", "0.1"])
        monkeypatch.undo()
        assert code == 1
        assert capsys.readouterr().err == ""
        # The descriptor now writes to devnull, so the flush at exit cannot fail.
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


@pytest.mark.parametrize(
    "argv", [["curve", "--figure", "1"], PFIZER_ALL], ids=["large-csv", "small-json"]
)
def test_reader_that_closes_at_once_ends_the_run_with_exit_1(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "trialeff", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


def test_parser_is_built_once_per_process(monkeypatch):
    argv = ["diagnostics", "--se", "0.9", "--sp", "0.9", "--pi", "0.1"]
    main(argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [main(argv), main(["sample-size", "--table"])] == [0, 0]
    assert built == []


def test_no_state_crosses_calls(capsys, tmp_path):
    code, out, err = run_cli(["estimate", "--trial", "pfizer", "--level"], capsys)
    assert (code, out) == (2, "") and "expected one argument" in err
    target = tmp_path / "hpd.json"
    code, out, _ = run_cli(
        [*PFIZER_ALL, "--level", "0.9", "--interval", "hpd", "--grid", "2001",
         "--output", str(target)],
        capsys,
    )
    assert (code, out) == (0, "") and '"level": 0.9' in target.read_text(encoding="utf-8")
    code, out, _ = run_cli(PFIZER_ALL, capsys)
    assert code == 0
    assert out == (GOLDEN / "estimate_pfizer_all.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        PFIZER_ALL,
        ["sample-size", "--ve", "0", "--delta", "0.1", "--pi", "0.5"],
        ["curve", "--figure", "4"],
        ["coverage", "--n-per-arm", "2000", "--pi-c", "0.05", "--ve", "0.5",
         "--replicates", "3", "--methods", "wald,conditional"],
        ["diagnostics", "--se", "0.95", "--sp", "0.95", "--curve"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_gets_the_stdout_bytes(argv, capsys, tmp_path):
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and stdout
    target = tmp_path / "out.txt"
    code, out, _ = run_cli([*argv, "--output", str(target)], capsys)
    assert (code, out) == (0, "")
    assert target.read_bytes() == stdout.encode("utf-8")
