"""CLI surface tests: grammar, JSON schemas, exit codes."""
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from jacpairs.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFamily:
    def test_worked_example(self, capsys):
        code, payload = _run_json(
            capsys, ["family", "gen", "--family", "deg3", "--t", "1"]
        )
        assert code == 0
        assert payload["twist"] == "560"
        assert payload["sextic"] == [
            "-16",
            "0",
            "-352",
            "0",
            "-1648",
            "0",
            "16",
        ]

    def test_finite_field(self, capsys):
        code, payload = _run_json(
            capsys,
            ["family", "gen", "--family", "howe2", "--t", "3", "--p", "101"],
        )
        assert code == 0
        assert payload["field"] == {"type": "Fp", "p": "101"}

    def test_invalid_parameter_is_error(self, capsys):
        code = run(["family", "gen", "--family", "deg3", "--t", "0"])
        assert code == 2


class TestIgusa:
    SEXTIC = json.dumps(["3", "1", "0", "0", "0", "0", "1"])

    def test_invariants(self, capsys):
        code, payload = _run_json(
            capsys, ["igusa", "invariants", "--poly", self.SEXTIC, "--p", "101"]
        )
        assert code == 0
        assert set(payload) == {"J2", "J4", "J6", "J8", "J10", "field"}

    def test_readme_example(self, capsys):
        # the README's invariants example, exactly as printed there
        line = next(
            ln
            for ln in (ROOT / "README.md").read_text().splitlines()
            if ln.startswith("jacpairs igusa invariants ")
        )
        code, payload = _run_json(capsys, shlex.split(line)[1:])
        assert code == 0
        assert payload["field"] == {"type": "Fp", "p": "101"}

    def test_equal_self(self, capsys):
        code, payload = _run_json(
            capsys,
            [
                "igusa",
                "equal",
                "--poly",
                self.SEXTIC,
                "--poly2",
                self.SEXTIC,
                "--p",
                "101",
            ],
        )
        assert code == 0
        assert payload["equal"] is True


class TestDistinct:
    def test_charp_exit_codes(self, capsys):
        code, payload = _run_json(
            capsys, ["distinct", "charp", "--family", "deg3", "--p", "13"]
        )
        assert code == 0 and payload["pass"]

    def test_scan(self, capsys):
        code, payload = _run_json(
            capsys,
            ["distinct", "scan", "--family", "deg3", "--p", "13", "--ext", "1"],
        )
        assert code == 0 and payload["match"]


class TestObstruction:
    def test_verify(self, capsys):
        code, payload = _run_json(
            capsys, ["obstruction", "verify", "--degree", "16"]
        )
        assert code == 0
        assert payload["points"]["recorded_points"] == 3


class TestGlue:
    def test_verify(self, capsys):
        code, payload = _run_json(
            capsys,
            ["glue", "verify", "--family", "deg3", "--p", "101", "--t", "3"],
        )
        assert code == 0
        assert payload["match"]
        assert payload["classesFound"] == ["C_-t", "C_t"]


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run(["family", "gen", "--family", "deg3", "--bogus", "1"]) == 2

    def test_unknown_family_rejected(self):
        assert run(["family", "gen", "--family", "deg5", "--t", "1"]) == 2

    def test_text_mode_runs(self, capsys):
        code = run(
            ["--output", "text", "family", "gen", "--family", "deg3", "--t", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "560" in out


def test_import_keeps_int_str_limit():
    # importing the package must not change interpreter-wide state; only the
    # command-line entry point raises the int<->str conversion limit
    code = (
        "import sys; before = sys.get_int_max_str_digits(); "
        "import jacpairs, jacpairs.distinct; "
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
