"""CLI surface tests: grammar, JSON schemas, exit codes."""
import json
import shlex
from pathlib import Path

import pytest

from jacpairs import cli
from jacpairs.cli import run
from jacpairs.families import FAMILY_IDS, family_spec

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

    def test_zero_denominator_is_error(self, capsys):
        code = run(["family", "gen", "--family", "howe2", "--t", "1/0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --t 1/0 has a zero denominator\n"

    def test_zero_prime_is_error(self, capsys):
        # --p 0 names no prime field; it must not fall back to Q
        code = run(["family", "gen", "--family", "deg3", "--t", "3", "--p", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "0 is not prime" in captured.err

    def test_prime_above_certified_range_is_error(self, capsys):
        # primality is certified only below 2**64; a larger --p is refused
        code = run(
            ["family", "gen", "--family", "deg3", "--t", "3", "--p", str(2**64 + 13)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "certified only below 2**64" in captured.err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["igusa", "invariants", "--poly", "5"],
            ["igusa", "invariants", "--poly", "[[1],2,3,4,5,6,7]", "--p", "101"],
        ],
    )
    def test_malformed_poly_is_usage_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: expected")

    def test_zero_denominator_coefficient_is_usage_error(self, capsys):
        poly = json.dumps(["1/0", 0, 1, 0, 0, 0, 1])
        code = run(["igusa", "invariants", "--poly", poly])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: coefficient 1/0 has a zero denominator\n"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["distinct", "charp", "--family", "deg3", "--p", "3"],
            ["distinct", "charp", "--family", "deg3", "--p", "5"],
            ["distinct", "scan", "--family", "deg3", "--p", "5"],
        ],
    )
    def test_small_characteristic_is_usage_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: p > 5 required\n"


class TestObstruction:
    def test_verify(self, capsys):
        code, payload = _run_json(
            capsys, ["obstruction", "verify", "--degree", "16"]
        )
        assert code == 0
        assert payload["points"]["recorded_points"] == 3

    def test_unrecorded_degree_is_usage_error(self, capsys):
        # 7 is a construction degree, not an obstruction record
        code = run(["obstruction", "verify", "--degree", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "recorded degrees: 5, 6, 8, 9, 10, 12, 13, 16, 18, 25" in captured.err


class TestGlue:
    def test_verify(self, capsys):
        code, payload = _run_json(
            capsys,
            ["glue", "verify", "--family", "deg3", "--p", "101", "--t", "3"],
        )
        assert code == 0
        assert payload["match"]
        assert payload["classesFound"] == ["C_-t", "C_t"]


class TestReproduce:
    CHECKS = [
        "symbolic identities",
        "resultant prime supports",
        "characteristic-p loci",
        "exhaustive scans",
        "gluing reconstruction",
        "obstruction records",
        "cubic splitting criterion",
    ]

    def test_all_checks_pass(self, capsys):
        code, payload = _run_json(capsys, ["--output", "json", "reproduce", "--all"])
        assert code == 0 and payload["pass"] is True
        assert [c["check"] for c in payload["checks"]] == self.CHECKS
        assert all(c["pass"] is True for c in payload["checks"])
        charp = payload["checks"][self.CHECKS.index("characteristic-p loci")]["detail"]
        printed = [
            f"{fid}@{p}" for fid in FAMILY_IDS for p in family_spec(fid).printed_primes if p > 5
        ]
        assert [case for case in printed if case not in charp] == []

    def test_a_failing_check_fails_the_run(self, capsys, monkeypatch):
        checks = [("passing", lambda: (True, {})), ("failing", lambda: (False, {"forced": 1}))]
        monkeypatch.setattr(cli, "_reproduce_checks", lambda: checks)
        code, payload = _run_json(capsys, ["--output", "json", "reproduce", "--all"])
        assert code == 1
        assert payload["pass"] is False
        assert [(c["check"], c["pass"]) for c in payload["checks"]] == [
            ("passing", True),
            ("failing", False),
        ]


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
