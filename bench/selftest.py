"""Self-tests of the benchmark: the correctness gate can fail, a raising
case counts as failed, and the inputs are what they claim to be.

    python3 bench/selftest.py

Each gate test runs ``run.py`` with ``--seconds 1`` (one pass) and a
``--tamper`` setting that breaks one expectation.  About a minute in all.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def test_correct_run_passes():
    code, res = _run("--workload", "charp")
    assert code == 0 and res["correct"] and res["failed"] == 0, res
    assert res["attempted"] == 29, res


def test_wrong_support_list_fails():
    code, res = _run("--workload", "rational", "--tamper", "support")
    assert code == 1 and not res["correct"], res
    assert res["attempted"] == 13 and res["failed"] == 1, res


def test_flipped_match_fails():
    code, res = _run("--workload", "reconstruct", "--tamper", "match")
    assert code == 1 and not res["correct"], res
    assert res["attempted"] == 100 and res["failed"] == 100, res


def test_raising_case_counts_as_failed():
    code, res = _run("--workload", "reconstruct", "--tamper", "raise")
    assert code == 1 and not res["correct"], res
    assert res["attempted"] == 101 and res["failed"] == 1, res


def test_without_sources_no_result():
    bare = BENCH / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        code, res = _run("--workload", "charp", root=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and res is None, (code, res)


def test_case_classes_match_the_program():
    """The benchmark's own F_p cubic code classifies every generated case
    as the program's splitting_degrees does."""
    from math import lcm

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import inputs
    from jacpairs.exact.rings import GF
    from jacpairs.exact.roots import splitting_degrees
    from jacpairs.families import FAMILY_IDS, eval_poly, family_spec, weierstrass_at

    specs = [family_spec(fid) for fid in FAMILY_IDS]
    cases = inputs.reconstruct_cases(specs, 7)
    assert len(cases) == 100 and len({c["p"] for c in cases}) == 100
    for c in cases:
        spec = family_spec(c["family"])
        F = GF(c["p"])
        s = eval_poly(spec.s_of_t, F, c["t"])
        m = 1
        for prime in (False, True):
            degrees = splitting_degrees(weierstrass_at(spec, F, s, prime=prime).cubic)
            m = lcm(m, *degrees)
        assert (c["p"] % 3, m) == (c["p_mod_3"], c["m"]), c
    assert inputs.reconstruct_cases(specs, 7) == cases


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
