#!/usr/bin/env python3
"""Layer and end-to-end timings of one jacpairs checkout, as one JSON record.

    python3 tools/bench.py --out BENCH_18.json --baseline ../parent-checkout
    python3 tools/bench.py --out now.json

Layers: the arithmetic the checks run on, each called on fixed inputs in a
fresh interpreter over the checkout's sources.  After one warm-up call (so
the field and modulus caches are built; `_default_modulus` is timed
uncached), calls are timed in 7 batches of at least 5 ms each.  Three
interpreters run per checkout, taking turns with the baseline's, and the
record keeps the median seconds per call over them, raw and gauged.  The
gauge is the benchmark's own loop (``bench/workload.gauge_s``), timed in
the interpreter just before and just after each layer; a gauged time is
raw seconds * ``NOMINAL_GAUGE_S`` / the mean of those two gauges, so the
host's drift between interpreters cancels as it does in ``bench/run.py``.

End to end, each as a subprocess of the checkout: the last JSON line of
``bench/run.py --workload all --seconds 12`` (gauged times), the median
wall time of three ``jacpairs reproduce --all`` runs, and the wall time of
one Tier-1 run with its pytest summary line.

With ``--baseline`` that checkout is measured first, then the one holding
this script, and the record holds both ("baseline", "checkout"): a speed
claim compares such a pair, taken on one host one after the other.  The
host's speed drifts, so raw times are indicative only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCHES = 7
MIN_BATCH_S = 0.005
LAYER_ROUNDS = 3
BENCH_SECONDS = 12  # bench/run.py --seconds, per workload


def _median_call_s(fn):
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _layer_cases():
    """name -> zero-argument call, on inputs fixed here."""
    import random
    from fractions import Fraction
    from itertools import permutations
    from math import lcm

    from jacpairs.distinct import charp_analysis
    from jacpairs.ellcurve import exhaustive_split_scan, odd_degree_point_search
    from jacpairs.exact.poly import Poly, gcd_field, poly_divmod, primitive_part_int, resultant
    from jacpairs.exact.rings import GF, ZZ, GFext, ResidueRing, _default_modulus
    from jacpairs.exact.roots import (
        distinct_degree_factorization,
        irreducible_factors,
        roots,
        splitting_degrees,
        splitting_field,
    )
    from jacpairs.families import (
        FAMILY_IDS,
        _x0_table,
        curve_pair,
        eval_poly,
        family_identity_check,
        family_spec,
        weierstrass_at,
    )
    from jacpairs.glue import GlueError, GlueInput, glue_p10, verify_reconstruction
    from jacpairs.igusa.invariants import igusa_vector, r_polynomials
    from jacpairs.obstruction import RECORDS, square_condition_consistency

    rng = random.Random(20261019)
    p = 7919
    F = GF(p)
    K2, K3, K6 = GFext(p, 2), GFext(p, 3), GFext(p, 6)
    a, b = (tuple(rng.randrange(1, p) for _ in range(3)) for _ in range(2))
    quad = Poly.from_ints(F, [1, 0, 1])  # -1 is a non-residue mod 7919
    cubic = Poly.from_ints(F, [3, 1, 0, 1])  # irreducible over F_7919
    sextic = Poly.from_ints(F, [3, 1, 0, 0, 0, 0, 1])  # irreducible over F_7919
    x = Poly.gen(F)
    split_2 = (x - 5) * quad
    roots_6 = (x - 5) * quad * cubic * sextic
    for f, m in ((split_2, 2), (cubic, 3)):
        assert splitting_field(F, f)[0].degree == m
    assert len(roots(roots_6, K6)) == 12
    linear_10 = Poly.one(F)
    for c in range(1, 11):
        linear_10 = linear_10 * (x - c)

    def primitive(f):
        """The primitive part in Z[t] of f over Q[t] or Z[t]: r_polynomials
        returns either, depending on the checkout."""
        den = lcm(*(Fraction(c).denominator for c in f.coeffs))
        return primitive_part_int(Poly(ZZ, [int(c * den) for c in f.coeffs]))[1]

    def int_poly(deg, digits):
        return Poly(ZZ, [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(deg + 1)])

    res_a, res_b = int_poly(12, 20), int_poly(10, 20)
    even = Poly.from_ints(F, [7, 0, 5, 0, 3, 0, 1])
    dense = Poly.from_ints(F, [3, 1, 4, 1, 5, 9, 2])
    a2, b2 = (tuple(rng.randrange(1, p) for _ in range(2)) for _ in range(2))
    dense_2 = Poly(K2, [tuple(rng.randrange(1, p) for _ in range(2)) for _ in range(7)])
    # drawn after every input above, so that none of theirs changes
    wide_a, wide_b = int_poly(120, 20), int_poly(80, 20)
    # prime_support takes its resultants on the halves A of the even A(t^2)
    r_deg7 = r_polynomials(family_spec("deg7"))
    r2, r5 = (Poly(ZZ, primitive(r_deg7[name]).coeffs[::2]) for name in ("R2", "R5"))

    # glue_p10 on the first pairing that glues, for howe2 at p = 1009, t = 5
    spec = family_spec("howe2")
    G = GF(1009)
    s = eval_poly(spec.s_of_t, G, G.from_int(5))
    cubics = [weierstrass_at(spec, G, s, prime=prime).cubic for prime in (False, True)]
    K, (rts_f, rts_g) = splitting_field(G, *cubics)
    cf, cg = (c.map_coeffs(K, K.from_base) for c in cubics)
    for perm in sorted(permutations(range(3))):
        glue_input = GlueInput(cf, cg, tuple(rts_f), tuple(rts_g[i] for i in perm))
        try:
            glue_p10(glue_input)
            break
        except GlueError:
            continue
    else:
        raise RuntimeError("no pairing glues")
    deg3, deg4, deg7 = (family_spec(fid) for fid in ("deg3", "deg4", "deg7"))
    # drawn after every input above: the obstruction curve O_5
    o5 = RECORDS[5].curve
    # drawn after every input above: every parameter of GF(23^2)
    K23 = GFext(23, 2)
    params_23 = list(K23.elements())
    # built after every input above: the four family specs
    specs = [family_spec(fid) for fid in FAMILY_IDS]

    def gf_poly(deg):
        return Poly(F, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

    # drawn after every input above: dense polynomials over F_7919
    mul_a, mul_b = gf_poly(150), gf_poly(150)
    div_a, div_b = gf_poly(300), gf_poly(150)
    gcd_a, gcd_b = gf_poly(120), gf_poly(80)
    # drawn after every input above: two residues modulo the cubic over F_7919
    R3 = ResidueRing(F, cubic.coeffs)
    rr_a, rr_b = (R3.from_coeffs([rng.randrange(p) for _ in range(3)]) for _ in range(2))
    # howe2 at p = 1009, t = 2: both cubics split over F_p and all six pairings glue
    howe2 = family_spec("howe2")
    split_rep = verify_reconstruction(howe2, 1009, 2)
    if split_rep["graphsTried"] != 6 or any("error" in d for d in split_rep["diagnostics"]):
        raise RuntimeError("howe2@1009:t=2 does not glue six pairings")
    # built after every input above: the two 2-torsion cubics of deg3 at
    # p = 522719, t = 454676, both irreducible (m = 3, p = 2 mod 3)
    P = GF(522719)
    s_big = eval_poly(deg3.s_of_t, P, P.from_int(454676))
    big_cubics = [weierstrass_at(deg3, P, s_big, prime=prime).cubic for prime in (False, True)]

    def splitting_field_cold():
        GFext.cache_clear()
        _default_modulus.cache_clear()
        return splitting_field(P, *big_cubics)

    if any(splitting_degrees(f) != [3] for f in big_cubics):
        raise RuntimeError("a cubic of deg3@522719:t=454676 is not irreducible")

    return {
        "ExtField.mul[7919^2]": lambda: K2.mul(a2, b2),
        "ExtField.inv[7919^2]": lambda: K2.inv(a2),
        "ExtField.mul[7919^3]": lambda: K3.mul(a, b),
        "ExtField.inv[7919^3]": lambda: K3.inv(a),
        "ExtField.frobenius[7919^3]": lambda: K3.frobenius(a),
        "_default_modulus[1013^3]": lambda: _default_modulus.__wrapped__(1013, 3),
        "splitting_field[cubic, roots in GF(7919^2)]": lambda: splitting_field(F, split_2),
        "splitting_field[cubic, roots in GF(7919^3)]": lambda: splitting_field(F, cubic),
        "roots[degree 12 in GF(7919^6)]": lambda: roots(roots_6, K6),
        "irreducible_factors[(x-1)...(x-10) over F_7919]": lambda: irreducible_factors(linear_10),
        "distinct_degree_factorization[degree 12 over F_7919]": lambda: (
            distinct_degree_factorization(roots_6)
        ),
        "poly.resultant[Z, degrees 12 and 10, 20 digits]": lambda: resultant(res_a, res_b),
        "poly.resultant[Z, 120 x 80, 20 digits]": lambda: resultant(wide_a, wide_b),
        "poly.resultant[Z, deg7 prime support R2 x R5]": lambda: resultant(r2, r5),
        "igusa_vector[even sextic over F_7919]": lambda: igusa_vector(even),
        "igusa_vector[dense sextic over F_7919]": lambda: igusa_vector(dense),
        "igusa_vector[dense sextic over GF(7919^2)]": lambda: igusa_vector(dense_2),
        "glue_p10[howe2@1009:t=5]": lambda: glue_p10(glue_input),
        "verify_reconstruction[deg3@522719:t=454676]": lambda: verify_reconstruction(
            deg3, 522719, 454676
        ),
        "charp_analysis[deg7@571603]": lambda: charp_analysis(deg7, 571603),
        "charp_analysis[deg4@23]": lambda: charp_analysis(deg4, 23),
        "odd_degree_point_search[O_5, bound 1000]": lambda: odd_degree_point_search(o5, 1000),
        "square_condition_consistency[18]": lambda: square_condition_consistency(18),
        "r_polynomials[deg4]": lambda: r_polynomials(deg4),
        "x0_table[uncached]": lambda: _x0_table.__wrapped__(),
        "curve_pair[deg4, every t in GF(23^2)]": lambda: [curve_pair(deg4, K23, t) for t in params_23],
        "family_identity_check[all four]": lambda: [family_identity_check(spec) for spec in specs],
        "exhaustive_split_scan[11]": lambda: exhaustive_split_scan(11),
        "Poly.__mul__[GF(7919), 150 x 150]": lambda: mul_a * mul_b,
        "poly_divmod[GF(7919), 300 / 150]": lambda: poly_divmod(div_a, div_b),
        "gcd_field[GF(7919), degree 120 and 80]": lambda: gcd_field(gcd_a, gcd_b),
        "verify_reconstruction[howe2@1009:t=2]": lambda: verify_reconstruction(howe2, 1009, 2),
        "ResidueRing.mul[F_7919, cubic modulus]": lambda: R3.mul(rr_a, rr_b),
        "splitting_field[deg3@522719 cubic pair, cold]": splitting_field_cold,
    }


def _layers():
    """name -> {"raw_s", "gauge_s", "gauged_s"} for each layer case."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import NOMINAL_GAUGE_S
    from workload import gauge_s

    out = {}
    for name, fn in _layer_cases().items():
        before = gauge_s(time.perf_counter)
        raw = _median_call_s(fn)
        gauge = (before + gauge_s(time.perf_counter)) / 2
        out[name] = {"raw_s": raw, "gauge_s": gauge, "gauged_s": raw * NOMINAL_GAUGE_S / gauge}
    return out


def _run(cmd, root, **kw):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, **kw)
    return proc, time.perf_counter() - t0


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _src_sha256(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root / "src").as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _layer_rounds(roots: dict) -> dict:
    """label -> figure ("raw_s", "gauge_s", "gauged_s") -> layer name ->
    median over LAYER_ROUNDS interpreters per checkout, the checkouts
    taking turns."""
    rounds = {label: [] for label in roots}
    for _ in range(LAYER_ROUNDS):
        for label, root in roots.items():
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child-layers"]
            proc, _ = _run(cmd, root)
            if proc.returncode != 0:
                raise RuntimeError(f"layer timings failed:\n{proc.stderr[-2000:]}")
            rounds[label].append(json.loads(_last_line(proc.stdout)))
    return {
        label: {
            figure: {name: statistics.median(r[name][figure] for r in runs) for name in runs[0]}
            for figure in ("raw_s", "gauge_s", "gauged_s")
        }
        for label, runs in rounds.items()
    }


def _end_to_end(root: Path) -> dict:
    py = sys.executable
    cmd = [py, "bench/run.py", "--workload", "all", "--seed", "1", "--seconds", str(BENCH_SECONDS)]
    proc, bench_s = _run(cmd, root)
    bench = json.loads(_last_line(proc.stdout)) if proc.returncode in (0, 1) else None

    reproduce = [py, "-c", "from jacpairs.cli import main; main()", "reproduce", "--all"]
    runs = [_run(reproduce, root) for _ in range(3)]
    tier1, tier1_s = _run([py, "-m", "pytest", "-q", "-p", "no:cacheprovider"], root)
    return {
        "bench_all": {"exit": proc.returncode, "wall_s": bench_s, "result": bench},
        "reproduce_all": {
            "exit": [r.returncode for r, _ in runs],
            "median_wall_s": statistics.median(s for _, s in runs),
        },
        "tier1": {"exit": tier1.returncode, "wall_s": tier1_s, "summary": _last_line(tier1.stdout)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", help="the JSON record to write")
    parser.add_argument("--baseline", type=Path, help="another checkout, timed first")
    parser.add_argument("--child-layers", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_layers:
        print(json.dumps(_layers()))
        return 0
    if not args.out:
        parser.error("--out is required")
    roots = {"checkout": ROOT}
    if args.baseline:
        roots = {"baseline": args.baseline.resolve(), **roots}
    record = {
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "seconds_per_workload": BENCH_SECONDS,
    }
    layers = _layer_rounds(roots)
    for label, root in roots.items():
        record[label] = {
            "src_sha256": _src_sha256(root),
            "layers_median_s": layers[label]["raw_s"],
            "layers_gauged_median_s": layers[label]["gauged_s"],
            "layers_gauge_median_s": layers[label]["gauge_s"],
            **_end_to_end(root),
        }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
