"""Command-line surface: construct family curves, verify gluings, compute
Igusa invariants, run the distinguishing analyses, check the obstruction
records, and reproduce the full result suite.

Exit codes: 0 = all expectations met, 1 = an expectation failed,
2 = usage error.  Output is JSON (default) or text; text mode carries the
same information.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact.rings import GF, QQ
from .exact.serialize import field_to_json, poly_from_json, poly_to_json
from .families import FAMILY_IDS, family_sextic, family_spec
from .igusa.invariants import igusa_vector, weighted_equal


def _emit(args, payload: dict):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")


def _parse_scalar(F, text: str):
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--t {text} has a zero denominator") from None
    if F is QQ:
        return frac
    if frac.denominator % F.p == 0:
        raise ValueError(f"denominator of {text} not invertible mod {F.p}")
    return F.div(F.from_int(frac.numerator), F.from_int(frac.denominator))


def _field_of(args):
    return GF(args.p) if getattr(args, "p", None) is not None else QQ


def _cmd_family(args) -> int:
    spec = family_spec(args.family)
    F = _field_of(args)
    t = _parse_scalar(F, args.t)
    twist, sextic = family_sextic(spec, F, t)
    payload = {
        "family": spec.id,
        "t": args.t,
        "field": field_to_json(F),
        "twist": F.to_str(twist),
        "sextic": poly_to_json(sextic),
    }
    _emit(args, payload)
    return 0


def _cmd_glue(args) -> int:
    from .glue import verify_reconstruction

    spec = family_spec(args.family)
    report = verify_reconstruction(spec, args.p, args.t)
    _emit(args, report)
    return 0 if report["match"] else 1


def _read_poly(args, text: str):
    F = _field_of(args)
    coeffs = json.loads(text)
    return poly_from_json(coeffs, F)


def _cmd_igusa(args) -> int:
    F = _field_of(args)
    f = _read_poly(args, args.poly)
    vec = igusa_vector(f)
    names = ("J2", "J4", "J6", "J8", "J10")
    payload = {name: F.to_str(v) for name, v in zip(names, vec)}
    payload["field"] = field_to_json(F)
    if args.action == "equal":
        g = _read_poly(args, args.poly2)
        w = igusa_vector(g)
        payload = {
            "equal": weighted_equal(vec, w, F, geometric=args.geometric),
            "geometric": args.geometric,
            "field": field_to_json(F),
        }
    _emit(args, payload)
    return 0


def _cmd_distinct(args) -> int:
    from . import distinct

    spec = family_spec(args.family)
    if args.action == "prime-support":
        report = distinct.prime_support(spec)
        ok = report["match"]
    elif args.action == "charp":
        report = distinct.charp_analysis(spec, args.p)
        ok = report["pass"]
    else:
        report = distinct.full_scan(spec, args.p, args.ext)
        ok = report["match"]
    _emit(args, report)
    return 0 if ok else 1


def _cmd_obstruction(args) -> int:
    from .obstruction import square_condition_consistency, verify_obstruction

    report = {
        "square_condition": square_condition_consistency(args.degree),
        "points": verify_obstruction(args.degree),
    }
    ok = report["square_condition"]["pass"] and report["points"]["pass"]
    report["pass"] = ok
    _emit(args, report)
    return 0 if ok else 1


def _reproduce_checks():
    """The reproduction suite, as (label, callable -> (ok, summary))."""
    from . import distinct
    from .ellcurve import exhaustive_split_scan
    from .families import family_identity_check, symbolic_kappa_check
    from .glue import verify_reconstruction
    from .obstruction import verify_all

    checks = []

    def identities():
        ok = True
        detail = {}
        for fid in FAMILY_IDS:
            spec = family_spec(fid)
            rep = family_identity_check(spec)
            detail[fid] = rep["pass"]
            ok = ok and rep["pass"]
            if spec.kappa_halves is not None:
                rep = symbolic_kappa_check(spec)
                detail[fid + ":kappa"] = rep["pass"]
                ok = ok and rep["pass"]
        return ok, detail

    checks.append(("symbolic identities", identities))

    def supports():
        ok = True
        detail = {}
        for fid in ("deg3", "deg4", "deg7"):
            rep = distinct.prime_support(family_spec(fid))
            detail[fid] = rep["support"]
            ok = ok and rep["match"]
        return ok, detail

    checks.append(("resultant prime supports", supports))

    def charp():
        # each printed prime > 5 and each recorded exceptional p, and for
        # deg3 the two primes 7 and 11 outside its support, where the locus
        # must come out empty
        ok = True
        detail = {}
        for fid in sorted(FAMILY_IDS):
            spec = family_spec(fid)
            ps = {p for p in spec.printed_primes if p > 5} | {e.p for e in spec.exceptional}
            if fid == "deg3":
                ps |= {7, 11}
            for p in sorted(ps):
                rep = distinct.charp_analysis(spec, p)
                detail[f"{fid}@{p}"] = rep["locus"] if rep["locus_degree"] else "1"
                ok = ok and rep["pass"]
        return ok, detail

    checks.append(("characteristic-p loci", charp))

    def scans():
        ok = True
        detail = {}
        for fid, p in (
            ("howe2", 11),
            ("deg3", 13),
            ("deg3", 17),
            ("deg4", 23),
            ("deg7", 13),
        ):
            for ext in (1, 2):
                rep = distinct.full_scan(family_spec(fid), p, ext)
                detail[f"{fid}@{p}^{ext}"] = len(rep["equal_geometric"])
                ok = ok and rep["match"]
        return ok, detail

    checks.append(("exhaustive scans", scans))

    def reconstruction():
        import random

        rng = random.Random(2026)
        from .exact.integers import is_prime

        ok = True
        detail = {}
        for fid in FAMILY_IDS:
            spec = family_spec(fid)
            done = 0
            while done < 5:
                p = rng.randrange(51, 1 << 20)
                if not is_prime(p):
                    continue
                t = rng.randrange(1, p)
                try:
                    rep = verify_reconstruction(spec, p, t)
                except ValueError:
                    continue
                ok = ok and rep["match"]
                done += 1
            detail[fid] = done
        return ok, detail

    checks.append(("gluing reconstruction", reconstruction))

    def obstructions():
        rep = verify_all()
        return rep["pass"], {
            n: rep[n]["points"]["pass"] for n in rep if isinstance(n, int)
        }

    checks.append(("obstruction records", obstructions))

    def cubic_split():
        ok = True
        detail = {}
        for p in (5, 7, 11):
            rep = exhaustive_split_scan(p)
            detail[p] = rep["separable_cubics"]
            ok = ok and rep["pass"]
        return ok, detail

    checks.append(("cubic splitting criterion", cubic_split))
    return checks


def _cmd_reproduce(args) -> int:
    results = []
    ok = True
    for label, fn in _reproduce_checks():
        passed, detail = fn()
        results.append({"check": label, "pass": passed, "detail": detail})
        ok = ok and passed
    payload = {"pass": ok, "checks": results}
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for entry in results:
            mark = "ok" if entry["pass"] else "FAIL"
            print(f"[{mark:>4}] {entry['check']}: {entry['detail']}")
        print(f"overall: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacpairs",
        description="genus-2 curve pairs with isomorphic unpolarized Jacobians",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("family", help="construct family curves")
    fam_sub = p_fam.add_subparsers(dest="action", required=True)
    g = fam_sub.add_parser("gen", help="specialize a family at a parameter")
    g.add_argument("--family", choices=FAMILY_IDS, required=True)
    g.add_argument("--t", required=True, help="parameter (exact rational)")
    g.add_argument("--p", type=int, help="prime field (default: rationals)")
    g.set_defaults(func=_cmd_family)

    p_glue = sub.add_parser("glue", help="2-torsion gluing checks")
    glue_sub = p_glue.add_subparsers(dest="action", required=True)
    v = glue_sub.add_parser("verify", help="reconstruct a family pair by gluing")
    v.add_argument("--family", choices=FAMILY_IDS, required=True)
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--t", type=int, required=True)
    v.set_defaults(func=_cmd_glue)

    p_ig = sub.add_parser("igusa", help="Igusa invariants of sextics")
    ig_sub = p_ig.add_subparsers(dest="action", required=True)
    inv = ig_sub.add_parser("invariants", help="invariants of one sextic")
    inv.add_argument("--poly", required=True, help="JSON coefficient array")
    inv.add_argument("--p", type=int, help="prime field (default: rationals)")
    inv.set_defaults(func=_cmd_igusa)
    eq = ig_sub.add_parser("equal", help="weighted equality of two sextics")
    eq.add_argument("--poly", required=True)
    eq.add_argument("--poly2", required=True)
    eq.add_argument("--p", type=int)
    eq.add_argument("--geometric", action="store_true")
    eq.set_defaults(func=_cmd_igusa)

    p_d = sub.add_parser("distinct", help="Igusa distinguishing analyses")
    d_sub = p_d.add_subparsers(dest="action", required=True)
    ps = d_sub.add_parser("prime-support", help="resultant prime support")
    ps.add_argument("--family", choices=FAMILY_IDS, required=True)
    ps.set_defaults(func=_cmd_distinct)
    cp = d_sub.add_parser("charp", help="characteristic-p common zero locus")
    cp.add_argument("--family", choices=FAMILY_IDS, required=True)
    cp.add_argument("--p", type=int, required=True)
    cp.set_defaults(func=_cmd_distinct)
    sc = d_sub.add_parser("scan", help="exhaustive parameter scan")
    sc.add_argument("--family", choices=FAMILY_IDS, required=True)
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--ext", type=int, default=1, choices=(1, 2))
    sc.set_defaults(func=_cmd_distinct)

    p_o = sub.add_parser("obstruction", help="higher-degree obstruction records")
    o_sub = p_o.add_subparsers(dest="action", required=True)
    ov = o_sub.add_parser("verify", help="verify one obstruction record")
    ov.add_argument("--degree", type=int, required=True)
    ov.set_defaults(func=_cmd_obstruction)

    p_r = sub.add_parser("reproduce", help="run the full result suite")
    p_r.add_argument("--all", action="store_true", help="run every check")
    p_r.set_defaults(func=_cmd_reproduce)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    # Resultants in the distinguishing pipeline reach millions of digits; the
    # default int<->str conversion cap would make serializing them fail.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(20_000_000)
    sys.exit(run())


if __name__ == "__main__":
    main()
