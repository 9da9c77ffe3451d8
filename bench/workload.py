"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass imports the
program, builds the four family specs and the seeded inputs (set-up), then
calls the program's public functions one case at a time (the timed phase),
then checks every verdict against ``expected.py`` (untimed).  It prints one
JSON object on stdout.

Nothing is warmed before the timed phase: the finite-field caches and the
modulus search start cold, as they do for every CLI call.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time

import expected
import inputs
from tracing import Tracer

# Program modules each workload calls into; imported during set-up.
IMPORTS = {
    "reconstruct": ("jacpairs.families", "jacpairs.glue"),
    "charp": ("jacpairs.families", "jacpairs.distinct", "jacpairs.ellcurve"),
    "rational": (
        "jacpairs.families",
        "jacpairs.distinct",
        "jacpairs.obstruction",
        "jacpairs.kernels",
        "jacpairs.exact.poly",
        "jacpairs.exact.rings",
    ),
}

TAMPERS = ("none", "match", "raise", "support")
GAUGE_STEPS = 2000


class Case:
    """One verdict: ``run`` makes the public call, ``check`` judges its
    report and returns an error string, or None when it is correct."""

    __slots__ = ("label", "run", "check", "info")

    def __init__(self, label, run, check, info=None):
        self.label = label
        self.run = run
        self.check = check
        self.info = info or {}


def _flag(report, key):
    return None if report[key] is True else f"{key} is {report[key]!r}"


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def reconstruct_cases(mods, specs, seed, tamper):
    glue = mods["jacpairs.glue"]
    cases = inputs.reconstruct_cases(list(specs.values()), seed)
    if tamper == "raise":
        # p = 5 is outside the verifier's domain, so the call raises
        first = cases[0]
        cases.insert(0, dict(first, p=5, t=1, p_mod_3=2))
    want_match = tamper != "match"

    def check(report):
        if report["match"] is not want_match:
            return f"match is {report['match']!r}"
        if report["classesFound"] != expected.RECONSTRUCTED_CLASSES:
            return f"classesFound is {report['classesFound']!r}"
        for entry in report["diagnostics"]:
            if entry.get("classes") and not (entry["A_in_base"] and entry["B_in_base"]):
                return f"pairing {entry['pairing']} produced a class without descent"
        return None

    out = []
    for c in cases:
        spec, p, t = specs[c["family"]], c["p"], c["t"]
        out.append(
            Case(
                f"{spec.id}@{p}:t={t}",
                lambda spec=spec, p=p, t=t: glue.verify_reconstruction(spec, p, t),
                check,
                c,
            )
        )
    return out


# ---------------------------------------------------------------------------
# charp: the characteristic-p checks of ``jacpairs reproduce``
# ---------------------------------------------------------------------------


def charp_cases(mods, specs, seed, tamper):
    distinct = mods["jacpairs.distinct"]
    ellcurve = mods["jacpairs.ellcurve"]
    out = []
    for (fid, p), (locus, degree) in expected.CHARP.items():

        def check(report, locus=locus, degree=degree):
            if report["locus_degree"] != degree:
                return f"locus_degree {report['locus_degree']} != {degree}"
            if report["locus"] != locus:
                return f"locus {report['locus']} != {locus}"
            return _flag(report, "pass")

        out.append(
            Case(
                f"charp {fid}@{p}",
                lambda spec=specs[fid], p=p: distinct.charp_analysis(spec, p),
                check,
            )
        )
    for (fid, p, ext), counts in expected.SCANS.items():

        def check(report, counts=counts):
            got = (
                report["scanned"],
                len(report["equal_geometric"]),
                len(report["equal_base"]),
            )
            if got != counts:
                return f"(scanned, equal_geometric, equal_base) {got} != {counts}"
            return _flag(report, "match")

        out.append(
            Case(
                f"scan {fid}@{p}^{ext}",
                lambda spec=specs[fid], p=p, ext=ext: distinct.full_scan(spec, p, ext),
                check,
            )
        )
    for p in expected.SPLIT_SCAN_PRIMES:
        total, counts = expected.split_scan_counts(p)

        def check(report, total=total, counts=counts):
            got = (report["separable_cubics"], report["root_counts"])
            if got != (total, counts):
                return f"(separable_cubics, root_counts) {got} != {(total, counts)}"
            return _flag(report, "pass")

        out.append(
            Case(f"split scan {p}", lambda p=p: ellcurve.exhaustive_split_scan(p), check)
        )
    return out


# ---------------------------------------------------------------------------
# rational: everything over Q and Z
# ---------------------------------------------------------------------------


def rational_cases(mods, specs, seed, tamper):
    families = mods["jacpairs.families"]
    distinct = mods["jacpairs.distinct"]
    obstruction = mods["jacpairs.obstruction"]
    kernels = mods["jacpairs.kernels"]
    poly = mods["jacpairs.exact.poly"]
    rings = mods["jacpairs.exact.rings"]

    def passed(report):
        return _flag(report, "pass")

    out = []
    for spec in specs.values():
        fid = spec.id
        out.append(
            Case(f"identities {fid}", lambda spec=spec: families.family_identity_check(spec), passed)
        )
        if spec.kappa_halves is not None:
            out.append(
                Case(f"kappa {fid}", lambda spec=spec: families.symbolic_kappa_check(spec), passed)
            )
    for fid, digits in expected.GCD_DIGITS.items():
        support = sorted(specs[fid].printed_primes)
        if tamper == "support" and fid == "deg7":
            support = sorted(support + [101])

        def check(report, support=support, digits=digits):
            if report["support"] != support or report["cofactor"] != 1:
                return f"support {report['support']} (cofactor {report['cofactor']}) != {support}"
            if report["gcd_digits"] != digits:
                return f"gcd_digits {report['gcd_digits']} != {digits}"
            return _flag(report, "match")

        out.append(
            Case(
                f"prime support {fid}",
                lambda spec=specs[fid]: distinct.prime_support(spec),
                check,
            )
        )

    def obstruction_check(report):
        degrees = tuple(sorted(k for k in report if isinstance(k, int)))
        if degrees != expected.OBSTRUCTION_DEGREES:
            return f"degrees {degrees} != {expected.OBSTRUCTION_DEGREES}"
        for n in degrees:
            for part in ("square_condition", "points"):
                if report[n][part]["pass"] is not True:
                    return f"degree {n}: {part} failed"
        return _flag(report, "pass")

    out.append(Case("obstructions", lambda: obstruction.verify_all(), obstruction_check))

    check_primes = inputs.check_primes()
    for shape, (a_coeffs, b_coeffs) in inputs.resultant_pairs(seed).items():
        a = poly.Poly(rings.ZZ, a_coeffs)
        b = poly.Poly(rings.ZZ, b_coeffs)

        def check(value, a_coeffs=a_coeffs, b_coeffs=b_coeffs):
            # independent of kernels: the resultant over GF(q), q ~ 2^61
            for q in check_primes:
                if a_coeffs[-1] % q == 0 or b_coeffs[-1] % q == 0:
                    return f"leading coefficient divisible by check prime {q}"
                F = rings.GF(q)
                aq = poly.Poly(F, [F.from_int(c) for c in a_coeffs])
                bq = poly.Poly(F, [F.from_int(c) for c in b_coeffs])
                if value % q != poly.resultant(aq, bq):
                    return f"resultant disagrees mod {q}"
            return None

        out.append(
            Case(
                f"resultant {shape} {len(a_coeffs) - 1}x{len(b_coeffs) - 1}",
                lambda a=a, b=b: kernels.resultant_int_crt(a, b),
                check,
            )
        )
    return out


WORKLOADS = {
    "reconstruct": reconstruct_cases,
    "charp": charp_cases,
    "rational": rational_cases,
}


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def _glue_counts(reports):
    tried = useful = 0
    errors = {}
    for report in reports:
        if not isinstance(report, dict) or "graphsTried" not in report:
            continue
        tried += report["graphsTried"]
        for entry in report["diagnostics"]:
            if entry.get("classes"):
                useful += 1
            if "error" in entry:
                key = f"glue.errors.{entry['error']}"
                errors[key] = errors.get(key, 0) + 1
    out = {
        "glue.pairings_tried": tried,
        "glue.pairings_useful_ratio": useful / tried if tried else 0.0,
    }
    out.update(sorted(errors.items()))
    return out


def gauge_s(clock) -> float:
    """Time of a fixed loop, in seconds: how fast the host runs Python code
    at this moment.  The loop multiplies coefficient tuples mod a small
    prime, the kind of work most of the program does; its time tracks the
    host's drifting speed more closely than a plain integer loop does.
    Taken between cases, outside every latency, with the cyclic collector
    paused because a collection's cost depends on the heap, not the host."""
    p = 8191
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    a = (1, 2, 3)
    for i in range(GAUGE_STEPS):
        b = (i % p, i * 7 % p, i * 13 % p)
        w = [0] * 5
        for x in range(3):
            for y in range(3):
                w[x + y] += a[x] * b[y]
        a = (w[0] % p, (w[1] + w[3]) % p, (w[2] + w[4]) % p)
    elapsed = clock() - t0
    if gc_was_enabled:
        gc.enable()
    return elapsed


def run_pass(args) -> dict:
    mods = {name: importlib.import_module(name) for name in IMPORTS[args.workload]}
    families = mods["jacpairs.families"]
    specs = {fid: families.family_spec(fid) for fid in families.FAMILY_IDS}
    cases = WORKLOADS[args.workload](mods, specs, args.seed, args.tamper)
    # both clocks are CLOCK_MONOTONIC, shared by all processes
    setup_s = time.monotonic() - args.spawned_at
    clock = time.perf_counter
    gauges = [gauge_s(clock)]
    result = {"setup_s": setup_s, "setup_gauge_s": gauges[0], "cases": len(cases)}
    if args.setup_only:
        return result

    tracer = Tracer() if args.spans_out else None
    if tracer is not None:
        tracer.install()
    outputs = []
    latencies = []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        t0 = clock()
        try:
            out = case.run()
        except Exception as exc:  # a raising case is a failed verdict
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
        gauges.append(gauge_s(clock))
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False

    failures = []
    for case, out in zip(cases, outputs):
        if isinstance(out, Exception):
            why = f"raised {type(out).__name__}: {out}"
        else:
            try:
                why = case.check(out)
            except Exception as exc:  # a malformed report fails its verdict
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failures.append({"case": case.label, "why": why})

    result.update(
        wall_s=sum(latencies),
        latencies_s=latencies,
        gauges_s=gauges,
        maxrss_mb=maxrss_mb,
        failures=failures,
    )
    if args.workload == "reconstruct":
        result["rows"] = [
            {
                "family": case.info["family"],
                "p": case.info["p"],
                "p_mod_3": case.info["p_mod_3"],
                "m": case.info["m"],
                "graphsTried": out.get("graphsTried") if isinstance(out, dict) else None,
                "latency_ms": lat * 1000,
            }
            for case, out, lat in zip(cases, outputs, latencies)
        ]
    if tracer is not None:
        layers = tracer.layer_metrics(result["wall_s"])
        info = sys.modules["jacpairs.exact.rings"].GFext.cache_info()
        lookups = info.hits + info.misses
        layers["rings.GFext.calls"] = lookups
        layers["rings.GFext.hit_ratio"] = info.hits / lookups if lookups else 0.0
        layers.update(_glue_counts(outputs))
        result["layers"] = layers
        tracer.write_spans(args.spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="trace the pass and write its spans here")
    parser.add_argument("--tamper", choices=TAMPERS, default="none")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
