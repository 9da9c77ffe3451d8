"""Deciding when the two curves of a family are distinguished by their Igusa
invariants.

Over Q the weighted differences R2, R3, R5 have no common root on the valid
parameter locus, so the pair C_t, C_{-t} is always distinguished; the
characteristics where this can fail are exactly the primes dividing
gcd(Res(R2, R3), Res(R2, R5)), resultants of the primitive Z[t] parts
taken exactly over Z by the subresultant PRS.  For each such
characteristic this module recomputes the common zero locus from scratch
over F_p, verifies the printed exceptional loci and representative curves,
and can exhaustively scan all valid parameters over F_p or F_{p^2}.
"""
from __future__ import annotations

from functools import partial
from math import gcd as int_gcd

from .exact.poly import (
    Poly,
    gcd_field,
    poly_divmod,
    radical,
    rational_poly_to_primitive,
    resultant,
)
from .exact.integers import trial_division
from .exact.rings import GF, GFext
from .exact.roots import irreducible_factors, roots, splitting_field
from .families import FamilySpec, curve_pair, scalar_in
from .igusa.invariants import (
    igusa_vector,
    j_polynomials_of_sextic_family,
    r_numerators,
    r_polynomials,
    weighted_equal,
)

_BASE_TRIPLE = ("R2", "R3", "R5")
_FALLBACK_TRIPLE = ("R23", "R35", "R25")


def prime_support(spec: FamilySpec) -> dict:
    """Primes dividing gcd(Res(R2, R3), Res(R2, R5)) for a family with
    printed weighted-difference denominators.

    The resultants are of the primitive Z[t] parts of R2, R3, R5, computed
    by ``poly.resultant`` over Z (subresultant PRS) and factored by trial
    division up to 2 * 10^6."""
    if not spec.r_denominators:
        raise ValueError(
            f"family {spec.id!r} has no weighted-difference data"
        )
    rp = r_polynomials(spec)
    prim = {}
    for name in _BASE_TRIPLE:
        _, prim[name] = rational_poly_to_primitive(rp[name])
    res23 = resultant(prim["R2"], prim["R3"])
    res25 = resultant(prim["R2"], prim["R5"])
    g = int_gcd(res23, res25)
    factors, cofactor = trial_division(g, 2_000_000)
    support = sorted(factors)
    return {
        "family": spec.id,
        "gcd_digits": len(str(g)),
        "factors": factors,
        "cofactor": cofactor,
        "support": support,
        "support_gt5": [p for p in support if p > 5],
        "expected": sorted(spec.printed_primes),
        "match": cofactor == 1
        and [p for p in support if p > 5]
        == sorted(p for p in spec.printed_primes if p > 5),
    }


# ---------------------------------------------------------------------------
# characteristic-p analysis
# ---------------------------------------------------------------------------


def _strip_factors(num, factor_polys):
    """Divide out the maximal power of each (coprime, squarefree) factor
    polynomial; returns the stripped polynomial and {factor: exponent}."""
    stripped = {}
    for fac in factor_polys:
        e = 0
        while num.degree >= fac.degree:
            q, r = poly_divmod(num, fac)
            if not r.is_zero():
                break
            num, e = q, e + 1
        if e:
            stripped[fac] = e
    return num, stripped


def _strip_base(spec, F):
    """Irreducible factors mod p of every printed denominator (or, for a
    family without them, of the validity polynomial): the factors that may
    legitimately divide the reduced numerators."""
    polys = list(spec.r_denominators.values()) or [spec.validity_t]
    seen = []
    for poly in polys:
        red = poly.map_coeffs(F, partial(scalar_in, F))
        if red.is_zero():
            continue
        for fac, _ in irreducible_factors(red)[1]:
            if fac.degree > 0 and fac not in seen:
                seen.append(fac)
    return seen


def charp_analysis(spec: FamilySpec, p: int) -> dict:
    """Common zero locus of the weighted differences over F_p, with the
    denominator factors stripped to maximal power, plus verification of any
    recorded exceptional locus at p (roots found in the smallest field
    containing them; the two curves there are checked to be geometrically
    isomorphic to each other and to the recorded representative)."""
    if p <= 5:
        raise ValueError("p > 5 required")
    F = GF(p)
    js = j_polynomials_of_sextic_family(spec.sextic_zt())
    js = [j.map_coeffs(F, F.from_int) for j in js]
    triple = _BASE_TRIPLE
    j2_gcd = gcd_field(js[0], js[0].substitute_neg())
    if j2_gcd.degree > 0 and all(k in spec.r_denominators for k in _FALLBACK_TRIPLE):
        triple = _FALLBACK_TRIPLE
    numerators = r_numerators(js, triple)

    base = _strip_base(spec, F)
    stripped_report = {}
    stripped_polys = {}
    for name in triple:
        num = numerators[name]
        if num.is_zero():
            raise ArithmeticError(f"{name} vanishes identically mod {p}")
        num, stripped = _strip_factors(num, base)
        stripped_polys[name] = num
        stripped_report[name] = {
            str(fac): e for fac, e in sorted(stripped.items(), key=lambda kv: str(kv[0]))
        }

    locus = stripped_polys[triple[0]]
    for name in triple[1:]:
        locus = gcd_field(locus, stripped_polys[name])
    locus = radical(locus)

    exc = next((e for e in spec.exceptional if e.p == p), None)
    expected = Poly.one(F)
    if exc is not None:
        for fac in exc.locus_factors:
            expected = expected * fac.map_coeffs(F, partial(scalar_in, F)).monic()
    locus_match = locus == expected

    verification = []
    if exc is not None and locus.degree > 0:
        for fac, _ in irreducible_factors(locus)[1]:
            verification.append(_verify_locus_factor(spec, F, fac, exc))

    return {
        "family": spec.id,
        "p": p,
        "triple": triple,
        "j2_gcd_degree": j2_gcd.degree,
        "stripped": stripped_report,
        "locus": str(locus),
        "locus_degree": locus.degree,
        "recorded": exc is not None,
        "locus_match": locus_match,
        "verification": verification,
        "pass": locus_match and all(v["pass"] for v in verification),
    }


def _verify_locus_factor(spec, F, fac, exc):
    d = fac.degree
    K, (rts,) = splitting_field(F, fac)
    entry = {"factor": str(fac), "root_field_degree": d, "roots": len(rts)}
    ok = len(rts) == d
    rep_vector = None
    if exc.representative is not None:
        rep_vector = igusa_vector(exc.representative.map_coeffs(K, partial(scalar_in, K)))
    for t0 in rts:
        pair = curve_pair(spec, K, t0)
        if pair is None:
            ok = False
            continue
        u, v = (igusa_vector(c) for c in pair)
        ok = ok and weighted_equal(u, v, K, geometric=True)
        if rep_vector is not None:
            ok = ok and weighted_equal(u, rep_vector, K, geometric=True)
    entry["pass"] = ok
    return entry


# ---------------------------------------------------------------------------
# exhaustive scan
# ---------------------------------------------------------------------------


def full_scan(spec: FamilySpec, p: int, extension_degree: int = 1) -> dict:
    """Scan every valid parameter of F_p (or F_{p^2}) and record where the
    pair C_t, C_{-t} fails to be distinguished: geometrically, and over the
    base field.  The geometric failures must be exactly the roots of the
    recorded exceptional locus."""
    if p <= 5:
        raise ValueError("p > 5 required")
    F = GF(p)
    if extension_degree == 1:
        K = F
    elif extension_degree == 2:
        K = GFext(p, 2)
    else:
        raise ValueError("extension degree must be 1 or 2")

    exc = next((e for e in spec.exceptional if e.p == p), None)
    locus_roots = set()
    if exc is not None:
        for fac in exc.locus_factors:
            red = fac.map_coeffs(F, partial(scalar_in, F))
            for r in roots(red, K):
                locus_roots.add(K.to_str(r))

    equal_geometric = []
    equal_base = []
    seen = set()
    for t in K.elements():
        if K.is_zero(t):
            continue
        kt = K.to_str(t)
        if kt in seen:
            continue
        seen.add(kt)
        seen.add(K.to_str(K.neg(t)))
        pair = curve_pair(spec, K, t)
        if pair is None:
            continue
        u, v = (igusa_vector(c) for c in pair)
        if weighted_equal(u, v, K, geometric=True):
            equal_geometric.append(kt)
            equal_geometric.append(K.to_str(K.neg(t)))
            if weighted_equal(u, v, K):
                equal_base.append(kt)
                equal_base.append(K.to_str(K.neg(t)))

    geom = set(equal_geometric)
    return {
        "family": spec.id,
        "p": p,
        "field_order": K.order,
        "scanned": len(seen),
        "equal_geometric": sorted(geom),
        "equal_base": sorted(set(equal_base)),
        "locus_roots": sorted(locus_roots),
        "match": geom == locus_roots,
    }


__all__ = ["prime_support", "charp_analysis", "full_scan"]
