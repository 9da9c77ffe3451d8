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

from math import gcd as int_gcd

from .exact.poly import (
    Poly,
    gcd_field,
    parity_split,
    poly_divmod,
    radical,
    resultant,
)
from .exact.integers import trial_division
from .exact.rings import GF, GFext
from .exact.roots import irreducible_factors, roots, splitting_field
from .families import FamilySpec, curve_pair
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

    The resultants are of R2, R3, R5 as ``r_polynomials`` returns them,
    primitive in Z[t], computed by ``poly.resultant`` over Z (subresultant
    PRS) and factored by trial division up to 2 * 10^6.  Each is even in
    t, A(t^2) (``parity_split`` checks it), and Res(A(t^2), B(t^2)) =
    Res(A, B)^2, so the resultants are taken on the halves A, B and
    squared."""
    if not spec.r_denominators:
        raise ValueError(
            f"family {spec.id!r} has no weighted-difference data"
        )
    rp = r_polynomials(spec)
    half = {}
    for name in _BASE_TRIPLE:
        k, half[name] = parity_split(rp[name])
        if k:
            raise ArithmeticError(f"{name} of family {spec.id!r} is not even in t")
    res23 = resultant(half["R2"], half["R3"]) ** 2
    res25 = resultant(half["R2"], half["R5"]) ** 2
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
#
# Every numerator R = P(t) - P(-t) is odd in t, and every printed denominator
# is t times an even polynomial, so the analysis runs on the halves in
# u = t^2: a numerator is t E(t^2), and a monic irreducible g(u) other than u
# is g(t^2) = fac(t) for an even irreducible fac, or +-fac(t) fac(-t).
# ---------------------------------------------------------------------------


def _valuation(f, g):
    """(v, f / g^v) for the largest v with g^v dividing f (g of degree > 0)."""
    if g.degree == 1 and g.ring.is_zero(g.coeffs[0]):
        v = next(i for i, c in enumerate(f.coeffs) if not f.ring.is_zero(c))
        return v, Poly(f.ring, f.coeffs[v:])
    v = 0
    while f.degree >= g.degree:
        q, r = poly_divmod(f, g)
        if not r.is_zero():
            break
        f, v = q, v + 1
    return v, f


def _base_factors(spec, F):
    """The factors that may legitimately divide the reduced numerators: the
    monic irreducible g(u) over F, other than u, of the halves of the
    distinct printed denominators (for a family without them, of the
    validity polynomial), each with the irreducible factors of g(t^2) in t.

    t itself must be a base factor (a denominator is odd, or u divides a
    half): every numerator vanishes at t = 0, where C_t = C_{-t}."""
    polys = dict.fromkeys(spec.r_denominators.values()) or [spec.validity_t]
    u = Poly.gen(F)
    t_is_base = False
    base = {}
    for poly in polys:
        red = poly.map_coeffs(F, F.from_int)
        if red.is_zero():
            continue
        k, half = parity_split(red)
        v, half = _valuation(half, u)
        t_is_base = t_is_base or k + v > 0
        for g in base:
            half = _valuation(half, g)[1]
        for g, _ in irreducible_factors(half)[1] if half.degree > 0 else ():
            base[g] = [fac for fac, _ in irreducible_factors(g.substitute_square())[1]]
    if not t_is_base:
        raise ValueError(f"family {spec.id!r}: t divides no denominator mod {F.p}")
    return base


def charp_analysis(spec: FamilySpec, p: int) -> dict:
    """Common zero locus of the weighted differences over F_p, with the
    denominator factors stripped to maximal power, plus verification of any
    recorded exceptional locus at p (roots found in the smallest field
    containing them; the two curves there are checked to be geometrically
    isomorphic to each other and to the recorded representative).

    The work is on the halves in u = t^2 (see above).  A factor fac of t is
    stripped from t^k E(t^2) to the power k + 2 v_u(E) for fac = t, and
    v_g(E) for the g(u) under fac.  The locus is the radical of the gcd of
    the halves with every base g stripped, at u = t^2: stripping a factor
    completely leaves the multiplicity of every other one alone, so the
    radical does not depend on whether the gcd or the strip comes first,
    and with u stripped, a squarefree L(u) gives a squarefree L(t^2)."""
    if p <= 5:
        raise ValueError("p > 5 required")
    F = GF(p)
    js = j_polynomials_of_sextic_family(spec.sextic)
    js = [j.map_coeffs(F, F.from_int) for j in js]
    triple = _BASE_TRIPLE
    j2_gcd = gcd_field(js[0], js[0].substitute_neg())
    if j2_gcd.degree > 0 and all(k in spec.r_denominators for k in _FALLBACK_TRIPLE):
        triple = _FALLBACK_TRIPLE
    numerators = r_numerators(js, triple)

    base = _base_factors(spec, F)
    u = Poly.gen(F)
    stripped_report = {}
    halves = []
    for name in triple:
        num = numerators[name]
        if num.is_zero():
            raise ArithmeticError(f"{name} vanishes identically mod {p}")
        k, half = parity_split(num)
        halves.append(half)
        stripped = {str(u): k + 2 * _valuation(half, u)[0]}
        for g, facs in base.items():
            e = _valuation(half, g)[0]
            stripped.update((str(fac), e) for fac in facs)
        stripped_report[name] = {key: e for key, e in sorted(stripped.items()) if e}

    common = halves[0]
    for half in halves[1:]:
        common = gcd_field(common, half)
    for g in (u, *base):
        common = _valuation(common, g)[1]
    locus = radical(common).substitute_square()

    exc = next((e for e in spec.exceptional if e.p == p), None)
    expected = Poly.one(F)
    if exc is not None:
        for fac in exc.locus_factors:
            expected = expected * fac.map_coeffs(F, F.from_int).monic()
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
        rep_vector = igusa_vector(exc.representative.map_coeffs(K, K.from_int))
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
            red = fac.map_coeffs(F, F.from_int)
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
