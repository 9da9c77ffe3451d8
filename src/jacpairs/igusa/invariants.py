"""Invariants of binary sextics/quintics and weighted-projective equality.

Two evaluation paths are provided:

* the frozen coefficient formulas (``_clebsch_formulas``), valid over any
  ring of characteristic not 2, 3, 5 — this is the production path;
* the root-difference definitions evaluated in a splitting field
  (``root_difference_oracle``) — an independent cross-check.

The degree-10 invariant is the discriminant of the binary sextic form; a
degree-5 input is the sextic with one root at infinity, for which that form
discriminant equals lc^2 times the quintic discriminant.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from ..exact.poly import Poly, discriminant
from ..exact.rings import QQ, ZZ, ExtField, GFext, PrimeField
from ..exact.roots import element_sort_key, splitting_degrees, roots

from ._clebsch_formulas import I2 as _F2, I4 as _F4, I6 as _F6

# Scaled normalization: J_{2k} is multiplied by 2^(4k).  The exponent is the
# least weight-consistent one (s_{2k} = k*e keeps the J8 dependency and the
# weighted class intact) that clears every 2-power denominator arising from
# the /8, /96, /576, /4096 conversions on integral input; the worst cases are
# 2^2, 2^7, 2^10, 2^16, 2^12 for J2..J10, all at most 2^(4k).
J_SCALE_EXP = (4, 8, 12, 16, 20)


def _check_char(R):
    if R.char in (2, 3, 5):
        raise ValueError(f"characteristic {R.char} is unsupported")


def _eval_formula(formula, cs, R):
    total = R.zero
    for k, expo in formula:
        term = R.from_int(k)
        for c, e in zip(cs, expo):
            for _ in range(e):
                term = R.mul(term, c)
        total = R.add(total, term)
    return total


def igusa_clebsch(f: Poly):
    """The four classical invariants (I2, I4, I6, I10) of a separable binary
    sextic or quintic, as elements of the coefficient ring."""
    R = f.ring
    _check_char(R)
    if f.degree not in (5, 6):
        raise ValueError("input must have degree 5 or 6")
    cs = [f.coeff(i) for i in range(7)]
    i2 = _eval_formula(_F2, cs, R)
    i4 = _eval_formula(_F4, cs, R)
    i6 = _eval_formula(_F6, cs, R)
    if f.degree == 6:
        i10 = discriminant(f)
    else:
        # binary-form discriminant with a root at infinity:
        # disc(z*G) = disc(G) * Res(z, G)^2 = disc(quintic) * lc^2
        i10 = R.mul(discriminant(f), R.mul(f.lc(), f.lc()))
    if R.is_zero(i10):
        raise ValueError("inseparable input: I10 = 0")
    return (i2, i4, i6, i10)


def root_difference_oracle(f: Poly):
    """(I2, I4, I6, I10) evaluated literally from the root-difference sums in
    a splitting field; finite prime-field input only.  Independent of the
    frozen coefficient formulas."""
    F = f.ring
    if not isinstance(F, PrimeField):
        raise TypeError("oracle accepts polynomials over a prime field")
    _check_char(F)
    if f.degree not in (5, 6):
        raise ValueError("input must have degree 5 or 6")
    m = 1
    for d in splitting_degrees(f):
        from math import lcm

        m = lcm(m, d)
    K = GFext(F.p, m) if m > 1 else F
    lift = f if m == 1 else f.map_coeffs(K, K.from_base)
    rts = []
    for r in roots(lift):
        # multiplicity check: separable input required
        rts.append(r)
    if len(rts) != f.degree:
        raise ValueError("inseparable input")
    a = lift.lc()

    # Build the 6x6 table of squared root differences.  A quintic is treated
    # as a sextic with one root at infinity: the binary form is z * G(x, z),
    # and in projective brackets the difference against the infinite root
    # (1:0) is a unit whose square contributes the factor 1, so the infinite
    # row/column of the table is identically 1.
    d = [[K.one] * 6 for _ in range(6)]
    n = len(rts)
    for i in range(n):
        for j in range(n):
            t = K.sub(rts[i], rts[j])
            d[i][j] = K.mul(t, t)
    idx = range(6)

    def matchings(points):
        if not points:
            yield []
            return
        p0 = points[0]
        for k in range(1, len(points)):
            rest = points[1:k] + points[k + 1 :]
            for mm in matchings(rest):
                yield [(p0, points[k])] + mm

    a2 = K.mul(a, a)
    i2 = K.zero
    for mch in matchings(list(idx)):
        term = K.one
        for (i, j) in mch:
            term = K.mul(term, d[i][j])
        i2 = K.add(i2, term)
    i2 = K.mul(i2, a2)

    def tri(t):
        i, j, k = t
        return K.mul(K.mul(d[i][j], d[j][k]), d[k][i])

    a4 = K.mul(a2, a2)
    i4 = K.zero
    for combo in itertools.combinations(idx, 3):
        if 0 in combo:
            rest = tuple(sorted(set(idx) - set(combo)))
            i4 = K.add(i4, K.mul(tri(combo), tri(rest)))
    i4 = K.mul(i4, a4)

    i6 = K.zero
    for combo in itertools.combinations(idx, 3):
        if 0 not in combo:
            continue
        rest = tuple(sorted(set(idx) - set(combo)))
        base = K.mul(tri(combo), tri(rest))
        for perm in itertools.permutations(rest):
            cross = K.one
            for i, j in zip(combo, perm):
                cross = K.mul(cross, d[i][j])
            i6 = K.add(i6, K.mul(base, cross))
    i6 = K.mul(i6, K.mul(a4, a2))

    i10 = K.one
    for i in range(6):
        for j in range(i + 1, 6):
            i10 = K.mul(i10, d[i][j])
    a10 = K.mul(K.mul(a4, a4), a2)
    i10 = K.mul(i10, a10)

    return tuple(_descend(K, F, v) for v in (i2, i4, i6, i10))


def _descend(K, F, v):
    if K is F:
        return v
    return K.in_base(v)


def igusa_j(ic, R):
    """Convert (I2, I4, I6, I10) to the scaled vector (J2, J4, J6, J8, J10)
    over the field R (characteristic 0 or > 5)."""
    _check_char(R)
    if not R.is_field:
        raise TypeError("igusa_j requires a field")
    i2, i4, i6, i10 = ic
    inv8 = R.inv(R.from_int(8))
    j2 = R.mul(i2, inv8)
    j4 = R.div(R.sub(R.mul(R.from_int(4), R.mul(j2, j2)), i4), R.from_int(96))
    j6 = R.div(
        R.sub(
            R.sub(
                R.mul(R.from_int(8), R.mul(j2, R.mul(j2, j2))),
                R.mul(R.from_int(160), R.mul(j2, j4)),
            ),
            i6,
        ),
        R.from_int(576),
    )
    j8 = R.div(R.sub(R.mul(j2, j6), R.mul(j4, j4)), R.from_int(4))
    j10 = R.div(i10, R.from_int(4096))
    out = []
    for jk, e in zip((j2, j4, j6, j8, j10), J_SCALE_EXP):
        out.append(R.mul(jk, R.from_int(2**e)))
    return tuple(out)


def igusa_vector(f: Poly):
    """Scaled (J2, J4, J6, J8, J10) of a separable sextic/quintic over a
    field."""
    return igusa_j(igusa_clebsch(f), f.ring)


# -- weighted-projective equality ---------------------------------------------
#
# Two vectors u, v (weights 2,4,6,8,10) are equivalent iff there is e != 0
# with v_{2k} = e^{2k} u_{2k}.  Only even powers of e occur, so set eps = e^2
# and let S = {k : u_{2k} != 0} (zero patterns must agree).  Genus-2 input
# guarantees 5 in S.
#
#  * If S contains some k < 5, then gcd(S) = 1 and eps is UNIQUE, given
#    rationally by a Bezout combination of the ratios c_k = v_{2k}/u_{2k};
#    validity reduces to checking c_k = eps^k for every k in S.  Over the
#    algebraic closure e = sqrt(eps) always exists (it lies at worst in a
#    quadratic extension, which is the classical bound for this test), so
#    GEOMETRIC equivalence is a purely rational check.  BASE-FIELD
#    equivalence additionally needs eps to be a square in the field.
#  * If S = {5} (only J10 nonzero), any eps with eps^5 = c_5 works, and one
#    always exists in the closure: geometric equivalence is automatic.
#    Base-field equivalence needs c_5 to be a 10th power in the field.


def _tenth_power_in_field(R, c):
    if isinstance(R, PrimeField) or isinstance(R, ExtField):
        q = R.order
        d = gcd(10, q - 1)
        return R.pow(c, (q - 1) // d) == R.one
    if R is QQ:
        # c = a/b is a 10th power in Q iff both |a|, b are 10th powers and c > 0
        fr = Fraction(c)
        if fr <= 0:
            return False
        return _is_perfect_power(fr.numerator, 10) and _is_perfect_power(
            fr.denominator, 10
        )
    raise TypeError(f"unsupported field {R!r}")


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by Newton's method on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_perfect_power(n: int, k: int) -> bool:
    return n >= 0 and _integer_root(n, k) ** k == n


def weighted_equal(u, v, R, geometric: bool = False) -> bool:
    """Equality of weighted-projective classes of two invariant vectors over
    the field R; with ``geometric=True`` the scalar may live in the algebraic
    closure (see the analysis above — a quadratic extension always suffices)."""
    if len(u) != 5 or len(v) != 5:
        raise ValueError("expected 5-component vectors")
    if R.is_zero(u[4]) or R.is_zero(v[4]):
        raise ValueError("J10 = 0: not genus-2 input")
    weights = (1, 2, 3, 4, 5)
    S = [k for k, a in zip(weights, u) if not R.is_zero(a)]
    for k, a, b in zip(weights, u, v):
        if R.is_zero(a) != R.is_zero(b):
            return False
    ratios = {k: R.div(v[i], u[i]) for i, k in enumerate(weights) if k in S}
    if S == [5]:
        if geometric:
            return True
        return _tenth_power_in_field(R, ratios[5])
    # gcd(S) = 1: eps is unique.  With k the smallest weight in S (k < 5),
    # x = k^-1 mod 5 and y = (1 - x k) / 5 give x k + 5 y = 1, so
    # eps = c_k^x * c_5^y.
    k = S[0]
    x = pow(k, -1, 5)
    eps = R.mul(R.pow(ratios[k], x), R.pow(ratios[5], (1 - x * k) // 5))
    for k in S:
        if R.pow(eps, k) != ratios[k]:
            return False
    if geometric:
        return True
    return R.is_square(eps)


def geometric_isomorphism_test(f: Poly, g: Poly) -> bool:
    """Whether two separable sextics/quintics over the same field define
    geometrically isomorphic genus-2 curves (equal weighted Igusa classes
    over the algebraic closure)."""
    if f.ring is not g.ring and f.ring != g.ring:
        raise ValueError("curves over different fields")
    return weighted_equal(igusa_vector(f), igusa_vector(g), f.ring, geometric=True)


def inversion_isomorphism(f: Poly) -> Poly:
    """The model with reversed coefficients: x^6 f(1/x) (image under
    x -> 1/x, y -> y/x^3); same weighted Igusa class."""
    cs = [f.coeff(i) for i in range(7)]
    return Poly(f.ring, list(reversed(cs)))


# -- the distinguishing polynomials in t ---------------------------------------


def j_polynomials_of_sextic_family(sextic_zt) -> tuple:
    """Scaled J's of a one-parameter sextic with Z[t] coefficients, as exact
    polynomials in Q[t] (the conversions only divide by constants, so each
    J_{2k}(t) is a genuine polynomial)."""
    from ..exact.poly import PolyRing

    Rt = sextic_zt.ring  # PolyRing(ZZ)
    if not isinstance(Rt, PolyRing):
        raise TypeError("expected a sextic with polynomial coefficients")
    i2, i4, i6, _ = igusa_clebsch(sextic_zt)
    i10 = discriminant(sextic_zt) if sextic_zt.degree == 6 else None
    if i10 is None:
        lc = sextic_zt.lc()
        i10 = Rt.mul(discriminant(sextic_zt), Rt.mul(lc, lc))

    def to_q(p):
        return p.map_coeffs(QQ, Fraction)

    q2, q4, q6, q10 = (to_q(p) for p in (i2, i4, i6, i10))
    j2 = q2.scale(Fraction(1, 8))
    j4 = (j2 * j2 * 4 - q4).scale(Fraction(1, 96))
    j6 = (j2 * j2 * j2 * 8 - j2 * j4 * 160 - q6).scale(Fraction(1, 576))
    j8 = (j2 * j6 - j4 * j4).scale(Fraction(1, 4))
    j10 = q10.scale(Fraction(1, 4096))
    out = []
    for jk, e in zip((j2, j4, j6, j8, j10), J_SCALE_EXP):
        out.append(jk.scale(Fraction(2**e)))
    return tuple(out)


def r_numerators(js) -> dict:
    """Numerators of the weighted differences R2, R3, R5, R23, R35, R25 from
    the polynomials (J2, J4, J6, J8, J10) in t, over any coefficient field."""
    jp = dict(zip((1, 2, 3, 4, 5), js))
    jn = {k: p.substitute_neg() for k, p in jp.items()}
    return {
        "R2": jp[2] * jn[1] ** 2 - jn[2] * jp[1] ** 2,
        "R3": jp[3] * jn[1] ** 3 - jn[3] * jp[1] ** 3,
        "R5": jp[5] * jn[1] ** 5 - jn[5] * jp[1] ** 5,
        "R23": jp[2] ** 3 * jn[3] ** 2 - jn[2] ** 3 * jp[3] ** 2,
        "R35": jp[3] ** 5 * jn[5] ** 3 - jn[3] ** 5 * jp[5] ** 3,
        "R25": jp[5] ** 2 * jn[2] ** 5 - jn[5] ** 2 * jp[2] ** 5,
    }


def r_polynomials(spec) -> dict:
    """The weighted difference polynomials R2, R3, R5 (and, when the family
    supplies denominators for them, the generalized R23, R35, R25) of a
    one-parameter family: each printed denominator must divide its numerator
    exactly in Q[t], else an error is raised."""
    numerators = r_numerators(j_polynomials_of_sextic_family(spec.sextic_zt()))
    out = {}
    for name, den in spec.r_denominators.items():
        num = numerators[name]
        denq = den.map_coeffs(QQ, Fraction)
        from ..exact.poly import divmod_field

        q, r = divmod_field(num, denq)
        if not r.is_zero():
            raise ArithmeticError(
                f"{name} numerator not divisible by its printed denominator"
            )
        out[name] = q
    return out
