"""Invariants of binary sextics/quintics and weighted-projective equality.

Two evaluation paths are provided:

* the frozen coefficient formulas (``_clebsch_formulas``), valid over any
  ring of characteristic not 2, 3, 5 — this is the production path;
* the root-difference definitions evaluated in a splitting field
  (``root_difference_oracle``) — an independent cross-check.

The frozen formulas are sums of terms k * prod c_i^e_i in the sextic
coefficients c_0..c_6.  At import each table becomes a list of term
supports, (k, [(i, e), ...]) with only the nonzero exponents.  For one
sextic, ``igusa_clebsch`` builds c_i, c_i^2, ... up to the largest exponent
any table uses for that i, once per nonzero coefficient; ``_eval_formula``
then takes each term as a product of table entries and drops every term
that contains a zero coefficient.  The family sextics are even in x
(c_1 = c_3 = c_5 = 0), so 15 of the 76 terms remain for them.  One
evaluator serves every ring: F_p, GF(p^m), Q and Z[t].

The degree-10 invariant is the discriminant of the binary sextic form; a
degree-5 input is the sextic with one root at infinity, for which that form
discriminant equals lc^2 times the quintic discriminant.  Both come from
``poly.discriminant``, the one discriminant in the package: an even sextic
f = g(x^2) gets I10 = -64 g(0) lc(g) disc(g)^2, with the closed form of the
cubic discriminant for disc(g); any other sextic or quintic gets
+-res(f, f') / lc(f).
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd

from ..exact.poly import Poly, PolyRing, discriminant, primitive_part_int
from ..exact.rings import QQ, ZZ, ExtField, PrimeField
from ..exact.roots import splitting_field

from ._clebsch_formulas import I2 as _F2, I4 as _F4, I6 as _F6

# Scaled normalization: J_{2k} is multiplied by 2^(4k).  The exponent is the
# least weight-consistent one (s_{2k} = k*e keeps the J8 dependency and the
# weighted class intact) that clears every 2-power denominator arising from
# the /8, /96, /576, /4096 conversions on integral input; the worst cases are
# 2^2, 2^7, 2^10, 2^16, 2^12 for J2..J10, all at most 2^(4k).  ``igusa_j``
# computes the scaled values directly, so on a sextic over Z[t] they stay in
# Z[t].


def _check_char(R):
    if R.char in (2, 3, 5):
        raise ValueError(f"characteristic {R.char} is unsupported")


def _supports(formula):
    """(k, [(i, e), ...]) per term, keeping only the coefficients that occur."""
    return [(k, [(i, e) for i, e in enumerate(expo) if e]) for k, expo in formula]


_S2, _S4, _S6 = (_supports(F) for F in (_F2, _F4, _F6))
# the largest exponent of c_i in any of the three tables
_MAX_EXPONENT = [
    max(expo[i] for formula in (_F2, _F4, _F6) for _, expo in formula) for i in range(7)
]


def _power_table(cs, R):
    """[1, c, c^2, ..., c^n] for each coefficient c, with n its
    ``_MAX_EXPONENT``; None for a zero coefficient."""
    table = []
    for c, n in zip(cs, _MAX_EXPONENT):
        if R.is_zero(c):
            table.append(None)
            continue
        row = [R.one, c]
        for _ in range(n - 1):
            row.append(R.mul(row[-1], c))
        table.append(row)
    return table


def _eval_formula(support, powers, R):
    """Sum of k * prod c_i^e over the terms in which no c_i is zero."""
    total = R.zero
    for k, factors in support:
        term = None
        for i, e in factors:
            row = powers[i]
            if row is None:
                break
            term = row[e] if term is None else R.mul(term, row[e])
        else:
            total = R.add(total, R.mul(R.from_int(k), term))
    return total


def igusa_clebsch(f: Poly):
    """The four classical invariants (I2, I4, I6, I10) of a separable binary
    sextic or quintic, as elements of the coefficient ring."""
    R = f.ring
    _check_char(R)
    if f.degree not in (5, 6):
        raise ValueError("input must have degree 5 or 6")
    powers = _power_table([f.coeff(i) for i in range(7)], R)
    i2 = _eval_formula(_S2, powers, R)
    i4 = _eval_formula(_S4, powers, R)
    i6 = _eval_formula(_S6, powers, R)
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
    _check_char(f.ring)
    if f.degree not in (5, 6):
        raise ValueError("input must have degree 5 or 6")
    K, (rts,) = splitting_field(f.ring, f)
    if len(rts) != f.degree:  # a repeated root
        raise ValueError("inseparable input")
    a = K.from_base(f.lc())

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

    return tuple(K.in_base(v) for v in (i2, i4, i6, i10))


def igusa_j(ic, R):
    """Convert (I2, I4, I6, I10) to the scaled vector (J2, J4, J6, J8, J10),
    each J_{2k} times 2^(4k) (the scaling above), over R: a field of
    characteristic 0 or > 5, or a ring such as Z[t] in which the divisions
    by 24, 72 and 4 below must be exact (else ``ArithmeticError``).

    With J2 = I2/8, J4 = (4 J2^2 - I4)/96, J6 = (8 J2^3 - 160 J2 J4 - I6)/576,
    J8 = (J2 J6 - J4^2)/4 and J10 = I10/4096, the scaled values are
    j2 = 2 I2, j4 = (j2^2 - 64 I4)/24, j6 = (j2^3 - 20 j2 j4 - 512 I6)/72,
    j8 = (j2 j6 - j4^2)/4 and j10 = 256 I10."""
    _check_char(R)
    i2, i4, i6, i10 = ic
    c = R.from_int
    j2 = R.mul(c(2), i2)
    j4 = R.divexact(R.sub(R.mul(j2, j2), R.mul(c(64), i4)), c(24))
    j6 = R.divexact(
        R.sub(
            R.sub(R.mul(j2, R.mul(j2, j2)), R.mul(c(20), R.mul(j2, j4))),
            R.mul(c(512), i6),
        ),
        c(72),
    )
    j8 = R.divexact(R.sub(R.mul(j2, j6), R.mul(j4, j4)), c(4))
    j10 = R.mul(c(256), i10)
    return (j2, j4, j6, j8, j10)


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


# -- the distinguishing polynomials in t ---------------------------------------


@cache
def j_polynomials_of_sextic_family(sextic) -> tuple:
    """Scaled J's of a one-parameter sextic with Z[t] coefficients, as
    polynomials in Z[t], computed once per sextic; ``ArithmeticError`` if
    one of them has a coefficient that is not an integer."""
    R = sextic.ring
    if not (isinstance(R, PolyRing) and R.base is ZZ):
        raise TypeError("expected a sextic with Z[t] coefficients")
    ic = igusa_clebsch(sextic)
    try:
        return igusa_j(ic, R)
    except ArithmeticError as exc:
        raise ArithmeticError(f"a scaled J of the family sextic is not in Z[t]: {exc}") from exc


# R_ab = J_a(t)^x J_b(-t)^y - J_a(-t)^x J_b(t)^y, stored as (a, x, b, y) with
# J_a the entry of weight 2a.  The second term is the first at -t, so R_ab is
# P(t) - P(-t) for P = J_a(t)^x J_b(-t)^y.
_R_FORMULAS = {
    "R2": (2, 1, 1, 2),
    "R3": (3, 1, 1, 3),
    "R5": (5, 1, 1, 5),
    "R23": (2, 3, 3, 2),
    "R35": (3, 5, 5, 3),
    "R25": (5, 2, 2, 5),
}


def r_numerators(js, names) -> dict:
    """Numerators of the named weighted differences (any of R2, R3, R5, R23,
    R35, R25) from the polynomials (J2, J4, J6, J8, J10) in t, over the ring
    the J's lie in; only the named ones are computed.  With
    P = J_a^x J_b(-t)^y, the numerator P - P(-t) is 2 sum_{i odd} P_i t^i,
    read off P's odd coefficients."""
    jp = dict(zip((1, 2, 3, 4, 5), js))
    out = {}
    for name in names:
        a, x, b, y = _R_FORMULAS[name]
        prod = jp[a] ** x * jp[b].substitute_neg() ** y
        R = prod.ring
        out[name] = Poly(R, [R.add(c, c) if i % 2 else R.zero for i, c in enumerate(prod.coeffs)])
    return out


def r_polynomials(spec) -> dict:
    """The weighted difference polynomials R2, R3, R5 (and, when the family
    supplies denominators for them, the generalized R23, R35, R25) of a
    one-parameter family, as primitive polynomials in Z[t] with a positive
    leading coefficient: the primitive part of each numerator divided
    exactly by the primitive part of its printed denominator.  By Gauss's
    lemma that division succeeds exactly when the denominator divides the
    numerator in Q[t]; otherwise an error is raised."""
    numerators = r_numerators(j_polynomials_of_sextic_family(spec.sextic), spec.r_denominators)
    out = {}
    for name, den in spec.r_denominators.items():
        try:
            out[name] = PolyRing(ZZ).divexact(
                primitive_part_int(numerators[name])[1], primitive_part_int(den)[1]
            )
        except ArithmeticError:
            raise ArithmeticError(
                f"{name} numerator not divisible by its printed denominator"
            ) from None
    return out
