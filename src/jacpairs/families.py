"""The four one-parameter families of genus-2 curve pairs and the table of
rational parameterizations of cyclic isogenies they are built from.

Each :class:`FamilySpec` is pure data: the two Weierstrass models over Q[s],
their closed-form discriminants, the family's point on X_0(N) that gives
their j-invariants (``x0_point``), the substitution s(t) in Z[t] imposed by
the Galois restriction, the twisted sextic family C_t as one polynomial in
x over Z[t] (``FamilySpec.sextic``), the validity locus, the
symbolic kappa/gamma identities, the printed denominators of the weighted
difference polynomials, and the exceptional characteristic data.  Every
fraction in the data is a (numerator, denominator) pair of polynomials, and
the identities are checked exactly by cross-multiplication over Q[s] and
Z[t]: a/b = c/d in Q(s) exactly when a*d = b*c in Q[s].  The operations also
evaluate the family at concrete parameter values over Q or a finite field.

The table of X_0(N) parameterizations is integral: each row is a pair of
coprime polynomials in Z[s] with a monic denominator, and it is built and
read in Z[s].  Only j_N is stored, with one integer c_N per row; j'_N is the
Atkin-Lehner flip j'_N(s) = j_N(c_N/s), cleared to s^d j_N(c_N/s) and
divided exactly by the leading coefficient of its denominator.  Four checks
pin the c_N: that division, which raises for most wrong c; the model
identities of ``family_identity_check``, which compare rows 2, 3, 4 and 7,
j and j', with the Weierstrass models at the families' points 64s, s,
s - 16 and s; the square conditions of the even obstruction degrees, which
read j' (``obstruction.square_condition_consistency``); and the |a_p| test
of every row over F_p (``tests/test_families.py::TestIsogenyOracle``),
the one check on j' of N = 5, 9, 13 and 25.  Only the Weierstrass models
are fractional (a2 = quart/4 for deg3 and deg7), so Q[s] holds those and
their identity check alone.

Each family is parameterized by the open set where ``validity_t`` is
nonzero, and there C_t is a separable sextic of degree 6.  This is proved
once over Z[t] by ``tests/test_families.py::TestValidityLocus``: lc(C_t)
and disc(C_t) are each 2^k times a primitive P whose radical divides
``validity_t`` in Z[t] (Gauss's lemma), so a root of P in any field is a
root of ``validity_t``.  Every field the package builds is Q or GF(p^m)
with p odd, where 2 is a unit, so the curves are built without checking
degree or separability again.  A curve is specialized in one pass, each
Z[t] coefficient of the sextic evaluated at t by Horner's rule.  Every
``validity_t`` is odd in t (``TestValidityParity``), so t lies on the locus
exactly when -t does, and ``curve_pair`` evaluates it once for the pair
C_t, C_{-t}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .ellcurve import WeierstrassModel, j_pair
from .exact.poly import Poly, PolyRing
from .exact.rings import QQ, ZZ

# generators used throughout the data below
_S = Poly.gen(QQ)  # s, coefficient parameter of the isogeny families
_SZ = Poly.gen(ZZ)  # s over Z, for the families' points on X_0(N)
_T = Poly.gen(ZZ)  # t, parameter of the sextic families (integer coefficients)
_RZT = PolyRing(ZZ)  # Z[t], coefficient ring of the family sextics
_RQS = PolyRing(QQ)  # Q[s], coefficient ring of the family Weierstrass models


def _xpoly(*coeffs) -> Poly:
    """Polynomial in x with Z[t] coefficients, low degree first; entries may
    be ints or Z[t] polynomials."""
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, Poly) else _RZT.from_int(c))
    return Poly(_RZT, out)


# ---------------------------------------------------------------------------
# rational parameterizations of cyclic isogenies (genus-zero degrees)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class X0Param:
    """j and j' as (numerator, denominator) pairs over Z[s], each coprime
    with a monic denominator.  Only j is stored; j' is its Atkin-Lehner
    flip j'(s) = j(c_N/s) (``_atkin_lehner_flip``), and for N = 1, j' = j."""

    n: int
    j: tuple
    j_prime: tuple


# c_N of the Atkin-Lehner involution s -> c_N/s of each row, N >= 2
_ATKIN_LEHNER = {
    2: 4096, 3: 729, 4: 256, 5: 125, 6: 72, 7: 49, 8: 32,
    9: 27, 10: 20, 12: 12, 13: 13, 16: 8, 18: 6, 25: 5,
}
X0_DEGREES = (1, *_ATKIN_LEHNER)


def _atkin_lehner_flip(pair, c: int) -> tuple:
    """s^d j(c/s) for j = num/den over Z[s], d = max(deg num, deg den), as a
    (numerator, denominator) pair divided by the denominator's leading
    coefficient.  Raises ``ArithmeticError`` when that division is not exact
    in Z, as it is not for a c that does not belong to the row."""
    num, den = pair
    d = max(num.degree, den.degree)

    def flipped(f):  # s^d f(c/s)
        return Poly(ZZ, [f.coeff(d - k) * c ** (d - k) for k in range(d + 1)])

    top, bottom = flipped(num), flipped(den)
    lead = bottom.lc()
    return tuple(Poly(ZZ, [ZZ.divexact(a, lead) for a in f.coeffs]) for f in (top, bottom))


@cache
def _x0_table():
    s = _SZ
    rows = {
        2: ((s + 16) ** 3, s),
        3: ((s + 27) * (s + 3) ** 3, s),
        4: ((s**2 + 16 * s + 16) ** 3, s * (s + 16)),
        5: ((s**2 + 10 * s + 5) ** 3, s),
        6: (
            (s + 6) ** 3 * (s**3 + 18 * s**2 + 84 * s + 24) ** 3,
            s * (s + 8) ** 3 * (s + 9) ** 2,
        ),
        7: ((s**2 + 13 * s + 49) * (s**2 + 5 * s + 1) ** 3, s),
        8: (
            (s**4 + 16 * s**3 + 80 * s**2 + 128 * s + 16) ** 3,
            s * (s + 4) ** 2 * (s + 8),
        ),
        9: (
            (s + 3) ** 3 * (s**3 + 9 * s**2 + 27 * s + 3) ** 3,
            s * (s**2 + 9 * s + 27),
        ),
        10: (
            (
                s**6
                + 20 * s**5
                + 160 * s**4
                + 640 * s**3
                + 1280 * s**2
                + 1040 * s
                + 80
            )
            ** 3,
            s * (s + 4) ** 5 * (s + 5) ** 2,
        ),
        12: (
            (s**2 + 6 * s + 6) ** 3
            * (
                s**6
                + 18 * s**5
                + 126 * s**4
                + 432 * s**3
                + 732 * s**2
                + 504 * s
                + 24
            )
            ** 3,
            s * (s + 2) ** 3 * (s + 3) ** 4 * (s + 4) ** 3 * (s + 6),
        ),
        13: (
            (s**2 + 5 * s + 13)
            * (s**4 + 7 * s**3 + 20 * s**2 + 19 * s + 1) ** 3,
            s,
        ),
        16: (
            (
                s**8
                + 16 * s**7
                + 112 * s**6
                + 448 * s**5
                + 1104 * s**4
                + 1664 * s**3
                + 1408 * s**2
                + 512 * s
                + 16
            )
            ** 3,
            s * (s + 2) ** 4 * (s + 4) * (s**2 + 4 * s + 8),
        ),
        18: (
            (s**3 + 6 * s**2 + 12 * s + 6) ** 3
            * (
                s**9
                + 18 * s**8
                + 144 * s**7
                + 666 * s**6
                + 1944 * s**5
                + 3672 * s**4
                + 4404 * s**3
                + 3096 * s**2
                + 1008 * s
                + 24
            )
            ** 3,
            s
            * (s + 2) ** 9
            * (s + 3) ** 2
            * (s**2 + 3 * s + 3) ** 2
            * (s**2 + 6 * s + 12),
        ),
        25: (
            (
                s**10
                + 10 * s**9
                + 55 * s**8
                + 200 * s**7
                + 525 * s**6
                + 1010 * s**5
                + 1425 * s**4
                + 1400 * s**3
                + 875 * s**2
                + 250 * s
                + 5
            )
            ** 3,
            s * (s**4 + 5 * s**3 + 15 * s**2 + 25 * s + 25),
        ),
    }
    one = Poly.one(ZZ)
    out = {1: X0Param(1, (s, one), (s, one))}
    for n, c in _ATKIN_LEHNER.items():
        out[n] = X0Param(n, rows[n], _atkin_lehner_flip(rows[n], c))
    return out


def x0_jpair(n: int) -> X0Param:
    """The pair (j_N, j'_N) of rational parameterizations of the modular
    curve of cyclic N-isogenies, for the genus-zero degrees."""
    table = _x0_table()
    if n not in table:
        raise ValueError(f"degree {n} has no genus-zero parameterization")
    return table[n]


# ---------------------------------------------------------------------------
# the family specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionalCase:
    p: int
    locus_factors: tuple  # irreducible factors over Z[t]; reduce mod p for the locus
    representative: Poly | None  # sextic/quintic over Z, or None when unstated
    statement_factors: tuple  # the loci as phrased in the family's summary form
    note: str = ""


@dataclass(frozen=True)
class KappaHalf:
    """Printed symbolic data of one half (t or -t) of a family's gluing:
    the elementary symmetric functions e1, e2, e3 of the three gamma ratios,
    as numerators over Z[t] of the shared denominator e_den, the scalar
    kappa, and the prefactor multiplying the family sextic in the expanded
    product, both as (numerator, denominator) pairs over Z[t]."""

    e1: Poly
    e2: Poly
    e3: Poly
    e_den: Poly
    kappa: tuple
    kappa_correction: int  # integer unit fixing the printed kappa (1 = as printed)
    prefactor: tuple


@dataclass(frozen=True)
class FamilySpec:
    id: str
    isogeny_degree: int
    e_model: tuple  # (a2, a4, a6) over Q[s]
    eprime_model: tuple
    delta_s: Poly
    delta_prime_s: Poly
    x0_point: Poly  # over Z[s]: the family's point on X_0(N), N = isogeny_degree
    s_of_t: Poly  # substitution imposed by the Galois restriction, over Z[t]
    validity_t: Poly  # over Z[t]; family defined where this is nonzero
    twist_t: Poly  # over Z[t]; left-hand coefficient of the C_t model
    sextic: Poly  # x-polynomial over Z[t], the right-hand side of C_t
    kappa_halves: tuple | None  # (plain, tilde) KappaHalf, or None
    r_denominators: dict  # name -> Z[t] denominator of the weighted differences
    printed_primes: tuple  # characteristics dividing the resultant gcd
    exceptional: tuple  # ExceptionalCase entries, p > 5 only

    @property
    def parity(self) -> str:
        """The isogeny degree's parity, "odd" or "even"; the benchmark keys
        its case quotas by it."""
        return "odd" if self.isogeny_degree % 2 else "even"


def _build_howe2() -> FamilySpec:
    s, t = _S, _T
    return FamilySpec(
        id="howe2",
        isogeny_degree=2,
        e_model=(-4 * (s + 1), 4 * (s + 1), Poly.zero(QQ)),
        eprime_model=(8 * (s + 1), 16 * s * (s + 1), Poly.zero(QQ)),
        delta_s=(2**12) * s * (s + 1) ** 3,
        delta_prime_s=(2**18) * s**2 * (s + 1) ** 3,
        x0_point=64 * _SZ,
        s_of_t=t**2,
        validity_t=t * (t**2 - 1) * (t**2 + 1),
        twist_t=t + 1,
        sextic=_xpoly(-t, 0, 2) * _xpoly(1, 0, 4 * (t**2 + t + 1), 0, 4 * t**2),
        kappa_halves=None,
        r_denominators={},
        printed_primes=(),
        exceptional=(
            ExceptionalCase(
                p=11,
                locus_factors=(t**2 + 3, t**2 + 4),
                representative=None,
                statement_factors=(t**2 + 3, t**2 + 4),
            ),
        ),
    )


def _build_deg3() -> FamilySpec:
    s, t = _S, _T
    a2 = (s**2 + 18 * s - 27).scale(Fraction(1, 4))
    sext = _xpoly(
        -16 * t,
        0,
        t**4 - 8 * t**3 + 42 * t**2 - 144 * t - 243,
        0,
        t**4 + 16 * t**3 - 126 * t**2 + 648 * t - 2187,
        0,
        16 * t**3,
    )
    base = (t**2 + 3) ** 21 * (t**2 + 27) ** 8
    e_den = 16 * t
    plain = KappaHalf(
        e1=t**4 - 8 * t**3 + 42 * t**2 - 144 * t - 243,
        e2=-(t**4 + 16 * t**3 - 126 * t**2 + 648 * t - 2187),
        e3=t**2 * e_den,
        e_den=e_den,
        kappa=(base * t**9 * (t**2 - 8 * t + 27) ** 3, 2**10),
        kappa_correction=16,
        prefactor=(base * t**8 * (t**2 - 8 * t + 27) ** 3, 2**10),
    )
    tilde = KappaHalf(
        e1=-(t**4 + 8 * t**3 + 42 * t**2 + 144 * t - 243),
        e2=t**4 - 16 * t**3 - 126 * t**2 - 648 * t - 2187,
        e3=t**2 * e_den,
        e_den=e_den,
        kappa=(-base * t**9 * (t**2 + 8 * t + 27) ** 3, 2**10),
        kappa_correction=16,
        prefactor=(base * t**8 * (t**2 + 8 * t + 27) ** 3, 2**10),
    )
    tail = (t**2 + 243) * (t**2 + 3)
    return FamilySpec(
        id="deg3",
        isogeny_degree=3,
        e_model=(a2, -36 * s, -(s**3) - 18 * s**2 + 27 * s),
        eprime_model=(
            a2,
            -(5 * s**3 + 165 * s**2 + 891 * s + 1215),
            -(s**5)
            - 65 * s**4
            - 1285 * s**3
            - 7614 * s**2
            - 17496 * s
            - 13851,
        ),
        delta_s=s * (s + 3) ** 6 * (s + 27) ** 2,
        delta_prime_s=s**3 * (s + 3) ** 6 * (s + 27) ** 2,
        x0_point=_SZ,
        s_of_t=t**2,
        validity_t=t
        * (t**2 + 27)
        * (t**2 + 243)
        * (t**2 + 3)
        * (t**4 - 10 * t**2 + 729),
        twist_t=(t**2 + 27) * (t**2 - 8 * t + 27),
        sextic=sext,
        kappa_halves=(plain, tilde),
        r_denominators={
            "R2": t * (t**2 + 27) ** 3 * tail,
            "R3": t**5 * (t**2 + 27) ** 3 * tail,
            "R5": t**5 * (t**2 + 27) ** 5 * tail,
        },
        printed_primes=(2, 3, 5, 13, 17),
        exceptional=(
            ExceptionalCase(
                p=13,
                locus_factors=(t**4 + 7 * t**2 + 1,),
                representative=Poly.from_ints(ZZ, [1, 2, 7, 0, 7, 11, 1]),
                statement_factors=(t**2 + 2 * t + 12, t**2 - 2 * t + 12),
                note="summary phrasing t^2+2t = -12; the two quadratics "
                "multiply to the quartic locus mod 13",
            ),
            ExceptionalCase(
                p=17,
                locus_factors=(t**2 + 7,),
                representative=Poly.from_ints(ZZ, [1, 4, 13, 0, 13, 13, 1]),
                statement_factors=(t**2 + 7,),
            ),
        ),
    )


def _build_deg4() -> FamilySpec:
    s, t = _S, _T
    sigma = -8 * (2 * t**4 - 4 * t**3 + 5 * t**2 - 4 * t + 2)
    sigma_tilde = -8 * (2 * t**4 + 4 * t**3 + 5 * t**2 + 4 * t + 2)
    # the printed g32 = -4/t (4/t for the tilde half), written over the
    # shared denominator t: e1 = g32 + sigma, e2 = prod + g32 sigma and
    # e3 = g32 prod, each times t
    g32, g32_tilde = -4, 4
    prod = 16 * t**4
    base = (t**2 + 1) ** 25
    plain = KappaHalf(
        e1=g32 + sigma * t,
        e2=prod * t + g32 * sigma,
        e3=g32 * prod,
        e_den=t,
        kappa=(-(2**172) * t**11 * (t - 1) ** 3 * base * (t**2 - t + 1) ** 3, 1),
        kappa_correction=1,
        prefactor=((2**172) * t**10 * (t - 1) ** 3 * base * (t**2 - t + 1) ** 3, 1),
    )
    tilde = KappaHalf(
        e1=g32_tilde + sigma_tilde * t,
        e2=prod * t + g32_tilde * sigma_tilde,
        e3=g32_tilde * prod,
        e_den=t,
        kappa=(-(2**172) * t**11 * (t + 1) ** 3 * base * (t**2 + t + 1) ** 3, 1),
        kappa_correction=1,
        prefactor=(-(2**172) * t**10 * (t + 1) ** 3 * base * (t**2 + t + 1) ** 3, 1),
    )
    tail = (t**2 + 1) * (2 * t**2 + 1) * (t**2 + 2)
    tail_no1 = (2 * t**2 + 1) * (t**2 + 2)
    return FamilySpec(
        id="deg4",
        isogeny_degree=4,
        e_model=(s * (s - 8), 16 * s**2, Poly.zero(QQ)),
        eprime_model=(
            s * (s - 8),
            -16 * s**2 * (5 * s + 4),
            -64 * s**3 * (s - 1) * (s + 8),
        ),
        delta_s=(2**12) * s**7 * (s - 16),
        delta_prime_s=(2**12) * s**7 * (s - 16) ** 4,
        x0_point=_SZ - 16,
        s_of_t=16 * t**2 + 16,
        # the factor t appears in the detailed nonvanishing condition but not
        # in the summary statement; it is included here
        validity_t=t
        * (t**2 + 1)
        * (2 * t**2 + 1)
        * (t**2 + 2)
        * (t**2 - 1)
        * (t**4 + t**2 + 1),
        twist_t=(t**2 + 1) * (t**2 - t + 1) * (t - 1),
        sextic=_xpoly(t, 0, 4) * _xpoly(1, 0, -sigma, 0, 16 * t**4),
        kappa_halves=(plain, tilde),
        r_denominators={
            "R2": t * tail,
            "R3": t**5 * tail,
            "R5": t**5 * (t**2 + 1) ** 3 * tail_no1,
            "R23": t**11 * tail,
            "R35": t**41 * (t**2 + 1) ** 7 * tail_no1,
            "R25": t**11 * (t**2 + 1) ** 5 * tail_no1,
        },
        printed_primes=(2, 3, 5, 7, 11, 23, 37, 47),
        exceptional=(
            ExceptionalCase(
                p=23,
                locus_factors=(t**2 + 13, t**2 + 16),
                representative=Poly.from_ints(ZZ, [2, 0, 0, 1, 0, 0, 1]),
                statement_factors=(t**2 + 13, t**2 + 16),
                note="summary phrasing t^2 in {10, 7}, the roots of the "
                "locus factors mod 23",
            ),
            ExceptionalCase(
                p=47,
                locus_factors=(t**2 - 26, t**2 - 38),
                representative=Poly.from_ints(ZZ, [1, 16, 41, 4, 41, 16, 1]),
                statement_factors=(t**2 - 26, t**2 - 38),
                note="summary phrasing t^2 in {26, 38}, i.e. the factors "
                "t^2-26 = t^2+21 and t^2-38 = t^2+9 mod 47; confirmed by "
                "direct recomputation of the common zero locus",
            ),
        ),
    )


def _build_deg7() -> FamilySpec:
    s, t = _S, _T
    quart = s**4 + 14 * s**3 + 63 * s**2 + 70 * s - 7
    a2 = quart.scale(Fraction(1, 4))
    bq = -(
        5 * s**7
        + 165 * s**6
        + 2180 * s**5
        + 14555 * s**4
        + 49820 * s**3
        + 75215 * s**2
        + 25431 * s
        + 2450
    )
    cq = (
        -(s**11)
        - 61 * s**10
        - 1563 * s**9
        - 22420 * s**8
        - 199153 * s**7
        - 1132425 * s**6
        - 4079892 * s**5
        - 8795374 * s**4
        - 9879408 * s**3
        - 4152015 * s**2
        - 725788 * s
        - 45276
    )
    sext = _xpoly(
        -16 * t,
        0,
        t**8
        - 8 * t**7
        + 38 * t**6
        - 128 * t**5
        + 327 * t**4
        - 640 * t**3
        + 910 * t**2
        - 784 * t
        - 343,
        0,
        t**8
        + 16 * t**7
        - 130 * t**6
        + 640 * t**5
        - 2289 * t**4
        + 6272 * t**3
        - 13034 * t**2
        + 19208 * t
        - 16807,
        0,
        16 * t**7,
    )
    shared = (t**2 - t + 7) ** 8 * (t**2 + t + 7) ** 8 * (t**4 + 5 * t**2 + 1) ** 21
    plain_fac = (t**2 - 5 * t + 7) ** 3 * (t**2 - 3 * t + 7) ** 3 * shared
    tilde_fac = (t**2 + 5 * t + 7) ** 3 * (t**2 + 3 * t + 7) ** 3 * shared
    e_den = 16 * t
    plain = KappaHalf(
        e1=t**8
        - 8 * t**7
        + 38 * t**6
        - 128 * t**5
        + 327 * t**4
        - 640 * t**3
        + 910 * t**2
        - 784 * t
        - 343,
        e2=-(
            t**8
            + 16 * t**7
            - 130 * t**6
            + 640 * t**5
            - 2289 * t**4
            + 6272 * t**3
            - 13034 * t**2
            + 19208 * t
            - 16807
        ),
        e3=t**6 * e_den,
        e_den=e_den,
        kappa=(t**17 * plain_fac, 2**10),
        kappa_correction=16,
        prefactor=(t**16 * plain_fac, 2**10),
    )
    tilde = KappaHalf(
        e1=-(
            t**8
            + 8 * t**7
            + 38 * t**6
            + 128 * t**5
            + 327 * t**4
            + 640 * t**3
            + 910 * t**2
            + 784 * t
            - 343
        ),
        e2=t**8
        - 16 * t**7
        - 130 * t**6
        - 640 * t**5
        - 2289 * t**4
        - 6272 * t**3
        - 13034 * t**2
        - 19208 * t
        - 16807,
        e3=t**6 * e_den,
        e_den=e_den,
        kappa=(-(t**17) * tilde_fac, 2**10),
        kappa_correction=16,
        prefactor=(t**16 * tilde_fac, 2**10),
    )
    tail = (t**2 + 7) * (t**4 + 5 * t**2 + 1) * (t**4 + 245 * t**2 + 2401)
    return FamilySpec(
        id="deg7",
        isogeny_degree=7,
        e_model=(a2, -36 * s, -s * quart),
        eprime_model=(a2, bq, cq),
        delta_s=s * (s**2 + 5 * s + 1) ** 6 * (s**2 + 13 * s + 49) ** 2,
        delta_prime_s=s**7 * (s**2 + 5 * s + 1) ** 6 * (s**2 + 13 * s + 49) ** 2,
        x0_point=_SZ,
        s_of_t=t**2,
        validity_t=t
        * (t**4 + 13 * t**2 + 49)
        * (t**8 - 6 * t**6 + 43 * t**4 - 294 * t**2 + 2401)
        * (t**4 + 5 * t**2 + 1)
        * (t**2 + 7)
        * (t**4 + 245 * t**2 + 2401),
        twist_t=(t**4 + 5 * t**2 + 1) * (t**2 - 5 * t + 7) * (t**2 - 3 * t + 7),
        sextic=sext,
        kappa_halves=(plain, tilde),
        r_denominators={
            "R2": t * (t**4 + 13 * t**2 + 49) ** 2 * tail,
            "R3": t**9 * (t**4 + 13 * t**2 + 49) ** 2 * tail,
            "R5": t**9 * (t**4 + 13 * t**2 + 49) ** 4 * tail,
        },
        printed_primes=(2, 3, 5, 7, 13, 17, 19, 41, 167, 571603),
        exceptional=(
            ExceptionalCase(
                p=13,
                locus_factors=(t**2 + 6,),
                representative=Poly.from_ints(ZZ, [0, 8, 0, 1, 0, 1]),
                statement_factors=(t**2 - 7,),
                note="summary phrasing t^2 = 7, which is -6 mod 13",
            ),
            ExceptionalCase(
                p=17,
                locus_factors=(t**4 + 11 * t**2 + 15, t**4 + 7 * t**2 + 15),
                representative=Poly.from_ints(ZZ, [0, 7, 0, 1, 0, 1]),
                statement_factors=(
                    t**2 + 3 * t + 10,
                    t**2 + 8 * t + 1,
                    t**2 + 9 * t + 10,
                    t**2 + 14 * t + 10,
                ),
                note="the quadratic summary factors multiply to the quartic "
                "loci mod 17 once t^2+8t+1 is read as t^2+8t+10",
            ),
            ExceptionalCase(
                p=41,
                locus_factors=(t**4 + 26 * t**2 + 8,),
                representative=Poly.from_ints(ZZ, [0, 14, 0, 1, 0, 1]),
                statement_factors=(t**2 + t + 34, t**2 - t + 34),
                note="the summary quadratics multiply to the quartic locus "
                "mod 41",
            ),
        ),
    )


@cache
def _family_table() -> dict:
    specs = (build() for build in (_build_howe2, _build_deg3, _build_deg4, _build_deg7))
    return {spec.id: spec for spec in specs}


def family_spec(family_id: str) -> FamilySpec:
    table = _family_table()
    if family_id not in table:
        raise ValueError(f"unknown family {family_id!r}")
    return table[family_id]


FAMILY_IDS = ("howe2", "deg3", "deg4", "deg7")


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def eval_poly(poly: Poly, field, value):
    """Evaluate a Z[·]- or Q[·]-polynomial at an element of an arbitrary
    field (characteristic not 2)."""
    acc = field.zero
    for c in reversed(poly.coeffs):
        acc = field.mul(acc, value)
        acc = field.add(acc, _scalar_in(field, c))
    return acc


def _scalar_in(field, c):
    """The int or Fraction c as an element of the field; only the Q[s]
    Weierstrass models carry Fractions."""
    if isinstance(c, int):
        return field.from_int(c)
    num = field.from_int(c.numerator)
    if c.denominator == 1:
        return num
    return field.div(num, field.from_int(c.denominator))


def weierstrass_at(spec: FamilySpec, field, s_value, prime: bool = False):
    """The family's Weierstrass model (or its isogenous partner with
    ``prime=True``) specialized at a concrete s-value."""
    model = spec.eprime_model if prime else spec.e_model
    a2, a4, a6 = (eval_poly(c, field, s_value) for c in model)
    return WeierstrassModel.from_coefficients(field, a2, a4, a6)


def _sextic_at(spec: FamilySpec, field, t_value) -> Poly:
    """The sextic of C_t over the field: each Z[t] coefficient of
    ``spec.sextic`` evaluated at t."""
    return Poly(field, [eval_poly(c, field, t_value) for c in spec.sextic.coeffs])


def family_sextic(spec: FamilySpec, field, t_value):
    """The C_t data (twistFactor, sextic over the field) at a concrete
    parameter, which must avoid the validity locus (``ValueError`` if not).
    Off the locus the sextic is separable of degree 6 in every field the
    package builds, as ``TestValidityLocus`` proves over Z[t]."""
    if field.is_zero(eval_poly(spec.validity_t, field, t_value)):
        raise ValueError("outside family locus")
    return eval_poly(spec.twist_t, field, t_value), _sextic_at(spec, field, t_value)


def curve_pair(spec: FamilySpec, field, t_value):
    """The sextics of C_t and C_{-t} over the field, or None when t lies on
    the validity locus, so that t is not a parameter of the pair; -t lies
    on it exactly when t does, since ``validity_t`` is odd.  Otherwise both
    are separable of degree 6, as ``TestValidityLocus`` in
    tests/test_families.py proves over Z[t]."""
    if field.is_zero(eval_poly(spec.validity_t, field, t_value)):
        return None
    return _sextic_at(spec, field, t_value), _sextic_at(spec, field, field.neg(t_value))


# ---------------------------------------------------------------------------
# symbolic identity checks
# ---------------------------------------------------------------------------


def family_identity_check(spec: FamilySpec) -> dict:
    """Exact verification over Q[s] of the discriminant and j-invariant
    closed forms of both Weierstrass models: Delta as a polynomial, and
    j = jn/jd as c4^3 * jd == jn * Delta, where jn/jd is j_N (for E) or j'_N
    (for E') of the X_0(N) table at the family's point ``x0_point``.
    Returns per-identity booleans."""
    row = x0_jpair(spec.isogeny_degree)
    report = {}
    for tag, model, delta, pair in (
        ("E", spec.e_model, spec.delta_s, row.j),
        ("Eprime", spec.eprime_model, spec.delta_prime_s, row.j_prime),
    ):
        jn, jd = (f.evaluate(spec.x0_point).map_coeffs(QQ, QQ.from_int) for f in pair)
        E = WeierstrassModel.from_coefficients(_RQS, *model)
        c4_cubed, disc = j_pair(E)
        report[f"delta_{tag}"] = disc == delta
        report[f"j_{tag}"] = c4_cubed * jd == jn * disc
    report["pass"] = all(report.values())
    return report


def symbolic_kappa_check(spec: FamilySpec) -> dict:
    """Exact verification that, for each half of the family, the product
    kappa*(e3 x^6 - e2 x^4 + e1 x^2 - 1) equals the prefactor times the
    family sextic (at t for the plain half, at -t for the other).  With
    kappa = kn/kd, prefactor = pn/pd and e_i over e_den, the identity is
    checked cleared of denominators, in Z[t][x]:
    kn kc pd (e3 x^6 - e2 x^4 + e1 x^2 - e_den) == pn kd e_den C(+-t)."""
    if spec.kappa_halves is None:
        raise ValueError(f"family {spec.id} carries no symbolic kappa data")
    report = {}
    for name, half, negate in (
        ("plain", spec.kappa_halves[0], False),
        ("tilde", spec.kappa_halves[1], True),
    ):
        (kn, kd), (pn, pd) = half.kappa, half.prefactor
        assembled = _xpoly(-half.e_den, 0, half.e1, 0, -half.e2, 0, half.e3)
        target = spec.sextic
        if negate:
            target = Poly(_RZT, [c.substitute_neg() for c in target.coeffs])
        left = assembled.scale(kn * half.kappa_correction * pd)
        report[name] = left == target.scale(pn * kd * half.e_den)
    report["pass"] = all(report[k] for k in ("plain", "tilde"))
    return report
