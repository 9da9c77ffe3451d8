"""The four one-parameter families of genus-2 curve pairs and the table of
rational parameterizations of cyclic isogenies they are built from.

Each :class:`FamilySpec` is pure data: the two Weierstrass models over Q(s),
their closed-form discriminants and j-invariants, the substitution s(t)
imposed by the Galois restriction, the twisted sextic family C_t, the
validity locus, the symbolic kappa/gamma identities, the printed denominators
of the weighted difference polynomials, and the exceptional characteristic
data.  The operations verify the identities exactly and evaluate the family
at concrete parameter values over Q or a finite field.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ellcurve import WeierstrassModel, curve_discriminant, j_invariant
from .exact.poly import Poly, PolyRing, discriminant
from .exact.ratfunc import FunctionField, RationalFunction
from .exact.rings import QQ, ZZ

# generators used throughout the data below
_S = Poly.gen(QQ)  # s, coefficient parameter of the isogeny families
_T = Poly.gen(ZZ)  # t, parameter of the sextic families (integer coefficients)
_TQ = Poly.gen(QQ)  # t over Q, for substitutions with fractional scaling
_RZT = PolyRing(ZZ)  # Z[t], coefficient ring of the family sextics

_FT = FunctionField(QQ, "t")
_FS = FunctionField(QQ, "s")


def _quarter(c: int) -> Fraction:
    return Fraction(c, 4)


def _xpoly(*coeffs) -> Poly:
    """Polynomial in x with Z[t] coefficients, low degree first; entries may
    be ints or Z[t] polynomials."""
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, Poly) else _RZT.from_int(c))
    return Poly(_RZT, out)


def _rf(num, den=None) -> RationalFunction:
    """Rational function in Q(t) from Z[t] (or Q[t]) polynomial data."""
    num_q = num.map_coeffs(QQ, Fraction) if num.ring is ZZ else num
    if den is None:
        return RationalFunction.from_poly(num_q)
    den_q = den.map_coeffs(QQ, Fraction) if den.ring is ZZ else den
    return RationalFunction(num_q, den_q)


# ---------------------------------------------------------------------------
# rational parameterizations of cyclic isogenies (genus-zero degrees)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class X0Param:
    n: int
    j: RationalFunction
    j_prime: RationalFunction


def _x0_table():
    s = _S
    rows = {
        1: ((s, 1), (s, 1)),
        2: (((s + 16) ** 3, s), ((s + 256) ** 3, s**2)),
        3: (((s + 27) * (s + 3) ** 3, s), ((s + 27) * (s + 243) ** 3, s**3)),
        4: (
            ((s**2 + 16 * s + 16) ** 3, s * (s + 16)),
            ((s**2 + 256 * s + 4096) ** 3, s**4 * (s + 16)),
        ),
        5: (((s**2 + 10 * s + 5) ** 3, s), ((s**2 + 250 * s + 3125) ** 3, s**5)),
        6: (
            (
                (s + 6) ** 3 * (s**3 + 18 * s**2 + 84 * s + 24) ** 3,
                s * (s + 8) ** 3 * (s + 9) ** 2,
            ),
            (
                (s + 12) ** 3 * (s**3 + 252 * s**2 + 3888 * s + 15552) ** 3,
                s**6 * (s + 8) ** 2 * (s + 9) ** 3,
            ),
        ),
        7: (
            ((s**2 + 13 * s + 49) * (s**2 + 5 * s + 1) ** 3, s),
            ((s**2 + 13 * s + 49) * (s**2 + 245 * s + 2401) ** 3, s**7),
        ),
        8: (
            (
                (s**4 + 16 * s**3 + 80 * s**2 + 128 * s + 16) ** 3,
                s * (s + 4) ** 2 * (s + 8),
            ),
            (
                (s**4 + 256 * s**3 + 5120 * s**2 + 32768 * s + 65536) ** 3,
                s**8 * (s + 4) * (s + 8) ** 2,
            ),
        ),
        9: (
            (
                (s + 3) ** 3 * (s**3 + 9 * s**2 + 27 * s + 3) ** 3,
                s * (s**2 + 9 * s + 27),
            ),
            (
                (s + 9) ** 3 * (s**3 + 243 * s**2 + 2187 * s + 6561) ** 3,
                s**9 * (s**2 + 9 * s + 27),
            ),
        ),
        10: (
            (
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
            (
                (
                    s**6
                    + 260 * s**5
                    + 6400 * s**4
                    + 64000 * s**3
                    + 320000 * s**2
                    + 800000 * s
                    + 800000
                )
                ** 3,
                s**10 * (s + 4) ** 2 * (s + 5) ** 5,
            ),
        ),
        12: (
            (
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
            (
                (s**2 + 12 * s + 24) ** 3
                * (
                    s**6
                    + 252 * s**5
                    + 4392 * s**4
                    + 31104 * s**3
                    + 108864 * s**2
                    + 186624 * s
                    + 124416
                )
                ** 3,
                s**12 * (s + 2) * (s + 3) ** 3 * (s + 4) ** 4 * (s + 6) ** 3,
            ),
        ),
        13: (
            (
                (s**2 + 5 * s + 13)
                * (s**4 + 7 * s**3 + 20 * s**2 + 19 * s + 1) ** 3,
                s,
            ),
            (
                (s**2 + 5 * s + 13)
                * (s**4 + 247 * s**3 + 3380 * s**2 + 15379 * s + 28561) ** 3,
                s**13,
            ),
        ),
        16: (
            (
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
            (
                (
                    s**8
                    + 256 * s**7
                    + 5632 * s**6
                    + 53248 * s**5
                    + 282624 * s**4
                    + 917504 * s**3
                    + 1835008 * s**2
                    + 2097152 * s
                    + 1048576
                )
                ** 3,
                s**16 * (s + 2) * (s + 4) ** 4 * (s**2 + 4 * s + 8),
            ),
        ),
        18: (
            (
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
            (
                (s**3 + 12 * s**2 + 36 * s + 36) ** 3
                * (
                    s**9
                    + 252 * s**8
                    + 4644 * s**7
                    + 39636 * s**6
                    + 198288 * s**5
                    + 629856 * s**4
                    + 1294704 * s**3
                    + 1679616 * s**2
                    + 1259712 * s
                    + 419904
                )
                ** 3,
                s**18
                * (s + 2) ** 2
                * (s + 3) ** 9
                * (s**2 + 3 * s + 3)
                * (s**2 + 6 * s + 12) ** 2,
            ),
        ),
        25: (
            (
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
            (
                (
                    s**10
                    + 250 * s**9
                    + 4375 * s**8
                    + 35000 * s**7
                    + 178125 * s**6
                    + 631250 * s**5
                    + 1640625 * s**4
                    + 3125000 * s**3
                    + 4296875 * s**2
                    + 3906250 * s
                    + 1953125
                )
                ** 3,
                s**25 * (s**4 + 5 * s**3 + 15 * s**2 + 25 * s + 25),
            ),
        ),
    }
    out = {}
    for n, ((jn, jd), (jpn, jpd)) in rows.items():
        jn = jn if isinstance(jn, Poly) else Poly.constant(QQ, Fraction(jn))
        jd = jd if isinstance(jd, Poly) else Poly.constant(QQ, Fraction(jd))
        jpd = jpd if isinstance(jpd, Poly) else Poly.constant(QQ, Fraction(jpd))
        out[n] = X0Param(n, RationalFunction(jn, jd), RationalFunction(jpn, jpd))
    return out


_X0_CACHE = None


def x0_jpair(n: int) -> X0Param:
    """The pair (j_N, j'_N) of rational parameterizations of the modular
    curve of cyclic N-isogenies, for the genus-zero degrees."""
    global _X0_CACHE
    if _X0_CACHE is None:
        _X0_CACHE = _x0_table()
    if n not in _X0_CACHE:
        raise ValueError(f"degree {n} has no genus-zero parameterization")
    return _X0_CACHE[n]


X0_DEGREES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)


def cusp_check(n: int, s_value) -> bool:
    """True iff ``s_value`` avoids the denominator roots (the cusps) of both
    parameterizations of degree ``n``."""
    param = x0_jpair(n)
    v = Fraction(s_value)
    return (
        param.j.den.evaluate(v) != 0
        and param.j_prime.den.evaluate(v) != 0
    )


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
    the elementary symmetric functions of the three gamma ratios, the scalar
    kappa, and the prefactor multiplying the family sextic in the expanded
    product."""

    e1: RationalFunction
    e2: RationalFunction
    e3: RationalFunction
    kappa: RationalFunction
    kappa_correction: int  # integer unit fixing the printed kappa (1 = as printed)
    prefactor: RationalFunction


@dataclass(frozen=True)
class FamilySpec:
    id: str
    isogeny_degree: int
    parity: str  # "odd" | "even"
    e_model: tuple  # (a2, a4, a6) over Q[s]
    eprime_model: tuple
    delta_s: Poly
    delta_prime_s: Poly
    j_s: tuple  # (numerator, denominator) over Q[s], the family-local form
    j_prime_s: tuple
    s_of_t: Poly  # substitution imposed by the Galois restriction, over Q[t]
    validity_t: Poly  # over Z[t]; family defined where this is nonzero
    twist_t: Poly  # over Z[t]; left-hand coefficient of the C_t model
    sextic_factors: tuple  # x-polynomials with Z[t] coefficients; product = C_t RHS
    kappa_halves: tuple | None  # (plain, tilde) KappaHalf, or None
    r_denominators: dict  # name -> Z[t] denominator of the weighted differences
    printed_primes: tuple  # characteristics dividing the resultant gcd
    exceptional: tuple  # ExceptionalCase entries, p > 5 only
    validity_note: str = ""

    def sextic_zt(self) -> Poly:
        """The family sextic as a single polynomial in x over Z[t]."""
        out = Poly.one(_RZT)
        for f in self.sextic_factors:
            out = out * f
        return out


def _build_howe2() -> FamilySpec:
    s, t = _S, _T
    return FamilySpec(
        id="howe2",
        isogeny_degree=2,
        parity="even",
        e_model=(-4 * (s + 1), 4 * (s + 1), Poly.zero(QQ)),
        eprime_model=(8 * (s + 1), 16 * s * (s + 1), Poly.zero(QQ)),
        delta_s=(2**12) * s * (s + 1) ** 3,
        delta_prime_s=(2**18) * s**2 * (s + 1) ** 3,
        j_s=((64 * s + 16) ** 3, 64 * s),
        j_prime_s=((64 * s + 256) ** 3, 4096 * s**2),
        s_of_t=_TQ**2,
        validity_t=t * (t**2 - 1) * (t**2 + 1),
        twist_t=t + 1,
        sextic_factors=(
            _xpoly(-t, 0, 2),
            _xpoly(1, 0, 4 * (t**2 + t + 1), 0, 4 * t**2),
        ),
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
    a2 = _quarter(1) * (s**2 + 18 * s - 27)
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
    plain = KappaHalf(
        e1=_rf(t**4 - 8 * t**3 + 42 * t**2 - 144 * t - 243, 16 * t),
        e2=_rf(-(t**4 + 16 * t**3 - 126 * t**2 + 648 * t - 2187), 16 * t),
        e3=_rf(t**2),
        kappa=_rf(base * t**9 * (t**2 - 8 * t + 27) ** 3, _T * 0 + 2**10),
        kappa_correction=16,
        prefactor=_rf(base * t**8 * (t**2 - 8 * t + 27) ** 3, _T * 0 + 2**10),
    )
    tilde = KappaHalf(
        e1=_rf(-(t**4 + 8 * t**3 + 42 * t**2 + 144 * t - 243), 16 * t),
        e2=_rf(t**4 - 16 * t**3 - 126 * t**2 - 648 * t - 2187, 16 * t),
        e3=_rf(t**2),
        kappa=_rf(-base * t**9 * (t**2 + 8 * t + 27) ** 3, _T * 0 + 2**10),
        kappa_correction=16,
        prefactor=_rf(base * t**8 * (t**2 + 8 * t + 27) ** 3, _T * 0 + 2**10),
    )
    tail = (t**2 + 243) * (t**2 + 3)
    return FamilySpec(
        id="deg3",
        isogeny_degree=3,
        parity="odd",
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
        j_s=((s + 27) * (s + 3) ** 3, s),
        j_prime_s=((s + 27) * (s + 243) ** 3, s**3),
        s_of_t=_TQ**2,
        validity_t=t
        * (t**2 + 27)
        * (t**2 + 243)
        * (t**2 + 3)
        * (t**4 - 10 * t**2 + 729),
        twist_t=(t**2 + 27) * (t**2 - 8 * t + 27),
        sextic_factors=(sext,),
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
    g32 = _rf(-4 * Poly.one(ZZ), t)
    g32_tilde = _rf(4 * Poly.one(ZZ), t)
    prod = _rf(16 * t**4)
    base = (t**2 + 1) ** 25
    plain = KappaHalf(
        e1=g32 + _rf(sigma),
        e2=prod + g32 * _rf(sigma),
        e3=g32 * prod,
        kappa=_rf(-(2**172) * t**11 * (t - 1) ** 3 * base * (t**2 - t + 1) ** 3),
        kappa_correction=1,
        prefactor=_rf(
            (2**172) * t**10 * (t - 1) ** 3 * base * (t**2 - t + 1) ** 3
        ),
    )
    tilde = KappaHalf(
        e1=g32_tilde + _rf(sigma_tilde),
        e2=prod + g32_tilde * _rf(sigma_tilde),
        e3=g32_tilde * prod,
        kappa=_rf(-(2**172) * t**11 * (t + 1) ** 3 * base * (t**2 + t + 1) ** 3),
        kappa_correction=1,
        prefactor=_rf(
            -(2**172) * t**10 * (t + 1) ** 3 * base * (t**2 + t + 1) ** 3
        ),
    )
    tail = (t**2 + 1) * (2 * t**2 + 1) * (t**2 + 2)
    tail_no1 = (2 * t**2 + 1) * (t**2 + 2)
    return FamilySpec(
        id="deg4",
        isogeny_degree=4,
        parity="even",
        e_model=(s * (s - 8), 16 * s**2, Poly.zero(QQ)),
        eprime_model=(
            s * (s - 8),
            -16 * s**2 * (5 * s + 4),
            -64 * s**3 * (s - 1) * (s + 8),
        ),
        delta_s=(2**12) * s**7 * (s - 16),
        delta_prime_s=(2**12) * s**7 * (s - 16) ** 4,
        j_s=((s**2 - 16 * s + 16) ** 3, s * (s - 16)),
        j_prime_s=((s**2 + 224 * s + 256) ** 3, s * (s - 16) ** 4),
        s_of_t=16 * _TQ**2 + 16,
        validity_t=t
        * (t**2 + 1)
        * (2 * t**2 + 1)
        * (t**2 + 2)
        * (t**2 - 1)
        * (t**4 + t**2 + 1),
        twist_t=(t**2 + 1) * (t**2 - t + 1) * (t - 1),
        sextic_factors=(
            _xpoly(t, 0, 4),
            _xpoly(1, 0, -sigma, 0, 16 * t**4),
        ),
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
        validity_note="the factor t appears in the detailed nonvanishing "
        "condition but not in the summary statement; it is included here",
    )


def _build_deg7() -> FamilySpec:
    s, t = _S, _T
    quart = s**4 + 14 * s**3 + 63 * s**2 + 70 * s - 7
    a2 = _quarter(1) * quart
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
    plain = KappaHalf(
        e1=_rf(
            t**8
            - 8 * t**7
            + 38 * t**6
            - 128 * t**5
            + 327 * t**4
            - 640 * t**3
            + 910 * t**2
            - 784 * t
            - 343,
            16 * t,
        ),
        e2=_rf(
            -(
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
            16 * t,
        ),
        e3=_rf(t**6),
        kappa=_rf(t**17 * plain_fac, _T * 0 + 2**10),
        kappa_correction=16,
        prefactor=_rf(t**16 * plain_fac, _T * 0 + 2**10),
    )
    tilde = KappaHalf(
        e1=_rf(
            -(
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
            16 * t,
        ),
        e2=_rf(
            t**8
            - 16 * t**7
            - 130 * t**6
            - 640 * t**5
            - 2289 * t**4
            - 6272 * t**3
            - 13034 * t**2
            - 19208 * t
            - 16807,
            16 * t,
        ),
        e3=_rf(t**6),
        kappa=_rf(-(t**17) * tilde_fac, _T * 0 + 2**10),
        kappa_correction=16,
        prefactor=_rf(t**16 * tilde_fac, _T * 0 + 2**10),
    )
    tail = (t**2 + 7) * (t**4 + 5 * t**2 + 1) * (t**4 + 245 * t**2 + 2401)
    return FamilySpec(
        id="deg7",
        isogeny_degree=7,
        parity="odd",
        e_model=(a2, -36 * s, -s * quart),
        eprime_model=(a2, bq, cq),
        delta_s=s * (s**2 + 5 * s + 1) ** 6 * (s**2 + 13 * s + 49) ** 2,
        delta_prime_s=s**7 * (s**2 + 5 * s + 1) ** 6 * (s**2 + 13 * s + 49) ** 2,
        j_s=((s**2 + 13 * s + 49) * (s**2 + 5 * s + 1) ** 3, s),
        j_prime_s=((s**2 + 13 * s + 49) * (s**2 + 245 * s + 2401) ** 3, s**7),
        s_of_t=_TQ**2,
        validity_t=t
        * (t**4 + 13 * t**2 + 49)
        * (t**8 - 6 * t**6 + 43 * t**4 - 294 * t**2 + 2401)
        * (t**4 + 5 * t**2 + 1)
        * (t**2 + 7)
        * (t**4 + 245 * t**2 + 2401),
        twist_t=(t**4 + 5 * t**2 + 1) * (t**2 - 5 * t + 7) * (t**2 - 3 * t + 7),
        sextic_factors=(sext,),
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


_FAMILY_CACHE: dict = {}


def family_spec(family_id: str) -> FamilySpec:
    if not _FAMILY_CACHE:
        for builder in (_build_howe2, _build_deg3, _build_deg4, _build_deg7):
            spec = builder()
            _FAMILY_CACHE[spec.id] = spec
    if family_id not in _FAMILY_CACHE:
        raise ValueError(f"unknown family {family_id!r}")
    return _FAMILY_CACHE[family_id]


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
    if isinstance(c, int):
        return field.from_int(c)
    fr = Fraction(c)
    num = field.from_int(fr.numerator)
    if fr.denominator == 1:
        return num
    return field.div(num, field.from_int(fr.denominator))


def weierstrass_at(spec: FamilySpec, field, s_value, prime: bool = False):
    """The family's Weierstrass model (or its isogenous partner with
    ``prime=True``) specialized at a concrete s-value."""
    model = spec.eprime_model if prime else spec.e_model
    a2, a4, a6 = (eval_poly(c, field, s_value) for c in model)
    return WeierstrassModel.from_coefficients(field, a2, a4, a6)


def family_sextic(spec: FamilySpec, field, t_value):
    """The C_t data (twistFactor, separable sextic over the field) at a
    concrete parameter; the parameter must avoid the validity locus."""
    if field.char == 2:
        raise ValueError("characteristic 2 unsupported")
    if field.is_zero(eval_poly(spec.validity_t, field, t_value)):
        raise ValueError("outside family locus")
    twist = eval_poly(spec.twist_t, field, t_value)
    sextic = Poly.one(field)
    for fac in spec.sextic_factors:
        coeffs = [eval_poly(c, field, t_value) for c in fac.coeffs]
        sextic = sextic * Poly(field, coeffs)
    if sextic.degree != 6:
        raise AssertionError("family sextic degenerated")
    if field.is_zero(discriminant(sextic)):
        raise AssertionError("family sextic inseparable inside validity locus")
    return twist, sextic


def family_pair(spec: FamilySpec, field, t_value):
    """(C_t data, C_{-t} data)."""
    return (
        family_sextic(spec, field, t_value),
        family_sextic(spec, field, field.neg(t_value)),
    )


# ---------------------------------------------------------------------------
# symbolic identity checks
# ---------------------------------------------------------------------------


def _fs_model(model) -> WeierstrassModel:
    a2, a4, a6 = (_FS.from_poly(c) for c in model)
    return WeierstrassModel.from_coefficients(_FS, a2, a4, a6)


def family_identity_check(spec: FamilySpec) -> dict:
    """Exact verification over Q(s) of the discriminant and j-invariant
    closed forms of both Weierstrass models; returns per-identity booleans."""
    report = {}
    for tag, model, delta, jpair in (
        ("E", spec.e_model, spec.delta_s, spec.j_s),
        ("Eprime", spec.eprime_model, spec.delta_prime_s, spec.j_prime_s),
    ):
        E = _fs_model(model)
        report[f"delta_{tag}"] = curve_discriminant(E) == _FS.from_poly(delta)
        jn, jd = jpair
        expected = RationalFunction(jn, jd)
        report[f"j_{tag}"] = j_invariant(E) == expected
    report["pass"] = all(report.values())
    return report


def symbolic_kappa_check(spec: FamilySpec) -> dict:
    """Exact verification over Q(t) that, for each half of the family, the
    product kappa*(e3 x^6 - e2 x^4 + e1 x^2 - 1) equals the prefactor times
    the family sextic (at t for the plain half, at -t for the other)."""
    if spec.kappa_halves is None:
        raise ValueError(f"family {spec.id} carries no symbolic kappa data")
    sextic = spec.sextic_zt()
    report = {}
    for name, half, negate in (
        ("plain", spec.kappa_halves[0], False),
        ("tilde", spec.kappa_halves[1], True),
    ):
        kappa = half.kappa * _FT.from_int(half.kappa_correction)
        assembled = Poly(
            _FT,
            [
                -kappa,
                _FT.zero,
                kappa * half.e1,
                _FT.zero,
                -(kappa * half.e2),
                _FT.zero,
                kappa * half.e3,
            ],
        )
        target_coeffs = []
        for c in sextic.coeffs:
            cz = c.substitute_neg() if negate else c
            target_coeffs.append(half.prefactor * _FT.from_poly(cz.map_coeffs(QQ, Fraction)))
        target = Poly(_FT, target_coeffs)
        report[name] = assembled == target
    report["pass"] = all(report[k] for k in ("plain", "tilde"))
    return report


def galois_restriction_check(spec: FamilySpec, field, s_value) -> bool:
    """Whether the 2-torsion pairing of the specialized pair is stable under
    the Galois action: for odd isogeny degree the model discriminant must be
    a square, for even degree the two discriminants must differ by a
    square."""
    d1 = eval_poly(spec.delta_s, field, s_value)
    d2 = eval_poly(spec.delta_prime_s, field, s_value)
    if field.is_zero(d1) or field.is_zero(d2):
        raise ValueError("discriminant vanishes at this parameter")
    if spec.parity == "odd":
        return field.is_square(d1)
    return field.is_square(field.mul(d1, d2))
