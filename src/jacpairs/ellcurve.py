"""Elliptic curve models y^2 = monic cubic: discriminant, j-invariant, the
cubic-splitting criterion over F_p, and a bounded naive rational-point
search (for y^2 = f(x) with f of any odd degree).

Only the shape y^2 = x^3 + a2 x^2 + a4 x + a6 is supported (characteristic
is never 2 here, so this is lossless after completing the square, and every
model handled by the package is already in this shape).  The curve
discriminant convention is Delta = 16 * disc(cubic).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .exact.integers import is_perfect_square
from .exact.poly import Poly, cubic_discriminant, discriminant
from .exact.rings import PrimeField
from .exact.roots import roots


class WeierstrassModel:
    """y^2 = cubic(x) with cubic a monic degree-3 polynomial over a field,
    or over Q[s] for a family of models with polynomial coefficients.
    ``disc`` is disc(cubic), computed once to reject singular models."""

    __slots__ = ("cubic", "disc")

    def __init__(self, cubic: Poly):
        if cubic.degree != 3:
            raise ValueError("model requires a cubic right-hand side")
        R = cubic.ring
        if not R.is_one(cubic.lc()):
            raise ValueError("cubic must be monic")
        self.cubic = cubic
        self.disc = discriminant(cubic)
        if R.is_zero(self.disc):
            raise ValueError("singular model (discriminant zero)")

    @property
    def ring(self):
        return self.cubic.ring

    @staticmethod
    def from_coefficients(ring, a2, a4, a6):
        cubic = Poly(ring, [a6, a4, a2, ring.one])
        return WeierstrassModel(cubic)

    def __repr__(self):
        return f"WeierstrassModel(y^2 = {self.cubic!r})"


@dataclass(frozen=True)
class AffinePoint:
    x: object
    y: object


def curve_discriminant(E: WeierstrassModel):
    """Delta = 16 * disc(cubic); reproduces the printed Delta_N(s) values."""
    R = E.ring
    return R.mul(R.from_int(16), E.disc)


def j_pair(E: WeierstrassModel):
    """(c4^3, Delta), the numerator and denominator of j = c4^3 / Delta for
    y^2 = x^3 + a2 x^2 + a4 x + a6 (c4 = 16 a2^2 - 48 a4).  The pair needs
    no division, so it serves over a ring such as Q[s]; Delta is nonzero
    since the model is nonsingular."""
    R = E.ring
    a2 = E.cubic.coeff(2)
    a4 = E.cubic.coeff(1)
    c4 = R.sub(R.mul(R.from_int(16), R.mul(a2, a2)), R.mul(R.from_int(48), a4))
    return R.mul(c4, R.mul(c4, c4)), curve_discriminant(E)


def galois_cubic_split_check(f: Poly):
    """Finite-field shadow of the cubic-splitting criterion: for a monic
    separable cubic over F_p, disc(f) is a square iff f has 0 or 3 roots in
    F_p (a non-square disc forces exactly one root).  Returns a record with
    the two observations and their consistency."""
    F = f.ring
    if not isinstance(F, PrimeField):
        raise TypeError("check defined over prime fields")
    if f.degree != 3 or not F.is_one(f.lc()):
        raise ValueError("monic cubic required")
    d = discriminant(f)
    if F.is_zero(d):
        raise ValueError("inseparable cubic")
    square = F.is_square(d)
    nroots = len(roots(f))
    consistent = (square and nroots in (0, 3)) or (not square and nroots == 1)
    return {"disc_is_square": square, "root_count": nroots, "consistent": consistent}


# The sieve's moduli: a power of 2, a power of 3 and the primes 5 to 17, each
# small enough for a table of its squares.  Fewer than one residue in five is
# a square mod 64, four in nine mod 9, and about half mod an odd prime.  With
# 13 as the largest prime, 1 in 13 coprime (a, b) still reached the exact
# test on O_18, whose rhs has three rational roots; with 17 it is 1 in 26
# there, and 1 in 59 or fewer on the other nine record curves.
_SIEVE_MODULI = (64, 9, 5, 7, 11, 13, 17)
_SQUARES_MOD = {M: frozenset(r * r % M for r in range(M)) for M in _SIEVE_MODULI}


def _sieve_mask(M, weights, g, bound):
    """The bits i of [0, 2 bound] such that a = i - bound may give a point:
    rhs(a) = sum_k weights[k] a^(d-k) is a square mod M, and a shares no
    factor with g = gcd(b, M).  One period of M bits is tiled to the full
    width by doubling shifts."""
    squares = _SQUARES_MOD[M]
    period = 0
    for j in range(M):
        r = (j - bound) % M
        if gcd(r, g) != 1:
            continue
        rhs = 0
        for w in weights:
            rhs = (rhs * r + w) % M
        if rhs in squares:
            period |= 1 << j
    width = 2 * bound + 1
    length = M
    while length < width:
        period |= period << length
        length *= 2
    return period & ((1 << width) - 1)


def odd_degree_point_search(f: Poly, bound: int):
    """All affine rational points (a/b^2, c/b^d) on y^2 = f(x), f monic of
    odd degree d with integer coefficients, with |a| <= bound, 0 < b <=
    sqrt(bound) and gcd(a, b) = 1, found by exhaustive scan (NOT a
    completeness proof: a point of larger height is not seen).

    For monic integral f every rational point has this shape: at a prime
    dividing the denominator of x, v(f(x)) = d v(x) must be even, so the
    denominator is a square.  A non-monic f raises ValueError, since with a
    leading coefficient c, v(c) + d v(x) can be even with v(x) odd, and such
    points would be missed silently.

    rhs = b^(2d) f(a/b^2) = sum_k c_k a^(d-k) b^(2k) is an integer, and it
    is a square c^2 exactly when f(a/b^2) is the square of a rational.  For
    each b the candidates a are first sieved (as in Stoll's ``ratpoints``):
    for each modulus M of ``_SIEVE_MODULI`` a bitmask over [-bound, bound]
    keeps the a with rhs a square mod M and with no factor in common with
    gcd(b, M), and the masks are ANDed.  An integer square is a square mod
    every M, so the sieve strikes no point.  The masks are cached on
    (M, weights mod M, gcd(b, M)).  Only the surviving a are tested exactly:
    gcd(a, b) = 1, rhs by Horner, then ``is_perfect_square``, so every
    reported point is certified in Z."""
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    d = f.degree
    if d % 2 == 0:
        raise ValueError("odd degree required")
    high_to_low = []
    for c in reversed(f.coeffs):
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("integer model required for the search")
        high_to_low.append(c.numerator)
    if high_to_low[0] != 1:
        raise ValueError("monic model required for the search")
    masks = {}
    found = []
    for b in range(1, isqrt(bound) + 1):
        bb, bd = b * b, b**d
        # b^(2d) f(a/b^2) = sum c_i a^i (b^2)^(d-i), by Horner in a
        weights = [c * bb**k for k, c in enumerate(high_to_low)]
        alive = -1
        for M in _SIEVE_MODULI:
            key = (M, tuple(w % M for w in weights), gcd(b, M))
            if key not in masks:
                masks[key] = _sieve_mask(M, key[1], key[2], bound)
            alive &= masks[key]
        while alive:
            low = alive & -alive
            alive ^= low
            a = low.bit_length() - 1 - bound
            if gcd(a, b) != 1:
                continue
            rhs = 0
            for w in weights:
                rhs = rhs * a + w
            if is_perfect_square(rhs):
                x = Fraction(a, bb)
                y = Fraction(isqrt(rhs), bd)
                found.append(AffinePoint(x, y))
                if y:
                    found.append(AffinePoint(x, -y))
    found.sort(key=lambda P: (P.x, P.y))
    return found


def _root_counts(p: int, a: int, b: int) -> list:
    """hits[c] = #{r in F_p : r^3 + a r^2 + b r + c = 0}, for every c, from
    one pass over r: r is a root for exactly c = -(r^3 + a r^2 + b r)."""
    hits = [0] * p
    for r in range(p):
        hits[-(r * (r * (r + a) + b)) % p] += 1
    return hits


def exhaustive_split_scan(p: int) -> dict:
    """The criterion of ``galois_cubic_split_check`` on every monic
    separable cubic x^3 + a x^2 + b x + c mod p, and the outcomes counted;
    ``pass`` requires every case consistent.

    No cubic is root-found: each (a, b) gets one table of distinct root
    counts over c (``_root_counts``), which is independent of the
    discriminant, and disc is the package's cubic formula on ints mod p.  A
    root count other than 0, 1 or 3 (impossible for a separable cubic) is
    tallied under its own key and counted inconsistent."""
    from .exact.rings import GF

    F = GF(p)
    total = 0
    inconsistent = 0
    by_roots = {0: 0, 1: 0, 3: 0}
    for a in range(p):
        for b in range(p):
            hits = _root_counts(p, a, b)
            for c in range(p):
                d = cubic_discriminant(F, c, b, a, 1)
                if F.is_zero(d):
                    continue
                nroots = hits[c]
                total += 1
                by_roots[nroots] = by_roots.get(nroots, 0) + 1
                if nroots not in ((0, 3) if F.is_square(d) else (1,)):
                    inconsistent += 1
    return {
        "p": p,
        "separable_cubics": total,
        "root_counts": by_roots,
        "inconsistent": inconsistent,
        "pass": inconsistent == 0,
    }
