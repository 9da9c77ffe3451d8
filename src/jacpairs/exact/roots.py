"""Factorization and root extraction for polynomials over finite fields.

Everything here is deterministic: splitting elements are tried in a fixed
enumeration order, so repeated runs produce identical factor and root
orderings.

Roots are taken of polynomials over F_p, in F_p or in an extension
GF(p^m), by one path.  Over F_p, where the arithmetic is on plain ints, the
polynomial is cut into parts (d, product of its irreducible factors of
degree d) with d | m, and each part is split into its irreducible factors.
One root of each factor is found by Cantor-Zassenhaus splitting in GF(p^m);
the other roots are its images under x -> x^p.  ``roots`` takes the parts
from gcd(x^(p^m) - x, f); ``splitting_field`` takes them from the
squarefree and distinct-degree factorization that also gives it m.
"""
from __future__ import annotations

from math import lcm

from .poly import (
    Poly,
    gcd_field,
    poly_divmod,
    squarefree_decomposition,
)
from .rings import GFext, PrimeField


def powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    """base**exp reduced mod modulus, over a field."""
    if exp < 0:
        raise ValueError("negative exponent")
    _, r = poly_divmod(base, modulus)
    result = Poly.one(base.ring)
    while exp:
        if exp & 1:
            _, result = poly_divmod(result * r, modulus)
        exp >>= 1
        if exp:
            _, r = poly_divmod(r * r, modulus)
    return result


def distinct_degree_factorization(f: Poly):
    """Split a squarefree monic polynomial into products of equal-degree
    irreducibles.

    Returns a list of pairs ``(d, g)`` where ``g`` is the (monic, nontrivial)
    product of all irreducible factors of degree ``d``, ordered by ``d``.
    """
    K = f.ring
    q = K.order
    f = f.monic()
    out = []
    x = Poly.gen(K)
    frob = x  # x^(q^d) mod f, updated per level
    d = 0
    while f.degree > 0:
        d += 1
        if f.degree < 2 * d:
            out.append((f.degree, f))
            break
        frob = powmod(frob, q, f)
        g = gcd_field(frob - x, f)
        if g.degree > 0:
            out.append((d, g.monic()))
            f, _ = poly_divmod(f, g)
            f = f.monic()
            _, frob = poly_divmod(frob, f)
    return out


def _splitmix64(state: int):
    """Deterministic 64-bit mixing step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, z ^ (z >> 31)


# Each draw splits valid input with probability about 1/2; the most draws
# one call used over the Tier-1 tests, the benchmark and reproduce was 12.
_MAX_DRAWS = 1000


def _splitting_elements(f: Poly):
    """Deterministic stream of monic polynomials used as splitting
    candidates for ``f``.  Coefficients are drawn from a fixed pseudorandom
    sequence filling every coordinate of the field: structured shifts (e.g.
    constants in a subfield) can fail to separate roots that are conjugate
    over that subfield, because the power character is invariant under the
    matching Frobenius.  The stream is the same on every run; after
    ``_MAX_DRAWS`` candidates it raises ``ArithmeticError``, since ``f`` then
    does not split the way its caller assumed."""
    K = f.ring
    is_prime_field = isinstance(K, PrimeField)
    state = 0x5EED0F1E1DD15C0D

    def draw():
        nonlocal state
        if is_prime_field:
            state, z = _splitmix64(state)
            return K.from_int(z)
        coords = []
        for _ in range(K.m):
            state, z = _splitmix64(state)
            coords.append(z % K.p)
        return tuple(coords)

    deg = 1
    n = 0
    while n < _MAX_DRAWS:
        coeffs = [draw() for _ in range(deg)] + [K.one]
        yield Poly(K, coeffs)
        n += 1
        if n % 64 == 0:
            deg += 1
    raise ArithmeticError(
        f"{f!r} did not split in {_MAX_DRAWS} draws: it is not a product of "
        "distinct irreducibles of the assumed degree"
    )


def equal_degree_factorization(f: Poly, d: int):
    """Factor a squarefree monic product of degree-``d`` irreducibles.

    Deterministic Cantor–Zassenhaus for odd field order: candidate splitting
    polynomials are drawn from a fixed enumeration.
    """
    K = f.ring
    q = K.order
    if q % 2 == 0:
        raise NotImplementedError("even field order is not supported")
    if f.degree == d:
        return [f.monic()]
    e = (q ** d - 1) // 2
    work = [f.monic()]
    done = []
    gen = _splitting_elements(f)
    while work:
        h = next(gen)
        nxt = []
        for g in work:
            if g.degree == d:
                done.append(g)
                continue
            t = powmod(h, e, g) - Poly.one(K)
            u = gcd_field(t, g)
            if 0 < u.degree < g.degree:
                u = u.monic()
                v, _ = poly_divmod(g, u)
                nxt.append(u)
                nxt.append(v.monic())
            else:
                nxt.append(g)
        work = [g for g in nxt if g.degree > d]
        done.extend(g for g in nxt if g.degree == d)
    done.sort(key=lambda g: g.coeffs)
    return done


def _degree_parts(f: Poly):
    """(d, part, multiplicity) for f over a finite field: ``part`` is the
    monic product of the degree-``d`` irreducible factors that divide f
    exactly ``multiplicity`` times.  One squarefree decomposition and one
    distinct-degree factorization per squarefree factor."""
    for g, mult in squarefree_decomposition(f.monic()):
        for d, part in distinct_degree_factorization(g):
            yield d, part, mult


def irreducible_factors(f: Poly):
    """Full factorization over a finite field.

    Returns ``(lead, factors)`` where ``lead`` is the leading coefficient and
    ``factors`` is a list of ``(monic irreducible, multiplicity)`` pairs in a
    deterministic order.
    """
    if f.is_zero():
        raise ValueError("factorization of the zero polynomial")
    factors = [
        (irr, mult)
        for d, part, mult in _degree_parts(f)
        for irr in equal_degree_factorization(part, d)
    ]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))
    return f.lc(), factors


def splitting_degrees(f: Poly):
    """Degrees (with multiplicity of distinct factors) of the irreducible
    factors of ``f`` over its finite coefficient field."""
    return sorted(d for d, part, _ in _degree_parts(f) for _ in range(part.degree // d))


def _one_root(g: Poly):
    """One root of a squarefree monic g that splits into linear factors over
    its field: Cantor-Zassenhaus splits, keeping the smaller part each time,
    until a linear factor is left."""
    K = g.ring
    e = (K.order - 1) // 2
    draws = _splitting_elements(g)
    while g.degree > 1:
        u = gcd_field(powmod(next(draws), e, g) - Poly.one(K), g)
        if 0 < u.degree < g.degree:
            u = u.monic()
            v, _ = poly_divmod(g, u)
            g = u if 2 * u.degree <= g.degree else v.monic()
    return K.neg(g.coeff(0))


def _roots_of_parts(K, parts):
    """Sorted roots in K of the parts ``(d, g)`` of a polynomial over F_p,
    each d dividing the degree of K: g is split over F_p, and each of its
    irreducible factors gives one root in K and that root's Frobenius orbit."""
    out = []
    for d, g in parts:
        for irr in equal_degree_factorization(g, d):
            if d == 1:
                out.append(K.from_base(-irr.coeff(0)))
                continue
            r = _one_root(irr.map_coeffs(K, K.from_base))
            for _ in range(d):
                out.append(r)
                r = K.frobenius(r)
    out.sort()
    return out


def roots(f: Poly, K=None):
    """Distinct roots in K (default: F_p) of ``f`` over F_p, sorted.  K is
    F_p or an extension GF(p^m) of it."""
    F = f.ring
    if not isinstance(F, PrimeField):
        raise TypeError("roots needs a polynomial over a prime field")
    K = F if K is None else K
    if K.char != F.p:
        raise TypeError(f"{K!r} does not contain {F!r}")
    if f.is_zero():
        raise ValueError("roots of the zero polynomial")
    x = Poly.gen(F)
    g = gcd_field(powmod(x, K.order, f) - x, f)
    if g.degree == 0:
        return []
    parts = [(1, g)] if K.degree == 1 else distinct_degree_factorization(g)
    return _roots_of_parts(K, parts)


def splitting_field(F, *polys):
    """The smallest extension K of the prime field F in which every one of
    ``polys`` (over F) splits, and the distinct roots of each in K, sorted:
    ``(K, [roots of each])``.  K is F itself when they all split over F.
    Each polynomial is factored once, for both m and its roots."""
    if not isinstance(F, PrimeField):
        raise TypeError("expected polynomials over a prime field")
    parts = [[(d, g) for d, g, _ in _degree_parts(f)] for f in polys]
    m = lcm(*(d for ps in parts for d, _ in ps))
    K = F if m == 1 else GFext(F.p, m)
    return K, [_roots_of_parts(K, ps) for ps in parts]
