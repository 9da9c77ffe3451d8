"""Factorization and root extraction for polynomials over finite fields.

Everything here is deterministic: splitting elements are tried in a fixed
enumeration order, so repeated runs produce identical factor and root
orderings.
"""
from __future__ import annotations

from .poly import (
    Poly,
    divmod_field,
    gcd_field,
    squarefree_decomposition,
)
from .rings import GFext, PrimeField


def element_sort_key(K, a):
    """A total order on field elements, for deterministic output."""
    if isinstance(K, PrimeField):
        return (a,)
    return tuple(a) + (0,) * (K.m - len(a))


def powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    """base**exp reduced mod modulus, over a field."""
    if exp < 0:
        raise ValueError("negative exponent")
    _, r = divmod_field(base, modulus)
    result = Poly.one(base.ring)
    while exp:
        if exp & 1:
            _, result = divmod_field(result * r, modulus)
        exp >>= 1
        if exp:
            _, r = divmod_field(r * r, modulus)
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
            f, _ = divmod_field(f, g)
            f = f.monic()
            _, frob = divmod_field(frob, f)
    return out


def _splitmix64(state: int):
    """Deterministic 64-bit mixing step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, z ^ (z >> 31)


def _splitting_elements(K):
    """Deterministic stream of monic polynomials used as splitting
    candidates.  Coefficients are drawn from a fixed pseudorandom sequence
    filling every coordinate of the field: structured shifts (e.g. constants
    in a subfield) can fail to separate roots that are conjugate over that
    subfield, because the power character is invariant under the matching
    Frobenius.  The stream is the same on every run."""
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
    while True:
        coeffs = [draw() for _ in range(deg)] + [K.one]
        yield Poly(K, coeffs)
        n += 1
        if n % 64 == 0:
            deg += 1


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
    gen = _splitting_elements(K)
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
                v, _ = divmod_field(g, u)
                nxt.append(u)
                nxt.append(v.monic())
            else:
                nxt.append(g)
        work = [g for g in nxt if g.degree > d]
        done.extend(g for g in nxt if g.degree == d)
    done.sort(key=lambda g: [element_sort_key(K, c) for c in g.coeffs])
    return done


def irreducible_factors(f: Poly):
    """Full factorization over a finite field.

    Returns ``(lead, factors)`` where ``lead`` is the leading coefficient and
    ``factors`` is a list of ``(monic irreducible, multiplicity)`` pairs in a
    deterministic order.
    """
    K = f.ring
    if f.is_zero():
        raise ValueError("factorization of the zero polynomial")
    lead = f.lc()
    if f.degree == 0:
        return lead, []
    factors = []
    for g, mult in squarefree_decomposition(f.monic()):
        for d, part in distinct_degree_factorization(g):
            for irr in equal_degree_factorization(part, d):
                factors.append((irr, mult))
    factors.sort(
        key=lambda fm: (
            fm[0].degree,
            [element_sort_key(K, c) for c in fm[0].coeffs],
            fm[1],
        )
    )
    return lead, factors


def roots(f: Poly):
    """Distinct roots of ``f`` in its own (finite) coefficient field, sorted."""
    K = f.ring
    if f.is_zero():
        raise ValueError("roots of the zero polynomial")
    if f.degree == 0:
        return []
    q = K.order
    x = Poly.gen(K)
    g = gcd_field(powmod(x, q, f) - x, f).monic()
    out = []
    # g is squarefree and splits into linear factors
    for lin in equal_degree_factorization(g, 1) if g.degree > 0 else []:
        out.append(K.neg(lin.coeff(0)))
    out.sort(key=lambda a: element_sort_key(K, a))
    return out


def splitting_degrees(f: Poly):
    """Degrees (with multiplicity of distinct factors) of the irreducible
    factors of ``f`` over its finite coefficient field."""
    degs = []
    for g, _ in squarefree_decomposition(f.monic()):
        for d, part in distinct_degree_factorization(g):
            degs.extend([d] * (part.degree // d))
    return sorted(degs)


def _lcm(values):
    from math import lcm

    return lcm(*values) if values else 1


def roots_in_splitting_field(f: Poly):
    """Roots of ``f`` (over a prime field) in its minimal splitting field.

    Returns ``(K, roots)`` with ``K`` an extension field (or the prime field
    itself when ``f`` splits already) and the distinct roots sorted.
    """
    F = f.ring
    if not isinstance(F, PrimeField):
        raise TypeError("expected a polynomial over a prime field")
    m = _lcm(splitting_degrees(f))
    if m == 1:
        return F, roots(f)
    K = GFext(F.p, m)
    lifted = f.map_coeffs(K, K.from_base)
    return K, roots(lifted)
