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

Each Cantor-Zassenhaus step needs h^((r^k - 1)/2) mod g, for a draw h over
a field K of characteristic p, r a power of p (r = q, k = d when a part is
split over its own field F_q; r = p, k = m when a root is found in
GF(p^m)).  It is computed as a norm power, exactly:

    (r^k - 1)/2 = (r - 1)/2 * (1 + r + ... + r^(k-1)),   so
    h^((r^k - 1)/2) = N^((r - 1)/2),   N = h * h^r * ... * h^(r^(k-1)),

and h^(r^i) = (s^i h)(x^(r^i)) in K[x], where s is c -> c^r on the
coefficients, because the r-th power is a ring map in characteristic p.
The images x^(r^i) mod g come from x^r mod g through the linear map
sum a_j x^j -> sum a_j (x^r)^j, which is the r-th power on F_r[x]/(g) when
g has coefficients in F_r; for a root in GF(p^m) they are taken over F_p
and lifted.  So a power with a k*log(r)-bit exponent becomes one with a
log(r)-bit exponent, k - 1 products and k - 1 coefficient maps, and the
value, hence every split and every root, is the same.  For k = 1 it is
the plain power.
"""
from __future__ import annotations

from math import lcm

from .poly import (
    Poly,
    gcd_field,
    poly_divmod,
    squarefree_decomposition,
)
from .rings import GF, GFext, PrimeField


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

    Returns a list of triples ``(d, g, xq)`` where ``g`` is the (monic,
    nontrivial) product of all irreducible factors of degree ``d``, ordered
    by ``d``, and ``xq`` is x^q mod g for q the order of the field.
    """
    K = f.ring
    q = K.order
    f = f.monic()
    out = []
    x = Poly.gen(K)
    frob = x  # x^(q^d) mod f, updated per level
    xq = None  # x^q mod the original f
    d = 0
    while f.degree > 0:
        d += 1
        if f.degree < 2 * d:
            # xq is unset only when f was linear from the start: then x^q = x
            out.append((f.degree, f, poly_divmod(x if xq is None else xq, f)[1]))
            break
        frob = powmod(frob, q, f)
        if d == 1:
            xq = frob
        g = gcd_field(frob - x, f)
        if g.degree > 0:
            g = g.monic()
            out.append((d, g, poly_divmod(xq, g)[1]))
            f, _ = poly_divmod(f, g)
            f = f.monic()
            _, frob = poly_divmod(frob, f)
    return out


def _power_images(xq: Poly, f: Poly, k: int):
    """x^(q^i) mod f for 1 <= i < k, from xq = x^q mod f, where f has
    coefficients in the field F_q.  On F_q[x]/(f) the q-th power is the
    F_q-linear map sum a_j x^j -> sum a_j (x^q)^j; its rows x^(jq) mod f are
    computed once, then each image is the map applied to the one before."""
    if k <= 2:
        return [xq][: k - 1]
    R = f.ring
    rows = [Poly.one(R), xq]
    while len(rows) < f.degree:
        rows.append(poly_divmod(rows[-1] * xq, f)[1])
    images = [xq]
    while len(images) < k - 1:
        image = Poly.zero(R)
        for a, row in zip(images[-1].coeffs, rows):
            image = image + row.scale(a)
        images.append(image)
    return images


def _half_power(h: Poly, g: Poly, r: int, images, conj):
    """h^((r^k - 1)/2) mod g, as the norm power of the module docstring: r
    is odd, ``images[i - 1]`` is x^(r^i) modulo a multiple of g for
    1 <= i < k, and ``conj`` is c -> c^r on the coefficients of h."""
    R = g.ring
    norm, coeffs = h, h.coeffs
    for image in images:
        image = poly_divmod(image, g)[1]
        coeffs = [conj(c) for c in coeffs]
        term = Poly.zero(R)
        for c in reversed(coeffs):
            term = poly_divmod(term * image + Poly.constant(R, c), g)[1]
        norm = poly_divmod(norm * term, g)[1]
    return powmod(norm, (r - 1) // 2, g)


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


def equal_degree_factorization(f: Poly, d: int, xq: Poly | None):
    """Factor a squarefree monic product of degree-``d`` irreducibles.

    Deterministic Cantor–Zassenhaus for odd field order q: candidate
    splitting polynomials are drawn from a fixed enumeration, and each
    h^((q^d - 1)/2) is taken as a norm power.  ``xq`` is x^q mod f, as the
    distinct-degree factorization gives it; it is read only when d > 1.
    """
    K = f.ring
    q = K.order
    if q % 2 == 0:
        raise NotImplementedError("even field order is not supported")
    if f.degree == d:
        return [f.monic()]
    work = [f.monic()]
    images = _power_images(xq, work[0], d)
    done = []
    gen = _splitting_elements(f)
    while work:
        h = next(gen)
        nxt = []
        for g in work:
            if g.degree == d:
                done.append(g)
                continue
            t = _half_power(h, g, q, images, _identity) - Poly.one(K)
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


def _identity(c):
    return c


def _degree_parts(f: Poly):
    """(d, part, xq, multiplicity) for f over a finite field F_q: ``part`` is
    the monic product of the degree-``d`` irreducible factors that divide f
    exactly ``multiplicity`` times, and ``xq`` is x^q mod part.  One
    squarefree decomposition and one distinct-degree factorization per
    squarefree factor."""
    for g, mult in squarefree_decomposition(f.monic()):
        for d, part, xq in distinct_degree_factorization(g):
            yield d, part, xq, mult


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
        for d, part, xq, mult in _degree_parts(f)
        for irr in equal_degree_factorization(part, d, xq)
    ]
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))
    return f.lc(), factors


def splitting_degrees(f: Poly):
    """Degrees (with multiplicity of distinct factors) of the irreducible
    factors of ``f`` over its finite coefficient field."""
    return sorted(d for d, part, _, _ in _degree_parts(f) for _ in range(part.degree // d))


def _one_root(g: Poly, xp: Poly | None):
    """One root of a squarefree monic g over K = GF(p^m) (or F_p) whose
    coefficients lie in F_p and whose irreducible factors over F_p have
    degrees dividing m: Cantor-Zassenhaus splits, keeping the smaller part
    each time, until a linear factor is left.  Each h^((p^m - 1)/2) is a norm
    power over the images x^(p^i) mod g, taken once over F_p from ``xp``,
    x^p mod g over F_p; xp is read only when m > 1."""
    K = g.ring
    F = GF(K.char)
    base = [K.in_base(c) for c in g.coeffs]
    if None in base:
        raise TypeError(f"{g!r} has a coefficient outside {F!r}")
    # x^(p^i) mod g stays a valid image modulo every factor of g in K[x]
    images = [
        X.map_coeffs(K, K.from_base) for X in _power_images(xp, Poly(F, base), K.degree)
    ]
    draws = _splitting_elements(g)
    while g.degree > 1:
        power = _half_power(next(draws), g, F.p, images, K.frobenius)
        u = gcd_field(power - Poly.one(K), g)
        if 0 < u.degree < g.degree:
            u = u.monic()
            v, _ = poly_divmod(g, u)
            g = u if 2 * u.degree <= g.degree else v.monic()
    return K.neg(g.coeff(0))


def _roots_of_parts(K, parts):
    """Sorted roots in K of the parts ``(d, g, xp)`` of a polynomial over
    F_p, each d dividing the degree of K and xp = x^p mod g (unused when
    d = 1): g is split over F_p, and each of its irreducible factors gives
    one root in K and that root's Frobenius orbit."""
    out = []
    for d, g, xp in parts:
        for irr in equal_degree_factorization(g, d, xp):
            if d == 1:
                out.append(K.from_base(-irr.coeff(0)))
                continue
            r = _one_root(irr.map_coeffs(K, K.from_base), poly_divmod(xp, irr)[1])
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
    parts = [(1, g, None)] if K.degree == 1 else distinct_degree_factorization(g)
    return _roots_of_parts(K, parts)


def splitting_field(F, *polys):
    """The smallest extension K of the prime field F in which every one of
    ``polys`` (over F) splits, and the distinct roots of each in K, sorted:
    ``(K, [roots of each])``.  K is F itself when they all split over F.
    Each polynomial is factored once, for both m and its roots."""
    if not isinstance(F, PrimeField):
        raise TypeError("expected polynomials over a prime field")
    parts = [[(d, g, xp) for d, g, xp, _ in _degree_parts(f)] for f in polys]
    m = lcm(*(d for ps in parts for d, _, _ in ps))
    K = F if m == 1 else GFext(F.p, m)
    return K, [_roots_of_parts(K, ps) for ps in parts]
