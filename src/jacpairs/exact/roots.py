"""Factorization and root extraction for polynomials over finite fields.

Everything here is deterministic: splitting elements are tried in a fixed
enumeration order, so repeated runs produce identical factor and root
orderings.

Roots are taken of polynomials over F_p, in F_p or in an extension
GF(p^m), by one path.  Over F_p the polynomial is cut into parts (d,
product of its irreducible factors of degree d) with d | m, and each part
is split into its irreducible factors.  One root of each factor is found by
Cantor-Zassenhaus splitting in GF(p^m); the other roots are its images
under x -> x^p.  ``roots`` takes the parts from gcd(x^(p^m) - x, f);
``splitting_field`` takes them from the squarefree and distinct-degree
factorization that also gives it m.  When some irreducible factor M has
degree m, ``splitting_field`` builds GF(p^m) from M itself: F_p[y]/(M) is
that field and y is a root of M there, so no modulus is searched and M's
root is read off instead of found.

Every power is taken in one kernel, ``rings.ResidueRing``: residues modulo
a monic f over K = F_p or GF(p^m), as flat lists of plain ints (one per
element of F_p, m per element of GF(p^m)), powered by the one
square-and-multiply, ``rings.ring_pow``.  Besides multiply it has the p-th
power map

    Phi(sum a_j x^j) = sum sigma(a_j) (x^p mod f)^j,    sigma: c -> c^p on K,

which is F_p-linear, hence one matrix built from x^p mod f.  Powering is
needed only for x^p; every higher Frobenius image comes from Phi:

- ``roots``: x^(p^m) = Phi^(m-1)(x^p), modulo f over F_p;
- ``distinct_degree_factorization``: x^(q^d) = Phi_q(x^(q^(d-1))), where
  Phi_q = Phi^(log_p q) is the q-th power map, modulo the input f;
- each Cantor-Zassenhaus step needs h^((r^k - 1)/2) for a draw h, r = q
  and k = d when a part is split over its own field F_q, r = p and k = m
  when a root is found in GF(p^m).  Since

      (r^k - 1)/2 = (r - 1)/2 * (1 + r + ... + r^(k-1)),

  it is the norm power N^((r - 1)/2), N = h * Phi_r(h) * ... *
  Phi_r^(k-1)(h): k - 1 linear maps, k - 1 products and a log(r)-bit
  power.  It is taken modulo the part (or, for a root, modulo the factor
  over F_p), then reduced modulo the factor being split.

Phi^i(h) is h^(p^i) and reducing modulo a divisor commutes with the ring
operations, so every power has the value the plain square-and-multiply
power would give; hence every split, root and root order is the same.
Before drawing, each splitter checks that the power map fixes x (and y,
the generator of K) after as many steps as the input allows: input that
cannot split, or a broken map, raises at once instead of drawing.
"""
from __future__ import annotations

from math import lcm

from .poly import (
    Poly,
    gcd_field,
    poly_divmod,
    squarefree_decomposition,
)
from .rings import GF, GFext, PrimeField, ResidueRing, ring_pow


def _poly(R, a):
    """A residue of R as a Poly over its field."""
    return Poly(R.K, R.coeffs(a))


def _not_split(f: Poly, why: str):
    return ArithmeticError(f"{f!r} did not split: {why}")


def distinct_degree_factorization(f: Poly):
    """Split a squarefree monic polynomial into products of equal-degree
    irreducibles.

    Returns a list of triples ``(d, g, xq)`` where ``g`` is the (monic,
    nontrivial) product of all irreducible factors of degree ``d``, ordered
    by ``d``, and ``xq`` is x^q mod g for q the order of the field.  Each
    level's x^(q^d) is the q-th power map applied to the one before, modulo
    the input f.
    """
    K = f.ring
    f = f.monic()
    R = ResidueRing(K, f.coeffs)
    out = []
    x = Poly.gen(K)
    frob = None  # x^(q^d) mod the input f, a residue of R
    xq = None  # x^q mod the input f
    d = 0
    while f.degree > 0:
        d += 1
        if f.degree < 2 * d:
            # xq is unset only when f was linear from the start: then x^q = x
            out.append((f.degree, f, poly_divmod(x if xq is None else xq, f)[1]))
            break
        if frob is None:
            frob = R.frobenius(R.xp, K.degree - 1)
            xq = _poly(R, frob)
        else:
            frob = R.frobenius(frob, K.degree)
        g = gcd_field(_poly(R, frob) - x, f)
        if g.degree > 0:
            g = g.monic()
            out.append((d, g, poly_divmod(xq, g)[1]))
            f, _ = poly_divmod(f, g)
            f = f.monic()
    return out


def _norm_power(R, h, k, s):
    """h^((r^k - 1)/2) in R for r = p^s, as the norm power of the module
    docstring: N^((r - 1)/2), N = h * Phi^s(h) * ... * Phi^(s(k-1))(h)."""
    norm = conj = h
    for _ in range(k - 1):
        conj = R.frobenius(conj, s)
        norm = R.mul(norm, conj)
    return ring_pow(R, norm, (R.p**s - 1) // 2)


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
    state = 0x5EED0F1E1DD15C0D

    def draw():
        nonlocal state
        coords = []
        for _ in range(K.degree):
            state, z = _splitmix64(state)
            coords.append(z % K.p)
        return coords[0] if K.degree == 1 else tuple(coords)

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


def equal_degree_factorization(f: Poly, d: int, xq: Poly):
    """Factor a squarefree monic product of degree-``d`` irreducibles.

    Deterministic Cantor–Zassenhaus for odd field order q: candidate
    splitting polynomials are drawn from a fixed enumeration, and each
    h^((q^d - 1)/2) is taken once per draw as a norm power modulo f, then
    reduced modulo each factor still to be split.  ``xq`` is x^q mod f, as
    the distinct-degree factorization gives it.  Before drawing,
    the q-th power map must fix x after d steps, or f is not such a product.
    """
    K = f.ring
    if K.order % 2 == 0:
        raise NotImplementedError("even field order is not supported")
    f = f.monic()
    if f.degree == d:
        return [f]
    m = K.degree
    R = ResidueRing(K, f.coeffs, xq.coeffs if m == 1 else None)
    X = R.from_coeffs(xq.coeffs)
    if R.frobenius(X, m * (d - 1)) != R.x:
        raise _not_split(f, f"x^(q^{d}) - x is not a multiple of it")
    work = [f]
    done = []
    gen = _splitting_elements(f)
    while work:
        h = R.from_coeffs(next(gen).coeffs)
        t = _poly(R, _norm_power(R, h, d, m)) - Poly.one(K)
        nxt = []
        for g in work:
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


def _one_root(g: Poly, xp: Poly):
    """One root of a squarefree monic g over K = GF(p^m) (or F_p) whose
    coefficients lie in F_p and whose irreducible factors over F_p have
    degrees dividing m: Cantor-Zassenhaus splits, keeping the smaller part
    each time, until a linear factor is left.  Each h^((p^m - 1)/2) is the
    norm power of the module docstring, taken modulo the input g and reduced
    modulo the current factor.  ``xp`` is x^p mod g over F_p.
    Before drawing, the p-th power map must fix x and y after m steps and
    agree with the power on y."""
    K = g.ring
    if any(K.in_base(c) is None for c in g.coeffs):
        raise TypeError(f"{g!r} has a coefficient outside {GF(K.char)!r}")
    m = K.degree
    R = ResidueRing(K, g.coeffs, [K.from_base(c) for c in xp.coeffs])
    if R.frobenius(R.x, m) != R.x:
        raise _not_split(g, f"x^(p^{m}) - x is not a multiple of it")
    if m > 1:
        y = R.from_coeffs([K.gen])
        if R.frobenius(y, m) != y or R.frobenius(y) != ring_pow(R, y, R.p):
            raise _not_split(g, f"the p-th power map is not y -> y^p on {K!r}")
    draws = _splitting_elements(g)
    while g.degree > 1:
        h = R.from_coeffs(next(draws).coeffs)
        u = gcd_field(_poly(R, _norm_power(R, h, m, 1)) - Poly.one(K), g)
        if 0 < u.degree < g.degree:
            u = u.monic()
            v, _ = poly_divmod(g, u)
            g = u if 2 * u.degree <= g.degree else v.monic()
    return K.neg(g.coeff(0))


def _irreducibles(parts):
    """(d, irr, xp) for each irreducible factor irr over F_p of the parts
    (d, g, xp) of a polynomial, xp = x^p mod g."""
    return [(d, irr, xp) for d, g, xp in parts for irr in equal_degree_factorization(g, d, xp)]


def _roots_of_factors(K, factors, known=None):
    """Sorted roots in K of the irreducible factors ``(d, irr, xp)`` of a
    polynomial over F_p, each d dividing the degree of K and xp = x^p modulo
    a multiple of irr (unused when d = 1).  Each factor gives one root in K
    and that root's Frobenius orbit.  The root is read off when d = 1, is r
    when ``known`` is (irr, r), and is found by ``_one_root`` otherwise."""
    out = []
    for d, irr, xp in factors:
        if d == 1:
            out.append(K.from_base(-irr.coeff(0)))
            continue
        if known is not None and irr == known[0]:
            r = known[1]
        else:
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
    if f.degree == 0:
        return []
    R = ResidueRing(F, f.monic().coeffs)
    g = gcd_field(_poly(R, R.frobenius(R.xp, K.degree - 1)) - Poly.gen(F), f)
    if g.degree == 0:
        return []
    if K.degree > 1:
        parts = distinct_degree_factorization(g)
    else:
        parts = [(1, g, poly_divmod(_poly(R, R.xp), g)[1])]
    return _roots_of_factors(K, _irreducibles(parts))


def _stem_field(M: Poly):
    """K = F_p[y]/(M(y - c)) for a monic irreducible M over F_p of degree
    m >= 2, with c = c_{m-1}/m (c = 0 when p | m), and the root y - c of M
    in K.  K has p^m elements and y - c is a root of M there
    (Lidl-Niederreiter, Finite Fields, Thm 2.14), so no modulus is searched
    and no root is found by splitting.  The shift clears the y^(m-1)
    coefficient, so at m = 2 the modulus is the binomial that
    ``QuadraticExtField`` takes."""
    F, m = M.ring, M.degree
    c = F.div(M.coeff(m - 1), F.from_int(m)) if m % F.p else 0
    y = Poly.gen(F)
    shifted = Poly.zero(F)
    for a in reversed(M.coeffs):  # Horner: M(y - c)
        shifted = shifted * (y - c) + a
    K = GFext(F.p, m, shifted.coeffs)
    return K, K.sub(K.gen, K.from_base(c))


def splitting_field(F, *polys):
    """The smallest extension K of the prime field F in which every one of
    ``polys`` (over F) splits, and the distinct roots of each in K, sorted:
    ``(K, [roots of each])``.  K is F itself when they all split over F.
    Each polynomial is factored once, for both m and its roots.

    When m > 1 and some irreducible factor M has degree m, K is M's stem
    field (``_stem_field``), so M's roots are y - c and its Frobenius images.
    Every other factor of degree > 1 takes ``_one_root``.  When no factor
    has degree m (a quadratic and a cubic, m = 6), K is ``GFext(p, m)``."""
    if not isinstance(F, PrimeField):
        raise TypeError("expected polynomials over a prime field")
    factors = [_irreducibles((d, g, xp) for d, g, xp, _ in _degree_parts(f)) for f in polys]
    m = lcm(*(d for fs in factors for d, _, _ in fs))
    M = next((irr for fs in factors for d, irr, _ in fs if d == m > 1), None)
    known = None
    if M is None:
        K = F if m == 1 else GFext(F.p, m)
    else:
        K, root = _stem_field(M)
        known = (M, root)
    return K, [_roots_of_factors(K, fs, known) for fs in factors]
