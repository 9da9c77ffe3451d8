"""Property tests, each against an independent oracle: GF(p^m) inverses
against Fermat's inverse; roots against a brute-force search; factorizations
against the product of the factors; the squarefree decomposition over Q,
GF(3) and GF(5) against the multiplicities a polynomial was built with; the
integer resultant against the Sylvester determinant; the primitive gcd in
Z[x] of polynomials over Q, made monic, against Euclid on ``Fraction``
coefficients; the ring axioms of GF(p^m) and its
product against ``Poly`` arithmetic modulo the modulus; canonical
results of polynomial arithmetic; long division by a non-unit leading
coefficient over Z and Z[t] against the quotient and remainder it was built
from; the closed-form discriminants of cubics and even polynomials against
the Sylvester determinant; and the discriminant over GF(p) against the one
over Z reduced mod p; products, powers and the linear Frobenius of the
residue ring K[x]/(f) against ``Poly`` arithmetic and a square-and-multiply
power; the Cantor-Zassenhaus norm power against that power, the linear
Frobenius of GF(p^m) against the p-th power, the roots ``_one_root``
finds against evaluation, and the closed-form GF(p^2) arithmetic against the
generic GF(p^m) code; and the Sylvester determinant of even polynomials
A(x^2), B(x^2) against the square of the resultant of A and B; and
products and long division over GF(3), GF(7919), GF(2^61 - 1) and Z, which
run on plain ints, against ``Poly.evaluate`` at more points than the degree.
``derandomize=True`` draws the same inputs on every run."""
import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacpairs.exact.poly import (
    Poly,
    PolyRing,
    _gcd_primitive_int,
    discriminant,
    gcd_field,
    parity_split,
    poly_divmod,
    primitive_part_int,
    resultant,
    resultant_sylvester,
    squarefree_decomposition,
)
from jacpairs.exact import rings
from jacpairs.exact.integers import is_prime
from jacpairs.exact.rings import (
    GF,
    QQ,
    ZZ,
    ExtField,
    GFext,
    QuadraticExtField,
    ResidueRing,
    _default_modulus,
    _poly_invmod,
    _poly_mulmod,
    ring_pow,
)
from jacpairs.exact.roots import (
    _norm_power,
    _one_root,
    irreducible_factors,
    roots,
    splitting_degrees,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

INV_FIELDS = [GFext(p, m) for p in (3, 11, 7919) for m in range(2, 7)]
# every GF(p^m) with p^m <= 400 and m >= 2
ROOT_FIELDS = [GFext(p, m) for p, m in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                                        (7, 2), (7, 3), (11, 2), (13, 2), (17, 2), (19, 2)]]


@st.composite
def nonzero_elements(draw):
    K = draw(st.sampled_from(INV_FIELDS))
    a = tuple(draw(st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m)))
    if a == K.zero:
        a = K.one
    return K, a


@PROPERTY
@given(nonzero_elements())
def test_inverse_is_fermat_inverse(case):
    K, a = case
    b = K.inv(a)
    assert b == K.pow(a, K.order - 2)
    assert K.mul(a, b) == K.one


def _brute_force_roots(f, K):
    lifted = f.map_coeffs(K, K.from_base)
    return sorted(a for a in K.elements() if K.is_zero(lifted.evaluate(a)))


@st.composite
def base_polys(draw):
    """A field K = GF(p^m) and a polynomial over F_p: a product of random
    monic factors of degree 1 to 4, some squared, times a nonzero constant."""
    K = draw(st.sampled_from(ROOT_FIELDS))
    F = GF(K.p)
    f = Poly.constant(F, draw(st.integers(1, K.p - 1)))
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        g = Poly(F, draw(st.lists(st.integers(0, K.p - 1), min_size=d, max_size=d)) + [1])
        f = f * g ** draw(st.integers(1, 2))
    return f, K


@PROPERTY
@given(base_polys())
# x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) over F_3, squared: repeated
# quadratics, split in GF(3^2), no roots in GF(3^3)
@example((Poly(GF(3), [1, 0, 0, 0, 2, 0, 0, 0, 1]), GFext(3, 2)))
@example((Poly(GF(3), [1, 0, 0, 0, 2, 0, 0, 0, 1]), GFext(3, 3)))
# x^3 - x - 1 is irreducible over F_3: three conjugate roots in GF(3^3)
@example((Poly(GF(3), [2, 2, 0, 1]), GFext(3, 3)))
# (x - 1)^2 (x - 3)(x^2 + 2) over F_5, roots in F_5 itself
@example((Poly(GF(5), [4, 4, 2, 4, 0, 1]), GF(5)))
def test_roots_of_base_polynomials_match_brute_force(case):
    f, K = case
    assert roots(f, K) == _brute_force_roots(f, K)


@st.composite
def factored_polys(draw):
    """A polynomial over GF(p^m): a nonzero constant times random monic
    factors of degree 1 to 3, each to a power up to 3, so that p = 3 meets a
    p-th power."""
    K = draw(st.sampled_from(ROOT_FIELDS))
    element = st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m).map(tuple)
    lead = draw(element.filter(lambda a: a != K.zero))
    f = Poly.constant(K, lead)
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 3))
        g = Poly(K, draw(st.lists(element, min_size=d, max_size=d)) + [K.one])
        f = f * g ** draw(st.integers(1, 3))
    return f


@PROPERTY
@given(factored_polys())
def test_irreducible_factors_multiply_back(f):
    K = f.ring
    lead, factors = irreducible_factors(f)
    prod = Poly.constant(K, lead)
    for g, mult in factors:
        assert g.lc() == K.one and mult > 0
        assert splitting_degrees(g) == [g.degree]
        prod = prod * g**mult
    assert prod == f
    assert len({g for g, _ in factors}) == len(factors)


@st.composite
def int_poly_pairs(draw):
    """Two nonzero integer polynomials of degree 0 to 6 with coefficients
    in [-60, 60]."""
    def poly():
        d = draw(st.integers(0, 6))
        coeffs = draw(st.lists(st.integers(-60, 60), min_size=d, max_size=d))
        lead = draw(st.integers(-60, 60).filter(lambda c: c != 0))
        return Poly(ZZ, coeffs + [lead])

    return poly(), poly()


@st.composite
def subresultant_pairs(draw):
    """Two nonzero integer polynomials that reach every corner of the 2-adic
    step of the subresultant PRS over Z: degrees 0 to 6, coefficients of up
    to 6, 60 or 200 bits, leading coefficients times 2^j for j up to 40 (so
    that g h^delta is even); a quarter of the time a shared factor (the
    resultant is 0), and a quarter of the time a(x^2), b(x^2), whose chain
    takes delta = 2 in mid-chain, as the prime supports do."""
    bits = draw(st.sampled_from([6, 60, 200]))
    coeff = st.integers(-(2**bits), 2**bits)

    def poly(low, high):
        d = draw(st.integers(low, high))
        lead = draw(coeff.filter(bool)) << draw(st.integers(0, 40))
        return Poly(ZZ, draw(st.lists(coeff, min_size=d, max_size=d)) + [lead])

    a, b = poly(0, 6), poly(0, 6)
    shape = draw(st.sampled_from(["plain", "plain", "shared factor", "even"]))
    if shape == "shared factor":
        shared = poly(1, 3)
        a, b = a * shared, b * shared
    elif shape == "even":
        a, b = (f.evaluate(Poly.gen(ZZ) ** 2) for f in (a, b))
    return a, b


def _squarefree_atoms(R):
    """Pairwise coprime monic irreducibles over R: over GF(p) every linear
    and quadratic one, over Q the x - a and x^2 + b for small a and b > 0."""
    x = Poly.gen(R)
    if R is QQ:
        return [x - Poly.constant(QQ, Fraction(a, 2)) for a in range(-4, 5)] + [
            x**2 + Poly.constant(QQ, Fraction(b)) for b in range(1, 5)
        ]
    monics = (Poly(R, list(c) + [1]) for d in (1, 2) for c in itertools.product(range(R.p), repeat=d))
    return [g for g in monics if splitting_degrees(g) == [g.degree]]


SQUAREFREE_ATOMS = {R: _squarefree_atoms(R) for R in (QQ, GF(3), GF(5))}


@st.composite
def built_multiplicities(draw):
    """A field (Q, GF(3) or GF(5)), a nonzero constant times a product of
    distinct atoms g_i^(e_i) with e_i up to 2p (up to 6 over Q), and the
    product of the atoms of each multiplicity."""
    R = draw(st.sampled_from(list(SQUAREFREE_ATOMS)))
    top = 6 if R is QQ else 2 * R.p
    atoms = draw(st.lists(st.sampled_from(SQUAREFREE_ATOMS[R]), max_size=4, unique_by=str))
    f = Poly.constant(R, R.from_int(draw(st.integers(1, 2))))
    expected = {}
    for g in atoms:
        e = draw(st.integers(1, top))
        f = f * g**e
        expected[e] = expected.get(e, Poly.one(R)) * g
    return f, expected


@PROPERTY
@given(built_multiplicities())
def test_squarefree_decomposition_has_the_built_multiplicities(case):
    f, expected = case
    parts = squarefree_decomposition(f)
    for i, (g, _) in enumerate(parts):
        assert gcd_field(g, g.derivative()).degree == 0
        assert all(gcd_field(g, h).degree == 0 for h, _ in parts[i + 1 :])
    assert {m: g for g, m in parts} == expected
    assert len(parts) == len(expected)


@PROPERTY
@given(int_poly_pairs())
# a common root, and a pair whose leading coefficients share a factor
@example((Poly(ZZ, [-2, 1]) * Poly(ZZ, [3, 0, 1]), Poly(ZZ, [-2, 1]) * Poly(ZZ, [5, 7])))
@example((Poly(ZZ, [1, 0, 6]), Poly(ZZ, [-1, 4, 0, 9])))
def test_crt_resultant_is_sylvester_determinant(pair):
    a, b = pair
    assert resultant(a, b) == resultant_sylvester(a, b)


def _x2(*coeffs):
    """The integer polynomial sum c_i x^(2i)."""
    return Poly(ZZ, coeffs).evaluate(Poly.gen(ZZ) ** 2)


@PROPERTY
@given(subresultant_pairs())
# a(x^2), b(x^2) with leading coefficients 2^40 and 2^13 * 3
@example((_x2(5, -3, 7, 2**40), _x2(-1, 2**200 + 1, 3 << 13)))
# a shared factor x^2 - 2 under coefficients near 2^200
@example((_x2(-2, 1) * Poly(ZZ, [2**200 - 1, 3, -(2**199)]), _x2(-2, 1) * Poly(ZZ, [7, 2**200])))
# a first step whose one coefficient, 2 (2^200 - 1)^2, meets the size bound
@example((Poly(ZZ, [2**200 - 1, 2**200 - 1]), Poly(ZZ, [1 - 2**200, 2**200 - 1])))
# degree-0 operands
@example((Poly(ZZ, [-(2**200)]), Poly(ZZ, [1, 2, 3])))
@example((Poly(ZZ, [1, 0, 0, 5 << 30]), Poly(ZZ, [-3 << 7])))
def test_integer_resultant_is_sylvester_determinant(pair):
    a, b = pair
    assert resultant(a, b) == resultant_sylvester(a, b)


@PROPERTY
@given(int_poly_pairs())
def test_resultant_of_even_polynomials_is_the_square_on_the_halves(pair):
    # Res(A(x^2), B(x^2)) = Res(A, B)^2, which the prime supports rest on
    a, b = pair
    even = [f.substitute_square() for f in (a, b)]
    assert [parity_split(f) for f in even] == [(0, a), (0, b)]
    assert resultant_sylvester(*even) == resultant(a, b) ** 2


@st.composite
def rational_gcd_pairs(draw):
    """Two polynomials over Q sharing a factor: each a rational constant
    times the shared factor times its own factors, every factor non-monic
    with rational coefficients; a quarter of the time one operand is zero
    or a nonzero constant instead."""
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    nonzero = coeff.filter(lambda c: c != 0)

    def factor():
        d = draw(st.integers(1, 3))
        return Poly(QQ, draw(st.lists(coeff, min_size=d, max_size=d)) + [draw(nonzero)])

    def product(n):
        f = Poly.constant(QQ, draw(nonzero))
        for _ in range(n):
            f = f * factor()
        return f

    shared = product(draw(st.integers(0, 2)))
    a = shared * product(draw(st.integers(0, 2)))
    b = shared * product(draw(st.integers(0, 2)))
    swap = draw(st.sampled_from(["none", "none", "none", "zero", "constant"]))
    if swap != "none":
        other = Poly.zero(QQ) if swap == "zero" else Poly.constant(QQ, draw(nonzero))
        a, b = (other, b) if draw(st.booleans()) else (a, other)
    return a, b


def _z_primitive(f):
    """The primitive part in Z[x], with a positive leading coefficient, of
    a polynomial over Q."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return primitive_part_int(Poly(ZZ, [int(c * den) for c in f.coeffs]))[1]


def _euclid_over_fractions(a, b):
    """The monic gcd by Euclid on lists of Fraction coefficients, low to high."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


@PROPERTY
@given(rational_gcd_pairs())
# the content of the operands must not reach the result
@example((Poly(QQ, [Fraction(3, 2), Fraction(3)]), Poly(QQ, [Fraction(-4, 7), Fraction(-8, 7)])))
def test_rational_gcd_is_euclid_over_fractions(pair):
    a, b = pair
    g = _gcd_primitive_int(_z_primitive(a), _z_primitive(b))
    assert g == primitive_part_int(g)[1]
    monic = Poly(QQ, [Fraction(c, g.lc()) for c in g.coeffs])
    assert list(monic.coeffs) == _euclid_over_fractions(a, b)
    assert poly_divmod(a, monic)[1].is_zero() and poly_divmod(b, monic)[1].is_zero()


@st.composite
def element_triples(draw):
    """A field from INV_FIELDS and three of its elements, zero allowed."""
    K = draw(st.sampled_from(INV_FIELDS))
    element = st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m).map(tuple)
    return K, draw(element), draw(element), draw(element)


@PROPERTY
@given(element_triples())
def test_extension_field_ring_axioms(case):
    K, a, b, c = case
    F = GF(K.p)
    product = poly_divmod(Poly(F, a) * Poly(F, b), Poly(F, K.modulus))[1]
    assert K.mul(a, b) == tuple(product.coeffs) + (0,) * (K.m - len(product.coeffs))
    assert K.mul(a, b) == K.mul(b, a)
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.frobenius(K.mul(a, b)) == K.mul(K.frobenius(a), K.frobenius(b))


def _assert_quadratic_is_generic(K, a, b):
    """GF(p^2)'s closed forms against the generic code: ``_poly_mulmod``
    folding by the modulus, ``_poly_invmod`` and the tuple formulas."""
    p = K.p
    tail = [(j, c) for j, c in enumerate(K.modulus[:-1]) if c]
    assert K.mul(a, b) == _poly_mulmod(a, b, tail, p)
    assert K.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
    assert K.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert K.neg(a) == tuple(-x % p for x in a)
    if a == K.zero:
        with pytest.raises(ZeroDivisionError):
            K.inv(a)
    else:
        assert K.inv(a) == _poly_invmod(a, K.modulus, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quadratic_field_is_the_generic_code_on_every_pair(p):
    K = GFext(p, 2)
    assert type(K) is QuadraticExtField
    for a, b in itertools.product(K.elements(), repeat=2):
        _assert_quadratic_is_generic(K, a, b)


@PROPERTY
@given(st.lists(st.integers(0, 7918), min_size=4, max_size=4))
@example([0, 0, 5, 7])
@example([7918, 7918, 7918, 7918])
def test_quadratic_field_is_the_generic_code(coords):
    K = GFext(7919, 2)
    _assert_quadratic_is_generic(K, tuple(coords[:2]), tuple(coords[2:]))


def test_quadratic_modulus_is_a_binomial():
    # Lidl-Niederreiter Thm 3.75: x^2 + c is irreducible for some c at every
    # odd p, so the search, which tries binomials first, returns one
    for p in range(3, 500, 2):
        if is_prime(p):
            assert _default_modulus(p, 2)[1] == 0, p


def test_quadratic_field_refuses_a_modulus_with_a_linear_term(monkeypatch):
    # x^2 + x + 2 is irreducible over F_3
    monkeypatch.setattr(rings, "_default_modulus", lambda p, m: (2, 1, 1))
    with pytest.raises(ValueError, match="needs a modulus"):
        QuadraticExtField(3, 2)
    assert ExtField(3, 2).modulus == (2, 1, 1)


# small characteristics make cancellations of leading terms frequent
POLY_RINGS = [GF(3), GF(7919), GFext(3, 2), GFext(7919, 3), QQ, ZZ]


def _ring_elements(R):
    if R is ZZ:
        return st.integers(-3, 3)
    if R is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(st.integers(0, R.p - 1), min_size=R.degree, max_size=R.degree).map(
        lambda digits: tuple(digits) if isinstance(R, ExtField) else digits[0]
    )


@st.composite
def poly_pairs(draw):
    """A ring from POLY_RINGS, two polynomials over it of degree up to 5 and
    one element; the second polynomial shares the first one's top
    coefficients half of the time, so that a - b loses its leading terms."""
    R = draw(st.sampled_from(POLY_RINGS))
    element = _ring_elements(R)
    a = Poly(R, draw(st.lists(element, max_size=6)))
    b = Poly(R, draw(st.lists(element, max_size=6)))
    if draw(st.booleans()):
        keep = draw(st.integers(0, len(a.coeffs)))
        low = list(b.coeffs[:keep]) + [R.zero] * (keep - len(b.coeffs))
        b = Poly(R, low + list(a.coeffs[keep:]))
    return R, a, b, draw(element)


def _is_canonical_element(R, c):
    if R is ZZ:
        return type(c) is int
    if R is QQ:
        return type(c) is Fraction
    if isinstance(R, ExtField):
        return type(c) is tuple and len(c) == R.m and all(0 <= x < R.p for x in c)
    return type(c) is int and 0 <= c < R.p


def _is_canonical(r):
    """No trailing zero, and every coefficient in the ring's own form."""
    R = r.ring
    if r.coeffs and R.is_zero(r.coeffs[-1]):
        return False
    return all(_is_canonical_element(R, c) for c in r.coeffs)


@PROPERTY
@given(poly_pairs())
def test_arithmetic_results_are_canonical(case):
    R, a, b, c = case
    results = [a + b, a - b, a * b, a.scale(c), (a + b) - b]
    if not b.is_zero() and (R.is_field or R.is_one(b.lc()) or R.is_one(R.neg(b.lc()))):
        results.extend(poly_divmod(a, b))
    for r in results:
        assert _is_canonical(r)
    assert (a + b) - b == a
    assert (a - b) + b == a


@st.composite
def exact_divisions(draw):
    """Over Z or Z[t]: b of degree 1 to 3 whose leading coefficient is not
    a unit, q of degree up to 3, and r of degree below deg b."""
    R = draw(st.sampled_from([ZZ, PolyRing(ZZ)]))
    if R is ZZ:
        element = st.integers(-9, 9)
        lead = st.sampled_from([2, -2, 3, -6])
    else:
        element = st.lists(st.integers(-3, 3), max_size=3).map(lambda cs: Poly(ZZ, cs))
        lead = st.sampled_from([Poly(ZZ, [0, 1]), Poly(ZZ, [2, 1]), Poly(ZZ, [1, 0, -3])])
    db = draw(st.integers(1, 3))
    b = Poly(R, draw(st.lists(element, min_size=db, max_size=db)) + [draw(lead)])
    q = Poly(R, draw(st.lists(element, max_size=4)))
    r = Poly(R, draw(st.lists(element, max_size=db)))
    return q, b, r


@PROPERTY
@given(exact_divisions())
def test_division_by_a_non_unit_leading_coefficient(case):
    q, b, r = case
    assert poly_divmod(q * b + r, b) == (q, r)


# the rings whose products and divisions run on plain ints; over
# GF(2^61 - 1) one product of coefficients is already near 2^122
INT_RINGS = [GF(3), GF(7919), GF(2**61 - 1), ZZ]
_ZZ_TOP = 2**70  # the largest coefficient drawn over ZZ; over GF(p), p - 1


@st.composite
def int_ring_polys(draw, divisor=False):
    """A ring from INT_RINGS and two polynomials over it with up to 13
    coefficients each (none: the zero polynomial, one: a constant).  Each
    is random over the whole range, random with zero, 1 and the top value
    frequent (interior zeros), or every coefficient the top value, so that
    over GF(p) the raw sums of a product or a division exceed p^2.  With
    ``divisor`` the second has 1 to 7 coefficients and a nonzero leading
    one, over ZZ +-1, so that it divides every polynomial."""
    R = draw(st.sampled_from(INT_RINGS))
    top = _ZZ_TOP if R is ZZ else R.p - 1
    low = -top if R is ZZ else 0
    wide = st.integers(low, top)
    special = st.sampled_from([0, 0, 1, top, low])

    def coeffs(most):
        n = draw(st.integers(0, most))
        kind = draw(st.sampled_from(["random", "special", "top"]))
        if kind == "top":
            return [top] * n
        element = wide if kind == "random" else st.one_of(special, wide)
        return draw(st.lists(element, min_size=n, max_size=n))

    a = Poly(R, coeffs(13))
    if not divisor:
        return a, Poly(R, coeffs(13))
    lead = draw(st.sampled_from([1, -1]) if R is ZZ else st.integers(1, top))
    return a, Poly(R, coeffs(6) + [lead])


def _points(R, n):
    """n distinct points to evaluate polynomials over R at, with the ring
    they lie in: over GF(3), elements of GF(3^6) (a nonzero polynomial of
    degree below n has a root at fewer than n of them); otherwise 0, 1, ...,
    n - 1 in R itself."""
    if R == GF(3):
        K = GFext(3, 6)
        return K, list(itertools.islice(K.elements(), n))
    return R, [R.from_int(k) for k in range(n)]


def _values(f, K, points):
    """f at each point by ``Poly.evaluate`` in K: Horner's rule on the
    ring's own ``mul`` and ``add``, none of the int loops."""
    if f.ring != K:
        f = f.map_coeffs(K, K.from_base)
    return [f.evaluate(x) for x in points]


@PROPERTY
@given(int_ring_polys())
@example((Poly(GF(3), []), Poly(GF(3), [2, 2])))
@example((Poly(GF(7919), [5]), Poly(GF(7919), [7918, 0, 0, 3])))
@example((Poly(GF(2**61 - 1), [2**61 - 2] * 13), Poly(GF(2**61 - 1), [2**61 - 2] * 13)))
@example((Poly(ZZ, [-_ZZ_TOP, 0, 0, _ZZ_TOP]), Poly(ZZ, [0, 1])))
def test_int_ring_product_is_the_product_of_values(pair):
    # a product of degree d agrees with a(x) b(x) at d + 1 distinct points
    # only if it is a b
    a, b = pair
    R = a.ring
    ab = a * b
    assert _is_canonical(ab) and ab == b * a
    if a.is_zero() or b.is_zero():
        assert ab.is_zero()
        return
    assert ab.degree == a.degree + b.degree
    K, points = _points(R, ab.degree + 1)
    assert _values(ab, K, points) == [
        K.mul(u, v) for u, v in zip(_values(a, K, points), _values(b, K, points))
    ]


@PROPERTY
@given(int_ring_polys(divisor=True))
@example((Poly(GF(3), [1, 2]), Poly(GF(3), [2])))
@example((Poly(GF(7919), [7918] * 13), Poly(GF(7919), [7918] * 3)))
@example((Poly(GF(2**61 - 1), [2**61 - 2] * 13), Poly(GF(2**61 - 1), [0, 0, 2**61 - 2])))
@example((Poly(GF(7919), [1, 0, 0, 0, 0, 7918]), Poly(GF(7919), [3, 0, 7918])))
@example((Poly(ZZ, [_ZZ_TOP] * 13), Poly(ZZ, [_ZZ_TOP, 0, -1])))
def test_int_ring_division_is_checked_by_values(pair):
    # a = q b + r at max(deg a, deg q b) + 1 distinct points makes it an
    # identity, and q, r with deg r < deg b are unique
    a, b = pair
    R = a.ring
    q, r = poly_divmod(a, b)
    assert _is_canonical(q) and _is_canonical(r)
    assert r.degree < b.degree
    n = max(a.degree, q.degree + b.degree, 0) + 1
    K, points = _points(R, n)
    values = zip(*(_values(f, K, points) for f in (a, q, b, r)))
    assert all(va == K.add(K.mul(vq, vb), vr) for va, vq, vb, vr in values)


# (ring, degree of f): cubics, and even f = g(x^2) of degree 4, 6 and 8;
# GF(3) divides the degree of a cubic, so there f' can lose degree
DISC_SHAPES = [(GF(3), 3)] + [
    (R, d) for R in (GF(7919), GFext(7919, 2), GFext(5, 3), QQ, ZZ, PolyRing(ZZ)) for d in (3, 4, 6, 8)
]


@st.composite
def discriminant_inputs(draw):
    """f = g for a cubic g, or f = g(x^2) for g of degree 2, 3 or 4, over a
    ring from DISC_SHAPES; g has a nonzero leading coefficient and is
    random, or has g(0) = 0, or has a squared linear factor.  Returns f and
    whether disc(f) must be 0: for a repeated root, and for g(0) = 0 when f
    is even (then 0 is a double root of f)."""
    R, d = draw(st.sampled_from(DISC_SHAPES))
    if isinstance(R, PolyRing):
        element = st.lists(st.integers(-3, 3), max_size=3).map(lambda cs: Poly(ZZ, cs))
    else:
        element = _ring_elements(R)
    nonzero = element.filter(lambda c: not R.is_zero(c))
    n = d if d == 3 else d // 2
    kind = draw(st.sampled_from(["random", "g(0) = 0", "repeated root"]))
    if kind == "repeated root":
        root = Poly(R, [draw(element), R.one])
        tail = Poly(R, draw(st.lists(element, min_size=n - 2, max_size=n - 2)) + [draw(nonzero)])
        g = root * root * tail
    else:
        g = Poly(R, draw(st.lists(nonzero, min_size=n, max_size=n)) + [draw(nonzero)])
        if kind == "g(0) = 0":
            g = Poly(R, [R.zero] + list(g.coeffs[1:]))
    if d == 3:
        return g, kind == "repeated root"
    f = Poly(R, [g.coeff(i // 2) if i % 2 == 0 else R.zero for i in range(d + 1)])
    return f, kind != "random"


def _even_sextic(R, t):
    """(x^2 - t)(x^2 + 2)((t + 3) x^2 - 1) over R."""
    x = Poly.gen(R)
    return (x**2 - t) * (x**2 + 2) * ((t + 3) * x**2 - 1)


_ZT = PolyRing(ZZ)
_T = Poly.constant(_ZT, Poly.gen(ZZ))  # t in Z[t]


@PROPERTY
@given(discriminant_inputs())
# separable even sextics, where the sign of (-4)^3 shows, and a cubic over Z[t]
@example((_even_sextic(GF(7919), 5), False))
@example((_even_sextic(ZZ, 5), False))
@example((_even_sextic(_ZT, _T), False))
@example(((_T + 1) * Poly.gen(_ZT) ** 3 - _T * Poly.gen(_ZT) + 5, False))
# over GF(3), f' of 2x^3 + x^2 + 1 is 2x, of degree 1: read at degree 2 it
# gives disc = 2, while the resultant at degree 1 alone gives 1
@example((Poly(GF(3), [1, 0, 1, 2]), False))
def test_discriminant_is_sylvester_resultant(case):
    f, vanishes = case
    R, d, fp = f.ring, f.degree, f.derivative()
    disc = discriminant(f)
    if fp.is_zero():  # x^3 + c over GF(3) is a cube
        assert R.is_zero(disc)
    else:
        # the resultant with f' read at degree d - 1, as in the definition
        res = R.mul(resultant_sylvester(f, fp), ring_pow(R, f.lc(), d - 1 - fp.degree))
        res = R.divexact(res, f.lc())
        assert disc == (R.neg(res) if d * (d - 1) // 2 % 2 else res)
    if vanishes:
        assert R.is_zero(disc)


@st.composite
def integer_polys_and_primes(draw):
    """A prime p in {3, 5, 7} and an integer polynomial of degree 2 to 8
    whose leading coefficient p does not divide; the degrees include
    multiples of p, where f' loses degree mod p."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8] + [p, 2 * p] * 2).filter(lambda d: d <= 8))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    lead = draw(st.integers(1, p - 1))
    return p, Poly(ZZ, coeffs + [lead])


@PROPERTY
@given(integer_polys_and_primes())
# 2x^5 + x^2 + 3x + 1: f' = 2x + 3 mod 5, the resultant path at lowered degree
@example((5, Poly(ZZ, [1, 3, 1, 0, 0, 2])))
def test_discriminant_commutes_with_reduction_mod_p(case):
    # disc is a polynomial over Z in the coefficients of f, so reducing f
    # mod p (keeping its degree) reduces disc(f) mod p
    p, f = case
    F = GF(p)
    assert discriminant(f.map_coeffs(F, F.from_int)) == discriminant(f) % p


def powmod(base, exp, modulus):
    """base**exp mod modulus by square-and-multiply on ``Poly``: the oracle
    for every power the residue ring takes."""
    result, base = Poly.one(base.ring), poly_divmod(base, modulus)[1]
    while exp:
        if exp & 1:
            result = poly_divmod(result * base, modulus)[1]
        exp >>= 1
        base = poly_divmod(base * base, modulus)[1]
    return result


@st.composite
def residue_cases(draw):
    """K = F_p or GF(p^m) with p in {3, 11, 7919} and m = 2 to 6, a monic f
    over K of degree 1 to 6 whose other coefficients lie in F_p or anywhere
    in K, and two polynomials over K of degree up to 2 deg f, so that taking
    them into K[x]/(f) reduces them."""
    K = draw(st.sampled_from([GF(p) for p in (3, 11, 7919)] + INV_FIELDS))
    if isinstance(K, ExtField):
        anywhere = st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m).map(tuple)
        in_base = st.integers(0, K.p - 1).map(K.from_base)
    else:
        anywhere = in_base = st.integers(0, K.p - 1)
    n = draw(st.integers(1, 6))
    coefficient = draw(st.sampled_from([in_base, anywhere]))
    f = Poly(K, draw(st.lists(coefficient, min_size=n, max_size=n)) + [K.one])
    a, b = (Poly(K, draw(st.lists(anywhere, max_size=2 * n + 1))) for _ in range(2))
    return K, f, a, b


@PROPERTY
@given(residue_cases(), st.integers(0, 2**20))
def test_residue_ring_is_polynomial_arithmetic_mod_f(case, e):
    K, f, a, b = case
    R = ResidueRing(K, f.coeffs)
    A, B = R.from_coeffs(a.coeffs), R.from_coeffs(b.coeffs)
    assert Poly(K, R.coeffs(A)) == poly_divmod(a, f)[1]
    assert Poly(K, R.coeffs(R.mul(A, B))) == poly_divmod(a * b, f)[1]
    assert Poly(K, R.coeffs(ring_pow(R, A, e))) == powmod(a, e, f)


@PROPERTY
@given(residue_cases())
def test_residue_frobenius_is_the_pth_power(case):
    K, f, a, _ = case
    R = ResidueRing(K, f.coeffs)
    image = R.frobenius(R.from_coeffs(a.coeffs))
    assert Poly(K, R.coeffs(image)) == powmod(a, K.p, f)
    assert R.frobenius(image, 2) == R.frobenius(R.frobenius(image))


@st.composite
def norm_power_cases(draw):
    """K = GF(p^k) with p in {3, 11, 7919} and k = 2 to 6, f over F_p a
    product of one to three monic factors of degree 1 to 3, and h over K of
    degree 1 to 3 with random coordinates, so that for k > 1 the coefficient
    Frobenius of the norm moves them."""
    K = draw(st.sampled_from(INV_FIELDS))
    F = GF(K.p)
    f = Poly.one(F)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        f = f * Poly(F, draw(st.lists(st.integers(0, K.p - 1), min_size=d, max_size=d)) + [1])
    element = st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m).map(tuple)
    d = draw(st.integers(1, 3))
    h = Poly(K, draw(st.lists(element, min_size=d, max_size=d)) + [draw(element.filter(any))])
    return K, f, h


@PROPERTY
@given(norm_power_cases())
def test_norm_power_is_the_plain_power(case):
    K, f, h = case
    p, k = K.p, K.m
    lifted = f.map_coeffs(K, K.from_base)
    R = ResidueRing(K, lifted.coeffs)
    power = _norm_power(R, R.from_coeffs(h.coeffs), k, 1)
    assert Poly(K, R.coeffs(power)) == powmod(h, (p**k - 1) // 2, lifted)


@PROPERTY
@given(nonzero_elements())
def test_linear_frobenius_is_the_pth_power(case):
    K, a = case
    assert K.frobenius(a) == K.pow(a, K.p)
    assert K.frobenius(K.zero) == K.zero


@st.composite
def split_products(draw):
    """K = GF(7919^m) for m in {2, 3, 6} and g over F_7919: one or two
    distinct monic irreducibles, each of a degree d dividing m, drawn as
    M(ax + c) made monic, for M = x at d = 1 and the modulus of GF(7919^d)
    above, and a != 0."""
    m = draw(st.sampled_from([2, 3, 6]))
    K = GFext(7919, m)
    F = GF(7919)
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        modulus = Poly.gen(F) if d == 1 else Poly(F, GFext(7919, d).modulus)
        shift = Poly(F, [draw(st.integers(0, 7918)), draw(st.integers(1, 7918))])
        g = modulus.evaluate(shift).monic()
        if g not in factors:
            factors.append(g)
    return K, factors


@PROPERTY
@given(split_products())
def test_one_root_is_a_root_of_each_factor(case):
    K, factors = case
    lifted = [fac.map_coeffs(K, K.from_base) for fac in factors]
    for fac, fac_K in zip(factors, lifted):
        r = _one_root(fac_K, powmod(Poly.gen(fac.ring), K.p, fac))
        assert K.is_zero(fac_K.evaluate(r))
    g = Poly.one(factors[0].ring)
    for fac in factors:
        g = g * fac
    r = _one_root(g.map_coeffs(K, K.from_base), powmod(Poly.gen(g.ring), K.p, g))
    assert any(K.is_zero(fac_K.evaluate(r)) for fac_K in lifted)
