"""Property tests for GF(p^m) inverses, roots and factorizations, against
Fermat's inverse, a brute-force root search and the product of the factors,
for the squarefree decomposition over Q, GF(3) and GF(5) against the
multiplicities a polynomial was built with, for the integer resultant
against the Sylvester determinant, for the gcd over Q against Euclid on
``Fraction`` coefficients, for the ring axioms of GF(p^m), and for
polynomial arithmetic returning canonical results.  ``derandomize=True``
draws the same inputs on every run."""
import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacpairs.exact.poly import (
    Poly,
    divmod_exact_ring,
    divmod_field,
    gcd_field,
    resultant,
    resultant_sylvester,
    squarefree_decomposition,
)
from jacpairs.exact.rings import GF, QQ, ZZ, ExtField, GFext
from jacpairs.exact.roots import element_sort_key, irreducible_factors, roots, splitting_degrees

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

INV_FIELDS = [GFext(p, m) for p in (3, 11, 7919) for m in range(1, 7)]
# every GF(p^m) with p^m <= 400 and m >= 2, and one degree-1 ExtField
ROOT_FIELDS = [GFext(p, m) for p, m in [(5, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
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
    return sorted(
        (a for a in K.elements() if K.is_zero(lifted(a))),
        key=lambda a: element_sort_key(K, a),
    )


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
    g = gcd_field(a, b)
    assert list(g.coeffs) == _euclid_over_fractions(a, b)
    assert g.lc() == 1 and all(type(c) is Fraction for c in g.coeffs)
    assert divmod_field(a, g)[1].is_zero() and divmod_field(b, g)[1].is_zero()


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
    assert K.mul(a, b) == K.mul(b, a)
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.frobenius(K.mul(a, b)) == K.mul(K.frobenius(a), K.frobenius(b))


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


def _is_canonical(r):
    again = Poly(r.ring, list(r.coeffs))
    return r == again and [type(c) for c in r.coeffs] == [type(c) for c in again.coeffs]


@PROPERTY
@given(poly_pairs())
def test_arithmetic_results_are_canonical(case):
    R, a, b, c = case
    results = [a + b, a - b, a * b, a.scale(c), (a + b) - b]
    if not b.is_zero():
        if R.is_field:
            results.extend(divmod_field(a, b))
        elif R.is_one(b.lc()) or R.is_one(R.neg(b.lc())):
            results.extend(divmod_exact_ring(a, b))
    for r in results:
        assert _is_canonical(r)
    assert (a + b) - b == a
    assert (a - b) + b == a
