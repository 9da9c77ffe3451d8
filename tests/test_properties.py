"""Property tests for GF(p^m) inverses and roots, against Fermat's inverse
and a brute-force root search.  ``derandomize=True`` draws the same inputs
on every run."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacpairs.exact.poly import Poly
from jacpairs.exact.rings import GF, GFext
from jacpairs.exact.roots import element_sort_key, roots

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


def _brute_force_roots(f):
    K = f.ring
    return sorted(
        (a for a in K.elements() if K.is_zero(f(a))),
        key=lambda a: element_sort_key(K, a),
    )


@st.composite
def base_polys(draw):
    """A polynomial over F_p lifted to GF(p^m): a product of random monic
    factors of degree 1 to 4, some squared, times a nonzero constant."""
    K = draw(st.sampled_from(ROOT_FIELDS))
    F = GF(K.p)
    f = Poly.constant(F, draw(st.integers(1, K.p - 1)))
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        g = Poly(F, draw(st.lists(st.integers(0, K.p - 1), min_size=d, max_size=d)) + [1])
        f = f * g ** draw(st.integers(1, 2))
    return f.map_coeffs(K, K.from_base)


@st.composite
def ext_polys(draw):
    """A polynomial with coefficients outside F_p: random linear factors in
    K (repeats allowed) times a random monic cofactor over K."""
    K = draw(st.sampled_from(ROOT_FIELDS[1:]))
    element = st.lists(st.integers(0, K.p - 1), min_size=K.m, max_size=K.m).map(tuple)
    x = Poly.gen(K)
    f = Poly(K, draw(st.lists(element, min_size=0, max_size=3)) + [K.one])
    for r in draw(st.lists(element, min_size=0, max_size=4)):
        f = f * (x - Poly.constant(K, r))
    return f


def _lift(p, m, coeffs):
    K = GFext(p, m)
    return Poly(GF(p), coeffs).map_coeffs(K, K.from_base)


@PROPERTY
@given(base_polys())
# x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) over F_3, squared: repeated
# quadratics, split in GF(3^2), no roots in GF(3^3)
@example(_lift(3, 2, [1, 0, 0, 0, 2, 0, 0, 0, 1]))
@example(_lift(3, 3, [1, 0, 0, 0, 2, 0, 0, 0, 1]))
# x^3 - x - 1 is irreducible over F_3: three conjugate roots in GF(3^3)
@example(_lift(3, 3, [2, 2, 0, 1]))
def test_roots_of_base_polynomials_match_brute_force(f):
    assert roots(f) == _brute_force_roots(f)


@PROPERTY
@given(ext_polys())
def test_roots_of_extension_polynomials_match_brute_force(f):
    assert roots(f) == _brute_force_roots(f)
