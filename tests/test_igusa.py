"""Property tests for the invariant layer: coefficient formulas against the
root-difference oracle, invariance laws, weighted equality semantics."""
import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import Poly, discriminant, poly_divmod, primitive_part_int
from jacpairs.exact.rings import GF, QQ, ZZ, GFext
from jacpairs.igusa import invariants
from jacpairs.families import FAMILY_IDS, eval_poly, family_sextic, family_spec
from jacpairs.igusa.invariants import (
    igusa_clebsch,
    igusa_vector,
    j_polynomials_of_sextic_family,
    r_numerators,
    r_polynomials,
    root_difference_oracle,
    weighted_equal,
)

WEIGHTS = (2, 4, 6, 8, 10)


def _shift(f, c):
    """f(x + c)."""
    return f.evaluate(Poly(f.ring, [c, f.ring.one]))


def _inverted(f):
    """x^6 f(1/x): the model under x -> 1/x, y -> y/x^3."""
    return Poly(f.ring, [f.coeff(i) for i in range(6, -1, -1)])


def _random_separable(F, rng, degree=6, zeros=()):
    """A random separable polynomial of the given degree over F whose
    coefficients at the indices in ``zeros`` are 0."""
    while True:
        coeffs = [
            F.zero if i in zeros else F.from_int(rng.randrange(F.p)) for i in range(degree)
        ]
        coeffs.append(F.from_int(rng.randrange(1, F.p)))
        f = Poly(F, coeffs)
        if not F.is_zero(discriminant(f)):
            return f


def _random_prime(rng, lo=7, hi=10**4):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p) and p > 5:
            return p


class TestOracle:
    def test_formulas_match_root_differences(self):
        rng = random.Random(2024)
        for _ in range(100):
            F = GF(_random_prime(rng))
            f = _random_separable(F, rng, degree=rng.choice((5, 6)))
            assert igusa_clebsch(f) == root_difference_oracle(f)

    @pytest.mark.parametrize(
        "degree,zeros",
        [(6, (1, 3, 5)), (6, (0,)), (6, (5,)), (5, ()), (5, (1, 3)), (6, (0, 2, 5))],
        ids=["even", "c0", "c5", "quintic", "quintic-c1-c3", "c0-c2-c5"],
    )
    def test_sparse_inputs_match_root_differences(self, degree, zeros):
        # the evaluator drops every term with a zero coefficient; on sparse
        # input the surviving terms alone must give the invariants
        rng = random.Random(f"sparse {degree} {zeros}")
        for _ in range(30):
            F = GF(_random_prime(rng, hi=2000))
            f = _random_separable(F, rng, degree=degree, zeros=zeros)
            assert all(F.is_zero(f.coeff(i)) for i in zeros)
            assert igusa_clebsch(f) == root_difference_oracle(f)

    def test_inseparable_rejected(self):
        F = GF(11)
        x = Poly.gen(F)
        f = (x - Poly.one(F)) ** 2 * (x**4 + Poly.one(F))
        with pytest.raises(ValueError):
            igusa_vector(f)

    @pytest.mark.parametrize("F", [GF(7919), GFext(7919, 2)], ids=["Fp", "Fp2"])
    def test_even_inseparable_rejected(self, F):
        # I10 of an even sextic comes from the closed form in disc(g) for
        # f = g(x^2); a repeated root of g must still make it vanish
        x = Poly.gen(F)
        f = (x**2 - 1) ** 2 * (x**2 + 1)
        with pytest.raises(ValueError, match="inseparable input: I10 = 0"):
            igusa_clebsch(f)

    def test_characteristic_guard(self):
        F = GF(5)
        x = Poly.gen(F)
        with pytest.raises(ValueError):
            igusa_clebsch(x**6 + x + Poly.one(F))


class TestInvariance:
    def test_translation_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            F = GF(_random_prime(rng))
            f = _random_separable(F, rng)
            c = F.from_int(rng.randrange(F.p))
            shifted = _shift(f, c)
            assert igusa_vector(shifted) == igusa_vector(f)

    def test_moebius_covariance(self):
        rng = random.Random(8)
        trials = 0
        while trials < 200:
            F = GF(_random_prime(rng))
            f = _random_separable(F, rng)
            a, b, c, d = (F.from_int(rng.randrange(F.p)) for _ in range(4))
            det = F.sub(F.mul(a, d), F.mul(b, c))
            if F.is_zero(det):
                continue
            num = Poly(F, [b, a])  # a x + b
            den = Poly(F, [d, c])  # c x + d
            g = Poly.zero(F)
            for i, coeff in enumerate(f.coeffs):
                g = g + (num**i * den ** (6 - i)).scale(coeff)
            if F.is_zero(discriminant(g)) or g.degree < 5:
                continue
            assert weighted_equal(
                igusa_vector(f), igusa_vector(g), F, geometric=True
            )
            trials += 1

    def test_twist_law(self):
        rng = random.Random(9)
        for _ in range(50):
            F = GF(_random_prime(rng))
            f = _random_separable(F, rng)
            e = F.from_int(rng.randrange(1, F.p))
            u = igusa_vector(f)
            v = igusa_vector(f.scale(e))
            for w, ui, vi in zip(WEIGHTS, u, v):
                assert vi == F.mul(pow_field(F, e, w), ui)

    def test_j8_dependency(self):
        rng = random.Random(10)
        for _ in range(200):
            F = GF(_random_prime(rng))
            j2, j4, j6, j8, _ = igusa_vector(_random_separable(F, rng))
            # scaled normalization: weights carry 2^(4k), so the dependency
            # 4 J8 = J2 J6 - J4^2 holds verbatim in the scaled coordinates
            lhs = F.mul(F.from_int(4), j8)
            rhs = F.sub(F.mul(j2, j6), F.mul(j4, j4))
            assert lhs == rhs


def pow_field(F, e, n):
    out = F.one
    for _ in range(n):
        out = F.mul(out, e)
    return out


class TestWeightedEqual:
    def test_explicit_scaling_accepted(self):
        rng = random.Random(11)
        for _ in range(50):
            F = GF(_random_prime(rng))
            u = igusa_vector(_random_separable(F, rng))
            e = F.from_int(rng.randrange(1, F.p))
            v = tuple(F.mul(pow_field(F, e, w), c) for w, c in zip(WEIGHTS, u))
            assert weighted_equal(u, v, F)
            assert weighted_equal(u, v, F, geometric=True)

    def test_inversion_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            F = GF(_random_prime(rng))
            f = _random_separable(F, rng)
            if F.is_zero(f.coeff(0)):
                continue
            g = _inverted(f)
            assert weighted_equal(igusa_vector(f), igusa_vector(g), F)

    def test_nonsquare_twist_is_geometric_only(self):
        # over F_p, y^2 = f and y^2 = n f with n a non-square are twists:
        # same geometric class, same base-field invariants only when the
        # weighted scaling admits a rational solution
        F = GF(23)
        x = Poly.gen(F)
        f = x**6 + x + Poly.one(F)
        n = next(
            F.from_int(k) for k in range(2, 23) if not F.is_square(F.from_int(k))
        )
        g = f.scale(n)
        assert weighted_equal(igusa_vector(f), igusa_vector(g), F, geometric=True)

    def test_distinct_curves_rejected(self):
        F = GF(101)
        x = Poly.gen(F)
        three = Poly.constant(F, F.from_int(3))
        f = x**6 + x + three
        g = x**6 + x.scale(F.from_int(2)) + three
        assert not F.is_zero(discriminant(f))
        assert not F.is_zero(discriminant(g))
        assert not weighted_equal(igusa_vector(f), igusa_vector(g), F, geometric=True)

    def test_shifted_model_same_class(self):
        F = GF(101)
        x = Poly.gen(F)
        f = x**6 + Poly.constant(F, F.from_int(3)) * x + Poly.one(F)
        g = _shift(f, F.one)
        assert weighted_equal(igusa_vector(f), igusa_vector(g), F, geometric=True)


class TestRationalField:
    def test_rational_sextic(self):
        x = Poly.gen(QQ)
        f = x**6 + x.scale(Fraction(1, 2)) + Poly.constant(QQ, Fraction(1))
        u = igusa_vector(f)
        assert u[4] != 0
        v = igusa_vector(f.scale(Fraction(4)))
        assert weighted_equal(u, v, QQ)

    def test_only_j10_tenth_power_is_exact(self):
        # only J10 nonzero: base-field equality asks whether the ratio is a
        # 10th power in Q, which a float root gets wrong for large values
        u = (0, 0, 0, 0, 1)
        assert weighted_equal(u, (0, 0, 0, 0, (10**30 + 7) ** 10), QQ)
        assert not weighted_equal(u, (0, 0, 0, 0, (10**30 + 7) ** 10 + 1), QQ)
        assert weighted_equal(u, (0, 0, 0, 0, Fraction(1, 3**10)), QQ)
        assert weighted_equal(u, (0, 0, 0, 0, 10**400), QQ)
        assert not weighted_equal(u, (0, 0, 0, 0, 2 * 10**400), QQ)


class TestFamilyJPolynomials:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_specialization_matches_igusa_vector(self, fid):
        # the J's over Z[t], reduced mod p and evaluated at t0, are the J's
        # of the family sextic built directly over F_p at t0, and the same
        # holds at t0 in GF(p^2) outside F_p
        spec = family_spec(fid)
        js = j_polynomials_of_sextic_family(spec.sextic)
        for p, t0 in ((101, 3), (1009, 17), (7919, 1234)):
            F = GF(p)
            at_t0 = tuple(eval_poly(j, F, F.from_int(t0)) for j in js)
            assert at_t0 == igusa_vector(family_sextic(spec, F, F.from_int(t0))[1])
        for p, t0 in ((13, (2, 5)), (101, (3, 1)), (7919, (1234, 4321))):
            K = GFext(p, 2)
            assert K.in_base(t0) is None
            at_t0 = tuple(eval_poly(j, K, t0) for j in js)
            assert at_t0 == igusa_vector(family_sextic(spec, K, t0)[1])

    def test_j_polynomials_are_integral(self):
        js = j_polynomials_of_sextic_family(family_spec("deg7").sextic)
        assert all(j.ring is ZZ for j in js)
        assert all(type(c) is int for j in js for c in j.coeffs)

    def test_non_integral_j_is_rejected(self, monkeypatch):
        # I4 + 1 moves j4 = (j2^2 - 64 I4) / 24 off Z[t]: 64 is not 0 mod 24.
        # The J's are cached per sextic, so the cache is cleared before the
        # call (an earlier result would hide the patch) and after it.
        igusa_clebsch_zt = invariants.igusa_clebsch

        def shifted(f):
            i2, i4, i6, i10 = igusa_clebsch_zt(f)
            return i2, i4 + 1, i6, i10

        monkeypatch.setattr(invariants, "igusa_clebsch", shifted)
        j_polynomials_of_sextic_family.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="not in Z\\[t\\]"):
                j_polynomials_of_sextic_family(family_spec("deg3").sextic)
        finally:
            j_polynomials_of_sextic_family.cache_clear()


R_NAMES = ("R2", "R3", "R5", "R23", "R35", "R25")


def _z_primitive(f):
    """The primitive part in Z[t], with a positive leading coefficient, of
    a polynomial over Q."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return primitive_part_int(Poly(ZZ, [int(c * den) for c in f.coeffs]))[1]


def _fraction_r_polynomial(spec, name):
    """The earlier Q[t] route, kept as the reference: the numerator divided
    by its printed denominator by long division over Q."""
    num = r_numerators(j_polynomials_of_sextic_family(spec.sextic), (name,))[name]
    q, r = poly_divmod(
        num.map_coeffs(QQ, Fraction), spec.r_denominators[name].map_coeffs(QQ, Fraction)
    )
    assert r.is_zero()
    return q


class TestWeightedDifferences:
    @pytest.mark.parametrize(
        "fid,p", [("deg3", 13), ("deg3", 7919), ("deg4", 23), ("deg4", 1009),
                  ("deg7", 17), ("deg7", 101)],
    )
    def test_numerators_over_zt_reduce_to_numerators_over_fp(self, fid, p):
        js = j_polynomials_of_sextic_family(family_spec(fid).sextic)
        F = GF(p)
        over_zt = r_numerators(js, R_NAMES)
        over_fp = r_numerators([j.map_coeffs(F, F.from_int) for j in js], R_NAMES)
        assert set(over_fp) == set(R_NAMES)
        for name in R_NAMES:
            assert over_zt[name].map_coeffs(F, F.from_int) == over_fp[name]

    def test_only_the_named_numerators(self):
        js = j_polynomials_of_sextic_family(family_spec("deg4").sextic)
        full = r_numerators(js, R_NAMES)
        for names in (("R2", "R3", "R5"), ("R35",), ("R25", "R2"), ()):
            some = r_numerators(js, names)
            assert list(some) == list(names)
            assert all(some[name] == full[name] for name in names)

    def test_numerator_formulas(self):
        # the six definitions written out, over F_p for speed
        F = GF(1009)
        js = j_polynomials_of_sextic_family(family_spec("deg4").sextic)
        jp = dict(zip((1, 2, 3, 4, 5), (j.map_coeffs(F, F.from_int) for j in js)))
        jn = {k: j.substitute_neg() for k, j in jp.items()}
        expected = {
            "R2": jp[2] * jn[1] ** 2 - jn[2] * jp[1] ** 2,
            "R3": jp[3] * jn[1] ** 3 - jn[3] * jp[1] ** 3,
            "R5": jp[5] * jn[1] ** 5 - jn[5] * jp[1] ** 5,
            "R23": jp[2] ** 3 * jn[3] ** 2 - jn[2] ** 3 * jp[3] ** 2,
            "R35": jp[3] ** 5 * jn[5] ** 3 - jn[3] ** 5 * jp[5] ** 3,
            "R25": jp[5] ** 2 * jn[2] ** 5 - jn[5] ** 2 * jp[2] ** 5,
        }
        assert r_numerators(list(jp.values()), R_NAMES) == expected

    @pytest.mark.parametrize(
        "fid,name",
        [(fid, name) for fid in ("deg3", "deg4", "deg7")
         for name in family_spec(fid).r_denominators],
    )
    def test_every_printed_denominator_is_checked(self, fid, name):
        # one printed denominator times (t + 1) no longer divides its
        # numerator, and r_polynomials must say so
        spec = family_spec(fid)
        assert set(r_polynomials(spec)) == set(spec.r_denominators)
        t = Poly.gen(ZZ)
        dens = dict(spec.r_denominators)
        dens[name] = dens[name] * (t + 1)
        wrong = dataclasses.replace(spec, r_denominators=dens)
        with pytest.raises(ArithmeticError, match=f"{name} numerator not divisible"):
            r_polynomials(wrong)

    @pytest.mark.parametrize(
        "fid,name",
        [(fid, name) for fid in ("deg3", "deg4", "deg7")
         for name in family_spec(fid).r_denominators],
    )
    def test_z_route_is_the_primitive_part_of_the_q_quotient(self, fid, name):
        spec = family_spec(fid)
        r = r_polynomials(spec)[name]
        assert r.ring is ZZ and r == primitive_part_int(r)[1]
        assert r == _z_primitive(_fraction_r_polynomial(spec, name))
