"""Property tests for the invariant layer: coefficient formulas against the
root-difference oracle, invariance laws, weighted equality semantics."""
import random
from fractions import Fraction

import pytest

from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import Poly, discriminant
from jacpairs.exact.rings import GF, QQ
from jacpairs.igusa.invariants import (
    geometric_isomorphism_test,
    igusa_clebsch,
    igusa_j,
    igusa_vector,
    inversion_isomorphism,
    root_difference_oracle,
    weighted_equal,
)

WEIGHTS = (2, 4, 6, 8, 10)


def _random_separable(F, rng, degree=6):
    while True:
        coeffs = [F.from_int(rng.randrange(F.p)) for _ in range(degree)]
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

    def test_inseparable_rejected(self):
        F = GF(11)
        x = Poly.gen(F)
        f = (x - Poly.one(F)) ** 2 * (x**4 + Poly.one(F))
        with pytest.raises(ValueError):
            igusa_vector(f)

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
            shifted = f.shift(c)
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
            g = inversion_isomorphism(f)
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
        assert geometric_isomorphism_test(f, g)

    def test_distinct_curves_rejected(self):
        F = GF(101)
        x = Poly.gen(F)
        three = Poly.constant(F, F.from_int(3))
        f = x**6 + x + three
        g = x**6 + x.scale(F.from_int(2)) + three
        assert not F.is_zero(discriminant(f))
        assert not F.is_zero(discriminant(g))
        assert not geometric_isomorphism_test(f, g)

    def test_shifted_model_same_class(self):
        F = GF(101)
        x = Poly.gen(F)
        f = x**6 + Poly.constant(F, F.from_int(3)) * x + Poly.one(F)
        assert geometric_isomorphism_test(f, f.shift(F.one))


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
