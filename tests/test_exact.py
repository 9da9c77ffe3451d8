"""Unit tests for the exact-arithmetic layer."""
import random
from fractions import Fraction

import pytest

from jacpairs.exact.integers import (
    factorize,
    is_perfect_square,
    is_prime,
    squarefree_part,
    trial_division,
)
from jacpairs.exact.poly import (
    Poly,
    discriminant,
    divmod_field,
    gcd_field,
    rational_poly_to_primitive,
    resultant,
    resultant_sylvester,
    squarefree_decomposition,
)
from jacpairs.exact import rings
from jacpairs.exact.rings import GF, QQ, ZZ, ExtField, GFext
from jacpairs.exact.roots import (
    irreducible_factors,
    roots,
    roots_in_splitting_field,
    splitting_degrees,
)
from jacpairs.exact.serialize import (
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    poly_from_json,
    poly_to_json,
)


class TestIntegers:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 571603}
        for n in range(2, 100):
            assert is_prime(n) == all(n % d for d in range(2, n))
        for p in primes:
            assert is_prime(p)
        assert not is_prime(571603 * 571603)

    def test_factorize_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 10**12)
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_trial_division(self):
        # fully factored: stops early, cofactor 1
        assert trial_division(2**5 * 7 * 571603, 10**6) == ({2: 5, 7: 1, 571603: 1}, 1)
        # a prime left over below the bound counts as a factor
        assert trial_division(3 * 999983, 10**6) == ({3: 1, 999983: 1}, 1)
        # a prime at or above the bound stays the cofactor
        assert trial_division(4 * 1000003, 10**6) == ({2: 2}, 1000003)
        # an unfactored composite above the bound stays the cofactor
        big = 1000003 * 1000033
        assert trial_division(-6 * big, 10**6) == ({2: 1, 3: 1}, big)
        assert trial_division(0, 10) == ({}, 0)
        assert factorize(6 * big) == {2: 1, 3: 1, 1000003: 1, 1000033: 1}

    def test_squarefree_part(self):
        assert squarefree_part(4 * 9 * 5) == 5
        assert squarefree_part(1) == 1
        assert squarefree_part(8) == 2

    def test_perfect_square(self):
        for n in range(200):
            assert is_perfect_square(n * n)
        assert not is_perfect_square(2)
        assert not is_perfect_square(10**20 + 1)


class TestRings:
    def test_prime_field_arithmetic(self):
        F = GF(101)
        a, b = F.from_int(37), F.from_int(64)
        assert F.mul(a, F.inv(a)) == F.one
        assert F.add(a, b) == F.zero
        # Euler criterion against brute force
        squares = {F.mul(F.from_int(x), F.from_int(x)) for x in range(101)}
        for x in range(1, 101):
            e = F.from_int(x)
            assert F.is_square(e) == (e in squares)
            if F.is_square(e):
                r = F.sqrt(e)
                assert F.mul(r, r) == e

    def test_extension_field_is_field(self):
        for p, m in ((11, 6), (13, 4), (101, 3), (5, 2)):
            K = GFext(p, m)
            rng = random.Random(p * m)
            for _ in range(20):
                a = tuple(rng.randrange(p) for _ in range(m))
                if all(c == 0 for c in a):
                    continue
                assert K.mul(a, K.inv(a)) == K.one

    def test_frobenius_fixes_base(self):
        K = GFext(7, 3)
        for k in range(7):
            a = K.from_int(k)
            assert K.frobenius(a) == a
        # frobenius has order m
        a = (1, 2, 3)
        b = a
        for _ in range(3):
            b = K.frobenius(b)
        assert b == a


def _full_walk_modulus(p, m):
    """The modulus search without the binomial skip: the first monic
    irreducible of degree m in lexicographic order, c_0 least significant."""
    for n in range(p**m):
        digits = []
        k = n
        for _ in range(m):
            digits.append(k % p)
            k //= p
        cand = tuple(digits) + (1,)
        if cand[0] != 0 and rings._is_irreducible(cand, p):
            return cand


SMALL_PRIMES = [p for p in range(7, 200) if is_prime(p)]


class TestModulusSearch:
    def test_matches_full_walk(self):
        for p in SMALL_PRIMES:
            for m in range(2, 7):
                assert rings._default_modulus(p, m) == _full_walk_modulus(p, m), (p, m)

    def test_binomial_criterion(self):
        for p in SMALL_PRIMES:
            for m in range(2, 7):
                exists = any(
                    rings._is_irreducible((c,) + (0,) * (m - 1) + (1,), p)
                    for c in range(1, p)
                )
                assert rings._has_irreducible_binomial(p, m) == exists, (p, m)

    @pytest.mark.parametrize(
        "p,m,modulus",
        [
            (522719, 3, (1, 1, 0, 1)),
            (961397, 3, (1, 1, 0, 1)),
            (961397, 6, (2, 1, 0, 0, 0, 0, 1)),
        ],
    )
    def test_large_primes_few_rabin_tests(self, monkeypatch, p, m, modulus):
        calls = []
        is_irreducible = rings._is_irreducible

        def counting(coeffs, q):
            calls.append(coeffs)
            return is_irreducible(coeffs, q)

        monkeypatch.setattr(rings, "_is_irreducible", counting)
        rings._default_modulus.cache_clear()
        try:
            assert rings._default_modulus(p, m) == modulus
        finally:
            rings._default_modulus.cache_clear()
        assert 1 <= len(calls) <= 64

    def test_supplied_modulus_is_checked(self):
        assert ExtField(7, 2, modulus=(1, 0, 1)).modulus == (1, 0, 1)
        with pytest.raises(ValueError, match="modulus is reducible"):
            ExtField(7, 2, modulus=(6, 0, 1))  # x^2 - 1 = (x - 1)(x + 1)
        with pytest.raises(ValueError, match="monic"):
            ExtField(7, 2, modulus=(1, 0, 2))


class TestPoly:
    def test_divmod_and_gcd(self):
        F = GF(97)
        rng = random.Random(1)
        for _ in range(30):
            a = Poly(F, [F.from_int(rng.randrange(97)) for _ in range(6)])
            b = Poly(F, [F.from_int(rng.randrange(97)) for _ in range(3)])
            if b.is_zero():
                continue
            q, r = divmod_field(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            g = gcd_field(a * b, b)
            _, rem = divmod_field(b, g)
            assert rem.is_zero()

    def test_resultant_matches_sylvester(self):
        rng = random.Random(2)
        for _ in range(20):
            a = Poly.from_ints(ZZ, [rng.randrange(-50, 50) for _ in range(7)])
            b = Poly.from_ints(ZZ, [rng.randrange(-50, 50) for _ in range(5)])
            if a.degree < 1 or b.degree < 1:
                continue
            assert resultant(a, b) == resultant_sylvester(a, b)

    def test_resultant_multiplicative(self):
        rng = random.Random(3)
        a = Poly.from_ints(ZZ, [rng.randrange(-9, 9) for _ in range(5)])
        b = Poly.from_ints(ZZ, [rng.randrange(-9, 9) for _ in range(4)])
        c = Poly.from_ints(ZZ, [rng.randrange(-9, 9) for _ in range(4)])
        assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)

    def test_discriminant_of_known_cubic(self):
        # disc(x^3 + ax + b) = -4a^3 - 27b^2
        for a, b in ((1, 1), (-2, 3), (0, 5)):
            f = Poly.from_ints(ZZ, [b, a, 0, 1])
            assert discriminant(f) == -4 * a**3 - 27 * b**2

    def test_squarefree_decomposition_char_zero(self):
        x = Poly.gen(QQ)
        f = (x + 1) ** 3 * (x + 2) ** 2 * (x + 3)
        dec = dict(squarefree_decomposition(f))
        inv = {m: g for g, m in dec.items()}
        assert inv[3] == x + 1 and inv[2] == x + 2 and inv[1] == x + 3

    @pytest.mark.parametrize("p,e", [(5, 5), (5, 7), (3, 9), (7, 8), (11, 41)])
    def test_squarefree_decomposition_high_multiplicity(self, p, e):
        # multiplicities at or above the characteristic
        F = GF(p)
        x = Poly.gen(F)
        f = x**e * (x + F.one) ** 2
        dec = squarefree_decomposition(f)
        assert sorted((g.degree, m) for g, m in dec) == sorted([(1, e), (1, 2)])
        prod = Poly.one(F)
        for g, m in dec:
            prod = prod * g**m
        assert prod == f

    def test_rational_poly_to_primitive(self):
        x = Poly.gen(QQ)
        f = x.scale(Fraction(3, 4)) + Poly.constant(QQ, Fraction(9, 8))
        scale, prim = rational_poly_to_primitive(f)
        assert prim.ring is ZZ
        assert prim == Poly.from_ints(ZZ, [3, 2])
        assert scale == Fraction(3, 8)


class TestRoots:
    def test_roots_of_split_polynomial(self):
        F = GF(31)
        x = Poly.gen(F)
        f = (x - Poly.constant(F, F.from_int(3))) * (
            x - Poly.constant(F, F.from_int(10))
        )
        assert {F.to_str(r) for r in roots(f)} == {"3", "10"}

    def test_splitting_degrees(self):
        F = GF(7)
        x = Poly.gen(F)
        # x^2 + 1 is irreducible mod 7 (−1 is not a QR)
        f = x * x + Poly.one(F)
        assert splitting_degrees(f) == [2]

    def test_roots_in_splitting_field(self):
        F = GF(11)
        x = Poly.gen(F)
        f = x**3 - Poly.constant(F, F.from_int(2))
        K, rts = roots_in_splitting_field(f)
        assert len(rts) == 3
        for r in rts:
            assert K.mul(K.mul(r, r), r) == K.from_int(2)

    def test_irreducible_factors_reassemble(self):
        rng = random.Random(9)
        F = GF(13)
        for _ in range(15):
            coeffs = [F.from_int(rng.randrange(13)) for _ in range(8)] + [F.one]
            f = Poly(F, coeffs)
            lead, factors = irreducible_factors(f)
            prod = Poly.constant(F, lead)
            for g, m in factors:
                prod = prod * g**m
            assert prod == f

    def test_factorization_is_deterministic(self):
        F = GF(17)
        x = Poly.gen(F)
        f = (x**2 + Poly.one(F)) * (x**3 + x + Poly.one(F)) * x
        assert irreducible_factors(f) == irreducible_factors(f)


class TestSerialize:
    def test_poly_roundtrip_rational(self):
        f = Poly(QQ, [Fraction(-3, 7), Fraction(2), Fraction(0), Fraction(1)])
        assert poly_from_json(poly_to_json(f), QQ) == f

    def test_poly_roundtrip_extension(self):
        K = GFext(5, 3)
        f = Poly(K, [(1, 2, 3), (0, 4, 0), K.one])
        assert poly_from_json(poly_to_json(f), K) == f

    def test_field_roundtrip(self):
        for R in (QQ, ZZ, GF(101), GFext(7, 2)):
            assert field_from_json(field_to_json(R)) == R

    def test_element_roundtrip(self):
        K = GFext(11, 2)
        a = (3, 7)
        assert element_from_json(K, element_to_json(K, a)) == a
