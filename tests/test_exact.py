"""Unit tests for the exact-arithmetic layer."""
import itertools
import random
import sys
from fractions import Fraction

import pytest

from jacpairs.exact.integers import is_perfect_square, is_prime, trial_division
from jacpairs.exact.poly import (
    Poly,
    PolyRing,
    discriminant,
    gcd_field,
    parity_split,
    poly_divmod,
    resultant,
    resultant_sylvester,
    squarefree_decomposition,
)
from jacpairs.exact import rings
from jacpairs.exact.rings import GF, QQ, ZZ, ExtField, GFext, PrimeField, ResidueRing, ring_pow
from jacpairs.exact.roots import (
    _one_root,
    equal_degree_factorization,
    irreducible_factors,
    roots,
    splitting_degrees,
    splitting_field,
)
from jacpairs.exact.serialize import (
    element_from_json,
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

    def test_inexact_division_of_large_integers_is_an_arithmetic_error(self):
        # the message must not format the operands: at the default
        # int <-> str conversion limit (4 300 digits) that raises ValueError
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ArithmeticError, match="16610-bit integer by a 16607-bit one"):
                ZZ.divexact(10**5000 + 1, 10**4999)
        finally:
            sys.set_int_max_str_digits(limit)
        assert ZZ.divexact(-(10**5000), 10**4999) == -10

    def test_extension_field_is_field(self):
        for p, m in ((11, 6), (13, 4), (101, 3), (5, 2)):
            K = GFext(p, m)
            rng = random.Random(p * m)
            for _ in range(20):
                a = tuple(rng.randrange(p) for _ in range(m))
                if all(c == 0 for c in a):
                    continue
                assert K.mul(a, K.inv(a)) == K.one

    def test_degree_one_field_is_the_prime_field(self):
        for build in (GFext, ExtField):
            with pytest.raises(ValueError, match="degree-1 field is GF\\(7\\)"):
                build(7, 1)

    @pytest.mark.parametrize(
        "R,a",
        [
            (ZZ, -3),
            (GF(7919), 1234),
            (GFext(7919, 3), (5, 0, 7918)),
            (ResidueRing(GF(11), [3, 0, 1, 1]), [2, 5, 0]),
            (PolyRing(ZZ), Poly.from_ints(ZZ, [1, -2, 1])),
        ],
        ids=["ZZ", "GF(7919)", "GF(7919^3)", "GF(11)[x]/(f)", "Z[x]"],
    )
    def test_ring_pow_is_repeated_multiplication(self, R, a):
        power = R.one
        for n in range(65):
            assert ring_pow(R, a, n) == power, n
            power = R.mul(power, a)

    def test_ring_pow_of_large_ints_is_the_builtin_power(self):
        rng = random.Random(19)
        for bits in (64, 1000, 13000):
            a = rng.getrandbits(bits) | 1 << (bits - 1)
            for n in (0, 1, 2, 39, 40, 41):
                assert ring_pow(ZZ, a, n) == a**n

    @pytest.mark.parametrize(
        "modulus",
        [(6, 1, 6, 1), (1, 4, 1, 1)],
        ids=["(x-1)(x^2+1)", "(x-1)(x-2)(x-3)"],
    )
    def test_a_reducible_modulus_raises(self, modulus):
        # the split one passes Phi^3(y) = y: only the gcd step rejects it
        with pytest.raises(ValueError, match="not irreducible over GF\\(7\\)"):
            GFext(7, 3, modulus)

    def test_a_modulus_of_the_wrong_shape_raises(self):
        for modulus in ((5, 0, 0, 2), (5, 0, 1), (12, 0, 0, 1)):
            with pytest.raises(ValueError, match="not a monic degree-3 modulus"):
                ExtField(7, 3, modulus)
        with pytest.raises(ValueError, match="needs a modulus y\\^2"):
            GFext(7, 2, (3, 1, 1))

    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (5, 4), (3, 5), (3, 6)])
    def test_rabin_test_agrees_with_the_factorization(self, p, m):
        for n in range(p**m):
            modulus = rings._digits(n, p, m) + (1,)
            try:
                ExtField(p, m, modulus)
                built = True
            except ValueError as exc:
                assert "not irreducible" in str(exc)
                built = False
            assert built == rings._is_irreducible(modulus, p), modulus

    def test_a_given_modulus_shows_in_the_name(self):
        K = GFext(7, 3, (5, 0, 0, 1))
        assert repr(K) == "GF(7^3) mod (5, 0, 0, 1)"
        assert repr(GFext(7, 3)) == "GF(7^3)"
        assert K != GFext(7, 3)
        default = GFext(7, 3).modulus
        assert GFext(7, 3, default) == GFext(7, 3)

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


class TestIrreducibility:
    def test_low_degree_irreducible_iff_rootless(self):
        # in degree 2 and 3 a monic polynomial is reducible exactly when it
        # has a root in F_p; every candidate for small p^m, a seeded sample
        # of 60 otherwise
        rng = random.Random(5)
        for p in (q for q in range(3, 50) if is_prime(q)):
            for m in (2, 3):
                if p**m <= 400:
                    lows = itertools.product(range(p), repeat=m)
                else:
                    lows = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(60)]
                for low in lows:
                    coeffs = tuple(low) + (1,)
                    rootless = all(
                        sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
                        for x in range(p)
                    )
                    assert rings._is_irreducible(coeffs, p) == rootless, (p, coeffs)

    def test_gauss_count_of_quartics_over_f7(self):
        # (7^4 - 7^2) / 4 = 588 monic irreducible quartics over F_7
        count = sum(
            rings._is_irreducible(low + (1,), 7)
            for low in itertools.product(range(7), repeat=4)
        )
        assert count == 588


class TestPoly:
    def test_from_ints_maps_ints_into_the_ring(self):
        ints = [-1, 15, 3, -7]
        assert Poly.from_ints(GF(7), ints).coeffs == (6, 1, 3)
        assert Poly.from_ints(GFext(7, 2), ints).coeffs == ((6, 0), (1, 0), (3, 0))
        f = Poly.from_ints(QQ, ints)
        assert f.coeffs == (-1, 15, 3, -7)
        assert all(type(c) is Fraction for c in f.coeffs)

    def test_parity_split(self):
        x = Poly.gen(ZZ)
        assert parity_split(3 * x**4 - x**2 + 5) == (0, Poly.from_ints(ZZ, [5, -1, 3]))
        assert parity_split(x**5 + 2 * x) == (1, Poly.from_ints(ZZ, [2, 0, 1]))
        assert parity_split(Poly.one(GF(7))) == (0, Poly.one(GF(7)))
        for f in (x**2 + 1, x**3 - x, Poly.one(ZZ)):
            k, half = parity_split(f)
            assert f == half.substitute_square() * x**k

    @pytest.mark.parametrize("ints", [[1, 1], [0, 1, 1], [5, 0, 2, 0, 0, 1], [0, 3, 0, 0, 1]])
    def test_parity_split_refuses_mixed_parity(self, ints):
        with pytest.raises(ArithmeticError, match="both parities"):
            parity_split(Poly.from_ints(GF(7), ints))
        with pytest.raises(ValueError):
            parity_split(Poly.zero(GF(7)))

    def test_inexact_division_raises(self):
        x = Poly.gen(ZZ)
        with pytest.raises(ArithmeticError):
            poly_divmod(x**2 + 1, 2 * x + 1)
        # x^2 over Z[t] by t x + 1: the first quotient coefficient is 1/t
        Zt = PolyRing(ZZ)
        with pytest.raises(ArithmeticError):
            poly_divmod(Poly.gen(Zt) ** 2, Poly(Zt, [Zt.one, Poly.gen(ZZ)]))

    def test_broken_field_arithmetic_raises(self):
        # an inverse that is off by one leaves the leading term of every
        # step of a division by a non-monic b uncancelled
        class WrongInverse(PrimeField):
            def inv(self, a):
                return (super().inv(a) + 1) % self.p

        F = WrongInverse(7)
        with pytest.raises(ArithmeticError, match="did not cancel"):
            poly_divmod(Poly.from_ints(F, [1, 2, 3, 4]), Poly.from_ints(F, [1, 2]))

    @pytest.mark.parametrize("R", [ZZ, GF(7), QQ, PolyRing(ZZ)])
    def test_division_by_zero_raises(self, R):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(Poly.gen(R), Poly.zero(R))

    def test_divmod_and_gcd(self):
        F = GF(97)
        rng = random.Random(1)
        for _ in range(30):
            a = Poly(F, [F.from_int(rng.randrange(97)) for _ in range(6)])
            b = Poly(F, [F.from_int(rng.randrange(97)) for _ in range(3)])
            if b.is_zero():
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            g = gcd_field(a * b, b)
            _, rem = poly_divmod(b, g)
            assert rem.is_zero()

    def test_resultant_matches_sylvester(self):
        rng = random.Random(2)
        for _ in range(20):
            a = Poly.from_ints(ZZ, [rng.randrange(-50, 50) for _ in range(7)])
            b = Poly.from_ints(ZZ, [rng.randrange(-50, 50) for _ in range(5)])
            if a.degree < 1 or b.degree < 1:
                continue
            assert resultant(a, b) == resultant_sylvester(a, b)

    def test_resultant_refuses_rings_other_than_fields_and_z(self):
        # Z[t] is neither: its discriminants take the Sylvester determinant
        R, t = PolyRing(ZZ), Poly.gen(ZZ)
        f = Poly(R, [R.one, t, R.one])  # x^2 + t x + 1
        with pytest.raises(TypeError, match="field or ZZ"):
            resultant(f, f.derivative())
        assert discriminant(f) == t**2 - 4

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

    def test_discriminant_where_the_characteristic_divides_the_degree(self):
        # the cubic formula with a = 2, b = 1, c = 0, e = 1 gives
        # -4 - 108 = -112 = 2 mod 3; x^3 + 2 is a cube over GF(3)
        F = GF(3)
        assert discriminant(Poly(F, [1, 0, 1, 2])) == 2
        assert discriminant(Poly(F, [2, 0, 0, 1])) == 0

    def test_squarefree_decomposition_char_zero(self):
        x = Poly.gen(ZZ)
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


class TestRoots:
    def test_roots_of_split_polynomial(self):
        F = GF(31)
        x = Poly.gen(F)
        f = (x - Poly.constant(F, F.from_int(3))) * (
            x - Poly.constant(F, F.from_int(10))
        )
        assert {F.to_str(r) for r in roots(f)} == {"3", "10"}

    @pytest.mark.parametrize("p", [5, 7])
    def test_roots_of_every_monic_cubic(self, p):
        # brute-force oracle over every monic cubic, separable or not
        F = GF(p)
        for a, b, c in itertools.product(range(p), repeat=3):
            f = Poly.from_ints(F, [c, b, a, 1])
            assert roots(f) == [r for r in range(p) if f.evaluate(r) == 0]

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
        K, (rts,) = splitting_field(F, f)
        assert len(rts) == 3
        for r in rts:
            assert K.mul(K.mul(r, r), r) == K.from_int(2)

    def test_splitting_field_is_the_lcm(self):
        F = GF(7)
        x = Poly.gen(F)
        quadratic = x**2 + 1  # -1 is not a square mod 7
        cubic = x**3 - 2  # 2 is not a cube mod 7
        K, (q, c) = splitting_field(F, quadratic, cubic)
        assert K == GFext(7, 6)
        assert len(q) == 2 and len(c) == 3
        assert q == roots(quadratic, K) and c == roots(cubic, K)
        assert splitting_field(F, quadratic)[0] == GFext(7, 2)
        # the cubic's own field: F_7[y]/(y^3 - 2), with y a root
        K3, (c3,) = splitting_field(F, cubic)
        assert K3.modulus == (5, 0, 0, 1)
        assert c3 == roots(cubic, K3)

    def test_splitting_field_of_a_quadratic_is_shifted_to_a_binomial(self):
        # x^2 + x + 3 at x = y - 4 (4 = 1/2 mod 7) is y^2 + 1, with roots
        # y - 4 and its conjugate -y - 4
        F = GF(7)
        x = Poly.gen(F)
        K, (rts,) = splitting_field(F, x**2 + x + 3)
        assert isinstance(K, rings.QuadraticExtField)
        assert K.modulus == (1, 0, 1)
        assert rts == [(3, 1), (3, 6)]

    def test_splitting_field_builds_no_searched_modulus(self, monkeypatch):
        # x^3 - 2 gives the field and its roots; x^3 - 3 is irreducible too
        # and takes the one root found by splitting
        F = GF(7)
        x = Poly.gen(F)
        f, g = x**3 - 2, x**3 - 3

        def no_search(p, m):
            raise AssertionError(f"searched a modulus of GF({p}^{m})")

        calls = []

        def counting(*args):
            calls.append(args)
            return _one_root(*args)

        monkeypatch.setattr(rings, "_default_modulus", no_search)
        monkeypatch.setattr("jacpairs.exact.roots._one_root", counting)
        K, (rf, rg) = splitting_field(F, f, g)
        assert K.modulus == (5, 0, 0, 1)
        assert len(calls) == 1
        assert rf == roots(f, K) and rg == roots(g, K)
        assert len(rf) == len(rg) == 3

    def test_splitting_field_of_split_polynomials_is_the_base(self):
        F = GF(7)
        x = Poly.gen(F)
        split = (x - 1) * (x - 2) * (x + 3)
        K, rts = splitting_field(F, split, x)
        assert K is F
        assert rts == [[1, 2, 4], [0]]

    def test_splitting_field_of_a_repeated_factor(self):
        F = GF(7)
        x = Poly.gen(F)
        f = (x**2 + 1) ** 2 * (x - 1)
        K, (rts,) = splitting_field(F, f)
        assert K == GFext(7, 2)
        assert len(rts) == 3 == len(set(rts))
        lifted = f.map_coeffs(K, K.from_base)
        assert all(K.is_zero(lifted.evaluate(r)) for r in rts)

    def test_splitting_field_of_a_pth_power(self):
        F = GF(7)
        x = Poly.gen(F)
        K, (rts,) = splitting_field(F, (x**2 + 1) ** 7)
        assert K == GFext(7, 2)
        assert rts == roots(x**2 + 1, K) and len(rts) == 2

    def test_roots_needs_a_polynomial_over_the_prime_field(self):
        K = GFext(7, 2)
        x = Poly.gen(K)
        with pytest.raises(TypeError):
            roots(x**2 + Poly.one(K))
        f = Poly.gen(GF(7)) ** 2 + 1
        with pytest.raises(TypeError):
            roots(f, GFext(11, 2))
        with pytest.raises(TypeError):
            roots(f, GF(11))

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

    def test_splitting_stops_on_a_polynomial_that_does_not_split(self):
        # x^2 + 1 is irreducible over F_7: no draw splits it into linear
        # factors, so both splitters must give up instead of drawing forever
        F = GF(7)
        x = Poly.gen(F)
        xp = poly_divmod(x**7, x**2 + 1)[1]
        with pytest.raises(ArithmeticError, match="did not split"):
            _one_root(x**2 + 1, xp)
        with pytest.raises(ArithmeticError, match="did not split"):
            equal_degree_factorization(x**2 + 1, 1, xp)

    def test_one_root_stops_on_a_cubic_that_stays_irreducible(self):
        # x^3 - 2 is irreducible over F_7 (2 is not a cube mod 7) and stays
        # so over GF(7^2), since 3 does not divide 2: every norm power is
        # taken, and none splits it
        K = GFext(7, 2)
        cubic = Poly.gen(GF(7)) ** 3 - 2
        xp = poly_divmod(Poly.gen(GF(7)) ** 7, cubic)[1]
        with pytest.raises(ArithmeticError, match="did not split"):
            _one_root(cubic.map_coeffs(K, K.from_base), xp)

    def test_one_root_needs_coefficients_in_the_prime_field(self):
        # the coefficients are checked before x^p is used
        K = GFext(7, 2)
        x = Poly.gen(K)
        with pytest.raises(TypeError, match="outside GF\\(7\\)"):
            _one_root(x**2 + Poly.constant(K, K.gen), Poly.gen(GF(7)))


class TestSerialize:
    def test_poly_roundtrip_rational(self):
        f = Poly(QQ, [Fraction(-3, 7), Fraction(2), Fraction(0), Fraction(1)])
        assert poly_from_json(poly_to_json(f), QQ) == f

    def test_poly_roundtrip_prime_field(self):
        F = GF(101)
        f = Poly.from_ints(F, [-3, 0, 57, 1])
        assert poly_to_json(f) == ["98", "0", "57", "1"]
        assert poly_from_json(poly_to_json(f), F) == f

    def test_only_q_and_prime_fields(self):
        # the command line builds no other ring, so no other has a JSON form
        for R in (ZZ, GFext(7, 2)):
            with pytest.raises(TypeError):
                field_to_json(R)
            with pytest.raises(TypeError):
                element_from_json(R, "3")

    def test_malformed_json_is_a_value_error(self):
        # not an array, a nested array as a scalar: each a ValueError, not
        # a TypeError
        with pytest.raises(ValueError, match="JSON array"):
            poly_from_json(5, QQ)
        for R in (QQ, GF(101)):
            with pytest.raises(ValueError, match="decimal string"):
                poly_from_json([[1], "2"], R)
        with pytest.raises(ValueError, match="decimal string"):
            element_from_json(GF(101), {"p": "101"})
