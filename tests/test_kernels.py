"""Tests for the integer resultant ``poly.resultant`` over Z and for the
benchmark-facing names in ``kernels`` that delegate to it, against the
Sylvester determinant and the resultant over GF(p)."""
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

from jacpairs.exact import poly
from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import Poly, resultant, resultant_sylvester
from jacpairs.exact.rings import GF, QQ, ZZ
from jacpairs.kernels import (
    kernel_backend,
    resultant_int_crt,
    resultant_mod_p,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _rand_zpoly(rng, deg, bound):
    coeffs = [rng.randrange(-bound, bound + 1) for _ in range(deg)]
    coeffs.append(rng.randrange(1, bound + 1))
    return Poly.from_ints(ZZ, coeffs)


def _norm2(f):
    """The squared Euclidean norm of the coefficient vector."""
    return sum(c * c for c in f.coeffs)


class TestModP:
    def test_backend_reported(self):
        assert kernel_backend() == "python"

    def test_matches_sylvester_determinant(self):
        # an independent oracle at the largest prime the kernel accepts: the
        # Bareiss determinant of the Sylvester matrix over GF(p)
        rng = random.Random(11)
        p = 2**31 - 1
        F = GF(p)
        for _ in range(20):
            a = [rng.randrange(p) for _ in range(rng.randrange(2, 30))]
            b = [rng.randrange(p) for _ in range(rng.randrange(2, 30))]
            if a[-1] == 0 or b[-1] == 0:
                continue
            det = resultant_sylvester(Poly(F, a), Poly(F, b))
            assert resultant_mod_p(a, b, p) == det

    def test_matches_exact_resultant(self):
        rng = random.Random(12)
        p = 1_000_003
        for _ in range(15):
            a = _rand_zpoly(rng, 8, 40)
            b = _rand_zpoly(rng, 6, 40)
            exact = resultant(a, b) % p
            modp = resultant_mod_p(
                [c % p for c in a.coeffs], [c % p for c in b.coeffs], p
            )
            assert modp == exact

    def test_rejects_what_it_cannot_take(self):
        for p in (2, 2**31):
            with pytest.raises(ValueError):
                resultant_mod_p([1, 1], [2, 1], p)
        for a, b in (([], [1, 1]), ([1, 1], [1, 0]), ([1, 7], [1, 1])):
            with pytest.raises(ValueError):
                resultant_mod_p(a, b, 7)


class TestCRT:
    """The integer resultant: ``poly.resultant`` over ZZ (the subresultant
    PRS), which ``resultant_int_crt`` delegates to."""

    def test_matches_subresultant(self):
        rng = random.Random(13)
        for _ in range(10):
            a = _rand_zpoly(rng, 12, 10**6)
            b = _rand_zpoly(rng, 9, 10**6)
            assert resultant(a, b) == resultant_sylvester(a, b)

    def test_degree_stress(self):
        # high degree, small coefficients: the 310 x 310 Sylvester determinant
        # is at most the Hadamard bound H = |a|^deg b |b|^deg a, and it is
        # fixed by its residues modulo primes whose product exceeds 2H; each
        # residue is the resultant over GF(q) of the reductions, for q not
        # dividing either leading coefficient
        rng = random.Random(14)
        a = _rand_zpoly(rng, 250, 9)
        b = _rand_zpoly(rng, 60, 9)
        res = resultant(a, b)
        bound = isqrt(_norm2(a) ** b.degree * _norm2(b) ** a.degree)
        assert abs(res) <= bound
        q, modulus = 2**31, 1
        while modulus <= 2 * bound:
            q -= 1
            if not is_prime(q) or a.lc() % q == 0 or b.lc() % q == 0:
                continue
            F = GF(q)
            assert res % q == resultant(Poly.from_ints(F, a.coeffs), Poly.from_ints(F, b.coeffs))
            modulus *= q

    def test_coefficient_stress(self):
        # huge coefficients (around 10^4 digits): multiplicativity
        # res(a, b*c) = res(a, b) * res(a, c) is an independent consistency
        # check at sizes the Sylvester determinant cannot reach
        rng = random.Random(15)
        bound = 10**10_000
        a = _rand_zpoly(rng, 4, bound)
        b = _rand_zpoly(rng, 3, bound)
        c = _rand_zpoly(rng, 3, bound)
        assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)

    def test_common_root_gives_zero(self):
        x = Poly.gen(ZZ)
        shared = x - Poly.constant(ZZ, 5)
        a = shared * (x + Poly.one(ZZ))
        b = shared * (x + Poly.constant(ZZ, 2))
        assert resultant(a, b) == 0
        assert resultant_int_crt(a, b) == 0

    # degrees 6 and 5, coefficients of 40 to 110 bits: a chain of five
    # steps whose coefficient bounds are tight to two bits
    GUARD_A = (3**40 + 7, -(5**30), 2**70 + 1, 11**25, -(7**33), 13**20, 3**41)
    GUARD_B = (-(2**65) + 3, 17**22, 5**31, -(3**44), 19**20, 7**30)

    def _with_lead(self, coeffs, lead):
        return Poly(ZZ, coeffs[:-1] + (lead,))

    def test_guard_primes_are_the_largest_below_2_61(self):
        primes = [q for q in range(2**61 - 1, poly._GUARD_PRIMES[-1] - 1, -2) if is_prime(q)]
        assert list(poly._GUARD_PRIMES) == primes and len(primes) == 3

    def test_too_small_step_bound_is_caught_by_the_guard(self, monkeypatch):
        # a bound three bits short leaves the top bits of some coefficient
        # out of the 2-adic division: the value must be refused, not returned
        a, b = Poly(ZZ, self.GUARD_A), Poly(ZZ, self.GUARD_B)
        assert resultant(a, b) == resultant_sylvester(a, b)
        bits = poly._prem_bits
        monkeypatch.setattr(poly, "_prem_bits", lambda *args: bits(*args) - 3)
        with pytest.raises(ArithmeticError, match=f"resultant mod {poly._GUARD_PRIMES[0]}$"):
            resultant(a, b)

    @pytest.mark.parametrize("lead_a, lead_b, checked_by", [(3, 1, 1), (3, 5, 2), (7, 1, 3)])
    def test_guard_takes_a_prime_dividing_neither_leading_coefficient(
        self, monkeypatch, lead_a, lead_b, checked_by
    ):
        # the leading coefficients are lead_a times the first guard prime
        # (times all three for lead_a = 7) and lead_b times the second one
        # (for lead_b = 5); the next prime below them all checks the last case
        q0, q1, q2 = poly._GUARD_PRIMES
        lead_a *= q0 * (q1 * q2 if lead_a == 7 else 1)
        lead_b *= q1 if lead_b == 5 else 1
        primes = [q0, q1, q2, next(q for q in range(q2 - 2, 0, -2) if is_prime(q))]
        a = self._with_lead(self.GUARD_A, lead_a)
        b = self._with_lead(self.GUARD_B, lead_b)
        assert resultant(a, b) == resultant_sylvester(a, b)
        bits = poly._prem_bits
        monkeypatch.setattr(poly, "_prem_bits", lambda *args: bits(*args) - 3)
        with pytest.raises(ArithmeticError, match=f"resultant mod {primes[checked_by]}$"):
            resultant(a, b)

    def test_step_refuses_a_denominator_with_too_many_factors_2(self):
        # prem(x^2 + 1, x + 1) = 2: divisible by 2, not by 4 or 12
        a, b = Poly(ZZ, [1, 0, 1]), Poly(ZZ, [1, 1])
        assert poly._prem_quotient_int(a, b, 2) == Poly(ZZ, [1])
        for denom in (4, -12):
            with pytest.raises(ArithmeticError, match="not divisible"):
                poly._prem_quotient_int(a, b, denom)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 64, 65, 1000])
    def test_inverse_mod_2k_is_the_modular_inverse(self, k):
        for d in (1, -1, 3, -7, 2**61 - 1, -(3**500)):
            assert poly._inverse_mod_2k(d, k) == pow(d, -1, 1 << k)

    def test_wrapper_rejects_non_integer_and_zero_input(self):
        one = Poly.one(ZZ)
        with pytest.raises(TypeError):
            resultant_int_crt(Poly.one(QQ), one)
        with pytest.raises(ValueError):
            resultant_int_crt(Poly.zero(ZZ), one)


def test_no_numpy_needed():
    # with numpy made unimportable, the package still imports and the
    # integer resultant still agrees with the Sylvester determinant
    code = """
import sys
sys.modules["numpy"] = None
import jacpairs.distinct, jacpairs.kernels
from jacpairs.exact.poly import Poly, resultant_sylvester
from jacpairs.exact.rings import ZZ
a = Poly.from_ints(ZZ, [3, -7, 0, 11, 5])
b = Poly.from_ints(ZZ, [-2, 9, 4, 1])
assert jacpairs.kernels.resultant_int_crt(a, b) == resultant_sylvester(a, b)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
