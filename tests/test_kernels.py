"""Tests for the mod-p resultant kernel and the CRT integer resultant."""
import os
import random
import subprocess
import sys
from pathlib import Path

from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import Poly, resultant, resultant_sylvester
from jacpairs.exact.rings import GF, ZZ
from jacpairs import kernels
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


class TestCRT:
    def test_matches_subresultant(self):
        rng = random.Random(13)
        for _ in range(10):
            a = _rand_zpoly(rng, 12, 10**6)
            b = _rand_zpoly(rng, 9, 10**6)
            assert resultant_int_crt(a, b) == resultant(a, b)

    def test_degree_stress(self):
        # high degree, small coefficients: verified against the
        # fraction-free subresultant computation
        rng = random.Random(14)
        a = _rand_zpoly(rng, 250, 9)
        b = _rand_zpoly(rng, 60, 9)
        assert resultant_int_crt(a, b) == resultant(a, b)

    def test_coefficient_stress(self):
        # huge coefficients (around 10^4 digits): multiplicativity
        # res(a, b*c) = res(a, b) * res(a, c) is an independent consistency
        # check that a wrong prime bound or a CRT lift error would break
        rng = random.Random(15)
        bound = 10**10_000
        a = _rand_zpoly(rng, 4, bound)
        b = _rand_zpoly(rng, 3, bound)
        c = _rand_zpoly(rng, 3, bound)
        assert resultant_int_crt(a, b * c) == resultant_int_crt(
            a, b
        ) * resultant_int_crt(a, c)

    def test_prime_stream_is_tested_once_per_process(self, monkeypatch):
        rng = random.Random(16)
        a = _rand_zpoly(rng, 12, 10**6)
        b = _rand_zpoly(rng, 9, 10**6)
        first = resultant_int_crt(a, b)
        assert kernels._CRT_PRIMES[0] == 2**30 + 3
        assert all(is_prime(p) for p in kernels._CRT_PRIMES)
        assert kernels._CRT_PRIMES == sorted(set(kernels._CRT_PRIMES))
        calls = []
        monkeypatch.setattr(kernels, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert resultant_int_crt(a, b) == first
        assert calls == []

    def test_common_root_gives_zero(self):
        x = Poly.gen(ZZ)
        shared = x - Poly.constant(ZZ, 5)
        a = shared * (x + Poly.one(ZZ))
        b = shared * (x + Poly.constant(ZZ, 2))
        assert resultant_int_crt(a, b) == 0


def test_no_numpy_needed():
    # with numpy made unimportable, the package still imports and the CRT
    # resultant still agrees with the subresultant computation
    code = """
import sys
sys.modules["numpy"] = None
import jacpairs.distinct, jacpairs.kernels
from jacpairs.exact.poly import Poly, resultant
from jacpairs.exact.rings import ZZ
a = Poly.from_ints(ZZ, [3, -7, 0, 11, 5])
b = Poly.from_ints(ZZ, [-2, 9, 4, 1])
assert jacpairs.kernels.resultant_int_crt(a, b) == resultant(a, b)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
