"""Tests for the integer resultant ``poly.resultant`` over Z and for the
benchmark-facing names in ``kernels`` that delegate to it, against the
Sylvester determinant and the resultant over GF(p)."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
        # high degree, small coefficients: verified against the Bareiss
        # determinant of the 310 x 310 Sylvester matrix
        rng = random.Random(14)
        a = _rand_zpoly(rng, 250, 9)
        b = _rand_zpoly(rng, 60, 9)
        assert resultant(a, b) == resultant_sylvester(a, b)

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
