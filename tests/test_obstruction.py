"""Tests for the higher-degree obstruction records."""
from fractions import Fraction
from math import gcd, isqrt

import pytest

from jacpairs.ellcurve import AffinePoint, odd_degree_point_search
from jacpairs.exact.integers import is_perfect_square
from jacpairs.exact.poly import Poly
from jacpairs.exact.rings import ZZ
from jacpairs.obstruction import (
    OBSTRUCTION_DEGREES,
    RECORDS,
    square_condition_consistency,
    verify_obstruction,
)


class TestRecords:
    def test_degrees(self):
        assert OBSTRUCTION_DEGREES == (5, 6, 8, 9, 10, 12, 13, 16, 18, 25)

    def test_parities(self):
        for n, rec in RECORDS.items():
            assert rec.parity == ("odd" if n % 2 else "even")
            assert (rec.delta_prime is None) == (n % 2 == 1)

    def test_genus3_records_marked_faltings(self):
        for n in (18, 25):
            assert RECORDS[n].curve.degree == 7
            assert RECORDS[n].finite_by == "faltings"


class TestSquareCondition:
    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_derived_from_j_invariants(self, n):
        rep = square_condition_consistency(n)
        assert rep["derived_matches_curve"], rep
        assert rep["pass"], rep

    def test_degree5_discrepancy_reported(self):
        # the recorded degree-5 discriminant is missing a factor of s: the
        # recomputation flags it rather than silently matching
        rep = square_condition_consistency(5)
        assert rep["delta_discrepancy"]
        assert not rep["delta_matches_curve"]
        assert rep["x_delta_matches_curve"]

    def test_other_degrees_consistent(self):
        for n in OBSTRUCTION_DEGREES:
            if n == 5:
                continue
            rep = square_condition_consistency(n)
            assert rep["delta_matches_curve"], n


class TestPoints:
    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_recorded_points_verified(self, n):
        rep = verify_obstruction(n)
        assert rep["points_on_curve"]
        assert rep["search_matches_recorded"], rep
        assert rep["pass"]

    def test_degree16_example(self):
        rec = RECORDS[16]
        assert sorted(int(P.x) for P in rec.points) == [-4, -2, 0]
        assert all(P.y == 0 for P in rec.points)


def _fraction_search(f, bound):
    """The earlier Fraction search, kept as the reference: f(a/b^2) as a
    reduced Fraction for |a| <= bound, 0 < b <= sqrt(bound), gcd(a, b) = 1,
    kept when its numerator and denominator are both squares."""
    d = f.degree
    found = set()
    for b in range(1, isqrt(bound) + 1):
        bb = b * b
        for a in range(-bound, bound + 1):
            if gcd(a, b) != 1:
                continue
            num = sum(c * a**i * bb ** (d - i) for i, c in enumerate(f.coeffs))
            val = Fraction(num, bb**d)
            if val >= 0 and is_perfect_square(val.numerator) and is_perfect_square(
                val.denominator
            ):
                x = Fraction(a, bb)
                y = Fraction(isqrt(val.numerator), isqrt(val.denominator))
                found |= {AffinePoint(x, y), AffinePoint(x, -y)}
    return sorted(found, key=lambda P: (P.x, P.y))


class TestPointSearch:
    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_matches_fraction_search(self, n):
        curve = RECORDS[n].curve
        bound = 1000 if curve.degree == 3 else 200
        assert odd_degree_point_search(curve, bound) == _fraction_search(curve, bound)

    def test_point_with_square_denominator(self):
        # y^2 = x^5 + 1022 has (1/4, 1023/32): 2^10 f(1/4) = 1023^2
        curve = Poly.from_ints(ZZ, [1022, 0, 0, 0, 0, 1])
        found = odd_degree_point_search(curve, 16)
        assert AffinePoint(Fraction(1, 4), Fraction(1023, 32)) in found
        assert found == _fraction_search(curve, 16)
