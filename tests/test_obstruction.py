"""Tests for the higher-degree obstruction records."""
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

import jacpairs.ellcurve as ellcurve
import jacpairs.exact.poly as poly
import jacpairs.obstruction as obstruction
from jacpairs.ellcurve import AffinePoint, odd_degree_point_search
from jacpairs.exact.integers import is_perfect_square
from jacpairs.exact.poly import (
    Poly,
    gcd_field,
    poly_divmod,
    primitive_part_int,
    squarefree_decomposition,
)
from jacpairs.exact.rings import QQ, ZZ
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

    @pytest.mark.parametrize("c,passes", [(2, False), (-1, False), (4, True)])
    def test_twisted_row_fails_unless_the_twist_is_a_square(self, monkeypatch, c, passes):
        # j -> c (j - 1728) + 1728 on the X_0(5) row multiplies j - 1728 by
        # c, so the derived class is c times O_5: a quadratic twist of the
        # recorded curve unless c is a square
        row = obstruction.x0_jpair(5)
        num, den = row.j
        twisted = replace(row, j=(num.scale(c) + den.scale(1728 * (1 - c)), den))
        monkeypatch.setattr(obstruction, "x0_jpair", lambda n: twisted)
        rep = square_condition_consistency(5)
        assert rep["derived_matches_curve"], rep
        assert rep["derived_constant_is_square"] is passes, rep
        assert rep["pass"] is passes, rep


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

    def test_non_monic_model_rejected(self):
        # y^2 = 2x^3 + 2 has (1, 2); over x = a/b^2 alone a non-monic model
        # can miss points, so the search refuses it instead
        curve = Poly.from_ints(ZZ, [2, 0, 0, 2])
        with pytest.raises(ValueError, match="monic"):
            odd_degree_point_search(curve, 10)


# curves with many small points: y^2 = x^3 + 17 (rank 2), x^3 - 43x + 166
# (a point of order 7), x^3 + x^2 - 2x and the quintic x^5 - x + 1
MANY_POINTS = {
    "x^3+17": [17, 0, 0, 1],
    "x^3-43x+166": [166, -43, 0, 1],
    "x^3+x^2-2x": [0, -2, 1, 1],
    "x^5-x+1": [1, -1, 0, 0, 0, 1],
}


class TestSieve:
    """The sieve of ``odd_degree_point_search`` against the unsieved
    ``_fraction_search``."""

    # b reaches 1, 1, 1, 17 and 31: b = 6, 10 and 30 have several prime factors
    @pytest.mark.parametrize("bound", [1, 2, 3, 301, 1000])
    @pytest.mark.parametrize("name", sorted(MANY_POINTS))
    def test_matches_fraction_search(self, name, bound):
        curve = Poly.from_ints(ZZ, MANY_POINTS[name])
        found = odd_degree_point_search(curve, bound)
        assert found == _fraction_search(curve, bound)
        if bound >= 3:
            assert found

    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_few_pairs_reach_the_exact_test(self, n, monkeypatch):
        # liveness: at most 1 in 20 of the coprime (a, b) is tested exactly
        calls = []

        def counted(v):
            calls.append(v)
            return is_perfect_square(v)

        monkeypatch.setattr(ellcurve, "is_perfect_square", counted)
        curve = RECORDS[n].curve
        bound = 1000 if curve.degree == 3 else 200
        assert odd_degree_point_search(curve, bound) == sorted(
            RECORDS[n].points, key=lambda P: (P.x, P.y)
        )
        coprime = sum(
            1
            for b in range(1, isqrt(bound) + 1)
            for a in range(-bound, bound + 1)
            if gcd(a, b) == 1
        )
        assert 0 < 20 * len(calls) <= coprime

    def test_dropped_square_class_loses_a_recorded_point(self, monkeypatch):
        # every recorded point of O_6 has rhs = 0; without 0 among the
        # squares mod 7 the sieve strikes them, which the exact test never sees
        curve = RECORDS[6].curve
        assert AffinePoint(Fraction(-8), Fraction(0)) in odd_degree_point_search(curve, 1000)
        squares = ellcurve._SQUARES_MOD[7]
        monkeypatch.setitem(ellcurve._SQUARES_MOD, 7, squares - {0})
        assert AffinePoint(Fraction(-8), Fraction(0)) not in odd_degree_point_search(curve, 1000)

    def test_dropped_square_class_loses_only_its_points(self, monkeypatch):
        # y^2 = x^3 + 17: rhs(2) = 25 and rhs(-2) = 9 differ mod 64
        curve = Poly.from_ints(ZZ, MANY_POINTS["x^3+17"])
        squares = ellcurve._SQUARES_MOD[64]
        monkeypatch.setitem(ellcurve._SQUARES_MOD, 64, squares - {25})
        xs = {P.x for P in odd_degree_point_search(curve, 100)}
        assert Fraction(2) not in xs
        assert Fraction(-2) in xs


def _fraction_squarefree_decomposition(f):
    """The earlier Q[x] route, kept as the reference: Musser's loop on the
    monic f with every division by ``poly_divmod`` over Q."""
    f = f.monic()
    if f.degree <= 0:
        return []
    c = gcd_field(f, f.derivative())
    w = poly_divmod(f, c)[0]
    out = []
    i = 1
    while w.degree > 0:
        y = gcd_field(w, c)
        z = poly_divmod(w, y)[0]
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = poly_divmod(c, y)[0]
        i += 1
    return out


def _square_condition_inputs(monkeypatch):
    """Every polynomial that ``square_condition_consistency`` hands to
    ``squarefree_part`` over the ten recorded degrees, all over Z: the
    primitive parts of the shifted j's and record deltas (num * den) and
    their products."""
    seen = []
    real = obstruction.squarefree_part

    def spy(f):
        seen.append(f)
        return real(f)

    monkeypatch.setattr(obstruction, "squarefree_part", spy)
    for n in OBSTRUCTION_DEGREES:
        square_condition_consistency(n)
    monkeypatch.undo()
    return seen


def _q(*coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs])


def _z_primitive(f):
    """The primitive part in Z[x], with a positive leading coefficient, of
    a polynomial over Q."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return primitive_part_int(Poly(ZZ, [int(c * den) for c in f.coeffs]))[1]


def _monic_over_q(parts):
    """Squarefree factors over Z, each made monic over Q."""
    return [(Poly(QQ, [Fraction(c, g.lc()) for c in g.coeffs]), m) for g, m in parts]


class TestSquarefreeOverQ:
    """The squarefree decomposition over Z of a primitive part, made monic,
    against the Q[x] route on the polynomial it came from."""

    def test_square_condition_inputs_match_the_q_route(self, monkeypatch):
        inputs = _square_condition_inputs(monkeypatch)
        assert len(inputs) >= 3 * len(OBSTRUCTION_DEGREES)
        assert max(f.degree for f in inputs) >= 20
        for f in inputs:
            assert f.ring is ZZ
            parts = squarefree_decomposition(f)
            expected = _fraction_squarefree_decomposition(f.map_coeffs(QQ, Fraction))
            assert _monic_over_q(parts) == expected

    @pytest.mark.parametrize(
        "f",
        [
            # -(3/2) (x - 1/2)^2 (x^2 + 3)^3
            _q(Fraction(-3, 2)) * _q(Fraction(-1, 2), 1) ** 2 * _q(3, 0, 1) ** 3,
            _q(Fraction(6, 35)) * _q(Fraction(1, 3), 1) ** 5 * _q(-2, 1) * _q(7, 0, 0, 1) ** 2,
            _q(-12, 0, 4),
            _q(Fraction(5, 7)),
        ],
    )
    def test_non_integral_input_matches_the_q_route(self, f):
        parts = squarefree_decomposition(_z_primitive(f))
        assert _monic_over_q(parts) == _fraction_squarefree_decomposition(f)
        assert all(g == primitive_part_int(g)[1] for g, _ in parts)

    def test_corrupted_exact_division_raises(self, monkeypatch):
        f = _z_primitive(_q(Fraction(-3, 2)) * _q(Fraction(-1, 2), 1) ** 2 * _q(3, 0, 1) ** 3)
        real = poly.poly_divmod

        def corrupted(a, b):
            q, r = real(a, b)
            return q + 1, r

        monkeypatch.setattr(poly, "poly_divmod", corrupted)
        with pytest.raises(ArithmeticError, match="inconsistency|inexact"):
            squarefree_decomposition(f)
