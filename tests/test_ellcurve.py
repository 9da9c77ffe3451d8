"""Tests for Weierstrass models, the cubic-splitting criterion, and bounded
rational point search."""
from fractions import Fraction

import pytest

from jacpairs import ellcurve
from jacpairs.ellcurve import (
    AffinePoint,
    WeierstrassModel,
    curve_discriminant,
    exhaustive_split_scan,
    galois_cubic_split_check,
    j_pair,
    odd_degree_point_search,
)
from jacpairs.exact.poly import Poly
from jacpairs.exact.rings import GF, QQ


def _model_q(a2, a4, a6):
    return WeierstrassModel.from_coefficients(
        QQ, Fraction(a2), Fraction(a4), Fraction(a6)
    )


class TestModel:
    def test_discriminant_reference_curve(self):
        # y^2 = x^3 - x: disc = 16 * disc(x^3 - x) = 64
        E = _model_q(0, -1, 0)
        assert curve_discriminant(E) == 64

    def test_j_invariant_reference_values(self):
        # y^2 = x^3 - x has j = 1728, y^2 = x^3 + 1 has j = 0
        c4_cubed, disc = j_pair(_model_q(0, -1, 0))
        assert c4_cubed == 1728 * disc
        c4_cubed, disc = j_pair(_model_q(0, 0, 1))
        assert c4_cubed == 0 and disc == -432


class TestSplitCriterion:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_exhaustive(self, p):
        rep = exhaustive_split_scan(p)
        assert rep["pass"]
        # p^3 - p^2 of the monic cubics over F_p are squarefree
        assert rep["separable_cubics"] == p**3 - p**2

    def test_non_square_discriminant_fails_the_scan(self, monkeypatch):
        # 3 is a non-residue mod 7: every square disc turns non-square and
        # back, so the cubics with 0 or 3 roots and those with 1 all fail
        real = ellcurve.cubic_discriminant
        monkeypatch.setattr(
            ellcurve, "cubic_discriminant", lambda R, *cs: R.mul(R.from_int(3), real(R, *cs))
        )
        rep = exhaustive_split_scan(7)
        assert rep["pass"] is False
        assert rep["inconsistent"] == rep["separable_cubics"] == 294

    def test_root_count_two_is_inconsistent(self, monkeypatch):
        # no separable cubic has exactly two roots; a table that says so
        # must fail the scan, not raise
        monkeypatch.setattr(ellcurve, "_root_counts", lambda p, a, b: [2] * p)
        rep = exhaustive_split_scan(7)
        assert rep["pass"] is False
        assert rep["inconsistent"] == 294
        assert rep["root_counts"] == {0: 0, 1: 0, 3: 0, 2: 294}

    def test_single_case(self):
        F = GF(13)
        x = Poly.gen(F)
        f = x**3 - x  # splits completely; disc = 4 is a square
        rec = galois_cubic_split_check(f)
        assert rec == {
            "disc_is_square": True,
            "root_count": 3,
            "consistent": True,
        }

    def test_inseparable_cubic_rejected(self):
        x = Poly.gen(GF(13))
        with pytest.raises(ValueError, match="inseparable cubic"):
            galois_cubic_split_check(x**3 - x**2)


class TestPointSearch:
    def test_two_torsion_points_found(self):
        # y^2 = x(x+2)(x+4): three rational 2-torsion points
        E = _model_q(6, 8, 0)
        pts = odd_degree_point_search(E.cubic, 50)
        xs = {P.x for P in pts}
        assert {Fraction(0), Fraction(-2), Fraction(-4)} <= xs
        for P in pts:
            assert P.y * P.y == E.cubic.evaluate(P.x)

    def test_nontrivial_point(self):
        # y^2 = x^3 + 1 has (2, 3)
        E = _model_q(0, 0, 1)
        pts = odd_degree_point_search(E.cubic, 10)
        assert AffinePoint(Fraction(2), Fraction(3)) in pts
        assert AffinePoint(Fraction(2), Fraction(-3)) in pts

    def test_fractional_x(self):
        # y^2 = x^3 - x contains no affine points besides 2-torsion in a
        # small box (rank 0); the search must confirm that
        E = _model_q(0, -1, 0)
        pts = odd_degree_point_search(E.cubic, 100)
        assert {P.x for P in pts} == {Fraction(-1), Fraction(0), Fraction(1)}
