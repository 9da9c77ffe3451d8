"""Tests for the four curve-pair families: symbolic identities, modular
parameterizations, specialization, and validity handling."""
from fractions import Fraction

import pytest

from jacpairs.exact.poly import discriminant
from jacpairs.exact.rings import GF, QQ
from jacpairs.families import (
    FAMILY_IDS,
    X0_DEGREES,
    eval_poly,
    family_identity_check,
    family_sextic,
    family_spec,
    symbolic_kappa_check,
    weierstrass_at,
    x0_jpair,
)


class TestSymbolicIdentities:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_model_identities(self, fid):
        rep = family_identity_check(family_spec(fid))
        assert rep["pass"], rep

    @pytest.mark.parametrize("fid", ("deg3", "deg4", "deg7"))
    def test_kappa_assembly(self, fid):
        rep = symbolic_kappa_check(family_spec(fid))
        assert rep["plain"] and rep["tilde"]


class TestModularTable:
    def test_degrees_present(self):
        assert set(X0_DEGREES) == {
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25,
        }

    def test_involution_degree_two(self):
        # j'_2(s) = j_2(4096/s): the dual parameterization is the
        # Atkin-Lehner flip of the original
        param = x0_jpair(2)
        for s in (Fraction(3), Fraction(-7, 2), Fraction(11, 5)):
            assert param.j_prime.evaluate(s) == param.j.evaluate(
                Fraction(4096) / s
            )

    def test_involution_degree_ten(self):
        param = x0_jpair(10)
        for s in (Fraction(1), Fraction(5, 3)):
            assert param.j_prime.evaluate(s) == param.j.evaluate(
                Fraction(20) / s
            )


class TestSpecialization:
    def test_worked_example(self):
        spec = family_spec("deg3")
        twist, sextic = family_sextic(spec, QQ, Fraction(1))
        assert twist == 560
        assert [int(c) for c in sextic.coeffs] == [-16, 0, -352, 0, -1648, 0, 16]

    def test_pair_over_finite_field(self):
        F = GF(101)
        for fid in FAMILY_IDS:
            spec = family_spec(fid)
            t = F.from_int(3)
            tw1, c1 = family_sextic(spec, F, t)
            tw2, c2 = family_sextic(spec, F, F.neg(t))
            assert not F.is_zero(discriminant(c1))
            assert not F.is_zero(discriminant(c2))
            assert c2 == c1.substitute_neg() or not F.is_zero(tw2)

    def test_invalid_parameter_rejected(self):
        spec = family_spec("deg3")
        with pytest.raises(ValueError):
            family_sextic(spec, QQ, Fraction(0))

    def test_weierstrass_models_nonsingular(self):
        F = GF(103)
        for fid in FAMILY_IDS:
            spec = family_spec(fid)
            t = F.from_int(2)
            s = eval_poly(spec.s_of_t, F, t)
            for prime in (False, True):
                E = weierstrass_at(spec, F, s, prime=prime)
                assert not F.is_zero(discriminant(E.cubic))
