"""Tests for the four curve-pair families: symbolic identities, modular
parameterizations, specialization, and validity handling."""
from dataclasses import replace
from fractions import Fraction

import pytest

from jacpairs.exact.poly import (
    Poly,
    PolyRing,
    _gcd_primitive_int,
    discriminant,
    parity_split,
    poly_divmod,
    primitive_part_int,
    radical,
)
from jacpairs.exact.rings import GF, QQ, ZZ, GFext
from jacpairs.families import (
    FAMILY_IDS,
    X0_DEGREES,
    curve_pair,
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


def _perturb_delta(spec):
    return replace(spec, delta_s=spec.delta_s + 1)


def _perturb_j_numerator(spec):
    jn, jd = spec.j_s
    return replace(spec, j_s=(jn + 1, jd))


def _perturb_half(spec, index, **changes):
    halves = list(spec.kappa_halves)
    halves[index] = replace(halves[index], **changes)
    return replace(spec, kappa_halves=tuple(halves))


def _perturb_e_numerator(spec):
    return _perturb_half(spec, 0, e2=spec.kappa_halves[0].e2 + 1)


def _perturb_kappa_correction(spec):
    return _perturb_half(spec, 0, kappa_correction=1)


def _perturb_prefactor_sign(spec):
    pn, pd = spec.kappa_halves[1].prefactor
    return _perturb_half(spec, 1, prefactor=(-pn, pd))


class TestNegativeControls:
    """Each perturbation of the printed data must turn exactly its own
    report key (and "pass") false."""

    @pytest.mark.parametrize(
        "perturb,failing",
        [
            (_perturb_delta, {"delta_E"}),
            (_perturb_j_numerator, {"j_E"}),
        ],
        ids=["delta", "j_numerator"],
    )
    def test_model_identities(self, perturb, failing):
        rep = family_identity_check(perturb(family_spec("deg7")))
        assert {k for k, v in rep.items() if not v} == failing | {"pass"}, rep

    @pytest.mark.parametrize(
        "perturb,failing",
        [
            (_perturb_e_numerator, {"plain"}),
            (_perturb_kappa_correction, {"plain"}),
            (_perturb_prefactor_sign, {"tilde"}),
        ],
        ids=["e_numerator", "kappa_correction", "prefactor_sign"],
    )
    def test_kappa_assembly(self, perturb, failing):
        rep = symbolic_kappa_check(perturb(family_spec("deg3")))
        assert {k for k, v in rep.items() if not v} == failing | {"pass"}, rep


class TestModularTable:
    def test_degrees_present(self):
        assert set(X0_DEGREES) == {
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25,
        }

    def test_rows_in_lowest_terms(self):
        # the obstruction records read these numerators and denominators
        # as stored, so each pair must be coprime over Z with a monic
        # denominator
        for n in X0_DEGREES:
            param = x0_jpair(n)
            for num, den in (param.j, param.j_prime):
                assert num.ring is ZZ and den.ring is ZZ, n
                assert den.lc() == 1, n
                assert _gcd_primitive_int(num, den).degree == 0, n

    def test_involution_degree_two(self):
        # j'_2(s) = j_2(4096/s): the dual parameterization is the
        # Atkin-Lehner flip of the original
        param = x0_jpair(2)
        for s in (Fraction(3), Fraction(-7, 2), Fraction(11, 5)):
            assert _value(param.j_prime, s) == _value(param.j, Fraction(4096) / s)

    def test_involution_degree_ten(self):
        param = x0_jpair(10)
        for s in (Fraction(1), Fraction(5, 3)):
            assert _value(param.j_prime, s) == _value(param.j, Fraction(20) / s)


def _value(pair, s):
    """num(s) / den(s) for a (numerator, denominator) pair over Z[s]."""
    num, den = pair
    return num.evaluate(s) / den.evaluate(s)


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


def _may_vanish_off_locus(spec):
    """The names among lc(C_t) and disc(C_t), over Z[t], that are not 2^k
    times a primitive P whose radical over Q divides ``validity_t``.

    For one that is, P = +-prod P_i^e_i with the P_i primitive and
    irreducible, and prod P_i divides ``validity_t`` in Z[t] by Gauss's
    lemma; so wherever 2 is a unit (Q and every GF(p^m) with p odd) it
    vanishes only on the validity locus."""
    sextic = spec.sextic
    validity = spec.validity_t.map_coeffs(QQ, Fraction)
    out = []
    for name, value in (("lc", sextic.lc()), ("disc", discriminant(sextic))):
        content, prim = primitive_part_int(value)
        content = abs(content)
        if (
            content == 0
            or content & (content - 1)
            or not poly_divmod(validity, radical(prim).map_coeffs(QQ, Fraction))[1].is_zero()
        ):
            out.append(name)
    return out


class TestValidityLocus:
    """Off the validity locus C_t is a separable sextic of degree 6 in every
    field the package builds; ``family_sextic`` and ``curve_pair`` rely on
    this instead of checking each curve."""

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_separable_sextic_off_the_locus(self, fid):
        spec = family_spec(fid)
        assert spec.sextic.degree == 6
        assert _may_vanish_off_locus(spec) == []

    @pytest.mark.parametrize(
        "factor",
        [(0, 1), (27, 0, 1), (729, 0, -10, 0, 1)],
        ids=["t", "t^2+27", "t^4-10t^2+729"],
    )
    def test_dropped_validity_factor_is_caught(self, factor):
        spec = family_spec("deg3")
        quotient, rem = poly_divmod(spec.validity_t, Poly.from_ints(ZZ, factor))
        assert rem.is_zero()
        assert _may_vanish_off_locus(replace(spec, validity_t=quotient))


def _validity_is_odd(spec):
    try:
        return parity_split(spec.validity_t)[0] == 1
    except ArithmeticError:  # mixed parity
        return False


class TestValidityParity:
    """Every ``validity_t`` is odd in t, so -t lies on the validity locus
    exactly when t does: ``curve_pair`` evaluates it at t alone."""

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_validity_is_odd(self, fid):
        assert _validity_is_odd(family_spec(fid))

    @pytest.mark.parametrize("factor", [(1, 1), (0, 1)], ids=["t+1", "t"])
    def test_validity_of_other_parity_is_caught(self, factor):
        spec = family_spec("deg4")
        validity = spec.validity_t * Poly.from_ints(ZZ, factor)
        assert not _validity_is_odd(replace(spec, validity_t=validity))


def _is_integral(datum):
    """datum is an int, or a polynomial over ZZ with int coefficients."""
    if isinstance(datum, Poly):
        return datum.ring is ZZ and all(type(c) is int for c in datum.coeffs)
    return type(datum) is int


def _integer_data(spec):
    """Every datum of the spec that lies in Z[t] (or Z): all but the
    Weierstrass models and their closed forms, which are over Q[s]."""
    data = [spec.validity_t, spec.twist_t, spec.s_of_t, *spec.sextic.coeffs]
    data += spec.r_denominators.values()
    for case in spec.exceptional:
        data += [*case.locus_factors, *case.statement_factors]
        if case.representative is not None:
            data.append(case.representative)
    for half in spec.kappa_halves or ():
        data += [half.e1, half.e2, half.e3, half.e_den, half.kappa_correction]
        data += [*half.kappa, *half.prefactor]
    return data


class TestIntegerData:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_z_data_have_int_coefficients(self, fid):
        spec = family_spec(fid)
        assert spec.sextic.ring == PolyRing(ZZ)
        assert [d for d in _integer_data(spec) if not _is_integral(d)] == []

    def test_a_rational_coefficient_is_caught(self):
        spec = family_spec("deg3")
        twist = spec.twist_t.map_coeffs(QQ, Fraction)
        assert [d for d in _integer_data(replace(spec, twist_t=twist)) if not _is_integral(d)] == [twist]
        assert not _is_integral(Fraction(1, 4))


def _monic_product_mod(factors, F):
    out = Poly.one(F)
    for fac in factors:
        out = out * fac.map_coeffs(F, F.from_int)
    return out.monic()


# The one misprint among the summary phrasings: (printed, intended) factor
# coefficients, and the words of the record's note that name it.
_STATEMENT_ERRATA = {
    ("deg7", 17): ((1, 8, 1), (10, 8, 1), "t^2+8t+1 is read as t^2+8t+10"),
}
_EXCEPTIONAL = [(fid, case.p) for fid in FAMILY_IDS for case in family_spec(fid).exceptional]


class TestExceptionalRecords:
    """Each record's ``statement_factors`` (the loci as the paper's summary
    phrases them) multiply mod p to its ``locus_factors`` up to a unit,
    except where its ``note`` records the misprint that makes them differ."""

    @pytest.mark.parametrize("fid,p", _EXCEPTIONAL, ids=[f"{f}@{p}" for f, p in _EXCEPTIONAL])
    def test_statement_matches_the_locus_mod_p(self, fid, p):
        case = next(c for c in family_spec(fid).exceptional if c.p == p)
        F = GF(p)
        locus = _monic_product_mod(case.locus_factors, F)
        stated = list(case.statement_factors)
        if (fid, p) in _STATEMENT_ERRATA:
            printed, intended, words = _STATEMENT_ERRATA[fid, p]
            assert words in case.note
            assert _monic_product_mod(stated, F) != locus
            printed = Poly.from_ints(ZZ, printed)
            assert stated.count(printed) == 1
            stated[stated.index(printed)] = Poly.from_ints(ZZ, intended)
        assert _monic_product_mod(stated, F) == locus

    def test_every_record_is_checked(self):
        assert len(_EXCEPTIONAL) == 8
        assert set(_STATEMENT_ERRATA) <= set(_EXCEPTIONAL)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_curve_pair_agrees_with_family_sextic(fid):
    spec = family_spec(fid)
    K = GFext(13, 2)
    for field, values in (
        (GF(13), GF(13).elements()),
        (GF(31), GF(31).elements()),
        (K, list(K.elements())[::5]),
    ):
        for t in values:
            both = (t, field.neg(t))
            validity = [eval_poly(spec.validity_t, field, u) for u in both]
            pair = curve_pair(spec, field, t)
            if field.is_zero(field.mul(*validity)):
                assert pair is None, t
            else:
                assert pair == tuple(family_sextic(spec, field, u)[1] for u in both), t
