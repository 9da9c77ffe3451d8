"""Tests for the four curve-pair families: symbolic identities, modular
parameterizations, specialization, and validity handling."""
from dataclasses import replace
from fractions import Fraction

import pytest

from jacpairs import families
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
    _atkin_lehner_flip,
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


def _perturb_delta(spec, monkeypatch):
    return replace(spec, delta_s=spec.delta_s + 1)


def _perturb_j_numerator(spec, monkeypatch):
    # the family reads its j from the X_0(N) row: perturb the row
    row = x0_jpair(spec.isogeny_degree)
    jn, jd = row.j
    monkeypatch.setattr(families, "x0_jpair", lambda n: replace(row, j=(jn + 1, jd)))
    return spec


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
    def test_model_identities(self, perturb, failing, monkeypatch):
        rep = family_identity_check(perturb(family_spec("deg7"), monkeypatch))
        assert {k for k, v in rep.items() if not v} == failing | {"pass"}, rep

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_shifted_x0_point(self, fid):
        # j and j' are both read at the point, so both identities fail
        spec = family_spec(fid)
        rep = family_identity_check(replace(spec, x0_point=spec.x0_point + 1))
        assert {k for k, v in rep.items() if not v} == {"j_E", "j_Eprime", "pass"}, rep

    def test_wrong_flip_constant(self, monkeypatch):
        # c = 64 keeps the X_0(4) flip integral, so only the Weierstrass
        # model of E' can tell it from c_4 = 256
        row = x0_jpair(4)
        wrong = replace(row, j_prime=_atkin_lehner_flip(row.j, 64))
        monkeypatch.setattr(families, "x0_jpair", lambda n: wrong)
        rep = family_identity_check(family_spec("deg4"))
        assert {k for k, v in rep.items() if not v} == {"j_Eprime", "pass"}, rep

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

    def test_flip_by_a_wrong_constant_is_not_integral(self):
        # c = 36 for X_0(6) (c_6 = 72) leaves a coefficient that the
        # denominator's leading coefficient does not divide
        with pytest.raises(ArithmeticError, match="inexact division"):
            _atkin_lehner_flip(x0_jpair(6).j, 36)


def _value_mod(pair, s, p):
    """num(s) / den(s) mod p, or None where den(s) = 0 mod p."""
    num, den = pair
    d = den.evaluate(s) % p
    return None if d == 0 else num.evaluate(s) * pow(d, -1, p) % p


def _abs_ap(j, p, chi):
    """|a_p| of y^2 = x^3 + 3k x + 2k(1728 - j), k = j (1728 - j), a curve
    of j-invariant j (not 0 or 1728), by its Legendre sum."""
    k = j * (1728 - j)
    a, b = 3 * k % p, 2 * k * (1728 - j) % p
    return abs(sum(chi[(x * x * x + a * x + b) % p] for x in range(p)))


def _abs_ap_mismatches(j, j_prime):
    """(cases, mismatches) of |a_p| between curves of j-invariants j(s) and
    j'(s), over every s in F_p, p in {101, 103, 107}, where both are
    defined and neither is 0 or 1728."""
    cases = mismatches = 0
    for p in (101, 103, 107):
        chi = [-1] * p
        chi[0] = 0
        for x in range(1, p):
            chi[x * x % p] = 1
        for s in range(p):
            values = (_value_mod(j, s, p), _value_mod(j_prime, s, p))
            if any(v is None or v in (0, 1728 % p) for v in values):
                continue
            cases += 1
            mismatches += _abs_ap(values[0], p, chi) != _abs_ap(values[1], p, chi)
    return cases, mismatches


class TestIsogenyOracle:
    """Curves isogenous over F_p have equal a_p, and a quadratic twist only
    changes its sign.  So at each s in F_p, every curve of j-invariant
    j_N(s) has the |a_p| of every curve of j-invariant j'_N(s).  This reads
    j' of every row, including N = 5, 9, 13 and 25, which no other check
    compares with a curve."""

    @pytest.mark.parametrize("n", X0_DEGREES[1:])
    def test_rows_are_isogenous(self, n):
        row = x0_jpair(n)
        cases, mismatches = _abs_ap_mismatches(row.j, row.j_prime)
        assert cases > 250 and mismatches == 0, (cases, mismatches)

    def test_wrong_flip_constant_is_caught(self):
        # c = 2048 keeps the X_0(2) flip integral, so the exact division
        # alone does not reject it
        row = x0_jpair(2)
        cases, mismatches = _abs_ap_mismatches(row.j, _atkin_lehner_flip(row.j, 2048))
        assert mismatches > cases // 2, (cases, mismatches)


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
