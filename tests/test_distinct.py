"""Tests for the distinguishing analyses: characteristic-p loci, stripped
denominator exponents, fallback triple, prime supports, and small exhaustive
scans.  The loci, which are computed on the halves in u = t^2, are checked
against a reference that works in t throughout."""
import dataclasses

import pytest

from jacpairs import distinct
from jacpairs.distinct import charp_analysis, full_scan, prime_support
from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import (
    Poly,
    gcd_field,
    poly_divmod,
    radical,
    resultant,
)
from jacpairs.exact.rings import GF, ZZ
from jacpairs.exact.roots import irreducible_factors
from jacpairs.families import family_spec
from jacpairs.igusa.invariants import (
    j_polynomials_of_sextic_family,
    r_numerators,
    r_polynomials,
)


def _reference_charp(spec, p):
    """``stripped``, ``locus`` and ``pass`` of the characteristic-p analysis
    in t: every irreducible factor of every reduced denominator is divided
    out of each numerator by repeated long division, and the locus is the
    radical of the gcd of the stripped numerators."""
    F = GF(p)
    js = [j.map_coeffs(F, F.from_int) for j in j_polynomials_of_sextic_family(spec.sextic)]
    triple = ("R2", "R3", "R5")
    if gcd_field(js[0], js[0].substitute_neg()).degree > 0 and "R23" in spec.r_denominators:
        triple = ("R23", "R35", "R25")
    base = []
    for den in spec.r_denominators.values() or [spec.validity_t]:
        for fac, _ in irreducible_factors(den.map_coeffs(F, F.from_int))[1]:
            if fac not in base:
                base.append(fac)
    stripped, locus = {}, None
    for name, num in r_numerators(js, triple).items():
        exponents = {}
        for fac in base:
            q, r = poly_divmod(num, fac)
            while r.is_zero():
                exponents[str(fac)] = exponents.get(str(fac), 0) + 1
                num = q
                q, r = poly_divmod(num, fac)
        stripped[name] = dict(sorted(exponents.items()))
        locus = num if locus is None else gcd_field(locus, num)
    locus = radical(locus)
    exc = next((e for e in spec.exceptional if e.p == p), None)
    expected = Poly.one(F)
    for fac in exc.locus_factors if exc else ():
        expected = expected * fac.map_coeffs(F, F.from_int).monic()
    ok = locus == expected
    if exc is not None and locus.degree > 0:
        for fac, _ in irreducible_factors(locus)[1]:
            ok = ok and distinct._verify_locus_factor(spec, F, fac, exc)["pass"]
    return {"stripped": stripped, "locus": str(locus), "pass": ok}


class TestCharP:
    @pytest.mark.parametrize(
        "fid,p,locus_degree",
        [
            ("deg3", 13, 4),
            ("deg3", 17, 2),
            ("deg4", 23, 4),
            ("deg4", 47, 4),
            ("deg7", 13, 2),
            ("deg7", 17, 8),
            ("deg7", 41, 4),
            ("howe2", 11, 4),
        ],
    )
    def test_exceptional_primes(self, fid, p, locus_degree):
        rep = charp_analysis(family_spec(fid), p)
        assert rep["locus_degree"] == locus_degree
        assert rep["locus_match"]
        assert rep["pass"], rep

    @pytest.mark.parametrize(
        "fid,p",
        [
            ("deg3", 7),
            ("deg3", 11),
            ("deg4", 11),
            ("deg4", 37),
            ("deg7", 7),
            ("deg7", 19),
            ("deg7", 167),
        ],
    )
    def test_negative_controls(self, fid, p):
        rep = charp_analysis(family_spec(fid), p)
        assert rep["locus_degree"] == 0
        assert rep["pass"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_characteristic_refused(self, p):
        # the Igusa-Clebsch invariants are out of scope in characteristic
        # 3 and 5, so no locus may be reported there
        with pytest.raises(ValueError, match="p > 5 required"):
            charp_analysis(family_spec("deg3"), p)

    def test_fallback_triple_engaged(self):
        # when the reductions of J2(t) and J2(-t) share a factor, the base
        # weighted differences are uninformative and the generalized triple
        # takes over
        for p in (11, 37):
            rep = charp_analysis(family_spec("deg4"), p)
            assert rep["j2_gcd_degree"] > 0
            assert rep["triple"] == ("R23", "R35", "R25")
        rep = charp_analysis(family_spec("deg4"), 23)
        assert rep["triple"] == ("R2", "R3", "R5")

    def test_stripped_exponents_deg4_at_23(self):
        # the denominators that make the weighted differences polynomial
        # over F_23[t]: t for R2, t^5 for R3 and R5, with (t^2+1)^3 in R5
        rep = charp_analysis(family_spec("deg4"), 23)
        t_key = "Poly<(1)*x^1>"
        assert rep["stripped"]["R2"][t_key] == 1
        assert rep["stripped"]["R3"][t_key] == 5
        assert rep["stripped"]["R5"][t_key] == 5
        assert rep["stripped"]["R5"]["Poly<(1)*x^2 + (1)>"] == 3

    def test_stripped_exponents_deg7_at_17(self):
        rep = charp_analysis(family_spec("deg7"), 17)
        t_key = "Poly<(1)*x^1>"
        assert rep["stripped"]["R2"][t_key] == 1
        assert rep["stripped"]["R3"][t_key] == 9
        assert rep["stripped"]["R5"][t_key] == 11

    @pytest.mark.parametrize("fid", ["howe2", "deg3", "deg4", "deg7"])
    def test_halves_agree_with_the_analysis_in_t(self, fid):
        spec = family_spec(fid)
        for p in (q for q in range(7, 62) if is_prime(q)):
            rep = charp_analysis(spec, p)
            got = {key: rep[key] for key in ("stripped", "locus", "pass")}
            assert got == _reference_charp(spec, p), p

    def test_t_must_be_a_base_factor(self):
        # every numerator vanishes at t = 0, where C_t = C_{-t}: t must be
        # stripped, from an odd denominator or one divisible by t^2
        spec = family_spec("deg3")
        t = Poly.gen(ZZ)
        times_t = {name: d * t for name, d in spec.r_denominators.items()}
        changed = dataclasses.replace(spec, r_denominators=times_t)
        assert charp_analysis(changed, 13) == charp_analysis(spec, 13)
        even = dataclasses.replace(spec, r_denominators={}, validity_t=t**2 + 27)
        with pytest.raises(ValueError, match="t divides no denominator mod 13"):
            charp_analysis(even, 13)

    def test_numerator_of_mixed_parity_is_refused(self, monkeypatch):
        # the analysis in u = t^2 needs odd numerators: one with an even
        # term must stop it instead of being read as t E(t^2)
        numerators = distinct.r_numerators

        def shifted(js, names):
            return {name: num + 1 for name, num in numerators(js, names).items()}

        monkeypatch.setattr(distinct, "r_numerators", shifted)
        with pytest.raises(ArithmeticError, match="both parities"):
            charp_analysis(family_spec("deg3"), 13)


class TestPrimeSupport:
    def test_refuses_family_without_data(self):
        with pytest.raises(ValueError):
            prime_support(family_spec("howe2"))

    def test_deg3_support(self):
        rep = prime_support(family_spec("deg3"))
        assert rep["cofactor"] == 1
        assert rep["support_gt5"] == [13, 17]

    # the factored gcd of the two resultants, as taken at full degree
    SUPPORTS = {
        "deg3": (470, {2: 748, 3: 436, 5: 32, 13: 8, 17: 4}),
        "deg4": (209, {2: 200, 3: 100, 5: 20, 7: 8, 11: 24, 23: 8, 37: 24, 47: 4}),
        "deg7": (
            1271,
            {2: 1776, 3: 80, 5: 56, 7: 664, 13: 4, 17: 16, 19: 4, 41: 8, 167: 4, 571603: 8},
        ),
    }

    @pytest.mark.parametrize("fid", sorted(SUPPORTS))
    def test_supports_on_the_halves_are_unchanged(self, fid):
        rep = prime_support(family_spec(fid))
        assert (rep["gcd_digits"], rep["factors"]) == self.SUPPORTS[fid]
        assert rep["cofactor"] == 1 and rep["match"]

    def test_halved_resultants_are_the_full_degree_ones(self):
        # Res(A(t^2), B(t^2)) = Res(A, B)^2 on deg3's primitive R2, R3, R5
        rp = r_polynomials(family_spec("deg3"))
        r2, r3, r5 = (rp[name] for name in ("R2", "R3", "R5"))
        halves = [Poly(f.ring, f.coeffs[::2]) for f in (r2, r3, r5)]
        assert resultant(r2, r3) == resultant(halves[0], halves[1]) ** 2
        assert resultant(r2, r5) == resultant(halves[0], halves[2]) ** 2

    def test_odd_weighted_difference_is_refused(self, monkeypatch):
        polynomials = distinct.r_polynomials

        def times_t(spec):
            rp = polynomials(spec)
            return dict(rp, R3=rp["R3"] * Poly.gen(rp["R3"].ring))

        monkeypatch.setattr(distinct, "r_polynomials", times_t)
        with pytest.raises(ArithmeticError, match="R3 of family 'deg3' is not even in t"):
            prime_support(family_spec("deg3"))


class TestFullScan:
    def test_scan_base_field_clean(self):
        rep = full_scan(family_spec("deg3"), 13, 1)
        assert rep["match"]
        assert rep["equal_geometric"] == []

    def test_scan_extension_hits_locus(self):
        rep = full_scan(family_spec("deg3"), 17, 2)
        assert rep["match"]
        assert len(rep["equal_geometric"]) == 2
        assert rep["equal_geometric"] == rep["locus_roots"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_characteristic_refused(self, p):
        with pytest.raises(ValueError, match="p > 5 required"):
            full_scan(family_spec("deg3"), p, 1)

    def test_scan_rejects_other_extensions(self):
        with pytest.raises(ValueError):
            full_scan(family_spec("deg3"), 13, 3)

    def test_sextic_error_is_not_skipped(self, monkeypatch):
        # t = 4 is a valid parameter of deg3 mod 13; an error building its
        # curves must stop the scan instead of dropping t from it
        curve_pair = distinct.curve_pair

        def failing(spec, K, t):
            if t == 4:
                raise ZeroDivisionError("injected")
            return curve_pair(spec, K, t)

        monkeypatch.setattr(distinct, "curve_pair", failing)
        with pytest.raises(ZeroDivisionError, match="injected"):
            full_scan(family_spec("deg3"), 13, 1)
