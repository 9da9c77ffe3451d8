"""Tests for the distinguishing analyses: characteristic-p loci, stripped
denominator exponents, fallback triple, and small exhaustive scans."""
import pytest

from jacpairs import distinct
from jacpairs.distinct import charp_analysis, full_scan, prime_support
from jacpairs.families import family_spec


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


class TestPrimeSupport:
    def test_refuses_family_without_data(self):
        with pytest.raises(ValueError):
            prime_support(family_spec("howe2"))

    def test_deg3_support(self):
        rep = prime_support(family_spec("deg3"))
        assert rep["cofactor"] == 1
        assert rep["support_gt5"] == [13, 17]


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
