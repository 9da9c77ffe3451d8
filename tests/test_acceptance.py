"""Acceptance suite: the end-to-end checks the artifact must pass.

Each test mirrors one published claim: symbolic model identities, resultant
prime supports, exceptional loci with representatives, negative controls,
exhaustive scans, gluing reconstruction, invariant properties, obstruction
records, and the cubic-splitting criterion.
"""
import random
import zlib

import pytest

from jacpairs.distinct import charp_analysis, full_scan, prime_support
from jacpairs.ellcurve import exhaustive_split_scan
from jacpairs.exact.integers import is_prime
from jacpairs.exact.poly import Poly, discriminant
from jacpairs.exact.rings import GF
from jacpairs.families import (
    FAMILY_IDS,
    family_identity_check,
    family_spec,
    symbolic_kappa_check,
)
from jacpairs.glue import verify_reconstruction
from jacpairs.igusa.invariants import igusa_clebsch, root_difference_oracle
from jacpairs.obstruction import (
    OBSTRUCTION_DEGREES,
    square_condition_consistency,
    verify_obstruction,
)


# -- 1. symbolic identity suite (exact, characteristic 0) -------------------


class TestCriterion1Symbolic:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_model_identities(self, fid):
        rep = family_identity_check(family_spec(fid))
        assert rep["pass"], rep

    @pytest.mark.parametrize("fid", ("deg3", "deg4", "deg7"))
    def test_sextic_assembly_both_halves(self, fid):
        rep = symbolic_kappa_check(family_spec(fid))
        assert rep["plain"], rep
        assert rep["tilde"], rep


# -- 2. resultant prime supports --------------------------------------------


class TestCriterion2PrimeSupport:
    EXPECTED = {
        "deg3": {13, 17},
        "deg4": {7, 11, 23, 37, 47},
        "deg7": {7, 13, 17, 19, 41, 167, 571603},
    }

    @pytest.mark.parametrize("fid", sorted(EXPECTED))
    def test_support(self, fid):
        rep = prime_support(family_spec(fid))
        assert rep["cofactor"] == 1, "factorization incomplete"
        assert set(rep["support_gt5"]) == self.EXPECTED[fid]


# -- 3. exceptional loci with representatives -------------------------------


class TestCriterion3ExceptionalLoci:
    CASES = [
        ("deg3", 13, "Poly<(1)*x^4 + (7)*x^2 + (1)>"),
        ("deg3", 17, "Poly<(1)*x^2 + (7)>"),
        ("deg4", 23, "Poly<(1)*x^4 + (6)*x^2 + (1)>"),
        ("deg4", 47, "Poly<(1)*x^4 + (30)*x^2 + (1)>"),
        ("deg7", 13, "Poly<(1)*x^2 + (6)>"),
        ("deg7", 17, "Poly<(1)*x^8 + (1)*x^6 + (5)*x^4 + (15)*x^2 + (4)>"),
        ("deg7", 41, "Poly<(1)*x^4 + (26)*x^2 + (8)>"),
        ("howe2", 11, "Poly<(1)*x^4 + (7)*x^2 + (1)>"),
    ]

    @pytest.mark.parametrize("fid,p,locus", CASES)
    def test_locus_and_representatives(self, fid, p, locus):
        rep = charp_analysis(family_spec(fid), p)
        assert rep["locus"] == locus
        assert rep["locus_match"]
        assert rep["verification"], "no roots verified"
        assert all(v["pass"] for v in rep["verification"])


# -- 4. negative controls ----------------------------------------------------


class TestCriterion4NegativeControls:
    CASES = [
        ("deg3", 7),
        ("deg3", 11),
        ("deg4", 11),
        ("deg4", 37),
        ("deg7", 7),
        ("deg7", 19),
        ("deg7", 167),
    ]

    @pytest.mark.parametrize("fid,p", CASES)
    def test_coprime(self, fid, p):
        rep = charp_analysis(family_spec(fid), p)
        assert rep["locus_degree"] == 0
        assert rep["pass"]


# -- 5. exhaustive scans -----------------------------------------------------


class TestCriterion5FullScan:
    CASES = [("howe2", 11), ("deg3", 13), ("deg3", 17), ("deg4", 23), ("deg7", 13)]

    @pytest.mark.parametrize("fid,p", CASES)
    @pytest.mark.parametrize("ext", (1, 2))
    def test_scan(self, fid, p, ext):
        rep = full_scan(family_spec(fid), p, ext)
        assert rep["match"], rep


# -- 6. gluing reconstruction at random parameters ---------------------------


class TestCriterion6Reconstruction:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_random_parameters(self, fid):
        rng = random.Random(zlib.crc32(fid.encode()))
        spec = family_spec(fid)
        done = 0
        while done < 5:
            p = rng.randrange(51, 1 << 20)
            if not is_prime(p):
                continue
            t = rng.randrange(1, p)
            try:
                rep = verify_reconstruction(spec, p, t)
            except ValueError:
                continue  # parameter on the validity locus
            assert rep["match"], (fid, p, t, rep)
            for d in rep["diagnostics"]:
                if "classes" in d:
                    assert d["A_in_base"] and d["B_in_base"]
            done += 1

    # p = 2 mod 3 with the 2-torsion in GF(p^3), where no x^3 + c is
    # irreducible: building the field must not walk the ~p binomials
    @pytest.mark.parametrize("fid,p,t", [("deg3", 522719, 454676), ("deg7", 961397, 851341)])
    def test_large_prime_cubic_extension(self, fid, p, t):
        rep = verify_reconstruction(family_spec(fid), p, t)
        assert rep["match"], rep


# -- 7. invariant property suite ---------------------------------------------


class TestCriterion7Invariants:
    def test_oracle_agreement_100_sextics(self):
        rng = random.Random(777)
        count = 0
        while count < 100:
            p = rng.randrange(7, 10**4)
            if not is_prime(p):
                continue
            F = GF(p)
            coeffs = [F.from_int(rng.randrange(p)) for _ in range(6)]
            coeffs.append(F.from_int(rng.randrange(1, p)))
            f = Poly(F, coeffs)
            if F.is_zero(discriminant(f)):
                continue
            assert igusa_clebsch(f) == root_difference_oracle(f)
            count += 1


# -- 8. obstruction records ---------------------------------------------------


class TestCriterion8Obstruction:
    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_points_and_search(self, n):
        rep = verify_obstruction(n)
        assert rep["points_on_curve"]
        assert rep["search_matches_recorded"]

    def test_degree5_discrepancy_is_reported(self):
        rep = square_condition_consistency(5)
        assert rep["delta_discrepancy"]
        assert rep["x_delta_matches_curve"]
        assert rep["pass"]

    @pytest.mark.parametrize("n", OBSTRUCTION_DEGREES)
    def test_square_conditions(self, n):
        assert square_condition_consistency(n)["pass"]


# -- 9. cubic-splitting criterion, exhaustively -------------------------------


class TestCriterion9CubicSplit:
    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_exhaustive(self, p):
        rep = exhaustive_split_scan(p)
        assert rep["inconsistent"] == 0
