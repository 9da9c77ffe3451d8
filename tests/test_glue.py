"""Tests for the 2-torsion gluing: both sextic forms, error taxonomy,
torsion graphs, and end-to-end reconstruction."""
import dataclasses

import pytest

from jacpairs import glue
from jacpairs.exact.poly import Poly, discriminant
from jacpairs.exact.rings import GF
from jacpairs.exact.roots import roots
from jacpairs.families import family_spec
from jacpairs.glue import (
    NOT_A_GRAPH,
    DegenerateConfigurationError,
    GlueError,
    GlueInput,
    IsomorphismRestrictionError,
    TorsionGraph,
    admissible_graphs,
    alpha_image,
    glue_p10,
    verify_reconstruction,
)


def _split_cubic(F, r1, r2, r3):
    x = Poly.gen(F)
    out = Poly.one(F)
    for r in (r1, r2, r3):
        out = out * (x - Poly.constant(F, F.from_int(r)))
    return out


class TestGlue:
    def test_successful_glue_produces_separable_sextic(self):
        F = GF(101)
        f = _split_cubic(F, 1, 2, 3)
        g = _split_cubic(F, 5, 11, 31)
        alphas = tuple(roots(f))
        betas = tuple(roots(g))
        res = glue_p10(GlueInput(f, g, alphas, betas))
        assert res.h.degree == 6
        assert not F.is_zero(discriminant(res.h))
        # kappa times the gamma product reproduces the leading coefficient
        assert res.h.lc() == F.mul(
            res.kappa, F.mul(F.mul(res.gammas[0], res.gammas[1]), res.gammas[2])
        )

    def test_isomorphism_restriction_detected(self):
        # gluing a curve to itself along the identity pairing is the
        # restriction of an isomorphism: h must be inseparable and rejected
        F = GF(101)
        f = _split_cubic(F, 1, 2, 3)
        alphas = tuple(roots(f))
        with pytest.raises(IsomorphismRestrictionError):
            glue_p10(GlueInput(f, f, alphas, alphas))

    def test_scaled_pairing_also_isomorphism(self):
        # x -> 4x sends roots (1,2,3) to (4,8,12); still an isomorphism
        F = GF(101)
        f = _split_cubic(F, 1, 2, 3)
        g = _split_cubic(F, 4, 8, 12)
        with pytest.raises(IsomorphismRestrictionError):
            glue_p10(GlueInput(f, g, tuple(roots(f)), tuple(roots(g))))

    def test_wrong_roots_rejected(self):
        F = GF(101)
        f = _split_cubic(F, 1, 2, 3)
        g = _split_cubic(F, 5, 11, 31)
        bad = (F.from_int(1), F.from_int(2), F.from_int(4))
        with pytest.raises(GlueError):
            glue_p10(GlueInput(f, g, bad, tuple(roots(g))))

    def test_repeated_roots_rejected(self):
        F = GF(101)
        f = _split_cubic(F, 1, 2, 3)
        g = _split_cubic(F, 5, 11, 31)
        rep = (F.from_int(1), F.from_int(1), F.from_int(2))
        with pytest.raises(GlueError):
            glue_p10(GlueInput(f, g, rep, tuple(roots(g))))


class TestGraphs:
    def test_odd_graphs_are_fixed_point_free(self):
        g1, g2 = admissible_graphs("odd")
        for g in (g1, g2):
            assert all(g.pairing[i] != i for i in range(3))
        assert g1.pairing != g2.pairing

    def test_even_graphs_pin_distinguished_index(self):
        for q in range(3):
            g1, g2 = admissible_graphs("even", q_index=q)
            assert g1.pairing[q] == q and g2.pairing[q] == q
            assert g1.pairing != g2.pairing

    def test_even_requires_index(self):
        with pytest.raises(ValueError):
            admissible_graphs("even")

    def test_alpha_swaps_odd_graphs(self):
        # psi relabels torsion so that the two admissible graphs are the
        # cyclic shifts; alpha maps one to the other
        g1, g2 = admissible_graphs("odd")
        psi = (0, 1, 2, 3)
        assert alpha_image(g1, psi) == g2
        assert alpha_image(g2, psi) == g1

    def test_alpha_rejects_diagonal(self):
        diag = TorsionGraph("odd", (0, 1, 2))
        assert alpha_image(diag, (0, 1, 2, 3)) == NOT_A_GRAPH

    def test_alpha_swaps_even_graphs(self):
        # even degree: psi kills the kernel point (index 1 here) and sends
        # the other two to the distinguished image point
        g1, g2 = admissible_graphs("even", q_index=0)
        psi = (0, 0, 1, 1)
        assert alpha_image(g1, psi) == g2
        assert alpha_image(g2, psi) == g1


class TestReconstruction:
    @pytest.mark.parametrize(
        "fid,p,t",
        [
            ("howe2", 101, 7),
            ("deg3", 101, 3),  # 2-torsion needs a cubic extension here
            ("deg3", 103, 5),
            ("deg4", 101, 3),
            ("deg7", 101, 2),
        ],
    )
    def test_family_cases(self, fid, p, t):
        rep = verify_reconstruction(family_spec(fid), p, t)
        assert rep["match"], rep
        assert sorted(rep["classesFound"]) == ["C_-t", "C_t"]
        for d in rep["diagnostics"]:
            if "classes" in d:
                assert d.get("A_in_base") and d.get("B_in_base")

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            verify_reconstruction(family_spec("deg3"), 101, 0)

    def test_non_descending_sextic_is_reported(self, monkeypatch):
        # shift the constant term of every glued h off the base field of
        # GF(101^3); the pairing must be recorded as an error, not crash
        def off_base(inp):
            res = glue_p10(inp)
            K = res.h.ring
            return dataclasses.replace(res, h=res.h + Poly.constant(K, K.gen))

        monkeypatch.setattr(glue, "glue_p10", off_base)
        rep = verify_reconstruction(family_spec("deg3"), 101, 3)
        assert not rep["match"]
        assert rep["classesFound"] == []
        assert rep["graphsTried"] == 3
        assert all(d["error"] == "NonDescendingCurve" for d in rep["diagnostics"])
