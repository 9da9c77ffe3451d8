"""Tests for the 2-torsion gluing: both sextic forms, error taxonomy,
and end-to-end reconstruction."""
import dataclasses
from itertools import permutations

import pytest

from jacpairs import glue
from jacpairs.exact.poly import Poly, discriminant
from jacpairs.exact.rings import GF
from jacpairs.exact.roots import roots, splitting_field
from jacpairs.families import FAMILY_IDS, curve_pair, eval_poly, family_spec, weierstrass_at
from jacpairs.glue import (
    GlueError,
    GlueInput,
    IsomorphismRestrictionError,
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
        glue_pairing = glue._glue_pairing

        def off_base(K, alphas, betas, delta_f, delta_g):
            res = glue_pairing(K, alphas, betas, delta_f, delta_g)
            return dataclasses.replace(res, h=res.h + Poly.constant(K, K.gen))

        monkeypatch.setattr(glue, "_glue_pairing", off_base)
        rep = verify_reconstruction(family_spec("deg3"), 101, 3)
        assert not rep["match"]
        assert rep["classesFound"] == []
        assert rep["graphsTried"] == 3
        assert all(d["error"] == "NonDescendingCurve" for d in rep["diagnostics"])


def _pairings_as_one_shot(spec, p, t):
    """K, and for each of the six root pairings of the case: the diagnostics
    entry that the one-shot ``glue_p10`` on its GlueInput implies, with the
    glued h or the error class name."""
    F = GF(p)
    s = eval_poly(spec.s_of_t, F, F.from_int(t))
    cubics = [weierstrass_at(spec, F, s, prime=prime).cubic for prime in (False, True)]
    K, (rts_f, rts_g) = splitting_field(F, *cubics)
    cf, cg = (c.map_coeffs(K, K.from_base) for c in cubics)
    out = {}
    for perm in permutations(range(3)):
        entry = {"pairing": perm}
        try:
            res = glue_p10(GlueInput(cf, cg, tuple(rts_f), tuple(rts_g[i] for i in perm)))
        except GlueError as exc:
            entry["error"] = type(exc).__name__
            out[perm] = (entry, entry["error"])
            continue
        if any(K.in_base(c) is None for c in res.h.coeffs):
            entry["error"] = "NonDescendingCurve"
        else:
            entry["A_in_base"] = K.in_base(res.A) is not None
            entry["B_in_base"] = K.in_base(res.B) is not None
        out[perm] = (entry, res.h)
    return K, out


class TestHoistedChecks:
    """``verify_reconstruction`` checks the root lists and takes the
    discriminants once per case; each pairing must still glue as the
    one-shot ``glue_p10`` does, and the hoisted inputs must carry weight."""

    GRID = [
        (fid, p, t)
        for fid in FAMILY_IDS
        for p in (101, 103, 107, 109, 113)
        for t in (2, 3, 5)
    ]

    def test_every_pairing_glues_as_glue_p10(self, monkeypatch):
        glue_pairing = glue._glue_pairing
        glued = []  # h or error name, one per call from the pairing loop

        def spy(K, alphas, betas, delta_f, delta_g):
            try:
                res = glue_pairing(K, alphas, betas, delta_f, delta_g)
            except GlueError as exc:
                glued.append(type(exc).__name__)
                raise
            glued.append(res.h)
            return res

        monkeypatch.setattr(glue, "_glue_pairing", spy)
        degrees, errors, cases = set(), set(), 0
        for fid, p, t in self.GRID:
            spec = family_spec(fid)
            if curve_pair(spec, GF(p), GF(p).from_int(t)) is None:
                continue  # on the validity locus
            glued.clear()
            rep = verify_reconstruction(spec, p, t)
            assert len(glued) == len(rep["diagnostics"]) == rep["graphsTried"]
            loop = glued[:]  # glue_p10 below calls the spy too
            K, want = _pairings_as_one_shot(spec, p, t)
            for entry, got in zip(rep["diagnostics"], loop):
                entry = {k: v for k, v in entry.items() if k != "classes"}
                assert (entry, got) == want[entry["pairing"]], (fid, p, t)
                errors.add(entry.get("error"))
            degrees.add(K.degree)
            cases += 1
        assert cases == len(self.GRID) - 1  # deg7 at p = 109, t = 3
        assert degrees == {1, 2, 3}
        assert "IsomorphismRestrictionError" in errors

    @pytest.mark.parametrize("fid,p,t", [("howe2", 101, 2), ("deg3", 101, 3)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_wrong_root_list_raises(self, monkeypatch, fid, p, t, which):
        # shift one root of one cubic by 1: the three roots stay distinct
        # but no longer reproduce the cubic
        real = glue.splitting_field

        def shifted(F, *polys):
            K, root_lists = real(F, *polys)
            rts = list(root_lists[which])
            rts[0] = K.add(rts[0], K.one)
            assert len(set(rts)) == 3
            root_lists[which] = sorted(rts)
            return K, root_lists

        def no_pairing(*args):
            raise AssertionError("a pairing was glued from a wrong root list")

        monkeypatch.setattr(glue, "splitting_field", shifted)
        monkeypatch.setattr(glue, "_glue_pairing", no_pairing)
        with pytest.raises(GlueError, match="do not reproduce the cubic"):
            verify_reconstruction(family_spec(fid), p, t)

    @pytest.mark.parametrize("fid,p,t", [("howe2", 101, 2), ("deg3", 101, 3), ("deg4", 103, 2)])
    def test_wrong_discriminant_fails(self, monkeypatch, fid, p, t):
        # Delta(f) times a non-square of F_p: B no longer fits A, so the two
        # printed forms of h disagree on the first pairing that glues
        nonsquare = next(c for c in range(2, p) if not GF(p).is_square(c))
        glue_pairing = glue._glue_pairing

        def scaled(K, alphas, betas, delta_f, delta_g):
            delta_f = K.mul(delta_f, K.from_base(nonsquare))
            return glue_pairing(K, alphas, betas, delta_f, delta_g)

        assert verify_reconstruction(family_spec(fid), p, t)["match"]
        monkeypatch.setattr(glue, "_glue_pairing", scaled)
        with pytest.raises(AssertionError, match="the two constructions of h disagree"):
            verify_reconstruction(family_spec(fid), p, t)
