"""Gluing two elliptic curves along their 2-torsion into a genus-2 curve.

Given monic separable cubics f, g and a pairing of their root triples (the
graph of an isomorphism of 2-torsion groups), the gluing produces a sextic h
such that the Jacobian of y^2 = h is the quotient of E x E' by the graph.
Two independent constructions of h (the three-quadratic product and the
kappa * prod(gamma_ij x^2 - 1) form) are computed and compared on every
call.

``glue_p10`` is the one-shot entry: it checks that f and g are monic cubics
over one field and that each root triple consists of distinct roots whose
linear factors multiply to its cubic, takes disc(f) and disc(g), and glues.
The gluing itself, ``_glue_pairing``, depends on the pairing: A, B, the
gammas, kappa, both forms of h, h1 = h2 and the separability of h.

Also here: the end-to-end reconstruction check that re-derives a family's
curve pair from its Weierstrass models over a finite field.  It glues up to
six pairings of the same two root lists, so it checks the root lists once
per case and takes the discriminants from the models, which compute them
to reject singular cubics; only ``_glue_pairing`` and the descent of h run
per pairing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .exact.poly import Poly, discriminant
from .exact.rings import GF
from .exact.roots import splitting_field
from .families import FamilySpec, curve_pair, eval_poly, weierstrass_at
from .igusa.invariants import igusa_vector, weighted_equal


class GlueError(ValueError):
    pass


class IsomorphismRestrictionError(GlueError):
    """The pairing extends an isomorphism of elliptic curves: the quotient is
    a product of elliptic curves, not a Jacobian (h is inseparable)."""


class DegenerateConfigurationError(GlueError):
    """a2 or b2 vanished, which cannot happen for a valid gluing input."""


class NonDescendingCurve(GlueError):
    """The sextic glued from a Frobenius-equivariant pairing has a
    coefficient outside the base field."""


@dataclass(frozen=True)
class GlueInput:
    f: Poly
    g: Poly
    alphas: tuple
    betas: tuple


@dataclass(frozen=True)
class GlueResult:
    a1: object
    a2: object
    b1: object
    b2: object
    A: object
    B: object
    gammas: tuple  # (gamma_32, gamma_21, gamma_13)
    kappa: object
    h: Poly


def _check_roots(K, poly, triple, label):
    if len(triple) != 3:
        raise GlueError(f"{label}: expected three roots")
    if (
        triple[0] == triple[1]
        or triple[1] == triple[2]
        or triple[0] == triple[2]
    ):
        raise GlueError(f"{label}: repeated roots")
    prod = Poly.one(K)
    x = Poly.gen(K)
    for r in triple:
        prod = prod * (x - Poly.constant(K, r))
    if prod != poly:
        raise GlueError(f"{label}: roots do not reproduce the cubic")


def glue_p10(inp: GlueInput) -> GlueResult:
    """The gluing construction: all intermediate quantities plus the sextic
    h, computed by both printed forms and cross-checked."""
    f, g = inp.f, inp.g
    K = f.ring
    if g.ring is not K:
        raise GlueError("cubics over different fields")
    for cub, label in ((f, "f"), (g, "g")):
        if cub.degree != 3 or not K.is_one(cub.lc()):
            raise GlueError(f"{label} must be a monic cubic")
    _check_roots(K, f, inp.alphas, "alphas")
    _check_roots(K, g, inp.betas, "betas")
    return _glue_pairing(K, inp.alphas, inp.betas, discriminant(f), discriminant(g))


def _glue_pairing(K, a, b, delta_f, delta_g) -> GlueResult:
    """The gluing for one pairing of the root triples ``a`` of f and ``b`` of
    g, already checked to be distinct roots of the cubics; ``delta_f`` and
    ``delta_g`` are their discriminants over K."""
    da12, da23, da31 = K.sub(a[1], a[0]), K.sub(a[2], a[1]), K.sub(a[0], a[2])
    db12, db23, db31 = K.sub(b[1], b[0]), K.sub(b[2], b[1]), K.sub(b[0], b[2])

    a1 = K.add(
        K.add(K.div(K.mul(da23, da23), db23), K.div(K.mul(da12, da12), db12)),
        K.div(K.mul(da31, da31), db31),
    )
    a2 = K.add(
        K.add(K.mul(a[0], db23), K.mul(a[1], db31)), K.mul(a[2], db12)
    )
    b1 = K.add(
        K.add(K.div(K.mul(db23, db23), da23), K.div(K.mul(db12, db12), da12)),
        K.div(K.mul(db31, db31), da31),
    )
    b2 = K.add(
        K.add(K.mul(b[0], da23), K.mul(b[1], da31)), K.mul(b[2], da12)
    )
    if K.is_zero(a2) or K.is_zero(b2):
        # a2 = 0 iff the points (alpha_i, beta_i) are collinear, i.e. the
        # pairing extends an affine isomorphism of the two x-lines
        raise IsomorphismRestrictionError(
            "the pairing is the restriction of an isomorphism of elliptic "
            "curves (collinear root pairing)"
        )
    if K.is_zero(a1) or K.is_zero(b1):
        raise DegenerateConfigurationError("a1 or b1 vanished")

    A = K.div(K.mul(delta_g, a1), a2)
    B = K.div(K.mul(delta_f, b1), b2)

    # three-quadratic product
    def quad(dai, daj, dbi, dbj):
        return Poly(K, [K.mul(B, K.mul(dbi, dbj)), K.zero, K.mul(A, K.mul(dai, daj))])

    h1 = (
        quad(da12, K.neg(da31), db12, K.neg(db31))
        * quad(da23, da12, db23, db12)
        * quad(K.neg(da31), da23, K.neg(db31), db23)
    )

    # compact form
    g32 = K.div(db23, da23)
    g21 = K.div(db12, da12)
    g13 = K.div(K.neg(db31), K.neg(da31))
    alpha_prod = K.mul(K.mul(da23, da12), da31)
    beta_prod = K.mul(K.mul(db23, db12), db31)
    kappa = K.div(
        K.mul(K.mul(A, K.mul(A, A)), K.mul(alpha_prod, K.mul(alpha_prod, alpha_prod))),
        beta_prod,
    )

    def lin2(gam):
        return Poly(K, [K.neg(K.one), K.zero, gam])

    h2 = (lin2(g32) * lin2(g21) * lin2(g13)).scale(kappa)

    if h1 != h2:
        raise AssertionError("the two constructions of h disagree")
    if K.is_zero(discriminant(h1)):
        raise IsomorphismRestrictionError(
            "inseparable h: the pairing is the restriction of an isomorphism "
            "of elliptic curves"
        )
    return GlueResult(a1, a2, b1, b2, A, B, (g32, g21, g13), kappa, h1)


# ---------------------------------------------------------------------------
# end-to-end reconstruction
# ---------------------------------------------------------------------------


def _descend_poly(K, F, h):
    coeffs = [K.in_base(c) for c in h.coeffs]
    if None in coeffs:
        raise NonDescendingCurve("glued sextic is not defined over the base field")
    return Poly(F, coeffs)


def verify_reconstruction(spec: FamilySpec, p: int, t_value) -> dict:
    """Re-derive the family's curve pair at a parameter over F_p: extract the
    2-torsion of the specialized Weierstrass models, glue every
    Frobenius-equivariant root pairing, and check that the geometric Igusa
    classes of the two family curves C_t, C_{-t} are exactly the classes
    produced (each by some pairing, and no pairing producing anything
    else except the degenerate errors recorded per pairing).

    Once per case: the root lists from ``splitting_field`` are checked to be
    three distinct roots reproducing each cubic, and disc(f), disc(g) are
    lifted to K from the models' ``disc``.  A root list that fails raises
    ``GlueError`` out of this function: it is a fault of the root finder,
    not of a pairing.  Per pairing: h1 = h2, the separability of h and its
    descent to F_p; a failure there is recorded under the pairing."""
    if p <= 5:
        raise ValueError("p > 5 required")
    F = GF(p)
    t = F.from_int(t_value) if isinstance(t_value, int) else t_value
    pair = curve_pair(spec, F, t)
    if pair is None:
        raise ValueError("parameter on the validity locus")
    s = eval_poly(spec.s_of_t, F, t)
    E = weierstrass_at(spec, F, s)
    Ep = weierstrass_at(spec, F, s, prime=True)

    target = [igusa_vector(c) for c in pair]
    matched = [False, False]

    K, (rts_f, rts_g) = splitting_field(F, E.cubic, Ep.cubic)
    if len(rts_f) != 3 or len(rts_g) != 3:
        raise AssertionError("cubics must be separable")
    # a permutation of the betas leaves their product unchanged
    for cubic, rts, label in ((E.cubic, rts_f, "E"), (Ep.cubic, rts_g, "E'")):
        _check_roots(K, cubic.map_coeffs(K, K.from_base), rts, f"roots of {label}")
    delta_f, delta_g = K.from_base(E.disc), K.from_base(Ep.disc)
    frob_f = [rts_f.index(K.frobenius(r)) for r in rts_f]
    frob_g = [rts_g.index(K.frobenius(r)) for r in rts_g]

    diagnostics = []
    for perm in sorted(permutations(range(3))):
        # Galois equivariance: pairing o frobenius_f = frobenius_g o pairing
        if any(perm[frob_f[i]] != frob_g[perm[i]] for i in range(3)):
            continue
        entry = {"pairing": perm}
        try:
            betas = [rts_g[i] for i in perm]
            res = _glue_pairing(K, rts_f, betas, delta_f, delta_g)
            # descent: equivariant pairing must give h over the base field
            h_base = _descend_poly(K, F, res.h)
        except GlueError as exc:
            entry["error"] = type(exc).__name__
            diagnostics.append(entry)
            continue
        entry["A_in_base"] = K.in_base(res.A) is not None
        entry["B_in_base"] = K.in_base(res.B) is not None
        vec = igusa_vector(h_base)
        which = []
        for idx in range(2):
            if weighted_equal(vec, target[idx], F, geometric=True):
                matched[idx] = True
                which.append(("C_t", "C_-t")[idx])
        entry["classes"] = which
        diagnostics.append(entry)

    classes_found = sorted(
        {name for d in diagnostics for name in d.get("classes", ())}
    )
    return {
        "family": spec.id,
        "p": p,
        "t": str(t),
        "graphsTried": len(diagnostics),
        "classesFound": classes_found,
        "match": matched[0] and matched[1],
        "diagnostics": diagnostics,
    }


__all__ = [
    "GlueInput",
    "GlueResult",
    "GlueError",
    "IsomorphismRestrictionError",
    "DegenerateConfigurationError",
    "NonDescendingCurve",
    "glue_p10",
    "verify_reconstruction",
]
