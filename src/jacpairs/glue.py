"""Gluing two elliptic curves along their 2-torsion into a genus-2 curve.

Given monic separable cubics f, g and a pairing of their root triples (the
graph of an isomorphism of 2-torsion groups), the gluing produces a sextic h
such that the Jacobian of y^2 = h is the quotient of E x E' by the graph.
Two independent constructions of h (the three-quadratic product and the
kappa * prod(gamma_ij x^2 - 1) form) are computed and compared on every
call.

Also here: the two admissible torsion graphs per parity, the action of the
automorphism (P, Q) |-> (P, Q + psi(P)) on graphs, and the end-to-end
reconstruction check that re-derives a family's curve pair from its
Weierstrass models over a finite field.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact.poly import Poly, discriminant, squarefree_part
from .exact.rings import ExtField, GFext, PrimeField
from .exact.roots import roots, splitting_degrees
from .families import FamilySpec, eval_poly, family_sextic, weierstrass_at
from .igusa.invariants import (
    igusa_vector,
    inversion_isomorphism,
    weighted_equal,
)


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
    a = inp.alphas
    b = inp.betas
    _check_roots(K, f, a, "alphas")
    _check_roots(K, g, b, "betas")

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

    delta_f = discriminant(f)
    delta_g = discriminant(g)
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
# torsion graphs
# ---------------------------------------------------------------------------

NOT_A_GRAPH = "NotAGraph"


@dataclass(frozen=True)
class TorsionGraph:
    parity: str  # "odd" | "even"
    pairing: tuple  # pairing[i] = index on E' assigned to index i on E (0-based)


def admissible_graphs(parity: str, q_index: int | None = None):
    """The two torsion graphs compatible with the Galois restriction: the two
    fixed-point-free 3-cycles in odd degree; in even degree the distinguished
    pair is pinned and the other two indices are either kept or swapped."""
    if parity == "odd":
        return (
            TorsionGraph("odd", (1, 2, 0)),
            TorsionGraph("odd", (2, 0, 1)),
        )
    if parity == "even":
        if q_index not in (0, 1, 2):
            raise ValueError("even parity requires the distinguished index")
        others = [i for i in range(3) if i != q_index]
        ident = [0, 1, 2]
        swapped = list(ident)
        swapped[others[0]], swapped[others[1]] = (
            swapped[others[1]],
            swapped[others[0]],
        )
        return (
            TorsionGraph("even", tuple(ident)),
            TorsionGraph("even", tuple(swapped)),
        )
    raise ValueError("parity must be 'odd' or 'even'")


def _klein_add(i, j):
    """Group law on {0=O, 1, 2, 3} viewed as (Z/2)^2."""
    if i == j:
        return 0
    if i == 0:
        return j
    if j == 0:
        return i
    return 6 - i - j


def alpha_image(graph: TorsionGraph, psi_on_torsion):
    """Image of a torsion graph under (P, Q) |-> (P, Q + psi(P)).

    ``psi_on_torsion`` maps torsion indices {0..3} of E (0 = identity) to
    indices of E'; odd-degree isogenies act bijectively, even-degree ones
    collapse the kernel point.  Returns the image graph, or NOT_A_GRAPH when
    the image is not the graph of a bijection."""
    pairs = [(0, 0)] + [(i + 1, graph.pairing[i] + 1) for i in range(3)]
    image = [(p, _klein_add(q, psi_on_torsion[p])) for (p, q) in pairs]
    left = [p for p, _ in image]
    right = [q for _, q in image]
    if sorted(left) != [0, 1, 2, 3] or sorted(right) != [0, 1, 2, 3]:
        return NOT_A_GRAPH
    if image[0] != (0, 0):
        return NOT_A_GRAPH
    pairing = [None] * 3
    for p, q in image[1:]:
        pairing[p - 1] = q - 1
    return TorsionGraph(graph.parity, tuple(pairing))


# ---------------------------------------------------------------------------
# end-to-end reconstruction
# ---------------------------------------------------------------------------


def _splitting_data(F, cubic1, cubic2):
    m = lcm(
        lcm(*(splitting_degrees(cubic1) + [1])),
        lcm(*(splitting_degrees(cubic2) + [1])),
    )
    if m == 1:
        return F, cubic1, cubic2
    K = GFext(F.p, m)
    return (
        K,
        cubic1.map_coeffs(K, K.from_base),
        cubic2.map_coeffs(K, K.from_base),
    )


def _frobenius_perm(K, rts):
    if not isinstance(K, ExtField):
        return tuple(range(len(rts)))
    out = []
    for r in rts:
        fr = K.frobenius(r)
        out.append(rts.index(fr))
    return tuple(out)


def _descend_poly(K, F, h):
    if K is F:
        return h
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
    else except the degenerate errors recorded per pairing)."""
    from .exact.rings import GF
    from itertools import permutations

    if p <= 5:
        raise ValueError("p > 5 required")
    F = GF(p)
    t = F.from_int(t_value) if isinstance(t_value, int) else t_value
    validity = F.mul(
        eval_poly(spec.validity_t, F, t), eval_poly(spec.validity_t, F, F.neg(t))
    )
    if F.is_zero(validity):
        raise ValueError("parameter on the validity locus")
    s = eval_poly(spec.s_of_t, F, t)
    E = weierstrass_at(spec, F, s)
    Ep = weierstrass_at(spec, F, s, prime=True)

    _, c_t = family_sextic(spec, F, t)
    _, c_mt = family_sextic(spec, F, F.neg(t))
    target = [igusa_vector(c_t), igusa_vector(c_mt)]
    matched = [False, False]

    K, cf, cg = _splitting_data(F, E.cubic, Ep.cubic)
    rts_f = roots(cf)
    rts_g = roots(cg)
    if len(rts_f) != 3 or len(rts_g) != 3:
        raise AssertionError("cubics must be separable")
    frob_f = _frobenius_perm(K, rts_f)
    frob_g = _frobenius_perm(K, rts_g)

    diagnostics = []
    for perm in sorted(permutations(range(3))):
        # Galois equivariance: pairing o frobenius_f = frobenius_g o pairing
        if any(perm[frob_f[i]] != frob_g[perm[i]] for i in range(3)):
            continue
        entry = {"pairing": perm}
        try:
            res = glue_p10(
                GlueInput(cf, cg, tuple(rts_f), tuple(b_of(perm, rts_g)))
            )
            # descent: equivariant pairing must give h over the base field
            h_base = _descend_poly(K, F, res.h)
        except GlueError as exc:
            entry["error"] = type(exc).__name__
            diagnostics.append(entry)
            continue
        entry["A_in_base"] = _in_base(K, F, res.A) is not None
        entry["B_in_base"] = _in_base(K, F, res.B) is not None
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


def b_of(perm, rts_g):
    return [rts_g[perm[i]] for i in range(3)]


def _in_base(K, F, v):
    if K is F:
        return v
    return K.in_base(v)


__all__ = [
    "GlueInput",
    "GlueResult",
    "GlueError",
    "IsomorphismRestrictionError",
    "DegenerateConfigurationError",
    "NonDescendingCurve",
    "TorsionGraph",
    "NOT_A_GRAPH",
    "admissible_graphs",
    "alpha_image",
    "glue_p10",
    "inversion_isomorphism",
    "verify_reconstruction",
]
