"""Why the construction stops at isogeny degrees {2, 3, 4, 7} over Q.

For each remaining genus-zero isogeny degree n, the Galois restriction
(square discriminant for odd n, discriminants differing by a square for
even n) cuts out a curve O_n of positive genus; its rational points are
the only parameters where the restriction could hold.  This module stores
those curves with their recorded rational points, recomputes the square
condition from the j-invariant pair independently, and corroborates the
recorded point lists by bounded search.

The square condition is worked out in Z[x]: the X_0(N) rows and the
records are integral, so each class modulo squares is a signed integer
constant times a primitive squarefree polynomial, compared with the monic
recorded curve as it stands.  The rows come from ``families.x0_jpair``,
which stores j_N and derives j'_N(s) = j_N(c_N/s) by the Atkin-Lehner flip;
the even degrees read j'_N, so their square conditions also check c_N.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact.integers import is_perfect_square
from .exact.poly import Poly, primitive_part_int, squarefree_part
from .exact.rings import ZZ
from .ellcurve import AffinePoint, odd_degree_point_search
from .families import x0_jpair

_X = Poly.gen(ZZ)
_ONE = Poly.one(ZZ)


@dataclass(frozen=True)
class ObstructionRecord:
    n: int
    curve: Poly  # y^2 = curve(x), over Z
    delta: tuple  # (numerator, denominator) of the recorded discriminant
    delta_prime: tuple | None  # same for the isogenous model (even n only)
    points: tuple  # recorded rational points (x, y) as Fractions
    finite_by: str  # "listed-complete" | "faltings"

    @property
    def parity(self) -> str:
        """The degree's parity, "odd" or "even"."""
        return "odd" if self.n % 2 else "even"


def _pts(*xs):
    return tuple(AffinePoint(Fraction(x), Fraction(0)) for x in xs)


def _records():
    x = _X
    recs = [
        ObstructionRecord(
            5, x**3 + 22 * x**2 + 125 * x,
            (x**2 + 22 * x + 125, _ONE), None, _pts(0), "listed-complete",
        ),
        ObstructionRecord(
            9, x**3 + 9 * x**2 + 27 * x,
            (x * (x**2 + 9 * x + 27), _ONE), None, _pts(0), "listed-complete",
        ),
        ObstructionRecord(
            13, x**3 + 6 * x**2 + 13 * x,
            (x * (x**2 + 6 * x + 13), _ONE), None, _pts(0), "listed-complete",
        ),
        ObstructionRecord(
            25,
            x * (x**4 + 5 * x**3 + 15 * x**2 + 25 * x + 25) * (x**2 + 2 * x + 5),
            (
                x
                * (x**4 + 5 * x**3 + 15 * x**2 + 25 * x + 25)
                * (x**2 + 2 * x + 5),
                _ONE,
            ),
            None, _pts(0), "faltings",
        ),
        ObstructionRecord(
            6, x**3 + 17 * x**2 + 72 * x,
            (x * (x + 8), _ONE), (x + 9, _ONE),
            _pts(0, -8, -9), "listed-complete",
        ),
        ObstructionRecord(
            8, x**3 + 12 * x**2 + 32 * x,
            (x * (x + 8), _ONE), (x + 4, _ONE),
            _pts(0, -4, -8), "listed-complete",
        ),
        ObstructionRecord(
            10, x**3 + 9 * x**2 + 20 * x,
            (x * (x + 4), x**2 + 8 * x + 20), (x + 5, x**2 + 8 * x + 20),
            _pts(0, -4, -5), "listed-complete",
        ),
        ObstructionRecord(
            12, x**3 + 7 * x**2 + 12 * x,
            (x * (x + 2) * (x + 4) * (x + 6), _ONE),
            ((x + 2) * (x + 3) * (x + 6), _ONE),
            _pts(0, -3, -4), "listed-complete",
        ),
        ObstructionRecord(
            16, x**3 + 6 * x**2 + 8 * x,
            (x * (x + 4) * (x**2 + 4 * x + 8), _ONE),
            ((x + 2) * (x**2 + 4 * x + 8), _ONE),
            _pts(0, -2, -4), "listed-complete",
        ),
        ObstructionRecord(
            18,
            x * (x + 2) * (x + 3) * (x**2 + 3 * x + 3) * (x**2 + 6 * x + 12),
            (x * (x + 2) * (x**2 + 6 * x + 12), _ONE),
            ((x + 3) * (x**2 + 3 * x + 3), _ONE),
            _pts(0, -2, -3), "faltings",
        ),
    ]
    return {r.n: r for r in recs}


RECORDS = _records()
OBSTRUCTION_DEGREES = tuple(sorted(RECORDS))


def _record(n: int) -> ObstructionRecord:
    if n not in RECORDS:
        raise ValueError(
            f"no obstruction record for degree {n}; recorded degrees: "
            + ", ".join(map(str, OBSTRUCTION_DEGREES))
        )
    return RECORDS[n]


# ---------------------------------------------------------------------------
# square-condition consistency
# ---------------------------------------------------------------------------


def _mod_squares(num, den):
    """num/den in Q(x) modulo squares, for num and den over Z, as (c, S):
    S is the product of the odd-multiplicity factors of the primitive parts
    of num and den, primitive with a positive leading coefficient, and the
    integer c is the signed contents of num and den times lc(S), so that
    num/den is c S / lc(S) times a square."""
    c_num, p_num = primitive_part_int(num)
    c_den, p_den = primitive_part_int(den)
    part = squarefree_part(p_num * p_den)
    return c_num * c_den * part.lc(), part


def square_condition_consistency(n: int) -> dict:
    """Recompute the square condition of degree n from the j-invariants
    alone and compare with the recorded curve and discriminants.

    A curve E with j-invariant j has discriminant (j - 1728) modulo squares,
    so the odd-degree condition "disc is a square" is y^2 = (j(s) - 1728)
    mod squares, and the even-degree condition is
    y^2 = (j(s) - 1728)(j'(s) - 1728) mod squares.  With j = num/den,
    j - 1728 = (num - 1728 den)/den.  The derived class is c S / lc(S) for
    a primitive S and an integer c (``_mod_squares``).  It is the recorded
    curve only if S is that curve and c is a square; for S the curve and c
    not a square it is a quadratic twist of the curve, and the check fails.
    """
    rec = _record(n)
    param = x0_jpair(n)

    def shifted_mod_squares(pair):
        num, den = pair
        return _mod_squares(num - den.scale(1728), den)

    constant, derived = shifted_mod_squares(param.j)
    if rec.parity == "even":
        c2, poly2 = shifted_mod_squares(param.j_prime)
        derived = squarefree_part(derived * poly2)
        constant *= c2

    derived_matches_curve = derived == rec.curve
    derived_constant_is_square = is_perfect_square(constant)

    _, delta_poly = _mod_squares(*rec.delta)
    if rec.delta_prime is not None:
        _, dp_poly = _mod_squares(*rec.delta_prime)
        delta_poly = squarefree_part(delta_poly * dp_poly)
    delta_matches_curve = delta_poly == rec.curve
    x_delta_matches_curve = _X * delta_poly == rec.curve

    return {
        "n": n,
        "parity": rec.parity,
        "derived_matches_curve": derived_matches_curve,
        "derived_constant_is_square": derived_constant_is_square,
        "delta_matches_curve": delta_matches_curve,
        "x_delta_matches_curve": x_delta_matches_curve,
        "delta_discrepancy": not delta_matches_curve,
        "pass": derived_matches_curve
        and derived_constant_is_square
        and (delta_matches_curve or x_delta_matches_curve),
    }


# ---------------------------------------------------------------------------
# point verification
# ---------------------------------------------------------------------------


def verify_obstruction(n: int) -> dict:
    """Check the recorded points lie on O_n and corroborate completeness of
    the recorded list by bounded search (bound 1000, 200 for the degree-7
    curves).  Finiteness for the genus-3 curves is a recorded assertion; the
    search only confirms no further small points."""
    rec = _record(n)
    points_on = all(rec.curve.evaluate(P.x) == P.y * P.y for P in rec.points)
    bound = 1000 if rec.curve.degree == 3 else 200
    found = odd_degree_point_search(rec.curve, bound)
    recorded = sorted(rec.points, key=lambda P: (P.x, P.y))
    search_matches = found == recorded
    return {
        "n": n,
        "points_on_curve": points_on,
        "recorded_points": len(recorded),
        "found_points": len(found),
        "search_matches_recorded": search_matches,
        "finite_by": rec.finite_by,
        "pass": points_on and search_matches,
    }


def verify_all() -> dict:
    out = {}
    for n in OBSTRUCTION_DEGREES:
        out[n] = {
            "square_condition": square_condition_consistency(n),
            "points": verify_obstruction(n),
        }
    out["pass"] = all(
        v["square_condition"]["pass"] and v["points"]["pass"]
        for k, v in out.items()
        if isinstance(k, int)
    )
    return out


__all__ = [
    "RECORDS",
    "OBSTRUCTION_DEGREES",
    "ObstructionRecord",
    "square_condition_consistency",
    "verify_obstruction",
    "verify_all",
]
