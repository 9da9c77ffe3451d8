"""JSON encoding of field descriptors, field elements, and polynomials over
the two fields the command line builds, Q and GF(p).

Schema: a polynomial is a JSON array of coefficient encodings with index =
degree.  Rational coefficients are decimal strings ("-3/7" allowed);
prime-field elements are decimal strings.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .rings import PrimeField, RationalField


def field_to_json(R) -> dict:
    if isinstance(R, RationalField):
        return {"type": "Q"}
    if isinstance(R, PrimeField):
        return {"type": "Fp", "p": str(R.p)}
    raise TypeError(f"no JSON form for ring {R!r}")


def element_to_json(R, a):
    if isinstance(R, (RationalField, PrimeField)):
        return str(a)
    raise TypeError(f"no JSON form for elements of {R!r}")


def element_from_json(R, obj):
    if not isinstance(R, (RationalField, PrimeField)):
        raise TypeError(f"cannot parse elements of {R!r}")
    if type(obj) not in (str, int):
        raise ValueError(f"expected a decimal string or integer as an element of {R!r}, got {obj!r}")
    if isinstance(R, RationalField):
        try:
            return Fraction(str(obj).replace("−", "-"))
        except ZeroDivisionError:
            raise ValueError(f"coefficient {obj} has a zero denominator") from None
    return int(obj) % R.p


def poly_to_json(f: Poly) -> list:
    return [element_to_json(f.ring, c) for c in f.coeffs]


def poly_from_json(coeffs: list, R) -> Poly:
    if not isinstance(coeffs, list):
        raise ValueError(f"expected a JSON array of coefficients, got {coeffs!r}")
    return Poly(R, [element_from_json(R, c) for c in coeffs])
