"""JSON encoding of field descriptors, field elements, and polynomials.

Schema: a polynomial is a JSON array of coefficient encodings with index =
degree.  Integer and rational coefficients are decimal strings ("-3/7"
allowed); prime-field elements are decimal strings; extension-field elements
are objects {"p": "...", "degree": m, "coeffs": ["...", ...]}.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .rings import ZZ, ExtField, IntegerRing, PrimeField, RationalField


def field_to_json(R) -> dict:
    if isinstance(R, IntegerRing):
        return {"type": "Z"}
    if isinstance(R, RationalField):
        return {"type": "Q"}
    if isinstance(R, PrimeField):
        return {"type": "Fp", "p": str(R.p)}
    if isinstance(R, ExtField):
        return {
            "type": "Fq",
            "p": str(R.p),
            "degree": R.m,
            "modulus": [str(c) for c in R.modulus],
        }
    raise TypeError(f"no JSON form for ring {R!r}")


def element_to_json(R, a):
    if isinstance(R, (IntegerRing, RationalField, PrimeField)):
        return str(a)
    if isinstance(R, ExtField):
        return {"p": str(R.p), "degree": R.m, "coeffs": [str(c) for c in a]}
    raise TypeError(f"no JSON form for elements of {R!r}")


def element_from_json(R, obj):
    if isinstance(R, (IntegerRing, RationalField, PrimeField)) and type(obj) not in (str, int):
        raise ValueError(f"expected a decimal string or integer as an element of {R!r}, got {obj!r}")
    if isinstance(R, IntegerRing):
        return int(obj)
    if isinstance(R, RationalField):
        return Fraction(str(obj).replace("−", "-"))
    if isinstance(R, PrimeField):
        return int(obj) % R.p
    if isinstance(R, ExtField):
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object as an element of {R.name}, got {obj!r}")
        missing = [key for key in ("p", "degree", "coeffs") if key not in obj]
        if missing:
            raise ValueError(f"element of {R.name} lacks {', '.join(missing)}")
        if not isinstance(obj["coeffs"], list):
            raise ValueError(f"expected a JSON array of coefficients, got {obj['coeffs']!r}")
        if [element_from_json(ZZ, obj[key]) for key in ("p", "degree")] != [R.p, R.m]:
            raise ValueError("element does not belong to this field")
        coeffs = [element_from_json(R.base, c) for c in obj["coeffs"]]
        if len(coeffs) > R.m:
            raise ValueError(f"{len(coeffs)} coefficients for an element of {R.name}")
        return tuple(coeffs) + (0,) * (R.m - len(coeffs))
    raise TypeError(f"cannot parse elements of {R!r}")


def poly_to_json(f: Poly) -> list:
    return [element_to_json(f.ring, c) for c in f.coeffs]


def poly_from_json(coeffs: list, R) -> Poly:
    if not isinstance(coeffs, list):
        raise ValueError(f"expected a JSON array of coefficients, got {coeffs!r}")
    return Poly(R, [element_from_json(R, c) for c in coeffs])
