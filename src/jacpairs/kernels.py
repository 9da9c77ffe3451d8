"""Benchmark-facing resultant names, delegating to ``exact.poly``.

This module exists only for the benchmark, which calls and traces these
names; the package itself uses ``exact.poly.resultant``, its one resultant
over Z and its one over a field.  The benchmark change of ROADMAP item 5
points the benchmark at ``poly.resultant`` and retires this module.
"""
from __future__ import annotations

from .exact.poly import Poly, resultant
from .exact.rings import GF, ZZ


def kernel_backend() -> str:
    """Always "python"; benchmark records report it next to their timings."""
    return "python"


def resultant_mod_p(a_coeffs, b_coeffs, p: int) -> int:
    """``poly.resultant`` over GF(p) of two polynomials given as dense
    coefficient sequences with index = degree; p an odd prime < 2**31."""
    if not (2 < p < 2**31):
        raise ValueError("prime out of kernel range")
    a = [int(c) % p for c in a_coeffs]
    b = [int(c) % p for c in b_coeffs]
    if not a or not b or a[-1] == 0 or b[-1] == 0:
        raise ValueError("inputs must be dense with nonzero leading entry")
    F = GF(p)
    return resultant(Poly(F, a), Poly(F, b))


def resultant_int_crt(a: Poly, b: Poly) -> int:
    """``poly.resultant`` of two nonzero integer polynomials, the
    subresultant PRS over Z."""
    if a.ring is not ZZ or b.ring is not ZZ:
        raise TypeError("integer polynomials required")
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    return resultant(a, b)
