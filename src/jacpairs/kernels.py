"""Modular resultant kernel and the CRT integer resultant built on it.

The hot loop is the Euclidean resultant of two dense polynomials over F_p
with p < 2**31, run on plain coefficient lists.  On top of it,
``resultant_int_crt`` evaluates integer resultants by Chinese remaindering
over 30-bit primes up to the Hadamard bound; this is how very large integer
resultants stay feasible.
"""
from __future__ import annotations

import math

from .exact.integers import is_prime
from .exact.poly import Poly
from .exact.rings import ZZ


def kernel_backend() -> str:
    """The resultant kernel in use.  There is only the pure-Python one; the
    name stays because benchmark records report it next to their timings."""
    return "python"


def resultant_mod_p(a_coeffs, b_coeffs, p: int) -> int:
    """Resultant of two nonzero polynomials over F_p, given as dense
    coefficient sequences with index = degree; p an odd prime < 2**31."""
    if not (2 < p < 2**31):
        raise ValueError("prime out of kernel range")
    a = [int(c) % p for c in a_coeffs]
    b = [int(c) % p for c in b_coeffs]
    if not a or not b or a[-1] == 0 or b[-1] == 0:
        raise ValueError("inputs must be dense with nonzero leading entry")
    da = len(a) - 1
    db = len(b) - 1
    if da == 0:
        return pow(a[0], db, p)
    if db == 0:
        return pow(b[0], da, p)
    res = 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if (da % 2) and (db % 2):
            sign = -sign
    while db > 0:
        # remainder of a modulo b
        inv = pow(b[db], -1, p)
        r = list(a)
        for i in range(da, db - 1, -1):
            coef = r[i] * inv % p
            if coef:
                off = i - db
                for j in range(db + 1):
                    r[off + j] = (r[off + j] - coef * b[j]) % p
        dr = db - 1
        while dr >= 0 and r[dr] == 0:
            dr -= 1
        if dr < 0:
            return 0
        res = res * pow(b[db], da - dr, p) % p
        if (da % 2) and (db % 2):
            sign = -sign
        a, da = b, db
        b, db = r[: dr + 1], dr
    res = res * pow(b[0], da, p) % p
    return (p - res) % p if sign < 0 else res


def _hadamard_bound(a: Poly, b: Poly) -> int:
    na = math.isqrt(sum(c * c for c in a.coeffs)) + 1
    nb = math.isqrt(sum(c * c for c in b.coeffs)) + 1
    return na**b.degree * nb**a.degree


# The primes above 2^30 found so far, in increasing order; ``_crt_primes``
# extends the list on demand, so each is tested once per process.
_CRT_PRIMES: list = []


def _crt_primes():
    """The primes above 2^30 in increasing order, an endless stream."""
    i = 0
    while True:
        if i == len(_CRT_PRIMES):
            n = _CRT_PRIMES[-1] + 2 if _CRT_PRIMES else 2**30 + 1
            while not is_prime(n):
                n += 2
            _CRT_PRIMES.append(n)
        yield _CRT_PRIMES[i]
        i += 1


def resultant_int_crt(a: Poly, b: Poly) -> int:
    """Resultant of two integer polynomials via CRT over 30-bit primes.

    Exact: residues are combined up to twice the Hadamard bound, then lifted
    symmetrically.  Primes dividing either leading coefficient are skipped so
    degrees never drop modulo p.
    """
    if a.ring is not ZZ or b.ring is not ZZ:
        raise TypeError("integer polynomials required")
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if a.degree == 0:
        return a.lc() ** b.degree
    if b.degree == 0:
        return b.lc() ** a.degree
    bound = 2 * _hadamard_bound(a, b) + 1
    modulus = 1
    residue = 0
    for p in _crt_primes():
        if a.lc() % p == 0 or b.lc() % p == 0:
            continue
        rp = resultant_mod_p(a.coeffs, b.coeffs, p)
        # CRT combine
        inv = pow(modulus, -1, p) if modulus > 1 else 1
        if modulus == 1:
            residue, modulus = rp, p
        else:
            k = (rp - residue) % p * inv % p
            residue += modulus * k
            modulus *= p
        if modulus >= bound:
            break
    half = modulus // 2
    return residue - modulus if residue > half else residue
