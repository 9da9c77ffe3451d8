"""Exact integer utilities: primality, trial division, perfect squares.

Everything here is deterministic.  Miller-Rabin uses the witness set that
is known to be correct for all n < 2**64; larger inputs never appear in
practice (resultant supports are extracted by trial division first), but
if one did we raise rather than guess.
"""

from __future__ import annotations

from math import isqrt

# Deterministic Miller-Rabin witnesses, valid for all n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= 2**64:
        raise ValueError("deterministic primality certified only below 2**64")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Trial division of |n| by the integers below ``bound``; returns
    ({prime: exponent}, cofactor).

    Stops once d*d > n.  What is left then is 1 or a prime; a prime below
    the bound counts as a factor, one at or above it stays the cofactor.
    The factorization is complete when the cofactor is 1.
    """
    n = abs(n)
    out: dict[int, int] = {}
    if n == 0:
        return out, 0
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over 2,3,5 residues
    incr = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d < bound and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += incr[i]
        i = (i + 1) % 8
    if 1 < n < bound:
        out[n], n = 1, 1
    return out, n


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
