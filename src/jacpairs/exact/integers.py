"""Exact integer utilities: primality, factorization, squarefree parts.

Everything here is deterministic.  Miller-Rabin uses the witness set that
is known to be correct for all n < 2**64; larger inputs never appear in
practice (resultant supports are extracted by trial division first), but
if one did we raise rather than guess.
"""

from __future__ import annotations

from math import gcd, isqrt

# Deterministic Miller-Rabin witnesses, valid for all n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10**6


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


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    # Deterministic sequence of (c, x0) seeds; every composite below the
    # sizes we meet splits within a few seeds.
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed to split {n}")


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


def factorize(n: int) -> dict[int, int]:
    """Full factorization of |n| as {prime: exponent}.

    Trial division up to 10**6, then Pollard rho with deterministic
    Miller-Rabin on the cofactors.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    out, n = trial_division(n, _TRIAL_BOUND)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def squarefree_part(n: int) -> int:
    """The squarefree d with n = d * m**2, sign preserved."""
    if n == 0:
        raise ValueError("squarefree part of zero is undefined")
    sign = -1 if n < 0 else 1
    d = sign
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return d


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
