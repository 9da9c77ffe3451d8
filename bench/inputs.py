"""Seeded inputs for the benchmark workloads, made without the program's
finite-field code.

Reconstruction cases are (family, p, t) with p a prime in [51, 8192) and t
valid for the family.  The cost of one case depends mostly on two
properties of the input: p mod 3, and the degree m of the field over which
the 2-torsion of the family's elliptic curves is defined (m = 1, 2 or 3;
lcm over the two curves).  Every pass therefore holds a fixed number of
cases of each (p mod 3, m) class per family, in the proportions a uniform
draw gives on average, and the primes of one class are spread over
[51, 8192) by drawing each from its own stretch of that range.  This keeps
the total work of a pass nearly the same from seed to seed while the seed
still chooses every p and t.

The class of a case is computed here with a small polynomial routine over
F_p, from the family's Weierstrass models; the program's own fields,
caches and root finders are not touched before the timed phase starts.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

P_LO, P_HI = 51, 8192

# Cases per family and (p mod 3, m) class: 25 per family, 100 in all.  For odd isogeny
# degree the 2-torsion discriminant is a square, so the cubic either splits
# (m = 1) or is irreducible (m = 3, two times in three); for even degree
# the cubic has a rational root, so m is 1 or 2 about equally often.
QUOTAS = {
    "odd": {(1, 1): 4, (1, 3): 8, (2, 1): 5, (2, 3): 8},
    "even": {(1, 1): 6, (1, 2): 6, (2, 1): 6, (2, 2): 7},
}

RESULTANT_SHAPES = {
    # name: (degree of a, degree of b, decimal digits of every coefficient)
    "tall": (4, 6, 3000),
    "wide": (120, 80, 20),
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2**64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= 2**64:
        raise ValueError("primality is certified only below 2**64")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_primes() -> list[int]:
    """The two largest primes below 2**61: far outside the 30-bit primes
    the CRT resultant uses, so a residue check modulo them is independent."""
    out = []
    n = 2**61 - 1
    while len(out) < 2:
        if is_prime(n):
            out.append(n)
        n -= 2
    return out


# ---------------------------------------------------------------------------
# arithmetic mod p on the family's rational data
# ---------------------------------------------------------------------------


def _mod(c, p: int) -> int:
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def eval_mod(poly, x: int, p: int) -> int:
    """Value mod p of a polynomial with int/Fraction coefficients."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * x + _mod(c, p)) % p
    return acc


def _mulmod_cubic(u, v, f, p):
    """Product of residues (c0, c1, c2) modulo the monic cubic
    x^3 + f[2] x^2 + f[1] x + f[0]."""
    w = [0] * 5
    for i in range(3):
        for j in range(3):
            w[i + j] += u[i] * v[j]
    for k in (4, 3):
        c = w[k] % p
        w[k] = 0
        w[k - 1] -= c * f[2]
        w[k - 2] -= c * f[1]
        w[k - 3] -= c * f[0]
    return (w[0] % p, w[1] % p, w[2] % p)


def _gcd_degree(a, b, p):
    """Degree of gcd over F_p of two coefficient lists (low to high)."""

    def trim(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - q * bi) % p
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def cubic_root_count(f, p: int) -> int:
    """Distinct roots in F_p of the monic cubic x^3 + f[2] x^2 + f[1] x + f[0]:
    the degree of gcd(x^p - x, f)."""
    result, base, e = (1, 0, 0), (0, 1, 0), p
    while e:
        if e & 1:
            result = _mulmod_cubic(result, base, f, p)
        e >>= 1
        if e:
            base = _mulmod_cubic(base, base, f, p)
    diff = [result[0], result[1] - 1, result[2]]
    if not any(c % p for c in diff):
        return 3
    return _gcd_degree(list(f) + [1], diff, p)


def _cubic_disc(f, p):
    c, b, a = f  # x^3 + a x^2 + b x + c
    return (a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c) % p


_ROOTS_TO_DEGREE = {3: 1, 1: 2, 0: 3}


def case_class(spec, p: int, t: int):
    """The (p mod 3, m) class of a reconstruction case, or None when t is
    not a valid parameter mod p."""
    try:
        if eval_mod(spec.validity_t, t, p) * eval_mod(spec.validity_t, -t % p, p) % p == 0:
            return None
        s = eval_mod(spec.s_of_t, t, p)
        m = 1
        for model in (spec.e_model, spec.eprime_model):
            a2, a4, a6 = (eval_mod(c, s, p) for c in model)
            cubic = (a6, a4, a2)
            if _cubic_disc(cubic, p) == 0:
                return None
            m = lcm(m, _ROOTS_TO_DEGREE[cubic_root_count(cubic, p)])
    except ZeroDivisionError:
        return None
    return (p % 3, m)


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def _slots(specs):
    """Per class, the families that draw from it, interleaved so that the
    stretches of [51, 8192) alternate between families."""
    by_class = {}
    for spec in specs:
        for cls, count in QUOTAS[spec.parity].items():
            by_class.setdefault(cls, []).append([spec, count])
    out = {}
    for cls, pending in sorted(by_class.items()):
        order = []
        while any(n for _, n in pending):
            for entry in pending:
                if entry[1]:
                    order.append(entry[0])
                    entry[1] -= 1
        out[cls] = order
    return out


def _sieve(n: int) -> list[bool]:
    flags = [True] * n
    flags[0] = flags[1] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, n, i))
    return flags


def _draw_case(rng, spec, cls, lo, hi, used, prime_flags):
    r = cls[0]
    primes = [q for q in range(lo, hi) if prime_flags[q] and q % 3 == r and q not in used]
    rng.shuffle(primes)
    for p in primes:
        for _ in range(64):
            t = rng.randrange(1, p)
            if case_class(spec, p, t) == cls:
                return p, t
    return None


def reconstruct_cases(specs, seed: int) -> list[dict]:
    """Seeded reconstruction cases: QUOTAS per family, distinct primes."""
    rng = random.Random(f"reconstruct:{seed}")
    prime_flags = _sieve(P_HI)
    used = set()
    cases = []
    for cls, order in _slots(specs).items():
        width = (P_HI - P_LO) / len(order)
        for j, spec in enumerate(order):
            lo = P_LO + int(width * j)
            hi = P_LO + int(width * (j + 1))
            # the middle half of the stretch first, then all of it
            quarter = int(width / 4)
            found = _draw_case(
                rng, spec, cls, lo + quarter, hi - quarter, used, prime_flags
            ) or _draw_case(rng, spec, cls, lo, hi, used, prime_flags)
            if found is None:
                raise RuntimeError(f"no {spec.id} case of class {cls} in [{lo}, {hi})")
            p, t = found
            used.add(p)
            cases.append({"family": spec.id, "p": p, "t": t, "p_mod_3": cls[0], "m": cls[1]})
    rng.shuffle(cases)
    return cases


def resultant_pairs(seed: int) -> dict:
    """Seeded integer polynomial pairs, as coefficient lists (low to high),
    every coefficient with exactly the shape's number of digits."""
    rng = random.Random(f"resultant:{seed}")
    out = {}
    for name, (da, db, digits) in RESULTANT_SHAPES.items():
        lo, hi = 10 ** (digits - 1), 10**digits

        def draw(deg):
            return [rng.choice((1, -1)) * rng.randrange(lo, hi) for _ in range(deg + 1)]

        out[name] = (draw(da), draw(db))
    return out
