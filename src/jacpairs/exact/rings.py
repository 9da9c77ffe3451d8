"""Coefficient rings and fields.

A ring is an object exposing arithmetic on *plain* element values
(int for ZZ and prime fields, Fraction for QQ, coefficient tuples for
extension fields).  Elements are always kept in canonical form, so
``==`` on values is equality in the ring.  All rings are immutable and
all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .integers import is_perfect_square, is_prime, squarefree_part


class IntegerRing:
    """Z with exact division."""

    is_field = False
    char = 0
    zero = 0
    one = 1
    name = "ZZ"

    def from_int(self, k):
        return int(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def divexact(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError(f"inexact division {a} / {b} in ZZ")
        return q

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return int(s)

    def __repr__(self):
        return "ZZ"


class RationalField:
    is_field = True
    char = 0
    zero = Fraction(0)
    one = Fraction(1)
    name = "QQ"

    def from_int(self, k):
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0 in QQ")
        return Fraction(a) / b

    divexact = div

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def pow(self, a, n):
        return Fraction(a) ** n

    def is_square(self, a):
        a = Fraction(a)
        return a >= 0 and is_perfect_square(a.numerator) and is_perfect_square(a.denominator)

    def squarefree_part(self, a):
        a = Fraction(a)
        if a == 0:
            raise ValueError("squarefree part of zero")
        # a = d * m^2 with d squarefree integer (denominator absorbed as den/den^2)
        return Fraction(squarefree_part(a.numerator * a.denominator))

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return Fraction(str(s).replace("−", "-"))

    def __repr__(self):
        return "QQ"


ZZ = IntegerRing()
QQ = RationalField()


class PrimeField:
    """F_p for an odd prime p; elements are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p == 2:
            raise ValueError("characteristic 2 is out of scope")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.degree = 1
        self.order = p
        self.zero = 0
        self.one = 1
        self.name = f"GF({p})"

    def from_int(self, k):
        return k % self.p

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    divexact = div

    def pow(self, a, n):
        return pow(a, n, self.p)

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def is_square(self, a):
        # Euler criterion; 0 counts as a square.
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        """A square root, or None.  Tonelli-Shanks, deterministic search for the non-residue."""
        p = self.p
        if a == 0:
            return 0
        if not self.is_square(a):
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def elements(self):
        return range(self.p)

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def _poly_mulmod(a, b, modulus, p):
    """Product of coefficient tuples reduced mod (modulus, p); modulus monic."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    return tuple(prod[:m]) if len(prod) >= m else tuple(prod) + (0,) * (m - len(prod))


def _tuple_powmod(a, n, modulus, p):
    m = len(modulus) - 1
    result = (1,) + (0,) * (m - 1)
    base = a
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, modulus, p)
        n >>= 1
        if n:
            base = _poly_mulmod(base, base, modulus, p)
    return result


def _is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial (coefficient tuple, low-to-high)
    over F_p, by Rabin's criterion: x^(p^m) == x mod f, and for every prime
    q dividing m, gcd(x^(p^(m/q)) - x, f) = 1.  (The weaker check
    x^(p^(m/q)) != x mod f admits reducible inputs whose factor degrees
    divide m but not m/q, e.g. degrees {1,2,3} for m = 6.)"""
    from .poly import Poly, gcd_field  # poly imports this module

    m = len(coeffs) - 1
    if m == 1:
        return True
    F = GF(p)
    x = (0, 1) + (0,) * (m - 2)
    xq = x
    for _ in range(m):
        xq = _tuple_powmod(xq, p, coeffs, p)
    if xq != x:
        return False
    for q in set(factor for factor in (2, 3, 5) if m % factor == 0):
        xq = x
        for _ in range(m // q):
            xq = _tuple_powmod(xq, p, coeffs, p)
        diff = list(xq)
        diff[1] = (diff[1] - 1) % p
        if gcd_field(Poly(F, coeffs), Poly(F, diff)).degree > 0:
            return False
    return True


def _has_irreducible_binomial(p: int, m: int) -> bool:
    """Whether some x^m + c is irreducible over F_p (m >= 2): iff every
    prime factor of m divides p - 1, and p = 1 mod 4 when 4 | m
    (Lidl-Niederreiter, Finite Fields, Thm 3.75, with c = -a for a
    primitive root a)."""
    if m % 4 == 0 and p % 4 != 1:
        return False
    return all((p - 1) % q == 0 for q in (2, 3, 5) if m % q == 0)


@lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple:
    """Smallest monic irreducible of degree m over F_p, lexicographic on
    (c_0, c_1, ..., c_{m-1}) read as digits with c_0 least significant.
    Deterministic so that every run builds the same F_{p^m}.

    The first p candidates are the binomials x^m + c.  When none of them
    can be irreducible (`_has_irreducible_binomial`), the walk starts at
    x^m + x instead: the result is the same, without ~p Rabin tests."""
    if m == 1:
        return (0, 1)
    start = 0 if _has_irreducible_binomial(p, m) else p
    for n in range(start, p**m):
        digits = []
        k = n
        for _ in range(m):
            digits.append(k % p)
            k //= p
        cand = tuple(digits) + (1,)
        if cand[0] != 0 and _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ExtField:
    """F_{p^m}: residues of F_p[x] mod a fixed monic irreducible of degree m.

    Elements are coefficient tuples of length m (low to high degree).
    The modulus is chosen deterministically per (p, m), so representations
    are reproducible across runs.
    """

    is_field = True

    def __init__(self, p: int, m: int, modulus: tuple | None = None):
        if m < 1 or m > 6:
            raise ValueError("extension degrees above 6 are out of scope")
        self.base = GF(p)
        self.p = p
        self.m = m
        self.degree = m
        self.char = p
        self.order = p**m
        if modulus is None:
            self.modulus = _default_modulus(p, m)
        else:
            self.modulus = tuple(modulus)
            if len(self.modulus) != m + 1 or self.modulus[m] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(self.modulus, p):
                raise ValueError("modulus is reducible")
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.gen = (0, 1) + (0,) * (m - 2) if m > 1 else (1,)
        self.name = f"GF({p}^{m})"

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.m - 1)

    def from_base(self, a):
        return (a % self.p,) + (0,) * (self.m - 1)

    def in_base(self, a):
        """The F_p value of a, or None if a is not in the prime subfield."""
        if all(c == 0 for c in a[1:]):
            return a[0]
        return None

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        return _poly_mulmod(a, b, self.modulus, self.p)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return _tuple_powmod(a, n, self.modulus, self.p)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    divexact = div

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def is_square(self, a):
        return a == self.zero or self.pow(a, (self.order - 1) // 2) == self.one

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        p, m = self.p, self.m
        for n in range(self.order):
            digits = []
            k = n
            for _ in range(m):
                digits.append(k % p)
                k //= p
            yield tuple(digits)

    def to_str(self, a):
        return "[" + ",".join(str(c) for c in a) + "]"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.m, self.modulus))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def GFext(p: int, m: int) -> ExtField:
    return ExtField(p, m)
