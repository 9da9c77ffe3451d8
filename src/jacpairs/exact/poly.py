"""Dense univariate polynomials over an arbitrary coefficient ring.

A Poly stores its coefficient tuple low-to-high with no trailing zeros;
the zero polynomial has an empty tuple and degree -1.  The coefficient
ring is one of the objects from .rings (or a PolyRing, so Z[t][x] style
nesting works, which is how discriminants of sextics with polynomial
coefficients are computed).

``Poly(ring, coeffs)`` is the one constructor: the coefficients must
already be canonical elements of the ring, and trailing zeros are dropped.
Python ints come in through ``Poly.from_ints`` or as operands of the
arithmetic operators, which map them into the ring.

Operator overloading is deliberate: family data and Table-1 entries are
entered as literal formulas, e.g. ``(s + 16)**3``, which keeps the
transcription honest.

Products over GF(p) and ZZ, whose elements are plain ints, and long
division over GF(p) run on ints with delayed reduction (von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 2 and 4): raw products and
differences accumulate as ints, and over GF(p) each coefficient is taken
``% p`` once, where it is read.  Reduction mod p is a ring homomorphism
from Z onto F_p, so this gives the same canonical coefficients in [0, p) as
``PrimeField``'s methods, which reduce after every step.  The ring alone
picks the loop (``_int_modulus``).  GF(p^m), Q and Z[t] run on the ring's
methods, and so does division over ZZ, whose quotient coefficients are
exact divisions that must be able to fail.
"""

from __future__ import annotations

from itertools import chain
from math import gcd as int_gcd

from .integers import is_prime
from .rings import GF, ZZ, PrimeField, ring_pow


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and ring.is_zero(coeffs[n - 1]):
            n -= 1
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial (distinguished sentinel)."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    @staticmethod
    def zero(ring):
        return Poly(ring, [])

    @staticmethod
    def one(ring):
        return Poly(ring, [ring.one])

    @staticmethod
    def gen(ring):
        return Poly(ring, [ring.zero, ring.one])

    @staticmethod
    def constant(ring, c):
        return Poly(ring, [c])

    @staticmethod
    def from_ints(ring, ints):
        return Poly(ring, [ring.from_int(c) for c in ints])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise TypeError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return Poly(self.ring, [self.ring.from_int(other)])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = R.add(out[i], c)
        return Poly(R, out)

    __radd__ = __add__

    def __neg__(self):
        R = self.ring
        return Poly(R, [R.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product.  Over GF(p) and ZZ the coefficients are convolved as
        plain ints and each output coefficient is taken mod p once (over ZZ
        not at all), which gives the canonical coefficients the ring's own
        ``mul`` and ``add`` give; every other ring runs on those methods."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(R)
        p = _int_modulus(R)
        if p is None:
            out = [R.zero] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if R.is_zero(ai):
                    continue
                for j, bj in enumerate(b):
                    out[i + j] = R.add(out[i + j], R.mul(ai, bj))
            return Poly(R, out)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                k = i
                for bj in b:
                    out[k] += ai * bj
                    k += 1
        return Poly(R, [c % p for c in out] if p else out)

    __rmul__ = __mul__

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return Poly.zero(R)
        return Poly(R, [R.mul(c, a) for a in self.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return ring_pow(PolyRing(self.ring), self, n)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # -- structural operations ----------------------------------------------

    def evaluate(self, x):
        """Horner evaluation at a ring element (or a Poly over the same ring)."""
        R = self.ring
        if isinstance(x, Poly):
            acc = Poly.zero(x.ring)
            for c in reversed(self.coeffs):
                acc = acc * x + Poly.constant(x.ring, c)
            return acc
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, x), c)
        return acc

    def map_coeffs(self, new_ring, func):
        return Poly(new_ring, [func(c) for c in self.coeffs])

    def derivative(self):
        R = self.ring
        return Poly(R, [R.mul(R.from_int(i), c) for i, c in enumerate(self.coeffs)][1:])

    def substitute_neg(self):
        """f(-x)."""
        R = self.ring
        return Poly(R, [c if i % 2 == 0 else R.neg(c) for i, c in enumerate(self.coeffs)])

    def substitute_square(self):
        """f(x^2)."""
        R = self.ring
        out = [R.zero] * max(2 * len(self.coeffs) - 1, 0)
        out[::2] = self.coeffs
        return Poly(R, out)

    def monic(self):
        R = self.ring
        if not R.is_field:
            raise TypeError("monic requires field coefficients")
        if self.is_zero():
            raise ValueError("monic of zero polynomial")
        if R.is_one(self.lc()):
            return self
        inv = R.inv(self.lc())
        return Poly(R, [R.mul(inv, c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "Poly<0>"
        R = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if R.is_zero(c):
                continue
            cs = R.to_str(c)
            parts.append(f"({cs})*x^{i}" if i else f"({cs})")
        return "Poly<" + " + ".join(parts) + ">"


def _int_modulus(R):
    """p for GF(p) and 0 for ZZ, the rings whose products (and, for GF(p),
    divisions) run on plain ints; None for every other ring.  A subclass of
    ``PrimeField`` is not GF(p) here: it may override the arithmetic that the
    int loops reproduce."""
    if R is ZZ:
        return 0
    return R.p if type(R) is PrimeField else None


class PolyRing:
    """The ring R[x] presented through the ring protocol, so Poly can be
    used as a coefficient ring for another Poly."""

    is_field = False

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.zero = Poly.zero(base)
        self.one = Poly.one(base)
        self.name = f"{getattr(base, 'name', base)}[x]"

    def from_int(self, k):
        return Poly(self.base, [self.base.from_int(k)])

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def divexact(self, a, b):
        q, r = poly_divmod(a, b)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def is_zero(self, a):
        return a.is_zero()

    def is_one(self, a):
        return a == self.one

    def to_str(self, a):
        return repr(a)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("PolyRing", self.base))

    def __repr__(self):
        return self.name


# -- parity -------------------------------------------------------------------


def parity_split(f: Poly):
    """(k, E) with f = x^k E(x^2) and k = deg f mod 2, so that
    f(-x) = (-1)^k f(x).  Raises ArithmeticError if some term of f has the
    other parity: a caller working on the half E checks the symmetry instead
    of assuming it."""
    if f.is_zero():
        raise ValueError("parity of the zero polynomial")
    k = f.degree % 2
    if any(not f.ring.is_zero(c) for c in f.coeffs[1 - k :: 2]):
        raise ArithmeticError(f"{f!r} has terms of both parities")
    return k, Poly(f.ring, f.coeffs[k::2])


# -- division -----------------------------------------------------------------


def poly_divmod(a: Poly, b: Poly):
    """(q, r) with a = q b + r and deg r < deg b, by long division.

    Over GF(p) the division runs on plain ints (``_divmod_mod_p``): lc(b)
    is inverted once, the remainder entries stay unreduced, and each is taken
    mod p once, where it is read; since q and r are unique, they are the ones
    the ring's own methods give.  Over every other ring: no coefficient is
    divided when lc(b) = 1; over a field lc(b) is inverted once; over any
    other ring each quotient coefficient is the exact division by lc(b),
    which raises ArithmeticError if it is not.
    A remainder of degree >= deg b, which only a ring whose arithmetic is
    broken leaves (the quotient coefficient times lc(b) failed to cancel a
    leading term), raises ArithmeticError too, so that no caller loops on it.
    """
    R = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(R), a
    p = _int_modulus(R)
    if p:
        q, rem = _divmod_mod_p(a.coeffs, b.coeffs, p)
    else:
        q, rem = _divmod_ring(a, b)
    r = Poly(R, rem)
    if r.degree >= b.degree:
        raise ArithmeticError(f"a leading term did not cancel in {R!r}: its arithmetic is broken")
    return Poly(R, q), r


def _divmod_mod_p(ac, bc, p):
    """The quotient and remainder coefficient lists of ac by bc over GF(p),
    for canonical ints with len(ac) >= len(bc): one ``pow`` inverts lc(b);
    each step subtracts c x^i b from the unreduced remainder entries, and an
    entry is taken mod p only where it is read: the top one of each step for
    the quotient coefficient c, the deg b low ones at the end."""
    db = len(bc) - 1
    low = bc[:db]
    inv_lc = pow(bc[-1], -1, p)
    rem = list(ac)
    q = [0] * (len(ac) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db] * inv_lc % p
        if c:
            q[i] = c
            k = i
            for bj in low:
                rem[k] -= c * bj
                k += 1
    return q, [c % p for c in rem[:db]]


def _divmod_ring(a: Poly, b: Poly):
    """The quotient and remainder coefficient lists of a by b, by the
    ring's own methods (``poly_divmod`` over any ring but GF(p))."""
    R = a.ring
    rem = list(a.coeffs)
    q = [R.zero] * (a.degree - b.degree + 1)
    blc = b.lc()
    monic = R.is_one(blc)
    inv_lc = R.inv(blc) if R.is_field and not monic else None
    bc = b.coeffs
    for i in range(len(rem) - len(bc), -1, -1):
        c = rem[i + len(bc) - 1]
        if R.is_zero(c):
            continue
        if monic:
            factor = c
        elif inv_lc is not None:
            factor = R.mul(c, inv_lc)
        else:
            factor = R.divexact(c, blc)
        q[i] = factor
        for j, bj in enumerate(bc):
            rem[i + j] = R.sub(rem[i + j], R.mul(factor, bj))
    return q, rem


def pseudo_rem(a: Poly, b: Poly):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + r, deg r < deg b."""
    R = a.ring
    da, db = a.degree, b.degree
    if db < 0:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    e = da - db + 1
    if e <= 0:
        return a
    rem = list(a.coeffs)
    bc = b.coeffs
    blc = b.lc()
    monic = R.is_one(blc)
    while len(rem) - 1 >= db and rem:
        lead = rem[-1]
        shift_amt = len(rem) - 1 - db
        rem = rem[:-1] if monic else [R.mul(blc, c) for c in rem[:-1]]
        for j in range(db):
            rem[shift_amt + j] = R.sub(rem[shift_amt + j], R.mul(lead, bc[j]))
        while rem and R.is_zero(rem[-1]):
            rem.pop()
        e -= 1
    out = Poly(R, rem)
    if e > 0 and not monic:
        out = out.scale(ring_pow(R, blc, e))
    return out


def gcd_field(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field, by Euclid's algorithm.  Integral data take
    ``_gcd_primitive_int`` in Z[x] instead."""
    if not a.ring.is_field:
        raise TypeError("gcd_field requires field coefficients")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def _gcd_primitive_int(a: Poly, b: Poly) -> Poly:
    """The gcd in Z[x] of the primitive parts of a and b, primitive with a
    positive leading coefficient, by the primitive PRS (Brown 1971): each
    remainder is the primitive part of a pseudo-remainder."""
    a, b = primitive_part_int(a)[1], primitive_part_int(b)[1]
    while not b.is_zero():
        a, b = b, primitive_part_int(pseudo_rem(a, b))[1]
    return a


def content_int(a: Poly) -> int:
    """Content of a Z-polynomial (nonnegative)."""
    c = 0
    for x in a.coeffs:
        c = int_gcd(c, x)
    return c


def primitive_part_int(a: Poly):
    """(content-with-sign, primitive part) for a Z-polynomial; lc(primitive) > 0."""
    if a.is_zero():
        return 0, a
    c = content_int(a)
    if a.lc() < 0:
        c = -c
    return c, Poly(ZZ, [x // c for x in a.coeffs])


# -- resultants ---------------------------------------------------------------


def _resultant_field_euclid(a: Poly, b: Poly):
    R = a.ring
    res = R.one
    sign = 1
    while True:
        if b.degree == 0:
            if a.degree > 0:
                res = R.mul(res, ring_pow(R, b.lc(), a.degree))
            break
        r = poly_divmod(a, b)[1]
        if r.is_zero():
            return R.zero
        if (a.degree * b.degree) % 2:
            sign = -sign
        res = R.mul(res, ring_pow(R, b.lc(), a.degree - r.degree))
        a, b = b, r
    if sign < 0:
        res = R.neg(res)
    return res


def _resultant_subresultant(a: Poly, b: Poly) -> int:
    """Fraction-free subresultant PRS resultant over Z (Collins 1967;
    Brown-Traub 1971): each remainder is the pseudo-remainder divided
    exactly by g h^delta.

    That division is 2-adic (Jebelean 1993, ``_prem_quotient_int``):
    neither the pseudo-remainder nor a division remainder is ever formed, so
    instead of a remainder test the value is checked against the resultant
    over GF(q) of the operands reduced mod a prime q near 2^61
    (``_check_mod_q``), and a disagreement raises ArithmeticError."""
    operands = (a, b)
    sign = 1
    if a.degree < b.degree:
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        a, b = b, a
    g = h = 1
    while b.degree > 0:
        delta = a.degree - b.degree
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        a, b = b, _prem_quotient_int(a, b, g * h**delta)
        g = a.lc()
        if delta > 0:
            h = ZZ.divexact(g**delta, h ** (delta - 1))
    if b.is_zero():
        res = 0
    else:
        d = a.degree
        res = sign * ZZ.divexact(b.lc() ** d, h ** (d - 1))
    _check_mod_q(*operands, res)
    return res


def _prem_bits(lead_power, quotient, a_low, b_low):
    """A bit length B with |N_i| < 2^B for every coefficient of
    N = lead_power * a - sum_s quotient[s] x^s b below x^(deg b), from the
    bit lengths of the operands alone: each N_i is a sum of at most
    T = len(quotient) + 1 products below 2^X, so |N_i| < T 2^X, and
    T <= 2^bits(T - 1)."""
    bits = int.bit_length
    top = max(bits(lead_power) + max(map(bits, a_low)), max(map(bits, quotient)) + max(map(bits, b_low)))
    return top + len(quotient).bit_length()


def _inverse_mod_2k(d, k):
    """The inverse of an odd d modulo 2^k, in [0, 2^k), by the Newton lift
    x <- x (2 - d x), which doubles the number of correct low bits; at
    14 000 bits ``pow(d, -1, 2**k)`` takes tens of times as long."""
    precisions = [k]
    while precisions[-1] > 3:
        precisions.append((precisions[-1] + 1) // 2)
    x = d & 7  # an odd d is its own inverse modulo 8
    for bits in reversed(precisions[:-1]):
        mask = (1 << bits) - 1
        x = x * (2 - (d & mask) * x) & mask
    return x & ((1 << k) - 1)


def _two_adic_content(coeffs):
    """The largest e such that 2^e divides every coefficient (not all zero)."""
    return min((c & -c).bit_length() for c in coeffs if c) - 1


def _prem_quotient_int(a: Poly, b: Poly, denom: int) -> Poly:
    """prem(a, b) / denom over Z, for a denom that divides the pseudo-
    remainder, by 2-adic exact division (Jebelean, J. Symb. Comp. 15, 1993).

    prem is homogeneous, of degree 1 in a and delta + 1 in b, for
    m = deg b and delta = deg a - m.  So the powers 2^e and 2^f dividing
    every coefficient of a and of b come out first, as 2^E with
    E = e + (delta + 1) f, and cancel against g h^delta; the chains of the
    paper's prime supports carry such powers in a third to a half of their
    bits.  The pseudo-quotient Q comes exactly from the top delta + 1
    coefficients of a (Q_s = lead_s lc(b)^s); the numerator
    N = lc(b)^(delta+1) a - Q b is never formed.  Its size bound B
    (``_prem_bits``) gives k = B - bits(denom) + 2, so that every quotient
    coefficient lies in (-2^(k-1), 2^(k-1)).  Each N_i is taken modulo
    2^(k+v), v = v_2(denom), from operands reduced first; its low v bits
    must be zero, and N_i / 2^v times the inverse of the odd part of denom
    modulo 2^k is the quotient modulo 2^k."""
    ac, bc = a.coeffs, b.coeffs
    m = len(bc) - 1
    delta = len(ac) - 1 - m
    e, f = _two_adic_content(ac), _two_adic_content(bc)
    ac, bc = [c >> e for c in ac], [c >> f for c in bc]
    v = (denom & -denom).bit_length() - 1
    shift = e + (delta + 1) * f
    cancelled = min(shift, v)
    denom >>= cancelled
    v -= cancelled
    shift -= cancelled
    blc = bc[-1]
    top = ac[m:]
    quotient = [0] * (delta + 1)
    for s in range(delta, -1, -1):
        lead = top[s]
        quotient[s] = lead * blc**s
        for j in range(s):
            top[j] *= blc
            if lead and m + j >= s:
                top[j] -= lead * bc[m + j - s]
    lead_power = blc ** (delta + 1)
    a_low, b_low = ac[:m], bc[:m]
    k = max(_prem_bits(lead_power, quotient, a_low, b_low) - denom.bit_length() + 2, 1)
    kv = k + v
    wide = (1 << kv) - 1

    def reduced(c):  # c mod 2^(k+v), in at most k + v bits
        return c & wide if c.bit_length() > kv else c

    lead_power, b_low = reduced(lead_power), [reduced(c) for c in b_low]
    terms = [(s, reduced(q)) for s, q in enumerate(quotient) if q]
    inv = _inverse_mod_2k(denom >> v, k)
    low, mask, half, full = (1 << v) - 1, (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    for i, ai in enumerate(a_low):
        n = lead_power * reduced(ai)
        for s, q in terms:
            if s > i:
                break
            n -= q * b_low[i - s]
        n &= wide
        if n & low:
            raise ArithmeticError("pseudo-remainder not divisible by g h^delta in ZZ")
        c = (n >> v) * inv & mask
        out.append((c - full if c >= half else c) << shift)
    return Poly(ZZ, out)


# the three largest primes below 2^61, which check the resultant over Z
_GUARD_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)


def _check_mod_q(a: Poly, b: Poly, res: int):
    """Raise ArithmeticError unless res is the resultant over GF(q) of a and b
    reduced mod q, for q the first prime of ``_GUARD_PRIMES`` (or else the
    next prime below them) that divides neither leading coefficient, so that
    reducing keeps both degrees."""
    la, lb = a.lc(), b.lc()
    below = (q for q in range(_GUARD_PRIMES[-1] - 2, 2, -2) if is_prime(q))
    q = next(q for q in chain(_GUARD_PRIMES, below) if la % q and lb % q)
    F = GF(q)
    mod_q = _resultant_field_euclid(*(Poly(F, [c % q for c in f.coeffs]) for f in (a, b)))
    if res % q != mod_q:
        raise ArithmeticError(f"resultant over ZZ disagrees with the resultant mod {q}")


def resultant(a: Poly, b: Poly):
    """Resultant of a and b over their coefficient ring, a field or ZZ.

    Equals the determinant of the Sylvester matrix; zero iff a and b share
    a root in an algebraic closure of the fraction field.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    R = a.ring
    if not (R.is_field or R is ZZ):
        raise TypeError(f"resultant over {R!r}: the coefficients must lie in a field or ZZ")
    if a.degree == 0 and b.degree == 0:
        return R.one
    if a.degree == 0:
        return ring_pow(R, a.lc(), b.degree)
    if b.degree == 0:
        return ring_pow(R, b.lc(), a.degree)
    if R.is_field:
        return _resultant_field_euclid(a, b)
    return _resultant_subresultant(a, b)


def resultant_sylvester(a: Poly, b: Poly):
    """Resultant via Bareiss elimination of the Sylvester matrix.

    Quadratic-size fallback used as an independent oracle in tests; works
    over any integral domain.
    """
    R = a.ring
    n, m = a.degree, b.degree
    if n < 0 or m < 0:
        raise ValueError("resultant of the zero polynomial is undefined")
    if n == 0:
        return ring_pow(R, a.lc(), m)
    if m == 0:
        return ring_pow(R, b.lc(), n)
    size = n + m
    M = [[R.zero] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(a.coeffs)):
            M[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(b.coeffs)):
            M[m + i][i + j] = c
    # Bareiss fraction-free elimination
    sign = 1
    prev = R.one
    for k in range(size - 1):
        if R.is_zero(M[k][k]):
            for swap in range(k + 1, size):
                if not R.is_zero(M[swap][k]):
                    M[k], M[swap] = M[swap], M[k]
                    sign = -sign
                    break
            else:
                return R.zero
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = R.sub(R.mul(M[i][j], M[k][k]), R.mul(M[i][k], M[k][j]))
                M[i][j] = R.divexact(num, prev)
            M[i][k] = R.zero
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return R.neg(det) if sign < 0 else det


def discriminant(f: Poly):
    """disc(f) = (-1)^(d(d-1)/2) res(f, f') / lc(f), with f' read as a
    polynomial of degree d - 1 = deg f - 1; zero iff f is inseparable.

    Two closed forms give the same value without a resultant:

    * a cubic a x^3 + b x^2 + c x + e has
      disc = b^2 c^2 - 4 a c^3 - 4 b^3 e - 27 a^2 e^2 + 18 a b c e;
    * an even f = g(x^2) of degree 2n >= 4 has
      disc(f) = (-4)^n g(0) lc(g) disc(g)^2, and disc(g) is again this
      function (the cubic form for a sextic f).

    Both are identities over Z, so they hold in every characteristic.  The
    elliptic curves are cubics, and the sextics of the families and of the
    gluing are even.  Other shapes take the resultant, or over a ring that
    ``resultant`` refuses (such as Z[t]) the Sylvester determinant; where the
    characteristic lowers the degree of f' to e < d - 1, the resultant at
    that degree is multiplied by lc(f)^(d - 1 - e).
    """
    R = f.ring
    d = f.degree
    if d < 2:
        raise ValueError("discriminant requires degree >= 2")
    if d == 3:
        return cubic_discriminant(R, *f.coeffs)
    if d >= 4 and d % 2 == 0 and all(R.is_zero(c) for c in f.coeffs[1::2]):
        g = Poly(R, f.coeffs[::2])
        dg = discriminant(g)
        scale = R.mul(R.from_int((-4) ** (d // 2)), R.mul(g.coeffs[0], g.coeffs[-1]))
        return R.mul(scale, R.mul(dg, dg))
    fp = f.derivative()
    if fp.is_zero():
        return R.zero
    res = (resultant if R.is_field or R is ZZ else resultant_sylvester)(f, fp)
    res = R.divexact(res, f.lc())
    if fp.degree < d - 1:
        res = R.mul(res, ring_pow(R, f.lc(), d - 1 - fp.degree))
    if (d * (d - 1) // 2) % 2:
        res = R.neg(res)
    return res


def cubic_discriminant(R, e, c, b, a):
    """b^2 c^2 - 4 a c^3 - 4 b^3 e - 27 a^2 e^2 + 18 a b c e for the cubic
    with coefficients (e, c, b, a), low to high, taken in R on elements as R
    holds them (plain ints for ZZ and for a PrimeField), with no Poly."""
    bc, ae = R.mul(b, c), R.mul(a, e)
    # bc (bc + 18 ae) - 4 (ac c^2 + b^2 be) - 27 (ae)^2
    disc = R.mul(bc, R.add(bc, R.mul(R.from_int(18), ae)))
    fours = R.add(R.mul(R.mul(a, c), R.mul(c, c)), R.mul(R.mul(b, b), R.mul(b, e)))
    disc = R.sub(disc, R.mul(R.from_int(4), fours))
    return R.sub(disc, R.mul(R.from_int(27), R.mul(ae, ae)))


def squarefree_part(f: Poly) -> Poly:
    """Product of the squarefree factors of odd multiplicity:
    f = prod q_i^{e_i}  ->  prod_{e_i odd} q_i.  Primitive with a positive
    leading coefficient over Z, monic over a field."""
    out = Poly.one(f.ring)
    for factor, mult in squarefree_decomposition(f):
        if mult % 2:
            out = out * factor
    return out


def radical(f: Poly) -> Poly:
    """Product of the distinct irreducible factors: primitive with a
    positive leading coefficient over Z, monic over a field."""
    out = Poly.one(f.ring)
    for factor, _ in squarefree_decomposition(f):
        out = out * factor
    return out


def squarefree_decomposition(f: Poly):
    """(squarefree factor, multiplicity) pairs whose product is f up to a
    constant.

    Musser's algorithm, in every characteristic: strip the multiplicities
    prime to the characteristic one level at a time, then recurse on the
    leftover p-th power part through the inverse Frobenius (in
    characteristic 0 nothing is left over).

    Over a field the loop runs on the monic f, and every factor is monic.
    Over Z it runs on the primitive part of f (Yun 1976; Musser 1971): each
    gcd is ``_gcd_primitive_int``, the primitive PRS, and each division is
    exact in Z[x], raising ArithmeticError on a nonzero remainder or a
    quotient coefficient that is not an integer.  By Gauss's lemma every
    factor is then primitive with a positive leading coefficient, and their
    product is the primitive part of f exactly.

    The product of the factors is checked against that monic or primitive
    f, so a silent failure is impossible.
    """
    R = f.ring
    if f.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    if R is ZZ:
        f = primitive_part_int(f)[1]
        gcd, divexact = _gcd_primitive_int, PolyRing(ZZ).divexact
    else:
        f = f.monic()
        gcd, divexact = gcd_field, lambda a, b: poly_divmod(a, b)[0]
    if f.degree <= 0:
        return []
    c = gcd(f, f.derivative())
    w = divexact(f, c)
    out = []
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = divexact(w, y)
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = divexact(c, y)
        i += 1
    if c.degree > 0 and R.char:
        out.extend((g, m * R.char) for g, m in squarefree_decomposition(_pth_root(c)))
    prod = Poly.one(R)
    for h, m in out:
        prod = prod * h**m
    if prod != f:
        raise ArithmeticError("squarefree decomposition inconsistency (multiplicity >= char?)")
    return out


def _pth_root(f: Poly) -> Poly:
    """For f = g(x^p) over F_q, return g with coefficients mapped by the
    inverse Frobenius."""
    R = f.ring
    p = R.char
    if p == 0:
        raise ArithmeticError("p-th root only in positive characteristic")
    q = getattr(R, "order", p)
    coeffs = []
    for i in range(0, f.degree + 1, p):
        c = f.coeff(i)
        # inverse Frobenius: c^(q/p)
        coeffs.append(ring_pow(R, c, q // p))
    for i in range(f.degree + 1):
        if i % p and not R.is_zero(f.coeff(i)):
            raise ArithmeticError("polynomial is not a p-th power")
    return Poly(R, coeffs)
