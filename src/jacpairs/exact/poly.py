"""Dense univariate polynomials over an arbitrary coefficient ring.

A Poly stores its coefficient tuple low-to-high with no trailing zeros;
the zero polynomial has an empty tuple and degree -1.  The coefficient
ring is one of the objects from .rings (or a PolyRing, so Z[t][x] style
nesting works, which is how discriminants of sextics with polynomial
coefficients are computed).

Operator overloading is deliberate: family data and Table-1 entries are
entered as literal formulas, e.g. ``(s + 16)**3``, which keeps the
transcription honest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .rings import QQ, ZZ


def _trim(ring, coeffs):
    """coeffs without its trailing zeros."""
    n = len(coeffs)
    while n > 0 and ring.is_zero(coeffs[n - 1]):
        n -= 1
    return coeffs[:n]


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs, *, normalize=True):
        if normalize:
            coeffs = _trim(
                ring, [ring.from_int(c) if isinstance(c, int) and ring is not ZZ else c for c in coeffs]
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

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
    def trimmed(ring, coeffs):
        """A Poly from coefficients that are already canonical ring elements:
        trailing zeros are dropped and nothing else is done."""
        return Poly(ring, _trim(ring, coeffs), normalize=False)

    @staticmethod
    def zero(ring):
        return Poly(ring, [], normalize=False)

    @staticmethod
    def one(ring):
        return Poly(ring, [ring.one], normalize=False)

    @staticmethod
    def gen(ring):
        return Poly(ring, [ring.zero, ring.one], normalize=False)

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
        if isinstance(other, Fraction) and self.ring is QQ:
            return Poly(self.ring, [other])
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
        return Poly.trimmed(R, out)

    __radd__ = __add__

    def __neg__(self):
        R = self.ring
        return Poly(R, [R.neg(c) for c in self.coeffs], normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(R)
        out = [R.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if R.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                out[i + j] = R.add(out[i + j], R.mul(ai, bj))
        return Poly.trimmed(R, out)

    __rmul__ = __mul__

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return Poly.zero(R)
        return Poly.trimmed(R, [R.mul(c, a) for a in self.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __call__(self, x):
        return self.evaluate(x)

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
        return Poly(R, [c if i % 2 == 0 else R.neg(c) for i, c in enumerate(self.coeffs)], normalize=False)

    def monic(self):
        R = self.ring
        if not R.is_field:
            raise TypeError("monic requires field coefficients")
        if self.is_zero():
            raise ValueError("monic of zero polynomial")
        if R.is_one(self.lc()):
            return self
        inv = R.inv(self.lc())
        return Poly(R, [R.mul(inv, c) for c in self.coeffs], normalize=False)

    def __repr__(self):
        if self.is_zero():
            return "Poly<0>"
        R = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if R.is_zero(c):
                continue
            cs = R.to_str(c) if hasattr(R, "to_str") else str(c)
            parts.append(f"({cs})*x^{i}" if i else f"({cs})")
        return "Poly<" + " + ".join(parts) + ">"


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
        if self.base.is_field and b.degree == 0:
            return a.scale(self.base.inv(b.lc()))
        q, r = divmod_exact_ring(a, b)
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


# -- division -----------------------------------------------------------------


def divmod_field(a: Poly, b: Poly):
    """Quotient and remainder over a field."""
    R = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(R), a
    rem = list(a.coeffs)
    q = [R.zero] * (a.degree - b.degree + 1)
    monic = R.is_one(b.lc())
    inv_lc = b.lc() if monic else R.inv(b.lc())
    bc = b.coeffs
    for i in range(len(rem) - len(bc), -1, -1):
        c = rem[i + len(bc) - 1]
        if R.is_zero(c):
            continue
        factor = c if monic else R.mul(c, inv_lc)
        q[i] = factor
        for j, bj in enumerate(bc):
            rem[i + j] = R.sub(rem[i + j], R.mul(factor, bj))
    return Poly.trimmed(R, q), Poly.trimmed(R, rem)


def divmod_exact_ring(a: Poly, b: Poly):
    """Division over a (non-field) integral domain; every leading-coefficient
    division performed must be exact, otherwise ArithmeticError."""
    R = a.ring
    if R.is_field:
        return divmod_field(a, b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(R), a
    rem = list(a.coeffs)
    q = [R.zero] * (a.degree - b.degree + 1)
    bc = b.coeffs
    blc = b.lc()
    for i in range(len(rem) - len(bc), -1, -1):
        c = rem[i + len(bc) - 1]
        if R.is_zero(c):
            continue
        factor = R.divexact(c, blc)
        q[i] = factor
        for j, bj in enumerate(bc):
            rem[i + j] = R.sub(rem[i + j], R.mul(factor, bj))
    return Poly.trimmed(R, q), Poly.trimmed(R, rem)


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
    out = Poly(R, rem, normalize=False)
    if e > 0 and not monic:
        out = out.scale(_ring_pow(R, blc, e))
    return out


def gcd_field(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field.

    Over Q this is the primitive PRS in Z[x] (Brown 1971): each remainder is
    the primitive part of a pseudo-remainder, so no fraction is formed until
    the last nonzero one is made monic.
    """
    if not a.ring.is_field:
        raise TypeError("gcd_field requires field coefficients")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.ring is QQ:
        a, b = rational_poly_to_primitive(a)[1], rational_poly_to_primitive(b)[1]
        while not b.is_zero():
            a, b = b, primitive_part_int(pseudo_rem(a, b))[1]
        return Poly(QQ, [Fraction(c, a.lc()) for c in a.coeffs], normalize=False)
    while not b.is_zero():
        a, b = b, divmod_field(a, b)[1]
    return a.monic()


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
    return c, Poly(ZZ, [x // c for x in a.coeffs], normalize=False)


def rational_poly_to_primitive(a: Poly):
    """Write a QQ-polynomial as scale * primitive with primitive in Z[t],
    positive leading coefficient.  Returns (scale: Fraction, primitive: Poly over ZZ)."""
    if a.ring is not QQ:
        raise TypeError("expected a QQ polynomial")
    if a.is_zero():
        return Fraction(0), Poly.zero(ZZ)
    den = 1
    for c in a.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in a.coeffs]
    zp = Poly(ZZ, ints, normalize=False)
    cont, prim = primitive_part_int(zp)
    return Fraction(cont, den), prim


# -- resultants ---------------------------------------------------------------


def _resultant_field_euclid(a: Poly, b: Poly):
    R = a.ring
    res = R.one
    sign = 1
    while True:
        if b.degree == 0:
            if a.degree > 0:
                res = R.mul(res, _ring_pow(R, b.lc(), a.degree))
            break
        r = divmod_field(a, b)[1]
        if r.is_zero():
            return R.zero
        if (a.degree * b.degree) % 2:
            sign = -sign
        res = R.mul(res, _ring_pow(R, b.lc(), a.degree - r.degree))
        a, b = b, r
    if sign < 0:
        res = R.neg(res)
    return res


def _ring_pow(R, a, n):
    out = R.one
    base = a
    while n:
        if n & 1:
            out = R.mul(out, base)
        n >>= 1
        if n:
            base = R.mul(base, base)
    return out


def _resultant_subresultant(a: Poly, b: Poly):
    """Fraction-free subresultant PRS resultant over an integral domain."""
    R = a.ring
    sign = 1
    if a.degree < b.degree:
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        a, b = b, a
    g = R.one
    h = R.one
    while b.degree > 0:
        delta = a.degree - b.degree
        if (a.degree % 2) and (b.degree % 2):
            sign = -sign
        r = pseudo_rem(a, b)
        if r.is_zero():
            return R.zero
        a = b
        denom = R.mul(g, _ring_pow(R, h, delta))
        b = Poly(R, [R.divexact(c, denom) for c in r.coeffs], normalize=False)
        g = a.lc()
        if delta > 0:
            h = R.divexact(_ring_pow(R, g, delta), _ring_pow(R, h, delta - 1))
    # b is a nonzero constant here
    d = a.degree
    res = R.divexact(_ring_pow(R, b.lc(), d), _ring_pow(R, h, d - 1))
    return R.neg(res) if sign < 0 else res


def resultant(a: Poly, b: Poly):
    """Resultant of a and b over their coefficient ring.

    Equals the determinant of the Sylvester matrix; zero iff a and b share
    a root in an algebraic closure of the fraction field.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    R = a.ring
    if a.degree == 0 and b.degree == 0:
        return R.one
    if a.degree == 0:
        return _ring_pow(R, a.lc(), b.degree)
    if b.degree == 0:
        return _ring_pow(R, b.lc(), a.degree)
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
        return _ring_pow(R, a.lc(), m)
    if m == 0:
        return _ring_pow(R, b.lc(), n)
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
    """disc(f) = (-1)^(d(d-1)/2) res(f, f') / lc(f); zero iff f inseparable."""
    R = f.ring
    d = f.degree
    if d < 2:
        raise ValueError("discriminant requires degree >= 2")
    fp = f.derivative()
    if fp.is_zero():
        return R.zero
    res = resultant(f, fp)
    res = R.divexact(res, f.lc())
    if (d * (d - 1) // 2) % 2:
        res = R.neg(res)
    return res


def squarefree_part(f: Poly) -> Poly:
    """Product of the irreducible factors with odd multiplicity (monic), over a field.

    Matches exponent parity: f = prod q_i^{e_i}  ->  prod_{e_i odd} q_i.
    """
    R = f.ring
    if not R.is_field:
        raise TypeError("squarefree_part requires field coefficients")
    if f.is_zero():
        raise ValueError("squarefree part of zero polynomial")
    if f.degree == 0:
        return Poly.one(R)
    out = Poly.one(R)
    for factor, mult in squarefree_decomposition(f):
        if mult % 2:
            out = out * factor
    return out.monic()


def radical(f: Poly) -> Poly:
    """Product of the distinct irreducible factors (monic), over a field."""
    R = f.ring
    out = Poly.one(R)
    for factor, _ in squarefree_decomposition(f):
        out = out * factor
    return out.monic()


def squarefree_decomposition(f: Poly):
    """(squarefree factor, multiplicity) pairs with product f up to lc.

    Musser's algorithm, in every characteristic: strip the multiplicities
    prime to the characteristic one level at a time, then recurse on the
    leftover p-th power part through the inverse Frobenius (in
    characteristic 0 nothing is left over).  The output is verified
    against f so a silent failure is impossible.
    """
    R = f.ring
    f = f.monic()
    if f.degree <= 0:
        return []
    c = gcd_field(f, f.derivative())
    w = divmod_field(f, c)[0]
    out = []
    i = 1
    while w.degree > 0:
        y = gcd_field(w, c)
        z = divmod_field(w, y)[0]
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = divmod_field(c, y)[0]
        i += 1
    if c.degree > 0:
        out.extend((g, m * R.char) for g, m in squarefree_decomposition(_pth_root(c)))
    prod = Poly.one(R)
    for h, m in out:
        prod = prod * h**m
    if prod.monic() != f:
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
        coeffs.append(_ring_pow(R, c, q // p))
    for i in range(f.degree + 1):
        if i % p and not R.is_zero(f.coeff(i)):
            raise ArithmeticError("polynomial is not a p-th power")
    return Poly(R, coeffs)
