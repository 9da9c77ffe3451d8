"""Coefficient rings and fields.

A ring is an object exposing arithmetic on *plain* element values
(int for ZZ and prime fields, Fraction for QQ, coefficient tuples for
extension fields).  Elements are always kept in canonical form, so
``==`` on values is equality in the ring.  All rings are immutable and
all operations are pure.

A prime field is the only degree-1 finite field: its elements are ints,
and ``ExtField`` builds GF(p^m) for m = 2 to 6 only, with coefficient
tuples, so ``K.degree`` alone decides an element's shape.  A prime field
answers ``from_base``, ``in_base`` and ``frobenius`` like ``ExtField``
does, so code working in a splitting field need not ask which of the two it
got.  The default modulus of GF(p^m) is the first monic irreducible in a
fixed order; irreducibility is decided by the same distinct-degree
factorization the ``roots`` module uses.  ``GFext(p, m, modulus)`` takes a
caller's monic irreducible instead (``roots.splitting_field`` builds its
field from a factor of its input), checked by Rabin's test on the
field's Frobenius; no search is made then.  ``GFext(p, 2)`` is a
``QuadraticExtField``: the same field, with its element arithmetic in
closed form.

``ResidueRing`` is not a coefficient ring of this kind: it is the kernel
for K[x]/(f) on flat int lists that every power of the ``roots`` module is
taken in.  ``ring_pow`` is the one square-and-multiply: GF(p^m),
``ResidueRing`` and polynomial rings take their powers by it, F_p and Q by
Python's own ``pow``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul as _mul

from .integers import is_perfect_square, is_prime


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
            raise ArithmeticError(
                f"inexact division in ZZ of a {a.bit_length()}-bit integer by a {b.bit_length()}-bit one"
            )
        return q

    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def to_str(self, a):
        return str(a)

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

    def to_str(self, a):
        return str(a)

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

    from_base = from_int

    def in_base(self, a):
        return a

    def frobenius(self, a):
        return a

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
        return pow(a, -1, self.p)

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

    def elements(self):
        return range(self.p)

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def _poly_mulmod(a, b, tail, p):
    """Product of coefficient tuples of length m reduced mod (modulus, p), for
    a monic modulus x^m + sum c_j x^j given by ``tail``: its pairs (j, c_j)
    with c_j != 0.  Entries grow as plain ints and each is taken mod p once."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            k = i
            for bj in b:
                prod[k] += ai * bj
                k += 1
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % p
        if c:
            base = i - m
            for j, cj in tail:
                prod[base + j] -= c * cj
    return tuple([c % p for c in prod[:m]])


class ResidueRing:
    """K[x]/(f) for a monic f over K = F_p or K = GF(p^m) = F_p[y]/(M), on
    plain ints: the ring every power of the ``roots`` module is taken in.

    A residue a_0 + a_1 x + ... + a_{n-1} x^(n-1), n = deg f, is a flat list
    of n*m ints in [0, p): the coordinates of a_j over F_p are entries
    j*m, ..., j*m + m - 1.  ``mul`` forms the bivariate product in x and y,
    reduces it once by f and by M, and takes ``% p`` once per output entry;
    zero entries of the factors, of f and of M are skipped, so an f with
    F_p coefficients or a sparse operand costs little.  Over F_p (m = 1) the
    product is ``_poly_mulmod``, the one ``ExtField.mul`` takes, with f in
    place of the field's modulus.  ``frobenius`` is the
    p-th power map

        Phi(sum a_j x^j) = sum sigma(a_j) (x^p mod f)^j,

    with sigma the Frobenius of K (the identity when m = 1).  Phi is
    F_p-linear, so it is one matrix: its row for the basis element y^k x^j
    is sigma(y^k) * x^(jp) mod f, built on first use from x^p mod f and
    ``ExtField``'s Frobenius rows.
    """

    def __init__(self, K, f, xp=None):
        """``f``: the coefficients of a monic f over K of degree >= 1, low to
        high; ``xp``: x^p mod f as K coefficients, if the caller has it."""
        self.K = K
        self.p = K.char
        self.m = m = K.degree
        self.n = n = len(f) - 1
        self._W = W = 2 * m - 1  # stride of the y-coordinates in a product
        self._pos = [j * W + k for j in range(n) for k in range(m)]
        # x^n = -sum_j f_j x^j, nonzero terms only; y^m folds by K._tail
        self._f = [
            (j * W + l, c)
            for j, fj in enumerate(f[:n])
            for l, c in enumerate(self._coords(fj))
            if c
        ]
        self.one = self.from_coeffs([K.one])
        self.x = self.from_coeffs([K.zero, K.one])
        self._xp = None if xp is None else self.from_coeffs(xp)
        self._columns = None

    def _coords(self, c):
        return c if self.m > 1 else (c,)

    def from_coeffs(self, coeffs):
        """The residue of sum c_j x^j, for any number of K coefficients."""
        W, m = self._W, self.m
        wide = [0] * (max(len(coeffs), self.n) * W)
        for j, c in enumerate(coeffs):
            wide[j * W : j * W + m] = self._coords(c)
        return self._reduce(wide)

    def coeffs(self, a):
        """The K coefficients a_0, ..., a_{n-1} of a residue."""
        m = self.m
        if m == 1:
            return list(a)
        return [tuple(a[i : i + m]) for i in range(0, len(a), m)]

    def _reduce(self, wide):
        """The flat residue of a product laid out with stride W = 2m - 1:
        each x-slot from the top down to n is reduced mod M, taken mod p and
        folded into the slots below it by f; then the n low slots are
        reduced mod M, and every entry is taken mod p once."""
        p, m, n, W = self.p, self.m, self.n, self._W
        f = self._f
        for base in range(len(wide) - W, n * W - 1, -W):
            if m > 1:
                self._reduce_y(wide, base)
            low = base - n * W
            for k in range(base, base + m):
                c = wide[k] % p
                if c:
                    for off, v in f:
                        wide[low + off] -= c * v
                low += 1
        if m > 1:
            for base in range(0, n * W, W):
                self._reduce_y(wide, base)
        return [wide[i] % p for i in self._pos]

    def _reduce_y(self, wide, base):
        """Reduce the y-coordinates of the slot at ``base`` mod M, without
        taking them mod p."""
        m, tail = self.m, self.K._tail
        for k in range(base + self._W - 1, base + m - 1, -1):
            c = wide[k]
            if c:
                for l, v in tail:
                    wide[k - m + l] -= c * v

    def mul(self, a, b):
        if self.m == 1:  # self._f is then the tail of f, as _poly_mulmod takes it
            return list(_poly_mulmod(a, b, self._f, self.p))
        pos = self._pos
        wide = [0] * ((2 * self.n - 1) * self._W)
        terms = [(pos[j], bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                base = pos[i]
                for off, bj in terms:
                    wide[base + off] += ai * bj
        return self._reduce(wide)

    @property
    def xp(self):
        """x^p mod f."""
        if self._xp is None:
            self._xp = ring_pow(self, self.x, self.p)
        return self._xp

    def frobenius(self, a, times=1):
        """Phi^times(a), that is a^(p^times)."""
        if times and self._columns is None:
            self._columns = self._frobenius_columns()
        p = self.p
        for _ in range(times):
            a = [sum(map(_mul, a, col)) % p for col in self._columns]
        return a

    def _frobenius_columns(self):
        K, m = self.K, self.m
        sigma = K._frobenius_rows if m > 1 else (K.one,)
        rows = []
        power = self.one  # x^(jp) mod f
        for j in range(self.n):
            if j:
                power = self.mul(power, self.xp)
            rows.extend(self.mul(self.from_coeffs([s]), power) for s in sigma)
        return list(zip(*rows))


def _poly_invmod(a, modulus, p):
    """Inverse of a nonzero residue a mod (modulus, p), modulus monic
    irreducible, by the extended Euclidean algorithm on coefficient lists
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 4).  It tracks only
    the cofactor of a.  `poly` imports this module, so this is the tuple form
    of the inverse, not a second `poly.gcd_field`."""
    m = len(modulus) - 1
    r0, r1 = list(modulus), list(a)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [1]  # r_i = s_i * a mod modulus
    while len(r1) > 1:
        # r0 <- r0 mod r1 in place, q the quotient; then s <- s0 - q * s1
        inv_lc = pow(r1[-1], -1, p)
        d1 = len(r1) - 1
        q = [0] * (len(r0) - d1)
        for off in range(len(r0) - 1 - d1, -1, -1):
            c = r0[off + d1] * inv_lc % p
            if c:
                q[off] = c
                for j in range(d1):
                    r0[off + j] = (r0[off + j] - c * r1[j]) % p
        del r0[d1:]
        while r0 and not r0[-1]:
            r0.pop()
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - qi * sj) % p
        while s and not s[-1]:
            s.pop()
        r0, r1, s0, s1 = r1, r0, s1, s
    c = pow(r1[0], -1, p)  # gcd is a unit since the modulus is irreducible
    return tuple(x * c % p for x in s1) + (0,) * (m - len(s1))


def ring_pow(R, a, n):
    """a^n in the ring R for n >= 0, by square-and-multiply from the top bit
    down, so that each multiply by a is as sparse as a (one term for a = x
    in a ``ResidueRing``)."""
    if n == 0:
        return R.one
    out = a
    for bit in bin(n)[3:]:
        out = R.mul(out, out)
        if bit == "1":
            out = R.mul(out, a)
    return out


def _digits(n, p, m):
    """The m base-p digits of n, least significant first."""
    out = []
    for _ in range(m):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def _is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial (coefficient tuple, low-to-high)
    over F_p: its distinct-degree factorization is one factor of degree m."""
    from .poly import Poly  # poly and roots import this module
    from .roots import splitting_degrees

    return splitting_degrees(Poly(GF(p), coeffs)) == [len(coeffs) - 1]


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
    x^m + x instead: the result is the same, without ~p irreducibility
    tests."""
    start = 0 if _has_irreducible_binomial(p, m) else p
    for n in range(start, p**m):
        cand = _digits(n, p, m) + (1,)
        if cand[0] != 0 and _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ExtField:
    """F_{p^m} for m = 2 to 6: residues of F_p[y] mod a monic irreducible M
    of degree m.  The degree-1 field is ``GF(p)``.

    Elements are coefficient tuples of length m (low to high degree).  By
    default M is ``_default_modulus(p, m)``, chosen deterministically per
    (p, m), so representations are reproducible across runs.  A caller may
    give M instead (``splitting_field`` gives a factor of its input, so that
    y is a root of that factor); it is checked by Rabin's test, and the
    field's name then shows it.
    """

    is_field = True

    def __init__(self, p: int, m: int, modulus: tuple | None = None):
        if m == 1:
            raise ValueError(f"the degree-1 field is GF({p}), not an ExtField")
        if m < 1 or m > 6:
            raise ValueError("extension degrees above 6 are out of scope")
        self.base = GF(p)
        self.p = p
        self.m = m
        self.degree = m
        self.char = p
        self.order = p**m
        self.name = f"GF({p}^{m})"
        given = modulus is not None
        if given:
            modulus = tuple(modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1 or not all(0 <= c < p for c in modulus):
                raise ValueError(f"{modulus} is not a monic degree-{m} modulus over GF({p})")
            self.name += f" mod {modulus}"
        self._use_modulus(modulus if given else _default_modulus(p, m))
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.gen = (0, 1) + (0,) * (m - 2)
        # rows (y^p)^i of the Frobenius as an F_p-linear map, y = self.gen
        rows = [self.one]
        yp = self.pow(self.gen, p)
        while len(rows) < m:
            rows.append(self.mul(rows[-1], yp))
        self._frobenius_rows = tuple(rows)
        if given:
            self._check_irreducible()

    def _check_irreducible(self):
        """Rabin's test on the modulus M, by the Frobenius rows: M is
        irreducible iff Phi^m(y) = y and gcd(Phi^(m/q)(y) - y, M) = 1 for
        every prime q | m (Rabin, Probabilistic algorithms in finite fields,
        1980).  A product of distinct factors whose degrees divide m, such as
        a split M, passes the first condition alone, so both are needed."""
        from .poly import Poly, gcd_field  # poly imports this module

        images = [self.gen]  # Phi^k(y) for k = 0, ..., m
        for _ in range(self.m):
            images.append(self.frobenius(images[-1]))
        M = Poly(self.base, self.modulus)
        y = Poly.gen(self.base)
        if images[-1] != self.gen or any(
            gcd_field(Poly(self.base, images[self.m // q]) - y, M).degree
            for q in (2, 3, 5)
            if self.m % q == 0
        ):
            raise ValueError(f"{self.modulus} is not irreducible over GF({self.p})")

    def _use_modulus(self, modulus):
        """Keep the modulus, and the pairs (j, c_j) of its nonzero lower
        coefficients that a product folds with."""
        self.modulus = modulus
        self._tail = tuple((j, c) for j, c in enumerate(modulus[:-1]) if c)

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.m - 1)

    from_base = from_int

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
        return _poly_mulmod(a, b, self._tail, self.p)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return ring_pow(self, a, n)

    def inv(self, a):
        """a^-1 by the extended Euclidean algorithm against the modulus."""
        if a == self.zero:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return _poly_invmod(a, self.modulus, self.p)

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
        """a^p, as the F_p-linear map sum a_i y^i -> sum a_i (y^p)^i."""
        p = self.p
        out = [0] * self.m
        for ai, row in zip(a, self._frobenius_rows):
            if ai:
                for j, c in enumerate(row):
                    out[j] += ai * c
        return tuple(c % p for c in out)

    def elements(self):
        p, m = self.p, self.m
        for n in range(self.order):
            yield _digits(n, p, m)

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


class QuadraticExtField(ExtField):
    """F_{p^2} = F_p(y) with y^2 = d, and its arithmetic in closed form.

    For odd p some binomial x^2 + c is irreducible over F_p (every prime
    factor of 2 divides p - 1: Lidl-Niederreiter, Finite Fields, Thm 3.75), so
    ``_default_modulus(p, 2)``, which tries the binomials first, is always
    y^2 + c_0, and d = -c_0 is a non-residue.  A caller's modulus must have
    the same form (``splitting_field`` shifts its quadratic factor to it).
    With a = a_0 + a_1 y:

        a * b  = (a_0 b_0 + d a_1 b_1) + (a_0 b_1 + a_1 b_0) y,
        a^-1   = (a_0 - a_1 y) / (a_0^2 - d a_1^2),

    the norm a_0^2 - d a_1^2 being zero only at a = 0.  The modulus, the
    element tuples and every method not written here are ``ExtField``'s, and
    these reduce by the same modulus, so each value equals the generic one;
    only the cost per operation differs.  The constructor checks the binomial
    form instead of assuming it.
    """

    def _use_modulus(self, modulus):
        if len(modulus) != 3 or modulus[1]:
            raise ValueError(f"GF({self.p}^2) needs a modulus y^2 + c_0, not {modulus}")
        super()._use_modulus(modulus)
        self._d = -modulus[0] % self.p

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def mul(self, a, b):
        a0, a1 = a
        b0, b1 = b
        p = self.p
        return ((a0 * b0 + self._d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def inv(self, a):
        """a^-1 as the conjugate over the norm."""
        a0, a1 = a
        p = self.p
        norm = (a0 * a0 - self._d * a1 * a1) % p
        if not norm:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        n = pow(norm, -1, p)
        return (a0 * n % p, -a1 * n % p)


@lru_cache(maxsize=None)
def GFext(p: int, m: int, modulus: tuple | None = None) -> ExtField:
    """F_{p^m}, modulo ``modulus`` if given (see ``ExtField``); at m = 2 the
    closed-form ``QuadraticExtField``."""
    return (QuadraticExtField if m == 2 else ExtField)(p, m, modulus)
