"""Rational functions num/den over a coefficient field, and the field they form.

``RationalFunction`` keeps a canonical form: numerator and denominator are
coprime and the denominator is monic.  ``FunctionField`` wraps these elements
in the same ring protocol used by :mod:`.rings`, so polynomials over a
function field (e.g. elements of Q(s)[x]) compose with :class:`.poly.Poly`.
"""
from __future__ import annotations

from .poly import Poly, divmod_field, gcd_field


class RationalFunction:
    """A reduced fraction of two polynomials over a common coefficient field."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if num.ring is not den.ring:
            raise ValueError("numerator and denominator over different rings")
        if not num.ring.is_field:
            raise TypeError("RationalFunction requires field coefficients")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_poly(p: Poly) -> "RationalFunction":
        return RationalFunction(p, Poly.one(p.ring), reduce=False)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_polynomial(self) -> bool:
        return self.den.degree == 0 and self.den.lc() == self.num.ring.one

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        K = self.num.ring
        c = K.inv(self.num.lc())
        return RationalFunction(
            self.den.scale(c), self.num.scale(c), reduce=False
        )

    def __truediv__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n, reduce=False)

    def __eq__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, x):
        """Evaluate at a coefficient-field element; raises on a pole."""
        K = self.num.ring
        d = self.den.evaluate(x)
        if K.is_zero(d):
            raise ZeroDivisionError("pole of rational function")
        return K.div(self.num.evaluate(x), d)

    def __repr__(self):
        if self.is_polynomial():
            return f"({self.num!r})"
        return f"({self.num!r}) / ({self.den!r})"


def _reduce(num: Poly, den: Poly):
    K = num.ring
    if num.is_zero():
        return num, Poly.one(K)
    g = gcd_field(num, den)
    if g.degree > 0:
        num, _ = divmod_field(num, g)
        den, _ = divmod_field(den, g)
    c = K.inv(den.lc())
    return num.scale(c), den.scale(c)


def _coerce(self: RationalFunction, other):
    if isinstance(other, RationalFunction):
        if other.num.ring is not self.num.ring:
            return NotImplemented
        return other
    if isinstance(other, Poly):
        if other.ring is not self.num.ring:
            return NotImplemented
        return RationalFunction.from_poly(other)
    if isinstance(other, int):
        K = self.num.ring
        return RationalFunction.from_poly(Poly.constant(K, K.from_int(other)))
    return NotImplemented


class FunctionField:
    """The field of rational functions in one variable over a base field.

    Implements the same element-agnostic ring protocol as the scalar rings,
    so ``Poly(FunctionField(QQ, "s"), ...)`` gives exact arithmetic in
    Q(s)[x].
    """

    is_field = True

    _cache: dict = {}

    def __new__(cls, base, var: str = "s"):
        key = (id(base), var)
        inst = cls._cache.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.base = base
            inst.var = var
            inst._zero = RationalFunction.from_poly(Poly.zero(base))
            inst._one = RationalFunction.from_poly(Poly.one(base))
            cls._cache[key] = inst
        return inst

    # -- protocol ----------------------------------------------------------
    @property
    def char(self) -> int:
        return self.base.char

    @property
    def zero(self) -> RationalFunction:
        return self._zero

    @property
    def one(self) -> RationalFunction:
        return self._one

    def from_int(self, n: int) -> RationalFunction:
        return RationalFunction.from_poly(
            Poly.constant(self.base, self.base.from_int(n))
        )

    def from_poly(self, p: Poly) -> RationalFunction:
        if p.ring is not self.base:
            raise ValueError("polynomial over a different coefficient field")
        return RationalFunction.from_poly(p)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return a.inverse()

    def div(self, a, b):
        return a / b

    def divexact(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_one(self, a) -> bool:
        return a.is_one()

    def to_str(self, a) -> str:
        return repr(a)

    def __repr__(self):
        return f"FunctionField({self.base!r}, {self.var!r})"
