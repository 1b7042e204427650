"""Arithmetic, order and lattice operations for split-complex (hyperbolic) scalars.

A scalar a + k*b with k**2 = 1 factors over the idempotents e1 = (1+k)/2 and
e2 = (1-k)/2 into two independent real coordinates p = a + b and q = a - b.
Every ring operation acts coordinatewise in that basis, so values are stored
as the pair (p, q) and the cartesian form (a, b) is a derived view.  The ring
has zero divisors: exactly the nonzero scalars with one vanishing coordinate.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import Iterable

from ._tol import negligible, null, order


class NotInvertible(ZeroDivisionError):
    """Inversion of zero or of a zero divisor."""


class EmptyCollection(ValueError):
    """Lattice bound requested for an empty collection."""


class OrderResult(Enum):
    """Outcome of a comparison under the coordinatewise partial order."""

    LESS_EQ = "less_eq"
    GREATER_EQ = "greater_eq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _as_scalar(value) -> "Hyperbolic | None":
    """The value as a hyperbolic scalar, or None when it is not a scalar.

    Arithmetic dunders use this to return NotImplemented for a vector or
    functional operand without formatting it into a discarded exception.
    """
    if isinstance(value, Hyperbolic):
        return value
    if isinstance(value, numbers.Real):
        v = float(value)
        return Hyperbolic(v, v)
    return None


def _coerce(value) -> "Hyperbolic":
    out = _as_scalar(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a hyperbolic scalar")
    return out


class Hyperbolic:
    """A split-complex scalar in idempotent coordinates.

    ``p`` multiplies e1 and ``q`` multiplies e2.  Values are immutable by
    convention; every operation returns a fresh instance.  A coordinate is
    zero only at 0; equality and order decide each coordinate on its own scale.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: float, q: float):
        self.p = float(p)
        self.q = float(q)

    @classmethod
    def from_cartesian(cls, a: float, b: float) -> "Hyperbolic":
        """Build from the cartesian form a + k*b (p = a+b, q = a-b)."""
        return cls(a + b, a - b)

    @classmethod
    def from_real(cls, t: float) -> "Hyperbolic":
        return cls(t, t)

    # -- cartesian view -------------------------------------------------

    @property
    def a(self) -> float:
        return (self.p + self.q) / 2.0

    @property
    def b(self) -> float:
        return (self.p - self.q) / 2.0

    # -- ring operations (all coordinatewise) ---------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(self.p - other.p, self.q - other.q)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(other.p - self.p, other.q - self.q)

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(self.p * other.p, self.q * other.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self) -> "Hyperbolic":
        return Hyperbolic(-self.p, -self.q)

    def dagger(self) -> "Hyperbolic":
        """Conjugation a + k*b -> a - k*b; swaps the idempotent coordinates.

        Involutive, additive and multiplicative; z * z.dagger() is always
        real (equal coordinates).
        """
        return Hyperbolic(self.q, self.p)

    def inverse(self) -> "Hyperbolic":
        """Multiplicative inverse, the conjugate divided by z * z.dagger().

        Raises NotInvertible for zero, for zero divisors, and where a
        coordinate's reciprocal is not finite (a subnormal coordinate).
        """
        if not (self.is_invertible() and all(map(math.isfinite, (1.0 / self.p, 1.0 / self.q)))):
            raise NotInvertible(f"{self!r} has a coordinate 0 or with no finite reciprocal")
        return Hyperbolic(1.0 / self.p, 1.0 / self.q)

    def modulus(self) -> "Hyperbolic":
        """Hyperbolic-valued modulus: coordinatewise absolute value.

        The result always lies in the nonnegative cone, and the modulus is
        multiplicative and subadditive.
        """
        return Hyperbolic(abs(self.p), abs(self.q))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return null(self.p) and null(self.q)

    def is_zero_divisor(self) -> bool:
        """Exactly one idempotent coordinate is 0."""
        return null(self.p) != null(self.q)

    def is_invertible(self) -> bool:
        return not (self.is_zero() or self.is_zero_divisor())

    def is_nonneg(self) -> bool:
        """Membership in the nonnegative cone, both coordinates >= 0."""
        return self.p >= 0.0 and self.q >= 0.0

    def is_real(self) -> bool:
        return negligible(self.p - self.q, self.max_abs())

    # -- partial order ---------------------------------------------------

    def compare(self, other) -> OrderResult:
        """Cone order: z <= u iff u - z >= 0, but for a part negligible in its coordinate."""
        other = _coerce(other)
        le, ge = order([[self.p], [self.q]], [[other.p], [other.q]])
        if le and ge:
            return OrderResult.EQUAL
        if le:
            return OrderResult.LESS_EQ
        if ge:
            return OrderResult.GREATER_EQ
        return OrderResult.INCOMPARABLE

    def leq(self, other) -> bool:
        return self.compare(other) in (OrderResult.LESS_EQ, OrderResult.EQUAL)

    def geq(self, other) -> bool:
        return self.compare(other) in (OrderResult.GREATER_EQ, OrderResult.EQUAL)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Coordinatewise equality within ROUND times that coordinate's larger |value|."""
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return all(order([[self.p], [self.q]], [[other.p], [other.q]]))

    def max_abs(self) -> float:
        return max(abs(self.p), abs(self.q))

    def __repr__(self) -> str:
        return f"Hyperbolic(p={self.p!r}, q={self.q!r})"

    def __str__(self) -> str:
        return f"{self.a:g} + k*{self.b:g}"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}

    @classmethod
    def from_json(cls, obj: dict) -> "Hyperbolic":
        """Accept idempotent {"p","q"} or cartesian {"a","b"} encodings."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object for a scalar, got {obj!r}")
        if "p" in obj and "q" in obj:
            out = cls(float(obj["p"]), float(obj["q"]))
        elif "a" in obj and "b" in obj:
            out = cls.from_cartesian(float(obj["a"]), float(obj["b"]))
        else:
            raise ValueError(f"scalar object needs p/q or a/b keys, got {sorted(obj)}")
        if not (math.isfinite(out.p) and math.isfinite(out.q)):
            raise ValueError(f"scalar has a non-finite coordinate: {obj!r}")
        return out


ZERO = Hyperbolic(0.0, 0.0)
ONE = Hyperbolic(1.0, 1.0)
K = Hyperbolic(1.0, -1.0)
E1 = Hyperbolic(1.0, 0.0)
E2 = Hyperbolic(0.0, 1.0)


def sup_d(values: Iterable[Hyperbolic]) -> Hyperbolic:
    """Coordinatewise supremum: the least upper bound under the cone order."""
    values = list(values)
    if not values:
        raise EmptyCollection("sup_d of an empty collection")
    return Hyperbolic(max(v.p for v in values), max(v.q for v in values))


def inf_d(values: Iterable[Hyperbolic]) -> Hyperbolic:
    """Coordinatewise infimum: the greatest lower bound under the cone order."""
    values = list(values)
    if not values:
        raise EmptyCollection("inf_d of an empty collection")
    return Hyperbolic(min(v.p for v in values), min(v.q for v in values))
