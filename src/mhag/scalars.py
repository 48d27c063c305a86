"""Exact scalar arithmetic: the rationals and prime fields.

All computation in this package is exact.  In rational mode coefficients are
kept as native ``int`` whenever possible (the overwhelmingly common values are
``1`` and ``-1``) and promoted to :class:`fractions.Fraction` on division; the
two types interoperate and compare equal, so linear-combination dictionaries
never need normalising.  In prime-field mode coefficients are
:class:`FpElement` residues.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "FpElement"]


class FpElement:
    """A residue in the field Z/p for prime ``p``.

    Instances are immutable, hashable and normalised (``0 <= value < p``), so
    they work as dictionary values with exact equality semantics.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        # Most products are by 1 (58 716 of 58 889 in a sampled verify of
        # the double of S3): a factor 1 returns the other operand, which is
        # safe because no residue is ever mutated.
        if type(other) is FpElement and other.p == self.p:
            if self.value == 1:
                return other
            if other.value == 1:
                return self
            return FpElement(self.value * other.value, self.p)
        if type(other) is int and other == 1:
            return self
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return FpElement(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            # Only the normalised residue: equal values must hash equal.
            return 0 <= other < self.p and other == self.value
        return NotImplemented

    def __hash__(self):
        # Hash-compatible with the one int that compares equal, so dict
        # lookups by either representation agree with __eq__.
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


class Field:
    """Common interface for the scalar domains (exact fields only)."""

    name: str

    def one(self) -> Scalar:
        raise NotImplementedError

    def zero(self) -> Scalar:
        raise NotImplementedError

    def from_int(self, n: int) -> Scalar:
        raise NotImplementedError

    def parse(self, s) -> Scalar:
        raise NotImplementedError

    def to_str(self, x: Scalar) -> str:
        raise NotImplementedError


def _refuse_bool(s) -> None:
    """A JSON boolean is not a scalar, although ``isinstance(True, int)``
    holds."""
    if isinstance(s, bool):
        raise ValueError(f"scalar must be a number or a string, got {s!r}")


class RationalField(Field):
    name = "Q"

    def one(self):
        return 1

    def zero(self):
        return 0

    def from_int(self, n: int):
        return n

    def parse(self, s) -> Scalar:
        _refuse_bool(s)
        if isinstance(s, int):
            return s
        if isinstance(s, str):
            f = Fraction(s)
            return int(f) if f.denominator == 1 else f
        raise ValueError(f"cannot parse rational scalar from {s!r}")

    def to_str(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        # One shared object each: no FpElement operator mutates a residue,
        # so nothing changes these.
        self._one = FpElement(1, p)
        self._zero = FpElement(0, p)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def from_int(self, n: int):
        return FpElement(n, self.p)

    def parse(self, s) -> Scalar:
        _refuse_bool(s)
        if isinstance(s, int):
            return FpElement(s, self.p)
        if isinstance(s, str):
            if "/" in s:
                num, den = s.split("/", 1)
                return FpElement(int(num), self.p) / FpElement(int(den), self.p)
            return FpElement(int(s), self.p)
        raise ValueError(f"cannot parse prime-field scalar from {s!r}")

    def to_str(self, x) -> str:
        if isinstance(x, FpElement):
            return str(x.value)
        return str(x % self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer.  Booleans and floats are refused:
    ``int()`` would quietly read them as 0, 1 or a truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def field_from_json(spec) -> Field:
    """Build a field from a JSON fragment: ``"rational"``/``"Q"`` or
    ``{"prime": p}``."""
    if spec is None or spec in ("Q", "rational") or spec == {"kind": "Q"}:
        return RationalField()
    if isinstance(spec, dict):
        if "prime" in spec:
            return PrimeField(json_int(spec["prime"], "prime"))
        if spec.get("kind") == "Fp":
            return PrimeField(json_int(spec["p"], "prime"))
    if isinstance(spec, str) and spec.startswith("F") and spec[1:].isdigit():
        return PrimeField(int(spec[1:]))
    raise ValueError(f"unrecognised scalar-field spec: {spec!r}")
