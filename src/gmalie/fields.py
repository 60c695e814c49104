"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` values (always in lowest terms);
prime-field scalars are plain ints reduced to the least non-negative residue.
No floating point appears anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch

__all__ = ["Field", "QQ", "GF", "field_from_doc", "is_prime"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# the scalar strings a workspace may hold: "a" or "a/b" in ASCII digits
_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# Fractions are immutable, so every rational zero and one can be the same object.
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


class Field:
    """Arithmetic context for exact scalars over Q or GF(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise ValueError("the rationals take no modulus")
        elif kind == "GF":
            # the bound comes first: it keeps trial division in is_prime
            # under about 23k steps
            if isinstance(p, int) and p >= 2**31:
                raise ValueError("GF modulus must be below 2**31")
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"GF modulus must be a prime integer, got {p!r}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    # -- identity ---------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "GF"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "Q" else f"GF({self.p})"

    # -- scalar construction ----------------------------------------------

    def of(self, value):
        """Canonicalize a scalar: reduced Fraction over Q, residue over GF(p)."""
        if self.kind == "GF":
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, int):
                return value % self.p
            if isinstance(value, Fraction):
                den = value.denominator % self.p
                if den == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.p}")
                return value.numerator * pow(den, -1, self.p) % self.p
            raise TypeError(f"cannot coerce {value!r} into {self!r}")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool) or isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def vector(self, values) -> tuple:
        """Canonicalize a sequence of scalars: the tuple of ``of`` on each
        entry, with the same errors.  One scan of the entries' types decides
        it, so canonical input comes back as it is."""
        values = tuple(values)
        kinds = set(map(type, values))
        if self.kind == "GF":
            if kinds == {int}:
                p = self.p
                if min(values) >= 0 and max(values) < p:
                    return values
                return tuple(x % p for x in values)
        elif kinds == {Fraction}:
            return values
        return tuple(map(self.of, values))

    def parse(self, text):
        """Parse a JSON scalar: an int, or a string "a" or "a/b" of ASCII
        digits with an optional sign.  Nothing else is accepted: no decimals,
        exponents, spaces, underscores or other digits."""
        if isinstance(text, bool):
            raise TypeError("boolean is not a scalar")
        if isinstance(text, int):
            return self.of(text)
        if isinstance(text, str):
            if not _SCALAR.fullmatch(text):
                raise ValueError(f"Invalid literal for Fraction: {text!r}")
            return self.of(Fraction(text))
        raise TypeError(f"scalar must be an int or a fraction string, got {text!r}")

    def format(self, scalar):
        """JSON form of a scalar: int where possible, else "a/b"."""
        if self.kind == "GF":
            return int(scalar)
        if scalar.denominator == 1:
            return int(scalar)
        return f"{scalar.numerator}/{scalar.denominator}"

    # -- arithmetic ---------------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "GF" else _Q_ZERO

    @property
    def one(self):
        return 1 if self.kind == "GF" else _Q_ONE

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "GF" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def inv(self, a):
        if self.kind == "GF":
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _Q_ONE / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        return {"kind": "GF", "p": self.p}


QQ = Field("Q")


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    return Field("GF", p)


def field_from_doc(doc) -> Field:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DimensionMismatch(f"field entry must be an object with 'kind', got {doc!r}")
    if doc["kind"] == "Q":
        return QQ
    if doc["kind"] == "GF":
        p = doc.get("p")
        if not isinstance(p, int):
            raise DimensionMismatch(f"GF field needs an integer 'p', got {p!r}")
        return GF(p)
    raise DimensionMismatch(f"unknown field kind {doc['kind']!r}")
