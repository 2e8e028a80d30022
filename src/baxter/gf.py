"""Finite fields GF(p^m) with integer-encoded elements.

Elements are integers in ``[0, q)`` encoding the coefficient vector of the
residue polynomial in base ``p``; for ``p = 2`` the encoding is the bit
pattern.  Fields are interned: constructing the same ``(p, m, modulus)`` twice
returns the same object, and elements carry a reference to their field.

Multiplication in GF(2^m) is carry-less shift-reduce against the modulus;
inversion is exponentiation ``a^(q-2)``.  The modulus must be a monic
irreducible polynomial of degree ``m``, checked at construction by trial
division against all monic polynomials of degree up to ``m // 2``.
"""
from __future__ import annotations

import re

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NonPrimeCharacteristic,
    ParseError,
    ReducibleModulus,
)

__all__ = [
    "Field",
    "FieldElement",
    "field",
    "parse_field",
    "parse_element",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _to_digits(value: int, p: int, width: int) -> list[int]:
    """Base-p digit vector, least significant first, padded to width."""
    ds = []
    for _ in range(width):
        ds.append(value % p)
        value //= p
    return ds


def _from_digits(ds: list[int], p: int) -> int:
    value = 0
    for d in reversed(ds):
        value = value * p + d
    return value


def _poly_degree(ds: list[int]) -> int:
    for k in range(len(ds) - 1, -1, -1):
        if ds[k]:
            return k
    return -1


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over GF(p); den must be monic."""
    num = list(num)
    dd = _poly_degree(den)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for t in range(dd + 1):
                num[k - dd + t] = (num[k - dd + t] - c * den[t]) % p
    return num[:dd] if dd > 0 else []


class Field:
    """An interned finite field GF(p^m)."""

    _cache: dict[tuple[int, int, int | None], "Field"] = {}
    __slots__ = ("p", "m", "q", "modulus", "_moddigits", "_zero", "_one",
                 "_elements")

    def __init__(self, p: int, m: int, modulus: int | None):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._moddigits = (
            None if modulus is None else _to_digits(modulus, p, m + 1)
        )
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1)
        self._elements: tuple[FieldElement, ...] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def make(cls, p: int, m: int = 1, modulus: int | None = None) -> "Field":
        if not _is_prime(p):
            raise NonPrimeCharacteristic(p)
        if m < 1:
            raise InputError(f"extension degree must be >= 1, got {m}")
        if m == 1:
            modulus = None
        else:
            if modulus is None:
                raise InputError(
                    f"gf({p}^{m}) requires a modulus polynomial"
                )
            cls._check_modulus(p, m, modulus)
        key = (p, m, modulus)
        cached = cls._cache.get(key)
        if cached is None:
            cached = cls._cache[key] = cls(p, m, modulus)
        return cached

    @staticmethod
    def _check_modulus(p: int, m: int, modulus: int) -> None:
        if modulus < 0:
            raise DegreeMismatch(m, -1)
        ds = _to_digits(modulus, p, max(m + 1, 1))
        if modulus >= p ** (m + 1) or _poly_degree(ds) != m or ds[m] != 1:
            # not a monic polynomial of degree exactly m
            full = _to_digits(modulus, p, len(bin(modulus)))
            raise DegreeMismatch(m, _poly_degree(full))
        # trial division against every monic polynomial of degree <= m // 2
        for d in range(1, m // 2 + 1):
            for low in range(p ** d):
                den = _to_digits(low, p, d) + [1]
                rem = _poly_rem(ds, den, p)
                if _poly_degree(rem) == -1:
                    raise ReducibleModulus(modulus, _from_digits(den, p))

    # -- element access ------------------------------------------------------

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def element(self, value: int) -> "FieldElement":
        if not 0 <= value < self.q:
            raise InputError(
                f"encoding {value} out of range for {self.literal()}"
            )
        return FieldElement(self, value)

    def elements(self) -> tuple["FieldElement", ...]:
        if self._elements is None:
            self._elements = tuple(
                FieldElement(self, v) for v in range(self.q)
            )
        return self._elements

    # -- integer-encoding arithmetic ----------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        da = _to_digits(a, p, self.m)
        db = _to_digits(b, p, self.m)
        return _from_digits([(x + y) % p for x, y in zip(da, db)], p)

    def neg_i(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        return _from_digits(
            [(-x) % p for x in _to_digits(a, p, self.m)], p
        )

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            # carry-less shift-reduce against the modulus
            r = 0
            mod = self.modulus
            top = 1 << self.m
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        p, m = self.p, self.m
        da = _to_digits(a, p, m)
        db = _to_digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self._moddigits
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                for t in range(m + 1):
                    prod[k - m + t] = (prod[k - m + t] - c * mod[t]) % p
        return _from_digits(prod[:m], p)

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_i(self.inv_i(a), -e)
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul_i(r, base)
            base = self.mul_i(base, base)
            e >>= 1
        return r

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {self.literal()}")
        return self.pow_i(a, self.q - 2)

    # -- formatting ----------------------------------------------------------

    def literal(self) -> str:
        if self.m == 1:
            return f"gf({self.p})"
        mod = bin(self.modulus) if self.p == 2 else str(self.modulus)
        return f"gf({self.p}^{self.m};{mod})"

    def __repr__(self) -> str:
        return f"Field({self.literal()})"


class FieldElement:
    """An element of a :class:`Field`, wrapping its integer encoding."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        self.field = field
        self.value = value

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise FieldMismatch(
                f"operands from {self.field.literal()} and "
                f"{other.field.literal()}"
            )

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.add_i(self.value, other.value))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.sub_i(self.value, other.value))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.mul_i(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.value))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement(self.field, self.field.pow_i(self.value, e))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_i(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.value))

    def literal(self) -> str:
        return hex(self.value)

    def __repr__(self) -> str:
        return f"{self.field.literal()}:{hex(self.value)}"


def field(p: int, m: int = 1, modulus: int | None = None) -> Field:
    """Construct (or fetch the interned) field GF(p^m)."""
    return Field.make(p, m, modulus)


_FIELD_RE = re.compile(
    r"^\s*gf\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?(?:;\s*([0-9a-fA-FbxoX_]+)\s*)?\)\s*$"
)


def parse_field(text: str) -> Field:
    """Parse a field literal such as ``gf(2)`` or ``gf(2^3;0b1011)``."""
    match = _FIELD_RE.match(text)
    if not match:
        raise ParseError(f"bad field literal {text!r}")
    p = int(match.group(1))
    m = int(match.group(2)) if match.group(2) else 1
    modulus = None
    if match.group(3):
        try:
            modulus = int(match.group(3), 0)
        except ValueError as exc:
            raise ParseError(f"bad modulus literal {match.group(3)!r}") from exc
    return field(p, m, modulus)


def parse_element(f: Field, text: str) -> FieldElement:
    """Parse an element literal (hex such as ``0x3``, or plain integer)."""
    try:
        value = int(text.strip(), 0)
    except ValueError as exc:
        raise ParseError(f"bad element literal {text!r}") from exc
    if not 0 <= value < f.q:
        raise ParseError(
            f"element literal {text!r} out of range for {f.literal()}"
        )
    return FieldElement(f, value)
