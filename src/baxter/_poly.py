"""Multivariate polynomials over a finite field, used as drop-in scalars.

A :class:`PolyRing` quacks like a :class:`~baxter.gf.Field` (``zero()``,
``one()``, elements supporting ``+ - *`` and unary ``-``), so any computation
written against field elements can be replayed with symbolic variables to
extract the polynomial it computes in the tensor coefficients.  The search
module evaluates the extracted polynomials over integer-encoded coefficient
blocks with numpy table lookups.

Monomials are tuples of variable indices sorted ascending (repetition encodes
powers); coefficients are integer encodings in the base field.
"""
from __future__ import annotations

from .gf import Field, FieldElement

__all__ = ["PolyRing", "Poly"]


class PolyRing:
    """Polynomial ring over ``base`` in ``nvars`` commuting variables."""

    __slots__ = ("base", "nvars", "_zero", "_one")

    def __init__(self, base: Field, nvars: int):
        self.base = base
        self.nvars = nvars
        self._zero = Poly(self, {})
        self._one = Poly(self, {(): 1})

    def zero(self) -> "Poly":
        return self._zero

    def one(self) -> "Poly":
        return self._one

    def var(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        return Poly(self, {(i,): 1})

    def const(self, value) -> "Poly":
        """Embed a field element (or raw encoding) as a constant; a
        polynomial of this ring, such as a family parameter's variable,
        is returned as it is."""
        if isinstance(value, Poly) and value.ring is self:
            return value
        enc = value.value if isinstance(value, FieldElement) else int(value)
        if enc == 0:
            return self._zero
        return Poly(self, {(): enc})

    def __repr__(self) -> str:
        return f"PolyRing({self.base.literal()}, nvars={self.nvars})"


class Poly:
    """Immutable polynomial; ``terms`` maps monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "Poly") -> None:
        if self.ring is not other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        base = self.ring.base
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = base.add_i(out.get(mono, 0), coeff)
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return Poly(self.ring, out)

    def __neg__(self):
        base = self.ring.base
        return Poly(
            self.ring,
            {mono: base.neg_i(c) for mono, c in self.terms.items()},
        )

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        base = self.ring.base
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                acc = base.add_i(out.get(mono, 0), base.mul_i(c1, c2))
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return Poly(self.ring, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            vars_part = "*".join(f"k{v}" for v in mono) or "1"
            bits.append(f"{hex(coeff)}*{vars_part}")
        return "Poly(" + " + ".join(bits) + ")"
