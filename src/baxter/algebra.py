"""Structure constants, algebra validation, and built-in algebra families.

Structure constants are stored as ``c[i][j][k]`` = coefficient of ``e_k`` in
``e_i o e_j`` (bracket for Lie algebras, product for associative algebras),
0-based internally.  Validation is eager and exhaustive; the first offending
index tuple is carried by the raised error.

Built-in families (characteristic 2, dimension 3):

* ``ab`` family:  ``[e1,e2] = e3``, ``[e2,e3] = alpha e1``, ``[e3,e1] = beta e2``
* ``bd`` family:  ``[e1,e2] = 0``, ``[e1,e3] = e1 + beta e2``, ``[e2,e3] = delta e2``

plus the two dimension-2 Lie algebras (abelian; nonabelian ``[e1,e2] = e1``),
the full matrix-unit associative algebras, and the commutator Lie algebra of
any associative algebra.  Each family's bracket terms are written once, over
any scalars: field elements for one member, or the variables of a polynomial
ring for a :class:`Family`, which a sweep covers in one pass.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field as dc_field

from .errors import (
    AssociativityFailure,
    DimensionMismatch,
    FieldMismatch,
    InputError,
    JacobiFailure,
    NotAlternating,
    NotAntisymmetric,
    ParseError,
    WrongCharacteristic,
)
from .gf import Field, FieldElement, parse_element, parse_field
from .tensor import _contract, _nonzero_entries

__all__ = [
    "StructureConstants",
    "LieAlgebra",
    "AssocAlgebra",
    "FamilyParams",
    "Family",
    "lie_validate",
    "assoc_validate",
    "make_family_ab",
    "make_family_bd",
    "make_dim2",
    "make_matrix_algebra",
    "commutator_lie",
    "parse_algebra",
    "load_algebra",
]


@dataclass(frozen=True)
class FamilyParams:
    """Optional parameters selecting a member of an algebra family."""

    alpha: FieldElement | None = None
    beta: FieldElement | None = None
    delta: FieldElement | None = None

    def as_dict(self) -> dict[str, str]:
        out = {}
        for name in ("alpha", "beta", "delta"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val.literal()
        return out


class StructureConstants:
    """A dim^3 table of scalars ``c[i][j][k]`` over a field.

    Tables are equal when their field (an interned object) and entries
    are, and hash by value, so two algebras built alike are one key of a
    sweep's cached selector systems (:mod:`baxter.search`).
    """

    __slots__ = ("field", "dim", "c", "_hash")

    def __init__(self, field, dim: int, c):
        self.field = field
        self.dim = dim
        self.c = tuple(tuple(tuple(row) for row in block) for block in c)
        if (
            len(self.c) != dim
            or any(len(b) != dim for b in self.c)
            or any(len(r) != dim for b in self.c for r in b)
        ):
            raise DimensionMismatch(f"expected {dim}^3 structure constants")
        self._hash = hash((id(field), self.c))

    def __eq__(self, other) -> bool:
        return (isinstance(other, StructureConstants)
                and self.field is other.field and self.c == other.c)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_terms(cls, field, dim: int, terms) -> "StructureConstants":
        """Build from ``{(i, j): {k: coeff}}``; omitted entries are zero."""
        zero = field.zero()
        c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), row in terms.items():
            for k, coeff in row.items():
                c[i][j][k] = coeff
        return cls(field, dim, c)


def _check_params(field, *params) -> None:
    for p in params:
        if p.field is not field:
            raise FieldMismatch("family parameter from a different field")


@dataclass(frozen=True)
class LieAlgebra:
    """A validated Lie algebra given by structure constants."""

    sc: StructureConstants
    label: str = "lie"
    params: FamilyParams = dc_field(default_factory=FamilyParams)

    @property
    def field(self):
        return self.sc.field

    @property
    def dim(self) -> int:
        return self.sc.dim

    @property
    def c(self):
        return self.sc.c

    def __repr__(self) -> str:
        return f"LieAlgebra({self.label}, dim={self.dim}, {self.field.literal()})"


@dataclass(frozen=True)
class AssocAlgebra:
    """A validated associative algebra given by product constants."""

    sc: StructureConstants
    label: str = "assoc"
    params: FamilyParams = dc_field(default_factory=FamilyParams)

    @property
    def field(self):
        return self.sc.field

    @property
    def dim(self) -> int:
        return self.sc.dim

    @property
    def c(self):
        return self.sc.c

    def __repr__(self) -> str:
        return f"AssocAlgebra({self.label}, dim={self.dim}, {self.field.literal()})"


def _first_nonzero(zero, *parts):
    """The smallest index at which the sparse ``{index: value}`` dicts
    ``parts`` sum to a nonzero value, or None."""
    total: dict[tuple, object] = {}
    for part in parts:
        for idx, v in part.items():
            total[idx] = total[idx] + v if idx in total else v
    return min((idx for idx, v in total.items() if v != zero), default=None)


def lie_validate(sc: StructureConstants, label: str = "lie",
                 params: FamilyParams | None = None) -> LieAlgebra:
    """Check alternating, antisymmetric, and Jacobi; return the algebra."""
    n = sc.dim
    c = sc.c
    zero = sc.field.zero()
    for i in range(n):
        for k in range(n):
            if c[i][i][k] != zero:
                raise NotAlternating(i, k)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c[i][j][k] + c[j][i][k] != zero:
                    raise NotAntisymmetric(i, j, k)
    entries = _nonzero_entries(c, 3, zero)
    bad = _first_nonzero(zero, *(
        _contract("ijkm", [(first, entries), (second, entries)])
        for first, second in (("ijs", "skm"), ("jks", "sim"), ("kis", "sjm"))
    ))
    if bad is not None:
        raise JacobiFailure(*bad)
    return LieAlgebra(sc, label=label, params=params or FamilyParams())


def assoc_validate(sc: StructureConstants, label: str = "assoc") -> AssocAlgebra:
    """Check associativity of the product constants; return the algebra."""
    zero = sc.field.zero()
    a = _nonzero_entries(sc.c, 3, zero)
    left = _contract("ijkm", [("ijs", a), ("skm", a)])
    right = _contract("ijkm", [("jks", a), ("ism", a)])
    bad = _first_nonzero(zero, left, {idx: -v for idx, v in right.items()})
    if bad is not None:
        raise AssociativityFailure(*bad)
    return AssocAlgebra(sc, label=label)


# ---------------------------------------------------------------------------
# built-in families


def _require_char2(field) -> None:
    if field.p != 2:
        raise WrongCharacteristic(
            f"family requires characteristic 2, got {field.p}"
        )


def _ab_terms(one, alpha, beta) -> dict:
    """``[e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2`` over any scalars."""
    return {
        (0, 1): {2: one},
        (1, 0): {2: -one},
        (1, 2): {0: alpha},
        (2, 1): {0: -alpha},
        (2, 0): {1: beta},
        (0, 2): {1: -beta},
    }


def _bd_terms(one, beta, delta) -> dict:
    """``[e1,e2]=0, [e1,e3]=e1+beta e2, [e2,e3]=delta e2`` over any
    scalars."""
    return {
        (0, 2): {0: one, 1: beta},
        (2, 0): {0: -one, 1: -beta},
        (1, 2): {1: delta},
        (2, 1): {1: -delta},
    }


# each family's parameter names and its bracket terms
_FAMILIES = {
    "ab": (("alpha", "beta"), _ab_terms),
    "bd": (("beta", "delta"), _bd_terms),
}


def _family_member(kind: str, field, x, y):
    """The constants, label and parameters of the member ``kind(x, y)``,
    not yet validated."""
    (first, second), terms = _FAMILIES[kind]
    _require_char2(field)
    _check_params(field, x, y)
    sc = StructureConstants.from_terms(field, 3, terms(field.one(), x, y))
    label = f"{kind}({first}={x.literal()},{second}={y.literal()})"
    return sc, label, FamilyParams(**{first: x, second: y})


def make_family_ab(field: Field, alpha: FieldElement,
                   beta: FieldElement) -> LieAlgebra:
    """Dim-3 family ``[e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2``."""
    sc, label, params = _family_member("ab", field, alpha, beta)
    return lie_validate(sc, label=label, params=params)


def make_family_bd(field: Field, beta: FieldElement,
                   delta: FieldElement) -> LieAlgebra:
    """Dim-3 family ``[e1,e2]=0, [e1,e3]=e1+beta e2, [e2,e3]=delta e2``."""
    sc, label, params = _family_member("bd", field, beta, delta)
    return lie_validate(sc, label=label, params=params)


@dataclass(frozen=True)
class Family:
    """Every member of the ``ab`` or ``bd`` family over ``field``, to be
    swept at once.

    :meth:`members` are the algebras :func:`make_family_ab` /
    :func:`make_family_bd` build, in ascending order of the two parameters
    (the first one major), built once per family value; :meth:`symbolic`
    is the family as one Lie algebra over a polynomial ring whose
    variables 0 and 1 are the parameters, so a selector's equations
    replayed on it hold for exactly the (parameters, tensor) pairs of
    members and their solutions.
    """

    kind: str
    field: Field
    dim = 3

    def members(self) -> tuple[LieAlgebra, ...]:
        """The members in parameter order: ``kind(x, y)`` is at index
        ``x * q + y`` for the encodings ``x`` and ``y``."""
        return _family_members(self)

    def symbolic(self, ring) -> LieAlgebra:
        """The family over ``ring`` (a :class:`~baxter._poly.PolyRing` over
        :attr:`field`), with ring variables 0 and 1 as the parameters."""
        _require_char2(self.field)
        (first, second), terms = _FAMILIES[self.kind]
        x, y = ring.var(0), ring.var(1)
        sc = StructureConstants.from_terms(ring, 3, terms(ring.one(), x, y))
        return lie_validate(sc, label=f"{self.kind}({first},{second})",
                            params=FamilyParams(**{first: x, second: y}))


@functools.lru_cache(maxsize=64)
def _family_members(family: Family) -> tuple[LieAlgebra, ...]:
    """:meth:`Family.members`, each one Jacobi-checked when the tuple is
    filled, once per process and family value."""
    elements = family.field.elements()
    return tuple(lie_validate(*_family_member(family.kind, family.field, x, y))
                 for x in elements for y in elements)


def make_dim2(field: Field, kind: str) -> LieAlgebra:
    """The two dim-2 Lie algebras: ``abelian`` or ``nonabelian`` ([e1,e2]=e1)."""
    if kind == "abelian":
        sc = StructureConstants.from_terms(field, 2, {})
    elif kind == "nonabelian":
        one = field.one()
        sc = StructureConstants.from_terms(
            field, 2, {(0, 1): {0: one}, (1, 0): {0: -one}}
        )
    else:
        raise InputError(f"unknown dim-2 kind {kind!r}")
    return lie_validate(sc, label=f"dim2-{kind}")


def make_matrix_algebra(field: Field, size: int) -> AssocAlgebra:
    """Full matrix algebra on unit basis ``E_ab`` (index ``a*size + b``)."""
    if size < 1:
        raise InputError(f"matrix size must be >= 1, got {size}")
    n = size * size
    one = field.one()
    terms: dict[tuple[int, int], dict[int, FieldElement]] = {}
    for a in range(size):
        for b in range(size):
            for c_ in range(size):
                for d in range(size):
                    if b == c_:
                        i = a * size + b
                        j = c_ * size + d
                        k = a * size + d
                        terms.setdefault((i, j), {})[k] = one
    sc = StructureConstants.from_terms(field, n, terms)
    return assoc_validate(sc, label=f"mat{size}")


def commutator_lie(algebra: AssocAlgebra) -> LieAlgebra:
    """The Lie algebra ``L(A)`` with ``[x,y] = xy - yx``."""
    n = algebra.dim
    a = algebra.c
    c = [
        [
            [a[i][j][k] - a[j][i][k] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    sc = StructureConstants(algebra.field, n, c)
    return lie_validate(sc, label=f"commutator({algebra.label})")


# ---------------------------------------------------------------------------
# algebra definition files
#
#   # comment
#   field gf(2^2;0b111)
#   dim 3
#   bracket 1 2 -> 3:0x1
#   bracket 1 3 -> 1:0x1 2:0x2
#
# ``bracket`` lines describe a Lie bracket (the antisymmetric counterpart of
# each declared pair is filled in automatically unless declared explicitly);
# ``product`` lines describe an associative product (no auto-fill).  Omitted
# pairs are zero.  Indices are 1-based.


def parse_algebra(text: str, label: str = "file") -> LieAlgebra | AssocAlgebra:
    field_obj: Field | None = None
    dim: int | None = None
    kind: str | None = None
    declared: dict[tuple[int, int], dict[int, FieldElement]] = {}
    explicit: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "field":
            if len(parts) != 2:
                raise ParseError("field line needs one literal", line=lineno)
            field_obj = parse_field(parts[1])
        elif head == "dim":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("dim line needs one integer", line=lineno)
            dim = int(parts[1])
            if dim < 1:
                raise ParseError("dim must be >= 1", line=lineno)
        elif head in ("bracket", "product"):
            if field_obj is None or dim is None:
                raise ParseError(
                    "field and dim must be declared before "
                    f"{head} lines", line=lineno,
                )
            if kind is None:
                kind = head
            elif kind != head:
                raise ParseError(
                    "cannot mix bracket and product lines", line=lineno
                )
            if len(parts) < 4 or parts[3] != "->":
                raise ParseError(
                    f"expected '{head} I J -> K:COEFF ...'", line=lineno
                )
            try:
                i = int(parts[1]) - 1
                j = int(parts[2]) - 1
            except ValueError:
                raise ParseError("bad basis index", line=lineno) from None
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(
                    f"basis index out of range 1..{dim}", line=lineno
                )
            if (i, j) in explicit:
                raise ParseError(
                    f"duplicate declaration for pair {i + 1} {j + 1}",
                    line=lineno,
                )
            explicit.add((i, j))
            row: dict[int, FieldElement] = {}
            for term in parts[4:]:
                if ":" not in term:
                    raise ParseError(
                        f"bad term {term!r}, expected K:COEFF", line=lineno
                    )
                k_text, coeff_text = term.split(":", 1)
                try:
                    k = int(k_text) - 1
                except ValueError:
                    raise ParseError("bad basis index", line=lineno) from None
                if not 0 <= k < dim:
                    raise ParseError(
                        f"basis index out of range 1..{dim}", line=lineno
                    )
                if k in row:
                    raise ParseError(
                        f"duplicate target e{k + 1}", line=lineno
                    )
                try:
                    row[k] = parse_element(field_obj, coeff_text)
                except ParseError as exc:
                    raise ParseError(str(exc), line=lineno) from None
            declared[(i, j)] = row
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)

    if field_obj is None or dim is None:
        raise ParseError("file must declare field and dim")

    if kind == "bracket" or kind is None:
        # fill antisymmetric counterparts for pairs not declared explicitly
        for (i, j), row in list(declared.items()):
            if i != j and (j, i) not in explicit:
                declared[(j, i)] = {k: -v for k, v in row.items()}
        sc = StructureConstants.from_terms(field_obj, dim, declared)
        return lie_validate(sc, label=label)
    sc = StructureConstants.from_terms(field_obj, dim, declared)
    return assoc_validate(sc, label=label)


def load_algebra(path: str) -> LieAlgebra | AssocAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_algebra(text, label=f"file:{os.path.basename(path)}")
