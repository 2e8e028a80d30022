"""Order-2 and order-3 tensors over a finite field, plus basis utilities.

Coefficient conventions: ``r = sum k[i][j] e_i (x) e_j`` with 0-based internal
indices (the CLI and all user-facing text are 1-based).  A ``Tensor2`` encodes
to an integer by reading its coefficients row-major as big-endian base-q
digits, so ascending encodings agree with lexicographic coefficient order.

The flip ``tau`` swaps the two slots of a ``Tensor2``; the 3-cycle ``xi`` on a
``Tensor3`` is ``result[i][j][l] = T[j][l][i]``, i.e. it sends
``a (x) b (x) c`` to ``c (x) a (x) b`` at coefficient level.

Every index sum of the package (Yang-Baxter brackets and sides, adjoint
actions, the co-Jacobi product, basis changes, the Jacobi and associativity
checks) is an ``einsum``-style call of the sparse contraction ``_contract``,
and ``_from_sparse`` makes its result dense.  It only adds and multiplies, so it runs on field elements and on
symbolic polynomials alike.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ParseError,
    SingularMatrix,
)
from .gf import Field, FieldElement, parse_element

__all__ = [
    "Tensor2",
    "Tensor3",
    "NamedCoeffs",
    "BasisChange",
    "named_view",
    "named_pack",
    "im_one_minus_tau_member",
    "encoding_literal",
    "parse_tensor2",
]


def _check_same_domain(a, b) -> None:
    if a.field is not b.field:
        raise FieldMismatch("tensors over different fields")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim}")


class Tensor2:
    """Immutable rank-2 tensor (square coefficient matrix)."""

    __slots__ = ("field", "dim", "rows")

    def __init__(self, field, dim: int, rows):
        self.field = field
        self.dim = dim
        self.rows = tuple(tuple(row) for row in rows)
        if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
            raise DimensionMismatch(f"expected {dim}x{dim} coefficients")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field, dim: int) -> "Tensor2":
        return _from_sparse(field, dim, 2)

    @classmethod
    def from_flat(cls, field, dim: int, flat) -> "Tensor2":
        flat = list(flat)
        if len(flat) != dim * dim:
            raise DimensionMismatch(
                f"expected {dim * dim} coefficients, got {len(flat)}"
            )
        return cls(
            field, dim,
            [flat[i * dim:(i + 1) * dim] for i in range(dim)],
        )

    @classmethod
    def decode(cls, field: Field, dim: int, code: int) -> "Tensor2":
        """Inverse of :meth:`encode`, reading each base-q digit's element
        from ``field.elements()``."""
        q, elements = field.q, field.elements()
        flat = [None] * (dim * dim)
        for k in range(dim * dim - 1, -1, -1):
            code, digit = divmod(code, q)
            flat[k] = elements[digit]
        return cls(field, dim, [flat[i * dim:(i + 1) * dim]
                                for i in range(dim)])

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entries(self):
        for i in range(self.dim):
            for j in range(self.dim):
                yield i, j, self.rows[i][j]

    # -- algebra ---------------------------------------------------------------

    def add(self, other: "Tensor2") -> "Tensor2":
        _check_same_domain(self, other)
        return Tensor2(
            self.field, self.dim,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __add__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.add(other)

    def flip(self) -> "Tensor2":
        """The flip ``tau``: swap the two tensor slots (transpose)."""
        n = self.dim
        return Tensor2(
            self.field, n,
            [[self.rows[j][i] for j in range(n)] for i in range(n)],
        )

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(v == zero for row in self.rows for v in row)

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(n) for j in range(i + 1, n)
        )

    # -- encoding / formatting ---------------------------------------------------

    def encode(self) -> int:
        q = self.field.q
        code = 0
        for row in self.rows:
            for v in row:
                code = code * q + v.value
        return code

    def literal(self) -> str:
        return ",".join(v.literal() for row in self.rows for v in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor2)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.rows))

    def __repr__(self) -> str:
        return f"Tensor2({self.field.literal()}, dim={self.dim}, {self.literal()})"


class Tensor3:
    """Immutable rank-3 tensor."""

    __slots__ = ("field", "dim", "coeffs")

    def __init__(self, field, dim: int, coeffs):
        self.field = field
        self.dim = dim
        self.coeffs = tuple(
            tuple(tuple(plane) for plane in block) for block in coeffs
        )
        if (
            len(self.coeffs) != dim
            or any(len(b) != dim for b in self.coeffs)
            or any(len(p) != dim for b in self.coeffs for p in b)
        ):
            raise DimensionMismatch(f"expected {dim}^3 coefficients")

    @classmethod
    def zero(cls, field, dim: int) -> "Tensor3":
        return _from_sparse(field, dim, 3)

    def __getitem__(self, ijl):
        i, j, l = ijl
        return self.coeffs[i][j][l]

    def entries(self):
        for i in range(self.dim):
            for j in range(self.dim):
                for l in range(self.dim):
                    yield i, j, l, self.coeffs[i][j][l]

    def add(self, other: "Tensor3") -> "Tensor3":
        _check_same_domain(self, other)
        return Tensor3(
            self.field, self.dim,
            [
                [
                    [a + b for a, b in zip(pa, pb)]
                    for pa, pb in zip(ba, bb)
                ]
                for ba, bb in zip(self.coeffs, other.coeffs)
            ],
        )

    def __add__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.add(other)

    def cycle(self) -> "Tensor3":
        """The 3-cycle ``xi``: ``result[i][j][l] = T[j][l][i]``."""
        n = self.dim
        return Tensor3(
            self.field, n,
            [
                [
                    [self.coeffs[j][l][i] for l in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(
            v == zero
            for block in self.coeffs for plane in block for v in plane
        )

    def nonzero_entries(self):
        zero = self.field.zero()
        return [(*ijl, v) for ijl, v in _nonzero_entries(self.coeffs, 3, zero)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:
        nz = [
            f"[{i + 1},{j + 1},{l + 1}]={v.literal()}"
            for i, j, l, v in self.nonzero_entries()
        ]
        body = " ".join(nz) if nz else "0"
        return f"Tensor3({self.field.literal()}, dim={self.dim}, {body})"


# ---------------------------------------------------------------------------
# sparse contraction


def _nonzero_entries(rows, rank: int, zero):
    """``(index_tuple, value)`` for every nonzero entry of a nested
    ``rank``-deep square sequence."""
    out = []
    for idx in itertools.product(range(len(rows)), repeat=rank):
        v = rows
        for i in idx:
            v = v[i]
        if v != zero:
            out.append((idx, v))
    return out


def _picker(positions):
    """``t -> tuple(t[p] for p in positions)`` as one call."""
    if len(positions) == 1:
        return lambda t, p=positions[0]: (t[p],)
    return itemgetter(*positions) if positions else lambda t: ()


@functools.cache
def _plan(out: str, labels: tuple[str, ...]):
    """Where ``_contract`` reads each index, worked out once per formula.

    Per factor: the labels it shares with the running key, picked from the
    key and from the factor's index, and the labels still needed after it,
    picked from the two concatenated; last, ``out`` from the final key.
    """
    steps, held = [], ""
    for pos, flabels in enumerate(labels):
        needed = set(out).union(*labels[pos + 1:])
        joined = held + flabels
        kept = "".join(
            c for i, c in enumerate(joined)
            if c in needed and joined.index(c) == i
        )
        shared = [c for c in flabels if c in held]
        steps.append((
            _picker([held.index(c) for c in shared]),
            _picker([flabels.index(c) for c in shared]),
            _picker([joined.index(c) for c in kept]),
        ))
        held = kept
    return tuple(steps), _picker([held.index(c) for c in out])


def _contract(out: str, factors) -> dict:
    """Sum over every index not in ``out`` of the product of ``factors``.

    Each factor is ``(labels, entries)``: nonzero entries as
    ``(index_tuple, value)`` pairs, one index per letter of ``labels``.
    Factors are joined left to right and an index is summed out as soon as
    neither a later factor nor ``out`` names it, so the factor order sets
    the size of every intermediate.  Returns ``{out index tuple: value}``
    with absent keys meaning zero.
    """
    steps, final = _plan(out, tuple(labels for labels, _ in factors))
    terms = {(): None}
    for (on_key, on_factor, kept), (_, entries) in zip(steps, factors):
        groups: dict[tuple, list] = {}
        for idx, v in entries:
            groups.setdefault(on_factor(idx), []).append((idx, v))
        nxt: dict[tuple, object] = {}
        for key, acc in terms.items():
            for idx, v in groups.get(on_key(key), ()):
                k = kept(key + idx)
                prod = v if acc is None else acc * v
                nxt[k] = nxt[k] + prod if k in nxt else prod
        terms = nxt
    return {final(k): v for k, v in terms.items()}


def _from_sparse(field, dim: int, rank: int, *parts):
    """The ``Tensor2`` (rank 2) or ``Tensor3`` (rank 3) summing the sparse
    ``{index_tuple: value}`` dicts ``parts``; absent indices are zero."""
    total: dict[tuple, object] = {}
    for part in parts:
        for idx, v in part.items():
            total[idx] = total[idx] + v if idx in total else v
    zero = field.zero()
    n = range(dim)
    if rank == 2:
        return Tensor2(
            field, dim, [[total.get((i, j), zero) for j in n] for i in n]
        )
    return Tensor3(field, dim, [
        [[total.get((i, j, l), zero) for l in n] for j in n] for i in n
    ])


# ---------------------------------------------------------------------------
# Im(1 - tau) membership


def im_one_minus_tau_member(r: Tensor2) -> bool:
    """Whether ``r`` lies in the image of ``1 - tau`` on V (x) V.

    In characteristic 2 the image is exactly the symmetric tensors with zero
    diagonal; in odd characteristic it is the antisymmetric tensors (zero
    diagonal included).
    """
    n = r.dim
    zero = r.field.zero()
    if any(r.rows[i][i] != zero for i in range(n)):
        return False
    if r.field.p == 2:
        return r.is_symmetric()
    return all(
        r.rows[i][j] == -r.rows[j][i]
        for i in range(n) for j in range(i + 1, n)
    )


# ---------------------------------------------------------------------------
# named coefficients for dim 3 (1-based aliases x..v)


@dataclass(frozen=True)
class NamedCoeffs:
    """Aliases for the nine dim-3 coefficients.

    ``x=k11, y=k22, z=k33, p=k12, q=k21, s=k13, t=k31, u=k23, v=k32``
    (1-based index pairs).
    """

    x: object
    y: object
    z: object
    p: object
    q: object
    s: object
    t: object
    u: object
    v: object


def named_view(r: Tensor2) -> NamedCoeffs:
    if r.dim != 3:
        raise DimensionMismatch("named coefficients require dim 3")
    k = r.rows
    return NamedCoeffs(
        x=k[0][0], y=k[1][1], z=k[2][2],
        p=k[0][1], q=k[1][0],
        s=k[0][2], t=k[2][0],
        u=k[1][2], v=k[2][1],
    )


def named_pack(field, nc: NamedCoeffs) -> Tensor2:
    return Tensor2(
        field, 3,
        [
            [nc.x, nc.p, nc.s],
            [nc.q, nc.y, nc.u],
            [nc.t, nc.v, nc.z],
        ],
    )


# ---------------------------------------------------------------------------
# basis change


def _mat_is_invertible(field: Field, rows) -> bool:
    n = len(rows)
    m = [[v.value for v in row] for row in rows]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return False
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv_i(m[rank][col])
        m[rank] = [field.mul_i(inv, v) for v in m[rank]]
        for r in range(n):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [
                    field.sub_i(v, field.mul_i(c, w))
                    for v, w in zip(m[r], m[rank])
                ]
        rank += 1
    return rank == n


class BasisChange:
    """An invertible matrix ``q`` acting on tensors: ``e_i -> sum q[s][i] e_s``.

    ``apply_t2`` implements ``k'[s][t] = sum k[i][j] q[s][i] q[t][j]``.
    """

    __slots__ = ("field", "dim", "matrix")

    def __init__(self, field: Field, matrix):
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)
        self.dim = len(self.matrix)
        if any(len(row) != self.dim for row in self.matrix):
            raise DimensionMismatch("basis-change matrix must be square")
        if not _mat_is_invertible(field, self.matrix):
            raise SingularMatrix("basis-change matrix is singular")

    def apply_t2(self, r: Tensor2) -> Tensor2:
        if r.field is not self.field:
            raise FieldMismatch("tensor and basis change over different fields")
        if r.dim != self.dim:
            raise DimensionMismatch(f"dimensions {r.dim} and {self.dim}")
        zero = self.field.zero()
        q = _nonzero_entries(self.matrix, 2, zero)
        k = _nonzero_entries(r.rows, 2, zero)
        return _from_sparse(
            self.field, self.dim, 2,
            _contract("st", [("ij", k), ("si", q), ("tj", q)]),
        )

    def then(self, other: "BasisChange") -> "BasisChange":
        """Composite change: apply ``self`` first, then ``other``.

        Its matrix is the product ``other.matrix @ self.matrix``.
        """
        if self.field is not other.field or self.dim != other.dim:
            raise FieldMismatch("incompatible basis changes")
        zero = self.field.zero()
        prod = _contract("ij", [
            ("ik", _nonzero_entries(other.matrix, 2, zero)),
            ("kj", _nonzero_entries(self.matrix, 2, zero)),
        ])
        return BasisChange(
            self.field, _from_sparse(self.field, self.dim, 2, prod).rows
        )


# ---------------------------------------------------------------------------
# literals


@functools.cache
def _hex_digits(q: int) -> tuple[str, ...]:
    return tuple(hex(v) for v in range(q))


def encoding_literal(field: Field, dim: int, code: int) -> str:
    """``Tensor2.decode(field, dim, code).literal()``, written from the
    code's base-q digits without building field elements."""
    q, hexes = field.q, _hex_digits(field.q)
    out = [""] * (dim * dim)
    for k in range(dim * dim - 1, -1, -1):
        code, digit = divmod(code, q)
        out[k] = hexes[digit]
    return ",".join(out)


def parse_tensor2(field: Field, text: str) -> Tensor2:
    """Parse a row-major comma list of element literals into a Tensor2."""
    parts = [p for p in (chunk.strip() for chunk in text.split(",")) if p]
    n2 = len(parts)
    dim = int(round(n2 ** 0.5))
    if dim * dim != n2 or dim == 0:
        raise ParseError(
            f"tensor literal has {n2} entries, not a nonzero perfect square"
        )
    flat = [parse_element(field, p) for p in parts]
    return Tensor2.from_flat(field, dim, flat)
