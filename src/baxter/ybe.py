"""Classical and quantum Yang-Baxter residuals and solution classifiers.

For ``r = sum k[i][j] e_i (x) e_j`` in a Lie algebra with structure constants
``c``, the three embedded brackets expand to

* ``[r12,r13][w][a][b] = sum_{i,j} k[i][a] k[j][b] c[i][j][w]``
* ``[r12,r23][a][w][b] = sum_{j,m} k[a][j] k[m][b] c[j][m][w]``
* ``[r13,r23][a][b][w] = sum_{j,m} k[a][j] k[b][m] c[j][m][w]``

and the classical residual is their sum; ``r`` solves CYBE iff it vanishes.
For an associative algebra the quantum sides are computed purely from the
product constants ``a``:

* ``lhs[i][j][l] = sum k[s][u] k[t][v] k[m][w] a[s][t][i] a[u][m][j] a[v][w][l]``
* ``rhs[i][j][l] = sum k[s][u] k[t][v] k[m][w] a[t][m][i] a[s][w][j] a[u][v][l]``

The module also provides the strong-symmetry predicate and its rank-one
normal form, the dim-3 family classifiers, and hand-expanded per-family
coefficient systems.  The expanded systems are deliberately maintained as a
separate code path from ``cybe_residual`` so the two routes can adjudicate
each other; reports cite the relation labels (28)-(54) and (28)-(48).

Each index sum above is one ``tensor._contract`` call whose label strings
spell the formula's indices letter for letter, so these formulas are the
specification the code follows.  All computations are written against
generic ring scalars, so the same code runs on field elements and on
symbolic polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    CaseNotCovered,
    DimensionMismatch,
    FieldMismatch,
    InputError,
    WrongCharacteristic,
)
from .gf import FieldElement
from .tensor import (
    NamedCoeffs,
    Tensor2,
    Tensor3,
    _contract,
    _from_sparse,
    _nonzero_entries,
    named_view,
)

__all__ = [
    "bracket_12_13",
    "bracket_12_23",
    "bracket_13_23",
    "cybe_residual",
    "is_cybe_solution",
    "QybeSides",
    "qybe_sides",
    "is_qybe_solution",
    "is_strongly_symmetric",
    "strong_symmetry_equations",
    "Rank1Decomposition",
    "strong_rank1_decompose",
    "rank1_tensor",
    "is_alpha_beta_symmetric",
    "ab_symmetric_equations",
    "bd_case_of",
    "bd_case_equations",
    "is_bd_case_solution",
    "AB_SYSTEM_LABELS",
    "BD_SYSTEM_LABELS",
    "ab_printed_system",
    "bd_printed_system",
]


def _check_pair(L, r) -> None:
    if L.field is not r.field:
        raise FieldMismatch("algebra and tensor over different fields")
    if L.dim != r.dim:
        raise DimensionMismatch(
            f"algebra dim {L.dim} vs tensor dim {r.dim}"
        )


# (out, c, k, k) index labels of each embedded bracket, as in the docstring
_BRACKET_LABELS = {
    "12_13": ("wab", "ijw", "ia", "jb"),
    "12_23": ("awb", "jmw", "aj", "mb"),
    "13_23": ("abw", "jmw", "aj", "bm"),
}


def _brackets(L, r: Tensor2, *names):
    """The sparse coefficients of the named embedded brackets."""
    _check_pair(L, r)
    zero = r.field.zero()
    c = _nonzero_entries(L.c, 3, zero)
    k = _nonzero_entries(r.rows, 2, zero)
    return [
        _contract(out, [(cl, c), (k1, k), (k2, k)])
        for out, cl, k1, k2 in map(_BRACKET_LABELS.get, names)
    ]


def bracket_12_13(L, r: Tensor2) -> Tensor3:
    return _from_sparse(r.field, r.dim, 3, *_brackets(L, r, "12_13"))


def bracket_12_23(L, r: Tensor2) -> Tensor3:
    return _from_sparse(r.field, r.dim, 3, *_brackets(L, r, "12_23"))


def bracket_13_23(L, r: Tensor2) -> Tensor3:
    return _from_sparse(r.field, r.dim, 3, *_brackets(L, r, "13_23"))


def cybe_residual(L, r: Tensor2) -> Tensor3:
    """``[r12,r13] + [r12,r23] + [r13,r23]``; zero iff ``r`` solves CYBE."""
    return _from_sparse(r.field, r.dim, 3, *_brackets(L, r, *_BRACKET_LABELS))


def is_cybe_solution(L, r: Tensor2) -> bool:
    return cybe_residual(L, r).is_zero()


class QybeSides(NamedTuple):
    lhs: Tensor3
    rhs: Tensor3


def qybe_sides(A, R: Tensor2) -> QybeSides:
    """Both sides of ``R12 R13 R23 = R23 R13 R12`` as coefficient tensors.

    Each side is the six-factor sum in the module docstring; the factor
    orders below keep every intermediate to at most four free indices.
    """
    _check_pair(A, R)
    zero = R.field.zero()
    k = _nonzero_entries(R.rows, 2, zero)
    a = _nonzero_entries(A.c, 3, zero)
    return QybeSides(
        _from_sparse(R.field, R.dim, 3, _contract(
            "ijl", [("su", k), ("sti", a), ("tv", k),
                    ("umj", a), ("mw", k), ("vwl", a)],
        )),
        _from_sparse(R.field, R.dim, 3, _contract(
            "ijl", [("tmi", a), ("tv", k), ("uvl", a),
                    ("su", k), ("mw", k), ("swj", a)],
        )),
    )


def is_qybe_solution(A, R: Tensor2) -> bool:
    lhs, rhs = qybe_sides(A, R)
    return lhs == rhs


# ---------------------------------------------------------------------------
# strong symmetry


def strong_symmetry_equations(k, n: int):
    """Generators ``k[i][j] k[l][m] - k[i][l] k[j][m]`` over all quadruples.

    ``k`` is any square nested sequence of ring scalars.  Symmetry of the
    matrix follows from these relations, so no separate symmetry generators
    are needed.
    """
    out = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(n):
                    out.append(k[i][j] * k[l][m] - k[i][l] * k[j][m])
    return out


def is_strongly_symmetric(r: Tensor2) -> bool:
    """``k_ij k_lm = k_il k_jm`` for all index quadruples, compared as
    integer encodings."""
    n = r.dim
    mul = r.field.mul_i
    k = [[v.value for v in row] for row in r.rows]
    for i in range(n):
        for j in range(n):
            for l in range(j + 1, n):  # (i, l, j, m) is the same equation
                for m in range(n):
                    if mul(k[i][j], k[l][m]) != mul(k[i][l], k[j][m]):
                        return False
    return True


@dataclass(frozen=True)
class Rank1Decomposition:
    """Outcome of :func:`strong_rank1_decompose`.

    ``kind`` is ``"zero"``, ``"rank1"`` (with ``scale`` and ``vector`` such
    that ``k[i][j] = scale * vector[i] * vector[j]``), or
    ``"not-strongly-symmetric"``.
    """

    kind: str
    scale: object | None = None
    vector: tuple | None = None


def strong_rank1_decompose(r: Tensor2) -> Rank1Decomposition:
    """Normal form of a strongly symmetric tensor.

    A nonzero strongly symmetric ``r`` has some ``k[i0][i0] != 0`` (its first
    such index is used) and equals ``c * v (x) v`` with ``c = k[i0][i0]^-1``
    and ``v[i] = k[i0][i]``.
    """
    if r.is_zero():
        return Rank1Decomposition("zero")
    if not is_strongly_symmetric(r):
        return Rank1Decomposition("not-strongly-symmetric")
    n = r.dim
    zero = r.field.zero()
    i0 = next(i for i in range(n) if r.rows[i][i] != zero)
    scale = r.rows[i0][i0].inverse()
    vector = tuple(r.rows[i0][i] for i in range(n))
    return Rank1Decomposition("rank1", scale=scale, vector=vector)


def rank1_tensor(field, scale, vector) -> Tensor2:
    """Build ``scale * v (x) v`` from a scale and a coefficient vector."""
    n = len(vector)
    return Tensor2(
        field, n,
        [[scale * vector[i] * vector[j] for j in range(n)] for i in range(n)],
    )


# ---------------------------------------------------------------------------
# dim-3 family classifiers


def ab_symmetric_equations(nc: NamedCoeffs, alpha, beta):
    """Generators of the ab-family solution shape (characteristic 2 form).

    ``p=q, s=t, u=v`` and
    ``alpha yz + beta xz + xy + beta s^2 + alpha u^2 + p^2 = 0``.
    """
    x, y, z = nc.x, nc.y, nc.z
    p, q, s, t, u, v = nc.p, nc.q, nc.s, nc.t, nc.u, nc.v
    condition = (
        alpha * y * z + beta * x * z + x * y
        + beta * s * s + alpha * u * u + p * p
    )
    return [p - q, s - t, u - v, condition]


def is_alpha_beta_symmetric(r: Tensor2, alpha, beta) -> bool:
    if r.field.p != 2:
        raise WrongCharacteristic(
            "alpha,beta-symmetry is a characteristic-2 notion"
        )
    zero = r.field.zero()
    nc = named_view(r)
    return all(
        eq == zero for eq in ab_symmetric_equations(nc, alpha, beta)
    )


def bd_case_of(beta, delta) -> str:
    """Which classified bd-family case ``(beta, delta)`` falls into.

    ``II``: beta = 0, delta != 0; ``III``: beta != 0, delta = 1;
    ``IV``: beta = delta = 0.  Anything else raises ``CaseNotCovered``.
    The case branches on the values, so ring elements (a symbolic family
    member's parameters) raise ``InputError``.
    """
    if not (isinstance(beta, FieldElement)
            and isinstance(delta, FieldElement)):
        raise InputError(
            f"the bd case needs field values, got beta={beta!r}, "
            f"delta={delta!r}"
        )
    one = beta.field.one()
    if beta.is_zero():
        return "IV" if delta.is_zero() else "II"
    if delta == one:
        return "III"
    raise CaseNotCovered(beta.literal(), delta.literal())


def bd_case_equations(case: str, nc: NamedCoeffs, beta, delta, one):
    """Generators of the classified bd-family solution sets.

    * II  -> ``s=t, u=v`` and
      ``(delta+1)zp = (delta+1)qz = (delta+1)us``,
      ``(delta+1)uq = (delta+1)up``, ``(delta+1)ps = (delta+1)qs``
    * III -> ``s=t, u=v`` and ``sp=sq, up=qu, zq=zp, s^2=xz``
    * IV  -> ``s=t`` and ``vs=pz, us=qz, qv=pu, (p+q)s=(u+v)x``
    """
    x, y, z = nc.x, nc.y, nc.z
    p, q, s, t, u, v = nc.p, nc.q, nc.s, nc.t, nc.u, nc.v
    if case == "II":
        d1 = delta + one
        return [
            s - t,
            u - v,
            d1 * (z * p - q * z),
            d1 * (q * z - u * s),
            d1 * (u * q - u * p),
            d1 * (p * s - q * s),
        ]
    if case == "III":
        return [
            s - t,
            u - v,
            s * p - s * q,
            u * p - q * u,
            z * q - z * p,
            s * s - x * z,
        ]
    if case == "IV":
        return [
            s - t,
            v * s - p * z,
            u * s - q * z,
            q * v - p * u,
            (p + q) * s - (u + v) * x,
        ]
    raise ValueError(f"unknown case {case!r}")


def is_bd_case_solution(r: Tensor2, beta, delta) -> bool:
    """Classifier membership for the covered bd-family cases."""
    if r.field.p != 2:
        raise WrongCharacteristic(
            "the bd-family classification is a characteristic-2 notion"
        )
    case = bd_case_of(beta, delta)
    zero = r.field.zero()
    one = r.field.one()
    nc = named_view(r)
    return all(
        eq == zero
        for eq in bd_case_equations(case, nc, beta, delta, one)
    )


# ---------------------------------------------------------------------------
# hand-expanded per-family coefficient systems (independent comparison route)

AB_SYSTEM_LABELS = tuple(range(28, 55))

BD_SYSTEM_LABELS = tuple(range(28, 49))


def ab_printed_system(nc: NamedCoeffs, alpha, beta):
    """The 27-relation expanded system for the ab family.

    Returned in label order (:data:`AB_SYSTEM_LABELS`); ``r`` solves CYBE in
    the ab family iff every relation vanishes.  This expansion is maintained
    verbatim, independent of :func:`cybe_residual`, so the two routes can be
    compared; any disagreement is adjudicated with the residual as ground
    truth.
    """
    a, b = alpha, beta
    x, y, z = nc.x, nc.y, nc.z
    p, q, s, t, u, v = nc.p, nc.q, nc.s, nc.t, nc.u, nc.v
    return (
        a * p * t - a * q * s,                                        # (28)
        b * q * v - b * p * u,                                        # (29)
        t * u - v * s,                                                # (30)
        a * y * z - b * x * z + x * y - a * u * v + b * s * s - p * q,  # (31)
        b * z * x - y * x + a * y * z - b * s * t + q * q - a * u * v,  # (32)
        x * y - a * z * y + b * z * x - p * q + a * v * v - b * s * t,  # (33)
        -(a * z * y) + x * y - b * x * z + a * u * v - p * p + b * s * t,  # (34)
        -(x * y) + b * x * z - a * y * z + p * q - b * t * t + a * u * v,  # (35)
        -(b * x * z) + a * y * z - y * x + b * s * t - a * u * u + p * q,  # (36)
        a * (-(t * y) + q * v + p * v - s * y),                       # (37)
        a * (-(u * q) + y * t + y * s - u * p),                       # (38)
        a * (q * z - t * u + p * z - s * u),                          # (39)
        a * (v * t - z * q + v * s - z * p),                          # (40)
        b * (-(p * t) + v * x + u * x - q * t),                       # (41)
        b * (-(x * v) + s * p - x * u + s * q),                       # (42)
        b * (v * s - p * z + u * s - q * z),                          # (43)
        b * (-(t * v) + z * p + z * q - t * u),                       # (44)
        s * q - u * x + t * q - v * x,                                # (45)
        -(u * p) + s * y - v * p + t * y,                             # (46)
        q * u - y * s + q * v - y * t,                                # (47)
        -(p * s) + x * u - p * t + x * v,                             # (48)
        a * u * t - a * z * q - p * x + x * q + a * p * z - a * s * v,  # (49)
        -(a * v * q) + a * y * t - b * x * t + b * s * x - a * s * y
        + a * p * u,                                                  # (50)
        b * t * p - b * x * v + a * y * v - a * u * y - b * q * s
        + b * u * x,                                                  # (51)
        -(b * s * v) + b * z * p + q * y - y * p - b * q * z + b * u * t,  # (52)
        p * u - y * s - b * t * z + b * z * s + t * y - v * q,        # (53)
        -(q * s) + x * u + a * v * z - a * z * u + t * p - v * x,     # (54)
    )


def bd_printed_system(nc: NamedCoeffs, beta, delta):
    """The 21-relation expanded system for the bd family.

    Returned in label order (:data:`BD_SYSTEM_LABELS`); same independent-route
    contract as :func:`ab_printed_system`.
    """
    b, d = beta, delta
    x, y, z = nc.x, nc.y, nc.z
    p, q, s, t, u, v = nc.p, nc.q, nc.s, nc.t, nc.u, nc.v
    return (
        -(s * x) + x * t,                                             # (28)
        -(b * u * p) + b * q * v - d * u * y + d * y * v,             # (29)
        -(v * s) + p * z - b * s * s + b * x * z - d * s * u + d * z * p,  # (30)
        -(b * x * z) + b * s * t - d * z * q + d * u * t - u * t + q * z,  # (31)
        -(z * p) + t * v - b * z * x + b * t * s - d * z * p + d * v * s,  # (32)
        -(z * p) + s * v - b * s * t + b * x * z - d * s * v + d * z * p,  # (33)
        -(b * z * x) + b * t * t - d * z * q + d * v * t - z * q + t * u,  # (34)
        -(b * s * t) + b * x * z - d * t * u + d * q * z - u * s + q * z,  # (35)
        -(t * p) + x * v - s * p + v * x,                             # (36)
        -(u * x) + q * t - u * x + q * s,                             # (37)
        -(s * t) + x * z - s * s + x * z,                             # (38)
        -(z * x) + t * t - z * x + s * t,                             # (39)
        -(b * v * x) + b * p * t - d * v * q + d * y * t - b * u * x
        + b * q * t - d * u * q + d * y * t,                          # (40)
        -(b * s * p) + b * x * v - d * s * y + d * p * v - b * s * q
        + b * x * u - d * s * y + d * p * u,                          # (41)
        -(b * v * s) + b * p * z - d * v * u + d * y * z - b * s * u
        + b * z * q - d * u * u + d * y * z,                          # (42)
        -(b * z * p) + b * t * v - d * z * y + d * v * v - b * z * q
        + b * t * u - d * z * y + d * v * u,                          # (43)
        -(v * x) + p * t - b * s * x + b * x * t - d * s * q + d * p * t
        - s * q + x * u,                                              # (44)
        -(b * p * t) + b * v * x - d * t * y + d * q * v - u * p + q * v
        - b * u * x + b * q * s - d * u * p + d * y * s,              # (45)
        -(b * z * p) + b * s * v - b * u * t + b * q * z,             # (46)
        -(b * z * s) + b * t * z - d * z * u + d * v * z,             # (47)
        -(z * s) + t * z,                                             # (48)
    )
