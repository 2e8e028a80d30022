"""Coboundary and triangular Lie-bialgebra checks.

For ``r = sum k[i][j] e_i (x) e_j`` the candidate cobracket is
``delta(x) = (ad_x (x) 1 + 1 (x) ad_x)(r)``, with coefficients

``delta(e_xi)[a][b] = sum_i ( c[xi][i][a] k[i][b] + c[xi][i][b] k[a][i] )``.

``r`` defines a coboundary Lie bialgebra iff ``r + tau(r)`` is invariant --
equivalently here, ``r`` lies in the image of ``1 - tau`` -- and ``delta``
satisfies co-Jacobi: ``(1 + xi + xi^2)(1 (x) delta)(delta(x)) = 0`` for every
basis vector ``x`` (``xi`` cycles ``a (x) b (x) c`` to ``c (x) a (x) b``).
It is triangular when it moreover solves CYBE.

``adjoint_act3`` extends the adjoint action to third tensor powers.  Two
readings are implemented: ``"diagonal"`` (the derivation-style sum acting on
one slot at a time, the reading under which the stated co-Jacobi identity
holds) and ``"cube"`` (acting on every slot simultaneously, kept so the two
readings can be compared empirically).

Everything is generic over ring scalars, as in :mod:`baxter.ybe`.
"""
from __future__ import annotations

from .errors import DimensionMismatch, FieldMismatch
from .tensor import NamedCoeffs, Tensor2, Tensor3, im_one_minus_tau_member
from .ybe import cybe_residual

__all__ = [
    "adjoint_act2",
    "adjoint_act3",
    "ab_triangular_condition",
    "bd_coboundary_condition",
    "bd_triangular_condition",
    "cobracket",
    "cojacobi_defect",
    "is_coboundary",
    "is_triangular",
    "su_family_equations",
]


def _check_pair(L, r) -> None:
    if L.field is not r.field:
        raise FieldMismatch("algebra and tensor over different fields")
    if L.dim != r.dim:
        raise DimensionMismatch(f"algebra dim {L.dim} vs tensor dim {r.dim}")


def adjoint_act2(L, xi: int, r: Tensor2) -> Tensor2:
    """``(ad_{e_xi} (x) 1 + 1 (x) ad_{e_xi})(r)`` -- the cobracket of e_xi."""
    _check_pair(L, r)
    n = r.dim
    zero = r.field.zero()
    c = L.c
    k = r.rows
    out = [
        [
            sum(
                (
                    c[xi][i][a] * k[i][b] + c[xi][i][b] * k[a][i]
                    for i in range(n)
                ),
                zero,
            )
            for b in range(n)
        ]
        for a in range(n)
    ]
    return Tensor2(r.field, n, out)


cobracket = adjoint_act2


def adjoint_act3(L, xi: int, t: Tensor3, mode: str = "diagonal") -> Tensor3:
    """Adjoint action of ``e_xi`` on a third tensor power.

    ``mode="diagonal"``: ``ad (x) 1 (x) 1 + 1 (x) ad (x) 1 + 1 (x) 1 (x) ad``.
    ``mode="cube"``: ``ad (x) ad (x) ad`` applied to every slot at once.
    """
    if L.dim != t.dim:
        raise DimensionMismatch(f"algebra dim {L.dim} vs tensor dim {t.dim}")
    n = t.dim
    zero = t.field.zero()
    c = L.c
    T = t.coeffs
    if mode == "diagonal":
        out = [
            [
                [
                    sum(
                        (
                            c[xi][i][a] * T[i][b][d]
                            + c[xi][i][b] * T[a][i][d]
                            + c[xi][i][d] * T[a][b][i]
                            for i in range(n)
                        ),
                        zero,
                    )
                    for d in range(n)
                ]
                for b in range(n)
            ]
            for a in range(n)
        ]
        return Tensor3(t.field, n, out)
    if mode == "cube":
        # one slot at a time: 3 n^4 products instead of n^6
        m = c[xi]
        s1 = [
            [
                [sum((m[i][a] * T[i][j][l] for i in range(n)), zero)
                 for l in range(n)]
                for j in range(n)
            ]
            for a in range(n)
        ]
        s2 = [
            [
                [sum((m[j][b] * s1[a][j][l] for j in range(n)), zero)
                 for l in range(n)]
                for b in range(n)
            ]
            for a in range(n)
        ]
        out = [
            [
                [sum((m[l][d] * s2[a][b][l] for l in range(n)), zero)
                 for d in range(n)]
                for b in range(n)
            ]
            for a in range(n)
        ]
        return Tensor3(t.field, n, out)
    raise ValueError(f"unknown mode {mode!r}")


def cojacobi_defect(L, r: Tensor2) -> tuple[Tensor3, ...]:
    """Per-basis-vector co-Jacobi defects of the cobracket induced by ``r``.

    For each ``x``, builds ``T[a][c][d] = sum_b delta(e_x)[a][b] *
    delta(e_b)[c][d]`` and returns ``T + xi(T) + xi^2(T)``.  The cobracket
    satisfies co-Jacobi iff every returned tensor is zero.
    """
    _check_pair(L, r)
    n = r.dim
    zero = r.field.zero()
    deltas = [adjoint_act2(L, b, r) for b in range(n)]
    out = []
    for x in range(n):
        dx = deltas[x].rows
        T = [
            [
                [
                    sum(
                        (dx[a][b] * deltas[b].rows[cc][d] for b in range(n)),
                        zero,
                    )
                    for d in range(n)
                ]
                for cc in range(n)
            ]
            for a in range(n)
        ]
        t3 = Tensor3(r.field, n, T)
        cyc = t3.cycle()
        out.append(t3.add(cyc).add(cyc.cycle()))
    return tuple(out)


def is_coboundary(L, r: Tensor2) -> bool:
    """``r`` induces a coboundary Lie bialgebra on ``L``.

    Requires ``r`` in the image of ``1 - tau`` and a vanishing co-Jacobi
    defect for every basis vector.
    """
    _check_pair(L, r)
    if not im_one_minus_tau_member(r):
        return False
    return all(d.is_zero() for d in cojacobi_defect(L, r))


def is_triangular(L, r: Tensor2) -> bool:
    """Coboundary with ``r`` additionally a CYBE solution."""
    _check_pair(L, r)
    if not im_one_minus_tau_member(r):
        return False
    return cybe_residual(L, r).is_zero()


# ---------------------------------------------------------------------------
# closed forms stated for the dim-3 families (generic over ring scalars)


def ab_triangular_condition(nc: NamedCoeffs, alpha, beta):
    """Thm 2.1 (II) on Im(1 - tau): ``alpha u^2 + beta s^2 + p^2 = 0``."""
    return alpha * nc.u * nc.u + beta * nc.s * nc.s + nc.p * nc.p


def su_family_equations(nc: NamedCoeffs):
    """Example 2.2: the two-parameter family ``s (e1e3 + e3e1) + u (e2e3 +
    e3e2)``, i.e. every coefficient zero except ``s = t`` and ``u = v``."""
    return [nc.x, nc.y, nc.z, nc.p, nc.q, nc.s - nc.t, nc.u - nc.v]


def bd_coboundary_condition(nc: NamedCoeffs, beta, delta, one):
    """Thm 2.3 (I) as printed: ``(delta+1)((delta+1)u + beta s)s = 0``."""
    return (delta + one) * ((delta + one) * nc.u + beta * nc.s) * nc.s


def bd_triangular_condition(nc: NamedCoeffs, beta, delta, one):
    """Thm 2.3 (II) as printed: ``beta s + (1+delta)us = 0``.

    The print reads ``beta s``, not ``beta s^2``.  On the stated grid the
    two agree: ``beta = 0`` drops the term, and ``delta = 1`` leaves
    ``beta s = 0``, which holds iff ``s = 0``.
    """
    return beta * nc.s + (one + delta) * nc.u * nc.s
