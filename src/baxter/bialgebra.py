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

Each formula is one ``tensor._contract`` call per term, with label strings
that spell the indices of the formula written in its docstring; those
formulas are the specification the code follows.  Everything is generic
over ring scalars, as in :mod:`baxter.ybe`.
"""
from __future__ import annotations

from .errors import DimensionMismatch
from .tensor import (
    NamedCoeffs,
    Tensor2,
    Tensor3,
    _contract,
    _from_sparse,
    _nonzero_entries,
    im_one_minus_tau_member,
)
from .ybe import _check_pair, cybe_residual

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


def adjoint_act2(L, xi: int, r: Tensor2) -> Tensor2:
    """``(ad_{e_xi} (x) 1 + 1 (x) ad_{e_xi})(r)`` -- the cobracket of e_xi."""
    _check_pair(L, r)
    zero = r.field.zero()
    m = _nonzero_entries(L.c[xi], 2, zero)
    k = _nonzero_entries(r.rows, 2, zero)
    return _from_sparse(
        r.field, r.dim, 2,
        _contract("ab", [("ia", m), ("ib", k)]),
        _contract("ab", [("ib", m), ("ai", k)]),
    )


cobracket = adjoint_act2


def adjoint_act3(L, xi: int, t: Tensor3, mode: str = "diagonal") -> Tensor3:
    """Adjoint action of ``e_xi`` on a third tensor power.

    ``mode="diagonal"``: ``ad (x) 1 (x) 1 + 1 (x) ad (x) 1 + 1 (x) 1 (x) ad``,
    ``out[a][b][d] = sum_i ( c[xi][i][a] T[i][b][d] + c[xi][i][b] T[a][i][d]
    + c[xi][i][d] T[a][b][i] )``.
    ``mode="cube"``: ``ad (x) ad (x) ad`` applied to every slot at once,
    ``out[a][b][d] = sum_{i,j,l} c[xi][i][a] c[xi][j][b] c[xi][l][d]
    T[i][j][l]``.
    """
    if L.dim != t.dim:
        raise DimensionMismatch(f"algebra dim {L.dim} vs tensor dim {t.dim}")
    if mode not in ("diagonal", "cube"):
        raise ValueError(f"unknown mode {mode!r}")
    zero = t.field.zero()
    m = _nonzero_entries(L.c[xi], 2, zero)
    T = _nonzero_entries(t.coeffs, 3, zero)
    if mode == "diagonal":
        parts = (
            _contract("abd", [("ia", m), ("ibd", T)]),
            _contract("abd", [("ib", m), ("aid", T)]),
            _contract("abd", [("id", m), ("abi", T)]),
        )
    else:
        # summing one slot index per join: 3 n^4 products, not n^6
        parts = (_contract("abd", [("ijl", T), ("ia", m), ("jb", m),
                                   ("ld", m)]),)
    return _from_sparse(t.field, t.dim, 3, *parts)


def cojacobi_defect(L, r: Tensor2) -> tuple[Tensor3, ...]:
    """Per-basis-vector co-Jacobi defects of the cobracket induced by ``r``.

    For each ``x``, builds ``T[a][c][d] = sum_b delta(e_x)[a][b] *
    delta(e_b)[c][d]`` and returns ``T + xi(T) + xi^2(T)``.  The cobracket
    satisfies co-Jacobi iff every returned tensor is zero.
    """
    _check_pair(L, r)
    zero = r.field.zero()
    deltas = [
        _nonzero_entries(adjoint_act2(L, b, r).rows, 2, zero)
        for b in range(r.dim)
    ]
    every = [((b, *cd), v) for b, delta in enumerate(deltas) for cd, v in delta]
    out = []
    for dx in deltas:
        t3 = _from_sparse(
            r.field, r.dim, 3, _contract("acd", [("ab", dx), ("bcd", every)])
        )
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
