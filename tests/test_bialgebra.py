"""Cobracket, co-Jacobi defect, coboundary and triangular predicates."""
import itertools

import pytest

from baxter import (
    Tensor2,
    adjoint_act2,
    adjoint_act3,
    cobracket,
    cojacobi_defect,
    cybe_residual,
    im_one_minus_tau_member,
    is_coboundary,
    is_cybe_solution,
    is_triangular,
    make_dim2,
    make_family_ab,
    make_family_bd,
)


def _t2(f, dim, entries):
    z = f.zero()
    rows = [[z] * dim for _ in range(dim)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Tensor2(f, dim, rows)


@pytest.fixture(scope="module")
def sl2_like(f2):
    # [e1,e2] = e3, everything else zero (the char-2 sl(2) analog)
    return make_family_ab(f2, f2.zero(), f2.zero())


def test_adjoint_act2_known_value(f2, sl2_like):
    o = f2.one()
    r = _t2(f2, 3, {(0, 1): o, (1, 0): o})
    # delta(e1) = (ad_e1 (x) 1 + 1 (x) ad_e1)(r); ad_e1(e2) = e3
    # -> e3(x)e1 + e1(x)e3
    d1 = adjoint_act2(sl2_like, 0, r)
    got = {(i, j) for i, j, v in d1.entries() if not v.is_zero()}
    assert got == {(0, 2), (2, 0)}
    # delta(e2): ad_e2(e1) = e3 (char 2) -> e2(x)e3 + e3(x)e2
    d2 = adjoint_act2(sl2_like, 1, r)
    got2 = {(i, j) for i, j, v in d2.entries() if not v.is_zero()}
    assert got2 == {(1, 2), (2, 1)}


def test_adjoint_act2_central_element_acts_trivially(f2, sl2_like):
    o = f2.one()
    # e3 is central, so its cobracket vanishes on every tensor
    for entries in ({(0, 0): o}, {(0, 1): o}, {(0, 2): o}, {(2, 2): o}):
        assert adjoint_act2(sl2_like, 2, _t2(f2, 3, entries)).is_zero()


def test_cobracket_alias(f2, sl2_like):
    assert cobracket is adjoint_act2


def test_cojacobi_defect_vanishes_on_im_members(f2, sl2_like):
    o = f2.one()
    r = _t2(f2, 3, {(0, 1): o, (1, 0): o})
    assert im_one_minus_tau_member(r)
    for d in cojacobi_defect(sl2_like, r):
        assert d.is_zero()
    assert is_coboundary(sl2_like, r)


def test_coboundary_requires_im_membership(f2, sl2_like):
    o = f2.one()
    r = _t2(f2, 3, {(2, 2): o})  # solves CYBE but has nonzero diagonal
    assert is_cybe_solution(sl2_like, r)
    assert not is_coboundary(sl2_like, r)
    assert not is_triangular(sl2_like, r)


def test_triangular_examples(f2, sl2_like):
    o = f2.one()
    # s(e13+e31): in Im, residual zero -> triangular
    r = _t2(f2, 3, {(0, 2): o, (2, 0): o})
    assert is_triangular(sl2_like, r)
    # e1(x)e2 + e2(x)e1: in Im but residual nonzero -> coboundary only
    r2 = _t2(f2, 3, {(0, 1): o, (1, 0): o})
    assert is_coboundary(sl2_like, r2)
    assert not is_triangular(sl2_like, r2)


def test_triangular_count_gf2(f2, sl2_like):
    tri = [
        code for code in range(512)
        if is_triangular(sl2_like, Tensor2.decode(f2, 3, code))
    ]
    # s,u-family: s(e13+e31) + u(e23+e32)
    assert len(tri) == 4


def test_adjoint_act3_diagonal_matches_defect(f2):
    """The diagonal triple action on the residual equals the defect."""
    o = f2.one()
    for beta, delta in [(f2.zero(), f2.zero()), (f2.zero(), o), (o, o)]:
        L = make_family_bd(f2, beta, delta)
        for code in range(512):
            r = Tensor2.decode(f2, 3, code)
            if not im_one_minus_tau_member(r):
                continue
            res = cybe_residual(L, r)
            defects = cojacobi_defect(L, r)
            for x in range(3):
                act = adjoint_act3(L, x, res, mode="diagonal")
                assert act.coeffs == defects[x].coeffs


def test_adjoint_act3_cube_differs_somewhere(f2):
    """The tensor-cube reading is NOT the operative one."""
    L = make_family_bd(f2, f2.zero(), f2.zero())
    mismatches = 0
    for code in range(512):
        r = Tensor2.decode(f2, 3, code)
        if not im_one_minus_tau_member(r):
            continue
        res = cybe_residual(L, r)
        defects = cojacobi_defect(L, r)
        for x in range(3):
            cube = adjoint_act3(L, x, res, mode="cube")
            m, T = L.c[x], res.coeffs
            assert cube.coeffs == tuple(
                tuple(
                    tuple(
                        sum((m[i][a] * m[j][b] * m[l][d] * T[i][j][l]
                             for i, j, l in itertools.product(range(3),
                                                              repeat=3)),
                            f2.zero())
                        for d in range(3)
                    )
                    for b in range(3)
                )
                for a in range(3)
            )
            if cube.coeffs != defects[x].coeffs:
                mismatches += 1
    assert mismatches > 0


def test_adjoint_act3_rejects_unknown_mode(f2, sl2_like):
    from baxter import Tensor3

    with pytest.raises(ValueError):
        adjoint_act3(sl2_like, 0, Tensor3.zero(f2, 3), mode="bogus")


def test_dim2_triangular_equals_im(f2, f4):
    for f in (f2, f4):
        for kind in ("abelian", "nonabelian"):
            L = make_dim2(f, kind)
            for code in range(f.q ** 4):
                r = Tensor2.decode(f, 2, code)
                member = im_one_minus_tau_member(r)
                assert is_coboundary(L, r) == member
                assert is_triangular(L, r) == member
