"""Tensor containers: encode/decode, flips, Im(1-tau), basis changes."""
import pytest

from baxter import (
    BasisChange,
    Tensor2,
    Tensor3,
    im_one_minus_tau_member,
    named_pack,
    named_view,
    parse_tensor2,
)
from baxter.errors import DimensionMismatch, InputError, SingularMatrix


def _t2(f, dim, entries):
    z = f.zero()
    rows = [[z] * dim for _ in range(dim)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Tensor2(f, dim, rows)


def test_encode_decode_roundtrip_gf2(f2):
    for code in range(2 ** 9):
        r = Tensor2.decode(f2, 3, code)
        assert r.encode() == code


def test_encode_decode_roundtrip_gf4(f4):
    for code in (0, 1, 7, 4 ** 9 - 1, 123456):
        r = Tensor2.decode(f4, 3, code)
        assert r.encode() == code


def test_decode_order_is_big_endian_in_k11(f4):
    # encoding 1 must put the low digit in the LAST coefficient (k33)
    r = Tensor2.decode(f4, 3, 1)
    assert r.rows[2][2] == f4.one()
    assert all(
        r.rows[i][j].is_zero() for i in range(3) for j in range(3)
        if (i, j) != (2, 2)
    )


def test_literal_roundtrip(f4):
    r = Tensor2.decode(f4, 3, 261321)
    assert parse_tensor2(f4, r.literal()).encode() == r.encode()


def test_parse_tensor_requires_square_length(f2):
    with pytest.raises(InputError):
        parse_tensor2(f2, "0x0,0x1,0x0")  # length 3 is not a square


def test_flip_and_symmetry(f2):
    o = f2.one()
    r = _t2(f2, 3, {(0, 1): o})
    assert r.flip().rows[1][0] == o
    assert not r.is_symmetric()
    assert r.add(r.flip()).is_symmetric()


def test_add_is_componentwise_xor_in_char2(f2):
    o = f2.one()
    r = _t2(f2, 2, {(0, 1): o})
    assert r.add(r).is_zero()


def test_im_one_minus_tau_char2(f2):
    o = f2.one()
    # symmetric with zero diagonal: in the image
    assert im_one_minus_tau_member(_t2(f2, 3, {(0, 1): o, (1, 0): o}))
    # nonzero diagonal: not in the image
    assert not im_one_minus_tau_member(_t2(f2, 3, {(0, 0): o}))
    # asymmetric: not in the image
    assert not im_one_minus_tau_member(_t2(f2, 3, {(0, 1): o}))
    assert im_one_minus_tau_member(Tensor2.zero(f2, 3))


def test_im_one_minus_tau_count_gf2(f2):
    n = sum(
        1 for code in range(512)
        if im_one_minus_tau_member(Tensor2.decode(f2, 3, code))
    )
    assert n == 8  # q^(n(n-1)/2) = 2^3


def test_im_one_minus_tau_odd_characteristic(f3):
    o = f3.one()
    # in char != 2 the image is the antisymmetric tensors
    r = _t2(f3, 2, {(0, 1): o, (1, 0): -o})
    assert im_one_minus_tau_member(r)
    assert not im_one_minus_tau_member(_t2(f3, 2, {(0, 1): o, (1, 0): o}))


def test_named_view_pack_roundtrip(f4):
    r = Tensor2.decode(f4, 3, 199999)
    nc = named_view(r)
    assert nc.x == r.rows[0][0]
    assert nc.p == r.rows[0][1] and nc.q == r.rows[1][0]
    assert nc.s == r.rows[0][2] and nc.t == r.rows[2][0]
    assert nc.u == r.rows[1][2] and nc.v == r.rows[2][1]
    assert named_pack(f4, nc).encode() == r.encode()


def test_tensor3_cycle(f2):
    o, z = f2.one(), f2.zero()
    coeffs = [[[z, z], [z, z]], [[z, z], [z, z]]]
    coeffs[0][1][0] = o  # e1 (x) e2 (x) e1
    t = Tensor3(f2, 2, coeffs)
    c = t.cycle()
    # cycle reads result[i][j][l] = T[j][l][i]
    assert c.coeffs[0][0][1] == o
    assert c.cycle().cycle().coeffs == t.coeffs


def test_tensor3_add_entries(f2):
    o = f2.one()
    t = Tensor3.zero(f2, 2)
    rows = [[[f2.zero()] * 2 for _ in range(2)] for _ in range(2)]
    rows[0][0][1] = o
    t2 = Tensor3(f2, 2, rows)
    assert t.add(t2).nonzero_entries() == [(0, 0, 1, o)]
    assert t2.add(t2).is_zero()


def test_basis_change_identity_and_swap(f2):
    o, z = f2.one(), f2.zero()
    ident = BasisChange(f2, [[o, z], [z, o]])
    swap = BasisChange(f2, [[z, o], [o, z]])
    r = _t2(f2, 2, {(0, 1): o})
    assert ident.apply_t2(r).encode() == r.encode()
    assert swap.apply_t2(r).rows[1][0] == o
    assert swap.then(swap).apply_t2(r).encode() == r.encode()


def test_basis_change_rejects_singular(f2):
    o = f2.one()
    with pytest.raises(SingularMatrix):
        BasisChange(f2, [[o, o], [o, o]])


def test_basis_change_dimension_mismatch(f2):
    o, z = f2.one(), f2.zero()
    q = BasisChange(f2, [[o, z], [z, o]])
    with pytest.raises(DimensionMismatch):
        q.apply_t2(Tensor2.zero(f2, 3))


def test_encoding_literal_matches_the_decoded_tensor(f2, f3, f4):
    # every code of the dim-2 spaces of GF(2), GF(3) and GF(4), and a
    # seeded sample of the dim-3 spaces of GF(5), GF(8) and GF(9)
    import random

    from baxter import field
    from baxter.tensor import encoding_literal

    for f in (f2, f3, f4):
        for code in range(f.q ** 4):
            assert (encoding_literal(f, 2, code)
                    == Tensor2.decode(f, 2, code).literal())
    rng = random.Random(24)
    for f in (field(5), field(2, 3, 0b1011), field(3, 2, 10)):
        codes = [0, f.q ** 9 - 1] + [rng.randrange(f.q ** 9)
                                     for _ in range(500)]
        for code in codes:
            assert (encoding_literal(f, 3, code)
                    == Tensor2.decode(f, 3, code).literal())
