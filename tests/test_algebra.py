"""Structure constants: validation, built-in families, file parsing."""
import pytest

from baxter import (
    commutator_lie,
    load_algebra,
    make_dim2,
    make_family_ab,
    make_family_bd,
    make_matrix_algebra,
    parse_algebra,
)
from baxter.errors import (
    AssociativityFailure,
    InputError,
    JacobiFailure,
    NotAlternating,
    ValidationError,
    WrongCharacteristic,
)
from baxter.algebra import StructureConstants, lie_validate, assoc_validate


def test_family_ab_brackets(f2):
    z, o = f2.zero(), f2.one()
    L = make_family_ab(f2, z, z)
    # [e1,e2] = e3; [e2,e3] = alpha e1 = 0; [e3,e1] = beta e2 = 0
    assert L.c[0][1][2] == o
    assert all(v.is_zero() for v in L.c[1][2])
    assert all(v.is_zero() for v in L.c[2][0])
    # antisymmetry in characteristic 2: c[1][0] == c[0][1]
    assert L.c[1][0][2] == o


def test_family_ab_nonzero_params(f4):
    a = f4.element(0b10)
    b = f4.element(0b11)
    L = make_family_ab(f4, a, b)
    assert L.c[0][1][2] == f4.one()
    assert L.c[1][2][0] == a  # [e2,e3] = alpha e1
    assert L.c[2][0][1] == b  # [e3,e1] = beta e2
    assert L.label == "ab(alpha=0x2,beta=0x3)"
    assert L.params.as_dict() == {"alpha": "0x2", "beta": "0x3"}


def test_family_bd_brackets(f2):
    o = f2.one()
    L = make_family_bd(f2, o, o)
    # [e1,e2] = 0; [e1,e3] = e1 + beta e2; [e2,e3] = delta e2
    assert all(v.is_zero() for v in L.c[0][1])
    assert L.c[0][2][0] == o and L.c[0][2][1] == o
    assert L.c[1][2][1] == o


def test_families_require_char2(f3):
    with pytest.raises(WrongCharacteristic):
        make_family_ab(f3, f3.zero(), f3.zero())
    with pytest.raises(WrongCharacteristic):
        make_family_bd(f3, f3.zero(), f3.zero())


def test_dim2_algebras(f2):
    o = f2.one()
    ab = make_dim2(f2, "abelian")
    na = make_dim2(f2, "nonabelian")
    assert all(v.is_zero() for row in ab.c for cell in row for v in cell)
    assert na.c[0][1][0] == o  # [e1,e2] = e1
    with pytest.raises(InputError):
        make_dim2(f2, "solvable")


def test_matrix_algebra_units(f2):
    A = make_matrix_algebra(f2, 2)
    assert A.dim == 4
    o = f2.one()
    # basis order E11,E12,E21,E22: E12 * E21 = E11
    assert A.c[1][2][0] == o
    # E12 * E12 = 0
    assert all(v.is_zero() for v in A.c[1][1])
    # E11 * E11 = E11
    assert A.c[0][0][0] == o


def test_commutator_lie_of_matrix_algebra(f2):
    A = make_matrix_algebra(f2, 2)
    L = commutator_lie(A)
    o = f2.one()
    # [E12, E21] = E11 - E22 = E11 + E22 in char 2
    assert L.c[1][2][0] == o and L.c[1][2][3] == o
    # [E11, E12] = E12
    assert L.c[0][1][1] == o


def test_lie_validation_rejects_non_jacobi(f2):
    z, o = f2.zero(), f2.one()
    n = 3
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    # [e1,e2] = e1, [e1,e3] = e3, [e2,e3] = e1:
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = e3 + 0 + e1 != 0
    c[0][1][0] = o
    c[1][0][0] = o
    c[0][2][2] = o
    c[2][0][2] = o
    c[1][2][0] = o
    c[2][1][0] = o
    sc = StructureConstants(f2, n, tuple(
        tuple(tuple(cell) for cell in row) for row in c
    ))
    with pytest.raises(JacobiFailure) as exc:
        lie_validate(sc)
    # the smallest failing (i, j, k, m): (e1, e2, e3) on e1
    assert exc.value.indices == (0, 1, 2, 0)


def test_lie_validation_rejects_non_alternating(f2):
    z, o = f2.zero(), f2.one()
    n = 2
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    c[0][0][1] = o  # [e1,e1] must vanish
    sc = StructureConstants(f2, n, tuple(
        tuple(tuple(cell) for cell in row) for row in c
    ))
    with pytest.raises(NotAlternating) as exc:
        lie_validate(sc)
    assert exc.value.indices == (0, 1)


def test_assoc_validation_rejects_nonassociative(f2):
    z, o = f2.zero(), f2.one()
    n = 2
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    # e1*e1 = e2, e1*e2 = e1, others zero: (e1 e1) e1 = e1 but e1 (e1 e1) = e1
    # make it genuinely nonassociative instead: e2*e1 = e2
    c[0][0][1] = o
    c[0][1][0] = o
    c[1][0][1] = o
    sc = StructureConstants(f2, n, tuple(
        tuple(tuple(cell) for cell in row) for row in c
    ))
    with pytest.raises(AssociativityFailure) as exc:
        assoc_validate(sc)
    # (e1 e1) e1 = e2 e1 = e2, but e1 (e1 e1) = e1 e2 = e1
    assert exc.value.indices == (0, 0, 0, 0)


ALGEBRA_FILE = """
# [e1,e2] = e3, everything else zero (char-2 sl(2) analog)
field gf(2)
dim 3
bracket 1 2 -> 3:0x1
bracket 1 3 ->
bracket 2 3 ->
"""


def test_parse_algebra_bracket_file(f2):
    L = parse_algebra(ALGEBRA_FILE)
    assert L.dim == 3 and L.field is f2
    assert L.c[0][1][2] == f2.one()
    # implied antisymmetric counterpart
    assert L.c[1][0][2] == f2.one()


def test_parse_algebra_product_file(f2):
    text = """
field gf(2)
dim 2
product 1 1 -> 1:0x1
product 1 2 -> 2:0x1
product 2 1 ->
product 2 2 ->
"""
    A = parse_algebra(text)
    assert A.dim == 2
    assert A.c[0][0][0] == f2.one()


def test_parse_algebra_errors():
    with pytest.raises(InputError):
        parse_algebra("dim 3\nbracket 1 2 -> 3:0x1\n")  # field missing
    with pytest.raises(InputError):
        parse_algebra("field gf(2)\ndim 2\nbracket 1 5 -> 1:0x1\n")
    with pytest.raises(InputError):
        parse_algebra("field gf(2)\ndim 2\nwhatever 1 2\n")
    with pytest.raises(InputError):
        parse_algebra(
            "field gf(2)\ndim 2\nbracket 1 2 -> 1:0x1\n"
            "product 2 1 -> 1:0x1\n"
        )


def test_load_algebra_file(tmp_path, f2):
    p = tmp_path / "alg.txt"
    p.write_text(ALGEBRA_FILE)
    L = load_algebra(str(p))
    assert L.dim == 3
    assert L.label.startswith("file:")


def test_validation_error_messages_are_one_based(f2):
    z, o = f2.zero(), f2.one()
    n = 2
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    c[0][0][1] = o
    sc = StructureConstants(f2, n, tuple(
        tuple(tuple(cell) for cell in row) for row in c
    ))
    with pytest.raises(ValidationError) as exc:
        lie_validate(sc)
    assert "e1" in str(exc.value)
