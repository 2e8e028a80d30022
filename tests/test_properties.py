"""Property tests: the compiled kernel, in natural and in drawn variable
orders, against the reference evaluator and the object route, sweeps
across worker counts and against the same algebra read back from file
text, metamorphic checks (basis changes, scalars) that need neither route,
and the QYBE sides and every other contraction-built tensor formula against
their definitions, over random algebras in every characteristic.

Lie algebras are drawn as ``span(u, v) x| w`` (an abelian plane on which
``w`` acts by a random matrix, which satisfies Jacobi for every matrix) in
dimension 3 and as ``[e1, e2] = a e1 + b e2`` in dimension 2.  Associative
algebras are ``GF(q)[x]/(x^n - ...)`` with random coefficients, or the upper
triangular 2x2 matrices.  Every draw goes through the library's validators.
"""
import itertools
import json

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from baxter import (
    BasisChange, SweepSpec, Tensor2, Tensor3, adjoint_act2, adjoint_act3,
    bracket_12_13, bracket_12_23, bracket_13_23, cojacobi_defect,
    compile_selector, cybe_residual, field, make_family_bd, parse_algebra,
    qybe_sides, selector_predicate, sweep,
)
from baxter.algebra import (
    LieAlgebra, StructureConstants, assoc_validate, lie_validate,
)
from baxter._kernel import (
    _compile, _greedy_order, compile_polys, evaluate_code, satisfied,
    solutions_in_range,
)
from baxter._poly import Poly, PolyRing

# (p, m, modulus) for q in {2, 3, 4, 5, 7, 8, 9}
FIELDS = (
    (2, 1, None), (3, 1, None), (2, 2, 0b111), (5, 1, None), (7, 1, None),
    (2, 3, 0b1011), (3, 2, 10),  # GF(9) = GF(3)[x]/(x^2 + 1)
)
LIE_SELECTORS = (
    "cybe", "coboundary", "triangular", "symmetric", "strongly-symmetric",
    "im-one-minus-tau",
)
CHUNKS = (1, 7, 1 << 20)

_settings = settings(
    max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _lie(draw, f, dim):
    def el():
        return f.element(draw(st.integers(0, f.q - 1)))

    if dim == 2:
        terms = {(0, 1): {0: el(), 1: el()}}
    else:
        # w = e[t] acts on the plane e[u], e[v] by the matrix A
        t, u, v = draw(st.permutations(range(3)))
        a = [[el() for _ in range(2)] for _ in range(2)]
        terms = {}
        for col, src in enumerate((u, v)):
            terms[(t, src)] = {u: a[0][col], v: a[1][col]}
    for (i, j), row in list(terms.items()):
        terms[(j, i)] = {k: -c for k, c in row.items()}
    sc = StructureConstants.from_terms(f, dim, terms)
    return lie_validate(sc, label="random-lie")


def _assoc(draw, f, dim):
    if dim == 3 and draw(st.booleans()):
        # upper triangular 2x2 matrices: E11, E12, E22
        terms = {(0, 0): {0: f.one()}, (0, 1): {1: f.one()},
                 (1, 2): {1: f.one()}, (2, 2): {2: f.one()}}
    else:
        # basis 1, x, ..., x^(dim-1) with x^dim = sum c_k x^k
        c = [f.element(draw(st.integers(0, f.q - 1))) for _ in range(dim)]
        power = [[f.one() if k == i else f.zero() for k in range(dim)]
                 for i in range(dim)]
        top = list(c)
        for _ in range(dim - 1):
            power.append(top)
            shifted = [f.zero()] + top[:-1]
            top = [shifted[k] + top[-1] * c[k] for k in range(dim)]
        terms = {
            (i, j): {k: power[i + j][k] for k in range(dim)}
            for i in range(dim) for j in range(dim)
        }
    sc = StructureConstants.from_terms(f, dim, terms)
    return assoc_validate(sc, label="random-assoc")


@st.composite
def algebras(draw, max_total=None):
    """(algebra, selector) over a random field, dim 2 or 3."""
    p, m, modulus = draw(st.sampled_from(FIELDS))
    f = field(p, m, modulus)
    dims = [d for d in (2, 3)
            if max_total is None or f.q ** (d * d) <= max_total]
    dim = draw(st.sampled_from(dims))
    if draw(st.booleans()):
        return _assoc(draw, f, dim), "qybe"
    return _lie(draw, f, dim), draw(st.sampled_from(LIE_SELECTORS))


def _encoding(code: int, order, q: int) -> int:
    """The tensor encoding of a search code whose digit ``d`` is the value
    of variable ``order[d]`` (the code itself in natural order)."""
    if order is None:
        return code
    digits = [0] * len(order)
    for var in reversed(order):
        code, digits[var] = divmod(code, q)
    encoding = 0
    for digit in digits:
        encoding = encoding * q + digit
    return encoding


def _selectors(algebra):
    """Every selector that applies to ``algebra`` without parameters."""
    if isinstance(algebra, LieAlgebra):
        return LIE_SELECTORS
    return ("qybe", "symmetric", "strongly-symmetric", "im-one-minus-tau")


@settings(_settings, max_examples=30)
@given(data=st.data())
def test_kernel_matches_reference_evaluator(data):
    # Every selector is checked on each draw: hypothesis clusters its
    # draws, so one drawn selector per example can leave a selector with
    # no example in a run.
    algebra, _ = data.draw(algebras())
    n = algebra.dim * algebra.dim
    order = data.draw(st.none() | st.permutations(range(n)))
    q = algebra.field.q
    total = q ** n
    start = data.draw(st.integers(0, total - 1))
    stop = data.draw(st.integers(start, min(total, start + 1500)))
    chunk = data.draw(st.sampled_from(CHUNKS))
    codes = [_encoding(c, order, q) for c in range(start, stop)]
    probes = data.draw(st.lists(st.integers(0, max(0, len(codes) - 1)),
                                max_size=8))
    for name in _selectors(algebra):
        system = compile_selector(algebra, name)._replace(var_order=order)
        got = solutions_in_range(system, start, stop, chunk).tolist()
        want = [e for e in codes if evaluate_code(system, e)]
        assert got == want, name
        # the object route on up to 8 encodings of the range and the
        # first and last solution
        member = selector_predicate(algebra, name)
        kept = set(got)
        for code in [codes[i] for i in probes if codes] + got[:1] + got[-1:]:
            r = Tensor2.decode(algebra.field, algebra.dim, code)
            assert member(r) == (code in kept), (name, code)


# Greedy-order systems whose digits past the last poly are free: (beta,
# delta, selector, last poly's depth, first depth whose subtrees hold at
# most 4**6 codes; the last field only names the case).  GF(4) bd(0,1)'s
# case polys close at depth 4, so a prefix there has 4**5 free encodings;
# bd(0,0)'s printed coboundary condition closes at depth 2, with 4**7 free
# encodings per prefix.
FREE_CASES = (
    (0, 1, "prop16-case", 4, 4),
    (0, 0, "bd-printed-coboundary", 2, 3),
)


@pytest.mark.parametrize("beta, delta, name, last, free", FREE_CASES)
@pytest.mark.parametrize("chunk", (7, 1 << 20))
def test_free_subtrees_match_reference_evaluator(beta, delta, name, last,
                                                 free, chunk):
    f = field(2, 2, 0b111)
    system = compile_selector(
        make_family_bd(f, f.element(beta), f.element(delta)), name)
    system = system._replace(var_order=_greedy_order(system))
    compiled = _compile(system)
    assert compiled.last == last
    width = 4 ** (9 - last)  # the codes under one prefix at depth ``last``
    # the prefix of the first solution's search code
    prefix = next(c for c in range(4 ** 9)
                  if evaluate_code(system, _encoding(c, system.var_order, 4)))
    prefix //= width
    # inside one free subtree, cut at both ends; then two whole subtrees
    # and a part of each neighbour; then 4**7 codes from inside it, where
    # prop16-case's solutions fill a quarter of each subtree at depth 3, so
    # a limit must not trim the prefixes above the last poly's depth
    for start, stop in ((prefix * width + width // 3,
                         prefix * width + 2 * width // 3),
                        (max(0, (prefix - 1) * width + width // 2),
                         (prefix + 2) * width + width // 2),
                        (prefix * width + width // 3,
                         prefix * width + width // 3 + 4 ** 7)):
        got = solutions_in_range(system, start, stop, chunk).tolist()
        codes = [_encoding(c, system.var_order, 4) for c in range(start, stop)]
        want = [e for e in codes if evaluate_code(system, e)]
        assert got == want
        assert got
        # the first k solutions of the range
        for k in (1, 5, len(want) - 1, len(want) + 1):
            got = solutions_in_range(system, start, stop, chunk, limit=k)
            assert got.tolist() == want[:k], k


def test_free_digits_past_the_table_grow_only_inside_the_range():
    # Over GF(8), bd(0,0)'s printed coboundary condition closes at depth 2
    # of the greedy order: a prefix there has 8**7 free codes.  A range of
    # 100 codes inside one such subtree grows only the prefixes that meet
    # it, not the 16 MB of the whole subtree.
    import tracemalloc

    f = field(2, 3, 0b1011)
    system = compile_selector(make_family_bd(f, f.zero(), f.zero()),
                              "bd-printed-coboundary")
    system = system._replace(var_order=_greedy_order(system))
    compiled = _compile(system)
    assert compiled.last == 2
    start, stop = 3 * 8 ** 6 + 12345, 3 * 8 ** 6 + 12445
    solutions_in_range(system, start, stop)  # compile and cache first
    tracemalloc.start()
    try:
        got = solutions_in_range(system, start, stop).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 ** 5
    codes = [_encoding(c, system.var_order, 8) for c in range(start, stop)]
    assert got == [e for e in codes if evaluate_code(system, e)]
    assert got


def test_free_digits_listed_in_greedy_order_match_reference_evaluator():
    # Over GF(4), x5 x3 + x1 and x5**2 + x3 close at depth 3 of greedy
    # order (x3, x5, x1, ...): the listing grows the other three digits
    # from each surviving prefix's encoding, with their weights out of
    # order, and keeps ascending search-code order across the halvings
    # of every chunk and the cuts of a range and a limit.
    ring = PolyRing(field(2, 2, 0b111), 6)
    x = [ring.var(i) for i in range(6)]
    system = compile_polys(ring, [x[5] * x[3] + x[1], x[5] * x[5] + x[3]])
    system = system._replace(var_order=_greedy_order(system))
    assert system.var_order[:3] == (3, 5, 1)
    assert _compile(system).last == 3
    total = 4 ** 6
    codes = [_encoding(c, system.var_order, 4) for c in range(total)]
    want = [e for e in codes if evaluate_code(system, e)]
    assert len(want) == 4 ** 4
    for chunk in CHUNKS:
        got = solutions_in_range(system, 0, total, chunk).tolist()
        assert got == want, chunk
        for start, stop in ((17, 4000), (1000, 1100)):
            inside = [e for e in codes[start:stop] if evaluate_code(system, e)]
            got = solutions_in_range(system, start, stop, chunk)
            assert got.tolist() == inside, (chunk, start)
            got = solutions_in_range(system, start, stop, chunk, limit=9)
            assert got.tolist() == inside[:9], (chunk, start)


# Fields of the row-reduced systems: GF(2), GF(3), GF(4), GF(5) and GF(9).
REDUCED_FIELDS = (
    (2, 1, None), (3, 1, None), (2, 2, 0b111), (5, 1, None), (3, 2, 10),
)


@st.composite
def dependent_systems(draw):
    """A system over 2 or 3 variables of two to four random polys of
    degree at most 2 and up to three random combinations of them, so that
    row reduction drops dependent polys and moves others to earlier
    depths; with a constant poly, a combination of them may reduce to a
    nonzero constant."""
    p, m, modulus = draw(st.sampled_from(REDUCED_FIELDS))
    f = field(p, m, modulus)
    n = draw(st.integers(2, 3))
    ring = PolyRing(f, n)
    coeff = st.integers(1, f.q - 1)
    monomials = st.lists(st.integers(0, n - 1), max_size=2).map(
        lambda vs: tuple(sorted(vs)))

    def poly():
        return Poly(ring, draw(st.dictionaries(monomials, coeff, min_size=1,
                                               max_size=4)))

    base = [poly() for _ in range(draw(st.integers(2, 4)))]
    combos = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.lists(st.sampled_from(base), min_size=2, max_size=3))
        total = ring.zero()
        for other in picked:
            total = total + ring.const(draw(coeff)) * other
        combos.append(total)
    return compile_polys(ring, base + combos)


@settings(_settings, max_examples=60)
@given(system=dependent_systems(), data=st.data())
def test_reduced_levels_match_reference_evaluator(system, data):
    # The kernel evaluates the row-reduced polys of each order; the
    # reference evaluates the system's own.  Listed and counted, in
    # natural and in a drawn order, at both chunks.
    q, n = system.order, system.nvars
    total = q ** n
    want = [code for code in range(total) if evaluate_code(system, code)]
    for order in (None, tuple(data.draw(st.permutations(range(n))))):
        ordered = system._replace(var_order=order)
        compiled = _compile(ordered)
        kept = sum(gather.npolys for level in compiled.levels if level
                   for gather in level[:2] if gather)
        assert kept <= len(system.polys)
        codes = [_encoding(c, order, q) for c in range(total)]
        in_order = [e for e in codes if evaluate_code(system, e)]
        for chunk in (1, 1 << 20):
            listed = solutions_in_range(ordered, 0, total, chunk)
            assert listed.tolist() == in_order, (order, chunk)
            for k in range(3):
                got = solutions_in_range(ordered, 0, total, chunk,
                                         buckets=q ** k)
                counts = np.bincount(
                    np.array(want, dtype=np.intp) // q ** (n - k),
                    minlength=q ** k)
                assert got.tolist() == counts.tolist(), (order, chunk, k)


# Fields of the hand-built mixed systems, and the most variables each takes
# so that the reference evaluator reads at most 729 codes per system.
MIXED_FIELDS = (
    ((2, 1, None), 4), ((3, 1, None), 4), ((2, 2, 0b111), 4),
    ((5, 1, None), 4), ((3, 2, 10), 3),
)


@st.composite
def mixed_systems(draw):
    """A system over 2 to 4 variables whose last variable closes one poly
    linear in it and one of degree 2 or 3, with up to two more polys of
    degree 1 to 3 in their last variable.  Each coefficient of a power of
    the last variable is a sum of up to two monomials of degree at most 2
    in the earlier variables (the constant among them), with distinct
    monomials so nothing cancels; a poly may also carry an earlier
    variable as a factor of all of its terms, so that where that variable
    is 0, its ``a`` and ``c`` are both 0."""
    (p, m, modulus), most = draw(st.sampled_from(MIXED_FIELDS))
    f = field(p, m, modulus)
    n = draw(st.integers(2, most))
    ring = PolyRing(f, n)
    coeff = st.integers(1, f.q - 1)

    def poly(v, degree):
        earlier = st.lists(st.integers(0, v - 1), max_size=2) if v else (
            st.just([]))
        factor = tuple(draw(st.lists(st.integers(0, v - 1), max_size=1))
                       if v else [])
        terms = {}
        for e in range(degree + 1):
            monos = draw(st.sets(earlier.map(lambda vs: tuple(sorted(vs))),
                                 min_size=int(e == degree), max_size=2))
            for mono in monos:
                terms[tuple(sorted(mono + factor + (v,) * e))] = draw(coeff)
        return Poly(ring, terms)

    polys = [poly(n - 1, 1), poly(n - 1, draw(st.integers(2, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        polys.append(poly(draw(st.integers(0, n - 1)),
                          draw(st.integers(1, 3))))
    return compile_polys(ring, polys)


@settings(_settings, max_examples=40)
@given(system=mixed_systems(), data=st.data())
def test_mixed_levels_match_reference_evaluator(system, data):
    # Levels of linear polys beside polys of degree 2 or 3 in the level's
    # variable: listed in both orders and at both chunks, with and without
    # a limit, counted per bucket, and tested by ``satisfied`` in pieces of
    # one encoding and whole.
    q, n = system.order, system.nvars
    total = q ** n
    want = [code for code in range(total) if evaluate_code(system, code)]
    levels = _compile(system).levels
    assert any(level is not None and level.linear is not None
               and level.rest is not None for level in levels)
    for order in (None, tuple(reversed(range(n)))):
        ordered = system._replace(var_order=order)
        for chunk in (1, 1 << 20):
            listed = solutions_in_range(ordered, 0, total, chunk)
            assert sorted(listed.tolist()) == want, (order, chunk)
            limit = data.draw(st.integers(1, len(want) + 1))
            got = solutions_in_range(ordered, 0, total, chunk, limit=limit)
            assert got.tolist() == listed[:limit].tolist(), (order, limit)
            for k in range(3):
                got = solutions_in_range(ordered, 0, total, chunk,
                                         buckets=q ** k)
                counts = np.bincount(
                    np.array(want, dtype=np.intp) // q ** (n - k),
                    minlength=q ** k)
                assert got.tolist() == counts.tolist(), (order, chunk, k)
    codes = np.arange(total, dtype=np.uint64)
    for chunk in (1, 1 << 20):
        mask = satisfied(system, codes, chunk)
        assert np.flatnonzero(mask).tolist() == want


@settings(_settings, max_examples=30)
@given(
    data=st.data(),
    order=st.sampled_from(list(itertools.permutations((1, 2, 3)))),
)
def test_sweep_identical_across_worker_counts(data, order):
    algebra, name = data.draw(algebras(max_total=1 << 13))
    chunk = data.draw(st.sampled_from(CHUNKS))
    canon = {
        workers: sweep(SweepSpec(
            algebra=algebra, predicate=name, classifier="symmetric",
            chunk=chunk, workers=workers, keep_solutions=True,
        )).canonical_json()
        for workers in order
    }
    assert canon[1] == canon[2] == canon[3]


def _inverse(f, m):
    """Gauss-Jordan inverse of an invertible matrix over ``f``."""
    n = len(m)
    rows = [list(row) + [f.one() if i == j else f.zero() for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not rows[r][col].is_zero())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col:
                c = rows[r][col]
                rows[r] = [v - c * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _basis_change(draw, f, n):
    """A random invertible basis change of ``f^n``."""
    # P L U with L unit lower and U invertible upper triangular: every
    # invertible matrix has this form, and the smallest draw is the identity
    def entry(low):
        return f.element(draw(st.integers(low, f.q - 1)))

    lower = [[entry(0) if j < i else f.element(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[entry(int(i == j)) if j >= i else f.zero()
              for j in range(n)] for i in range(n)]
    lu = [[sum((lower[i][k] * upper[k][j] for k in range(n)), f.zero())
           for j in range(n)] for i in range(n)]
    return BasisChange(f, [lu[i] for i in draw(st.permutations(range(n)))])


def _in_basis(algebra, q):
    """``algebra`` written in the basis ``f_i = sum_s q[s][i] e_s``."""
    f, n, c = algebra.field, algebra.dim, algebra.c
    inv = _inverse(f, q)
    r = range(n)
    moved = [[[sum((q[s][i] * q[t][j] * c[s][t][u] * inv[k][u]
                    for s in r for t in r for u in r), f.zero())
               for k in r] for j in r] for i in r]
    validate = (lie_validate if isinstance(algebra, LieAlgebra)
                else assoc_validate)
    return validate(StructureConstants(f, n, moved), label="moved")


@settings(_settings, max_examples=25)
@given(data=st.data())
def test_solution_counts_invariant_under_basis_change(data):
    algebra, name = data.draw(algebras(max_total=1 << 13))
    f, n = algebra.field, algebra.dim
    change = _basis_change(data.draw, f, n)
    moved = _in_basis(algebra, change.matrix)
    chunk = data.draw(st.sampled_from(CHUNKS))
    here, there = (
        sweep(SweepSpec(algebra=a, predicate=name, chunk=chunk,
                        keep_solutions=True))
        for a in (algebra, moved)
    )
    assert here.predicate_count == there.predicate_count
    # the change maps solutions in the new basis to solutions in the old
    kept = set(here.solutions)
    for code in there.solutions[:8]:
        r = Tensor2.decode(f, n, code)
        assert change.apply_t2(r).encode() in kept, code


@settings(_settings, max_examples=25)
@given(data=st.data())
def test_ybe_solutions_closed_under_scalars(data):
    # CYBE is homogeneous quadratic in r, QYBE homogeneous cubic
    algebra, name = data.draw(algebras(max_total=1 << 13))
    name = "qybe" if name == "qybe" else "cybe"
    f, n = algebra.field, algebra.dim
    c = data.draw(st.integers(1, f.q - 1))
    sols = sweep(SweepSpec(algebra=algebra, predicate=name,
                           keep_solutions=True)).solutions
    weights = f.q ** np.arange(n * n - 1, -1, -1)
    digits = np.array(sols, dtype=np.int64)[:, None] // weights % f.q
    times_c = np.array([f.mul_i(c, d) for d in range(f.q)])
    scaled = (times_c[digits] * weights).sum(axis=1)
    assert sorted(scaled.tolist()) == sols


def _bracket_text(L) -> str:
    """``L`` as algebra-file text, every pair declared."""
    lines = [f"field {L.field.literal()}", f"dim {L.dim}"]
    for i, j in itertools.product(range(L.dim), repeat=2):
        terms = [f"{k + 1}:{c.literal()}" for k, c in enumerate(L.c[i][j])
                 if not c.is_zero()]
        lines.append(" ".join([f"bracket {i + 1} {j + 1} ->", *terms]))
    return "\n".join(lines) + "\n"


@settings(_settings, max_examples=20)
@given(data=st.data())
def test_file_defined_algebra_sweeps_like_in_memory(data):
    p, m, modulus = data.draw(st.sampled_from(FIELDS))
    f = field(p, m, modulus)
    dim = data.draw(st.sampled_from(
        [d for d in (2, 3) if f.q ** (d * d) <= 1 << 13]
    ))
    L = _lie(data.draw, f, dim)
    name = data.draw(st.sampled_from(LIE_SELECTORS))

    def report(algebra):
        d = json.loads(sweep(SweepSpec(
            algebra=algebra, predicate=name, classifier="symmetric",
            keep_solutions=True,
        )).canonical_json())
        del d["algebra"]
        return d

    assert report(parse_algebra(_bracket_text(L))) == report(L)


def _qybe_reference(A, R):
    """The six-index sums of the ``baxter.ybe`` docstring, term by term."""
    n, a, k = A.dim, A.c, R.rows
    zero = R.field.zero()
    lhs = [[[zero] * n for _ in range(n)] for _ in range(n)]
    rhs = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, l, s, u, t, v, m, w in itertools.product(range(n), repeat=9):
        kk = k[s][u] * k[t][v] * k[m][w]
        lhs[i][j][l] += kk * a[s][t][i] * a[u][m][j] * a[v][w][l]
        rhs[i][j][l] += kk * a[t][m][i] * a[s][w][j] * a[u][v][l]
    return lhs, rhs


@settings(_settings, max_examples=50)
@given(data=st.data())
def test_qybe_sides_match_definition(data):
    p, m, modulus = data.draw(st.sampled_from(FIELDS))
    f = field(p, m, modulus)
    kind = data.draw(st.sampled_from(("poly", "left", "right")))
    if kind == "poly":
        A = _assoc(data.draw, f, 2)
    else:
        # span(E11, E12) or span(E11, E21) inside M2: not commutative
        e2_side = (0, 1) if kind == "left" else (1, 0)
        A = assoc_validate(StructureConstants.from_terms(
            f, 2, {(0, 0): {0: f.one()}, e2_side: {1: f.one()}},
        ), label=kind)
    R = Tensor2.decode(f, 2, data.draw(st.integers(0, f.q ** 4 - 1)))
    lhs, rhs = qybe_sides(A, R)
    want_lhs, want_rhs = _qybe_reference(A, R)
    assert [list(map(list, b)) for b in lhs.coeffs] == want_lhs
    assert [list(map(list, b)) for b in rhs.coeffs] == want_rhs


def _zeros(f, n, rank):
    return [_zeros(f, n, rank - 1) for _ in range(n)] if rank else f.zero()


def _frozen(nested):
    if isinstance(nested, list):
        return tuple(_frozen(v) for v in nested)
    return nested


def _definitions(L, k, T, change, other):
    """Every contraction-built formula as plain sums over all its indices:
    the adjoint actions keyed by ``(name, x)``, the rest by name."""
    f, n, c = L.field, L.dim, L.c
    span = range(n)
    want = {}
    # [r12,r13], [r12,r23], [r13,r23] from the slot embeddings of r
    br = [_zeros(f, n, 3) for _ in range(3)]
    for a, b, w, i, j in itertools.product(span, repeat=5):
        br[0][w][a][b] += k[i][a] * k[j][b] * c[i][j][w]
        br[1][a][w][b] += k[a][i] * k[j][b] * c[i][j][w]
        br[2][a][b][w] += k[a][i] * k[b][j] * c[i][j][w]
    want["bracket_12_13"], want["bracket_12_23"], want["bracket_13_23"] = br
    want["cybe_residual"] = [[[br[0][a][b][d] + br[1][a][b][d] + br[2][a][b][d]
                               for d in span] for b in span] for a in span]
    # delta(e_x)[a][b] = sum_i c[x][i][a] k[i][b] + c[x][i][b] k[a][i]
    deltas = [_zeros(f, n, 2) for _ in span]
    for x, a, b, i in itertools.product(span, repeat=4):
        deltas[x][a][b] += c[x][i][a] * k[i][b] + c[x][i][b] * k[a][i]
    for x in span:
        m = c[x]
        diag, cube = _zeros(f, n, 3), _zeros(f, n, 3)
        for a, b, d, i in itertools.product(span, repeat=4):
            diag[a][b][d] += (m[i][a] * T[i][b][d] + m[i][b] * T[a][i][d]
                              + m[i][d] * T[a][b][i])
        for a, b, d, i, j, l in itertools.product(span, repeat=6):
            cube[a][b][d] += m[i][a] * m[j][b] * m[l][d] * T[i][j][l]
        want["adjoint_act2", x] = deltas[x]
        want["diagonal", x], want["cube", x] = diag, cube
    # T_x[a][c][d] = sum_b delta_x[a][b] delta_b[c][d], plus both 3-cycles
    want["cojacobi_defect"] = []
    for dx in deltas:
        tx = _zeros(f, n, 3)
        for a, b, cc, d in itertools.product(span, repeat=4):
            tx[a][cc][d] += dx[a][b] * deltas[b][cc][d]
        want["cojacobi_defect"].append([[[
            tx[i][j][l] + tx[j][l][i] + tx[l][i][j]
            for l in span] for j in span] for i in span])
    q, p = change.matrix, other.matrix
    want["apply_t2"], want["then"] = _zeros(f, n, 2), _zeros(f, n, 2)
    for s, u, i, j in itertools.product(span, repeat=4):
        want["apply_t2"][s][u] += k[i][j] * q[s][i] * q[u][j]
    for s, u, i in itertools.product(span, repeat=3):
        want["then"][s][u] += p[s][i] * q[i][u]
    return want


@settings(_settings, max_examples=40)
@given(data=st.data())
def test_tensor_formulas_match_definition(data):
    # unrestricted tensors in every characteristic: a char-2 member of
    # Im(1 - tau) is symmetric and hides swapped slots of a cobracket term.
    # Every formula is checked on every draw: hypothesis clusters its
    # draws, so one drawn formula per example leaves some formulas with a
    # handful of near-identical examples in a run.
    p, m, modulus = data.draw(st.sampled_from(FIELDS))
    f = field(p, m, modulus)
    n = data.draw(st.sampled_from((2, 3)))
    L = _lie(data.draw, f, n)
    r = Tensor2.decode(f, n, data.draw(st.integers(0, f.q ** (n * n) - 1)))
    flat = iter(data.draw(st.lists(st.integers(0, f.q - 1),
                                   min_size=n ** 3, max_size=n ** 3)))
    t = Tensor3(f, n, [[[f.element(next(flat)) for _ in range(n)]
                        for _ in range(n)] for _ in range(n)])
    change, other = _basis_change(data.draw, f, n), _basis_change(data.draw, f, n)
    got = {
        "bracket_12_13": bracket_12_13(L, r).coeffs,
        "bracket_12_23": bracket_12_23(L, r).coeffs,
        "bracket_13_23": bracket_13_23(L, r).coeffs,
        "cybe_residual": cybe_residual(L, r).coeffs,
        "cojacobi_defect": tuple(d.coeffs for d in cojacobi_defect(L, r)),
        "apply_t2": change.apply_t2(r).rows,
        "then": change.then(other).matrix,
    }
    for x in range(n):
        got["adjoint_act2", x] = adjoint_act2(L, x, r).rows
        for mode in ("diagonal", "cube"):
            got[mode, x] = adjoint_act3(L, x, t, mode=mode).coeffs
    want = _definitions(L, r.rows, t.coeffs, change, other)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == _frozen(value), key


# Selectors every algebra takes, as classifiers and domains of the route
# draws below; against CYBE or QYBE most of them disagree somewhere.
GENERIC = ("symmetric", "strongly-symmetric", "im-one-minus-tau")


@st.composite
def route_specs(draw):
    """A sweep of a plain algebra, or of a whole GF(2) or GF(4) family,
    with a classifier, a domain and a listing each drawn or left out, and
    a chunk that forces every side with more solutions to be counted."""
    from baxter.algebra import Family

    if draw(st.booleans()):
        algebra, name = draw(algebras(max_total=1 << 13))
        small = 7
    else:
        q = draw(st.sampled_from((2, 4)))
        f = field(2) if q == 2 else field(2, 2, 0b111)
        algebra = Family(draw(st.sampled_from(("ab", "bd"))), f)
        name = draw(st.sampled_from(("cybe", "triangular", "coboundary")
                                    + GENERIC))
        small = 7 if q == 2 else 1 << 10
    listing = draw(st.booleans())
    spec = SweepSpec(
        algebra=algebra, predicate=name,
        classifier=draw(st.none() | st.sampled_from(GENERIC)),
        domain=draw(st.none() | st.sampled_from(GENERIC)),
        keep_solutions=listing,
        limit=draw(st.none() | st.integers(0, 40)) if listing else None,
    )
    return spec, small


@settings(_settings, max_examples=40)
@given(drawn=route_specs())
def test_counted_route_reports_like_the_listed_route(drawn):
    # chunk 2**20 lists every side of these spaces; the small chunk counts
    # the sides past it, compares them by their polys or by the system of
    # both, and scans for their counterexamples and listing
    from dataclasses import replace

    from baxter import search

    spec, small = drawn
    (want,) = search._sweep_all([spec], workers=1)
    for workers in (1, 2):
        (got,) = search._sweep_all([replace(spec, chunk=small)], workers)
        assert ([r.canonical_json() for r in got]
                == [r.canonical_json() for r in want])
