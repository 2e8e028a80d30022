"""Compiled polynomial route vs direct object route, and the kernel itself."""
import numpy as np
import pytest

from baxter import (
    SELECTOR_NAMES,
    SweepSpec,
    Tensor2,
    build_selector_system,
    compile_selector,
    make_dim2,
    make_family_ab,
    make_family_bd,
    make_matrix_algebra,
    selector_predicate,
    sweep,
)
from baxter import field
from baxter._kernel import (
    CompiledSystem,
    _compile,
    compile_polys,
    evaluate_code,
    plan,
    solutions_in_range,
)
from baxter._poly import PolyRing


def _object_solutions(algebra, name):
    pred = selector_predicate(algebra, name)
    f, n = algebra.field, algebra.dim
    return [
        code for code in range(f.q ** (n * n))
        if pred(Tensor2.decode(f, n, code))
    ]


def _kernel_solutions(algebra, name):
    system = compile_selector(algebra, name)
    total = system.order ** system.nvars
    return solutions_in_range(system, 0, total).tolist()


LIE_SELECTORS = (
    "cybe",
    "strongly-symmetric",
    "symmetric",
    "im-one-minus-tau",
    "coboundary",
    "triangular",
)


@pytest.mark.parametrize("name", LIE_SELECTORS)
def test_routes_agree_gf2_dim3(f2, name):
    L = make_family_ab(f2, f2.zero(), f2.one())
    assert _kernel_solutions(L, name) == _object_solutions(L, name)


@pytest.mark.parametrize("name", LIE_SELECTORS)
def test_routes_agree_gf2_bd(f2, name):
    L = make_family_bd(f2, f2.one(), f2.one())
    assert _kernel_solutions(L, name) == _object_solutions(L, name)


def test_routes_agree_alpha_beta_symmetric(f2, f4):
    for f in (f2, f4):
        L = make_family_ab(f, f.one(), f.one())
        assert _kernel_solutions(L, "alpha-beta-symmetric") == (
            _object_solutions(L, "alpha-beta-symmetric")
        )


def test_routes_agree_prop16_case(f2):
    L = make_family_bd(f2, f2.zero(), f2.one())
    assert _kernel_solutions(L, "prop16-case") == (
        _object_solutions(L, "prop16-case")
    )


# closed-form selectors and the family (ab or bd) whose parameters they read
CLOSED_FORMS = (
    ("expanded-relations", "ab"),
    ("expanded-relations", "bd"),
    ("su-family", "ab"),
    ("su-family", "bd"),
    ("im-and-alpha-beta-symmetric", "ab"),
    ("bd-printed-coboundary", "bd"),
    ("bd-printed-triangular", "bd"),
)


@pytest.mark.parametrize("name, family", CLOSED_FORMS)
def test_routes_agree_closed_forms(f2, name, family):
    if family == "ab":
        L = make_family_ab(f2, f2.zero(), f2.one())
    else:
        L = make_family_bd(f2, f2.one(), f2.one())
    assert _kernel_solutions(L, name) == _object_solutions(L, name)


@pytest.mark.parametrize("fixture", ("f2", "f4"))
def test_sweep_domain_counts_and_workers(request, fixture):
    f = request.getfixturevalue(fixture)
    L = make_family_ab(f, f.one(), f.one())
    domain = sweep(SweepSpec(algebra=L, predicate="im-one-minus-tau"))
    assert domain.predicate_count == f.q ** 3
    canon = set()
    for chunk in (64, 1 << 12):
        for workers in (1, 2, 3):
            report = sweep(SweepSpec(
                algebra=L, predicate="triangular",
                classifier="im-and-alpha-beta-symmetric",
                domain="im-one-minus-tau", workers=workers, chunk=chunk,
            ))
            assert report.total == domain.predicate_count
            canon.add(report.canonical_json())
    assert len(canon) == 1


def test_routes_agree_qybe_dim2_slice(f2):
    # dim-4 matrix algebra is too big for a full object sweep here; use a
    # dim-2 associative algebra: the span of E11, E12 inside M2
    from baxter.algebra import StructureConstants, assoc_validate

    z, o = f2.zero(), f2.one()
    n = 2
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    c[0][0][0] = o  # a*a = a
    c[0][1][1] = o  # a*b = b
    sc = StructureConstants(f2, n, tuple(
        tuple(tuple(cell) for cell in row) for row in c
    ))
    A = assoc_validate(sc, label="span-e11-e12")
    assert _kernel_solutions(A, "qybe") == _object_solutions(A, "qybe")


def test_routes_agree_gf4_cybe(f4):
    L = make_family_ab(f4, f4.element(2), f4.one())
    kern = _kernel_solutions(L, "cybe")
    # object route on a stride sample plus all kernel-found solutions
    pred = selector_predicate(L, "cybe")
    kern_set = set(kern)
    for code in kern[:200]:
        assert pred(Tensor2.decode(f4, 3, code))
    for code in range(0, 4 ** 9, 4093):
        assert pred(Tensor2.decode(f4, 3, code)) == (code in kern_set)


def test_routes_agree_dim2(f2, f4):
    for f in (f2, f4):
        for kind in ("abelian", "nonabelian"):
            L = make_dim2(f, kind)
            assert _kernel_solutions(L, "cybe") == _object_solutions(
                L, "cybe"
            )


def _strings(value) -> set:
    """Every string in a nest of tuples, lists and code constants."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, (tuple, list)):
        return set().union(*map(_strings, value))
    if hasattr(value, "co_consts"):
        return _strings(value.co_consts)
    return set()


def test_every_selector_has_a_route_agreement_test():
    # the selector names each test_routes_agree_* test names, in its
    # parametrization or its body
    covered = set()
    for name, test in globals().items():
        if name.startswith("test_routes_agree"):
            covered |= _strings(test.__code__)
            for mark in getattr(test, "pytestmark", ()):
                if mark.name == "parametrize":
                    covered |= _strings(mark.args[1])
    assert [s for s in SELECTOR_NAMES if s not in covered] == []


def test_evaluate_code_matches_kernel(f4):
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    system = compile_selector(L, "cybe")
    sols = set(solutions_in_range(system, 0, 4 ** 9).tolist())
    for code in list(sols)[:50]:
        assert evaluate_code(system, code)
    for code in range(0, 4 ** 9, 65537):
        assert evaluate_code(system, code) == (code in sols)


def test_compile_drops_zero_and_duplicate_polys(f2):
    ring = PolyRing(f2, 3)
    x0, x1 = ring.var(0), ring.var(1)
    p = x0 * x1 + ring.one()
    system = compile_polys(ring, [ring.zero(), p, p, x0 * x1 + ring.one()])
    assert len(system.polys) == 1


def test_compiled_system_is_picklable(f2):
    import pickle

    L = make_family_ab(f2, f2.zero(), f2.zero())
    system = compile_selector(L, "cybe")
    clone = pickle.loads(pickle.dumps(system))
    assert isinstance(clone, CompiledSystem)
    assert (
        solutions_in_range(clone, 0, 512).tolist()
        == solutions_in_range(system, 0, 512).tolist()
    )


def test_solutions_in_range_chunk_boundaries(f2):
    L = make_family_ab(f2, f2.zero(), f2.zero())
    system = compile_selector(L, "cybe")
    whole = solutions_in_range(system, 0, 512).tolist()
    pieces = []
    for start in range(0, 512, 100):
        pieces.extend(
            solutions_in_range(system, start, min(512, start + 100),
                               chunk=7).tolist()
        )
    assert pieces == whole
    assert len(whole) == 56


def test_build_selector_system_over_poly_ring(f2):
    L = make_family_ab(f2, f2.zero(), f2.zero())
    ring = PolyRing(f2, 9)
    polys = build_selector_system(L, "cybe", ring)
    assert polys  # nonempty
    assert all(p.ring is ring for p in polys)


def test_empty_system_means_every_code_solves(f2):
    # the abelian dim-2 algebra yields an identically-zero residual
    L = make_dim2(f2, "abelian")
    system = compile_selector(L, "cybe")
    assert solutions_in_range(system, 0, 16).size == 16


def test_solutions_dtype_and_order(f4):
    L = make_dim2(f4, "nonabelian")
    system = compile_selector(L, "cybe")
    sols = solutions_in_range(system, 0, 256)
    assert sols.dtype == np.uint64
    assert list(sols) == sorted(sols)


def test_plan_keeps_natural_order_where_it_is_cheaper(f3, f4, f8):
    def order(algebra, name):
        return plan(compile_selector(algebra, name))[0].var_order

    # fail first pays off on the char-2 CYBE families, also where greedy's
    # estimate wins by less than 2x (bd(0,1): 1.6x, and 3x in wall time) ...
    assert order(make_family_ab(f8, f8.one(), f8.one()), "cybe") is not None
    assert order(make_family_bd(f8, f8.zero(), f8.one()), "cybe") is not None
    # ... and is estimated costlier on M2 QYBE, in characteristic 2 and 3
    # (counted in natural order about 3x faster over GF(3)).  commutator(M2)'s
    # strongly symmetric tensors are not a case: on the row-reduced levels
    # greedy's estimate is lower there, and greedy is no slower.
    assert order(make_matrix_algebra(f4, 2), "qybe") is None
    assert order(make_matrix_algebra(f3, 2), "qybe") is None
    empty = compile_selector(make_dim2(f4, "abelian"), "cybe")
    assert plan(empty) == (empty, 0.0, 0.0)


def _level_polys(system):
    """The number of polys that ``system``'s compiled levels hold."""
    return sum(gather.npolys for level in _compile(system).levels if level
               for gather in level[:2] if gather)


def test_row_reduction_drops_dependent_cybe_polys(f8):
    # The 27 entries of ab(1,1)'s CYBE residual over GF(8) span 21 polys,
    # whatever the variable order.
    system = compile_selector(make_family_ab(f8, f8.one(), f8.one()), "cybe")
    assert len(system.polys) == 27
    for ordered in (system, plan(system)[0]):
        assert _level_polys(ordered) == 21


@pytest.mark.parametrize("fixture, make, name", [
    ("f8", lambda f: make_family_ab(f, f.one(), f.one()), "cybe"),
    ("f4", lambda f: make_family_bd(f, f.zero(), f.element(2)), "cybe"),
    ("f3", lambda f: make_matrix_algebra(f, 2), "qybe"),
])
def test_every_poly_lies_in_the_span_of_the_reduced_ones(request, fixture,
                                                         make, name):
    # Eliminating each original poly against the reduced rows, in field
    # arithmetic of the Field itself, leaves nothing; each reduced row
    # leads with the monomial it is keyed by, so no two share a leading
    # monomial and they are independent.
    from baxter._kernel import _greedy_order, _reduce, _tables

    f = request.getfixturevalue(fixture)
    system = compile_selector(make(f), name)
    for order in (None, _greedy_order(system)):
        depth_of = list(range(system.nvars))
        for d, v in enumerate(order or ()):
            depth_of[v] = d
        rows = _reduce(system.polys, depth_of, _tables(system)["arith"])
        assert 0 < len(rows) <= len(system.polys)
        pivots = {lead: {vs: c for c, vs in row} for lead, row in rows.items()}
        assert all(lead == max(row) for lead, row in pivots.items())
        for poly in system.polys:
            left = {tuple(sorted((depth_of[v] for v in vs), reverse=True)): c
                    for c, vs in poly}
            while left:
                lead = max(left)
                assert lead in pivots, (order, poly)
                pivot = pivots[lead]
                times = f.mul_i(left[lead], f.inv_i(pivot[lead]))
                for vs, c in pivot.items():
                    value = f.sub_i(left.get(vs, 0), f.mul_i(times, c))
                    if value:
                        left[vs] = value
                    else:
                        left.pop(vs, None)


# Systems whose every level is linear in the variable it assigns, so the
# kernel solves each level on the parent prefixes: (field, variables, polys,
# solution count).
LINEAR_CASES = {
    # x0 x1: where x0 = 0, both a and c vanish and every digit of x1 solves
    "every digit": ((2, 2, 0b111), 2, lambda r, x: [x[0] * x[1]], 7),
    # x0 x1 + 1: where x0 = 0, a = 0 and c = 1, so no digit solves
    "no digit": ((2, 2, 0b111), 2, lambda r, x: [x[0] * x[1] + r.one()], 3),
    # x1 and x1 + 1 have different roots
    "different roots": (
        (2, 2, 0b111), 2, lambda r, x: [x[1], x[1] + r.one()], 0),
    # x1 = -x0 / 2 over GF(5)
    "negation gf5": ((5, 1, None), 2, lambda r, x: [x[0] + r.const(2) * x[1]],
                     5),
    # x1 = -(x0 + 1) / t over GF(9) = GF(3)[t]/(t^2 + 1), t encoded as 3
    "negation gf9": (
        (3, 2, 10), 2, lambda r, x: [x[0] + r.const(3) * x[1] + r.one()], 9),
    # two polys closed by x2, with roots -x1/x0 and -x0, over GF(5)
    "two polys gf5": (
        (5, 1, None), 3,
        lambda r, x: [x[0] * x[2] + x[1], x[2] + x[0]], 5),
}


def _case_system(case):
    (p, m, modulus), nvars, build, count = case
    ring = PolyRing(field(p, m, modulus), nvars)
    system = compile_polys(ring, build(ring, [ring.var(i)
                                              for i in range(nvars)]))
    want = [code for code in range(system.order ** nvars)
            if evaluate_code(system, code)]
    assert len(want) == count
    return system, want


@pytest.mark.parametrize("name", sorted(LINEAR_CASES))
def test_linear_levels_match_reference(name):
    system, want = _case_system(LINEAR_CASES[name])
    nvars = system.nvars
    total = system.order ** nvars
    for order in (None, tuple(reversed(range(nvars)))):
        ordered = system._replace(var_order=order)
        levels = _compile(ordered).levels
        # level 0 holds a nonzero constant, such as the 1 that x1 and x1 + 1
        # reduce to
        assert all(level.linear is not None and level.rest is None
                   for level in levels[1:] if level)
        for chunk in (1, 1 << 20):
            got = solutions_in_range(ordered, 0, total, chunk).tolist()
            assert sorted(got) == want


# Systems with a level whose polys are not all linear in its variable: the
# kernel solves the linear ones on the parent prefixes (or expands all q
# children where there are none) and evaluates the others on the children.
# (field, variables, polys, solution count); natural order's last level
# holds a poly of degree 2 in its variable.
MIXED_CASES = {
    # x1 = x0 from the linear poly, then x0**2 + x0 = 0 keeps x0 in {0, 1}
    "root fails the quadratic": (
        (2, 2, 0b111), 2, lambda r, x: [x[1] + x[0], x[1] * x[1] + x[0]], 2),
    # x1 = x0 over GF(5), kept where x0**2 = 1
    "root fails the quadratic gf5": (
        (5, 1, None), 2,
        lambda r, x: [x[1] - x[0], x[1] * x[1] - r.one()], 2),
    # where x0 = 0 every digit solves x0 x1, and x1**2 + x1 keeps two of
    # them; elsewhere the root x1 = 0 solves both
    "every digit then a quadratic": (
        (2, 2, 0b111), 2, lambda r, x: [x[0] * x[1], x[1] * x[1] + x[1]], 5),
    # no linear poly: x1**2 = -x0 over GF(5) has one root for x0 = 0 and
    # two where -x0 is a nonzero square (x0 in {1, 4})
    "quadratic only gf5": (
        (5, 1, None), 2, lambda r, x: [x[1] * x[1] + x[0]], 5),
    # a cubic beside a linear poly over GF(9), closed by x2 of three
    "cubic gf9": (
        (3, 2, 10), 3,
        lambda r, x: [x[0] * x[2] + x[1], x[2] * x[2] * x[2] + x[1] * x[2]
                      + r.const(3) * x[0]], 7),
}


@pytest.mark.parametrize("name", sorted(MIXED_CASES))
def test_mixed_levels_match_reference(name):
    system, want = _case_system(MIXED_CASES[name])
    compiled = _compile(system)
    assert compiled.levels[compiled.last].rest is not None
    total = system.order ** system.nvars
    for order in (None, tuple(reversed(range(system.nvars)))):
        ordered = system._replace(var_order=order)
        for chunk in (1, 1 << 20):
            got = solutions_in_range(ordered, 0, total, chunk).tolist()
            assert sorted(got) == want


def test_compile_rejects_monomials_past_the_factor_limit(f2):
    # A product is the sum of its factors' discrete logs and its
    # coefficient's in uint16, which holds 15 of zero's log: a monomial
    # of 14 factors is evaluated, one of 15 is refused, not dropped.
    from baxter._kernel import satisfied

    for n in (14, 15):
        ring = PolyRing(f2, n)
        product = ring.one()
        for i in range(n):
            product = product * ring.var(i)
        if n == 15:
            with pytest.raises(ValueError, match="fewer than 15 factors"):
                compile_polys(ring, [product + ring.one()])
            continue
        system = compile_polys(ring, [product + ring.one()])
        codes = np.arange(2 ** n, dtype=np.uint64)
        assert solutions_in_range(system, 0, 2 ** n).tolist() == [2 ** n - 1]
        mask = satisfied(system, codes, 1 << 20)
        assert np.flatnonzero(mask).tolist() == [2 ** n - 1]


# -- counting, and listing the first solutions --------------------------------


def _family_system(f, kind, name):
    """The selector's system on a family's symbolic member: two parameter
    variables lead, so a code is ``member * q**9 + encoding``."""
    from baxter.algebra import Family

    ring = PolyRing(f, 11)
    member = Family(kind, f).symbolic(ring)
    return compile_polys(ring, build_selector_system(member, name, ring))


def _assert_counts(system, start, stop, chunk):
    """Count mode, in buckets of every width up to ``q**3`` buckets, equals
    the listing cut at the bucket bounds."""
    listed = np.sort(solutions_in_range(system, start, stop, chunk))
    q, n = system.order, system.nvars
    for k in range(4):
        width = q ** (n - k)
        cuts = listed.searchsorted(
            np.arange(q ** k + 1, dtype=np.uint64) * np.uint64(width))
        got = solutions_in_range(system, start, stop, chunk, buckets=q ** k)
        assert got.tolist() == np.diff(cuts).tolist(), (k, start, stop)
    return listed


def _cut_ranges(system):
    """Ranges that cut the free subtree of the first solution's prefix at
    the last poly's depth: inside it, and from inside its left neighbour
    to inside its right one; then ranges across a member boundary."""
    q, n = system.order, system.nvars
    last = _compile(system).last
    width = q ** (n - last)
    first = solutions_in_range(system, 0, q ** n, limit=1)
    # the first solution's search code, from its encoding's digits
    code = 0
    for v in system.var_order or range(n):
        code = code * q + int(first[0]) // q ** (n - 1 - v) % q
    prefix = code // width
    space = q ** 9
    return [
        (0, q ** n),
        (prefix * width + width // 3, prefix * width + 2 * width // 3),
        (max(0, (prefix - 1) * width + width // 2),
         (prefix + 2) * width + width // 2),
        (space - 37, space + 1001),
        (space // 2, 3 * space + space // 3),
    ]


COUNT_CASES = [
    (2, "ab", "cybe"), (2, "bd", "cybe"), (2, "ab", "strongly-symmetric"),
    (2, "bd", "coboundary"), (4, "ab", "cybe"), (4, "bd", "symmetric"),
    (4, "bd", "cybe"),
]


@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("q, kind, name", COUNT_CASES)
def test_count_mode_equals_the_listing_cut_by_bucket(q, kind, name, greedy):
    from baxter._kernel import _greedy_order

    f = field(2) if q == 2 else field(2, 2, 0b111)
    system = _family_system(f, kind, name)
    if greedy:
        system = system._replace(var_order=_greedy_order(system))
    chunks = (7, 1 << 20) if q == 2 else (1 << 12, 1 << 20)
    for start, stop in _cut_ranges(system):
        for chunk in chunks:
            listed = _assert_counts(system, start, stop, chunk)
            got = solutions_in_range(system, start, stop, chunk, buckets=1)
            assert got.tolist() == [listed.size]


def test_count_mode_spreads_free_parameters_over_their_members(f2):
    # Strong symmetry does not read the parameters, so greedy order leaves
    # them free past the last poly: one free subtree spans all four
    # 512-code members.
    from baxter._kernel import _greedy_order

    system = _family_system(f2, "ab", "strongly-symmetric")
    system = system._replace(var_order=_greedy_order(system))
    compiled = _compile(system)
    depths = [system.var_order.index(v) for v in (0, 1)]
    assert min(depths) >= compiled.last
    for start, stop in ((0, 2048), (300, 1700), (511, 513)):
        _assert_counts(system, start, stop, 7)
    got = solutions_in_range(system, 0, 2048, buckets=4)
    assert got.tolist() == [8, 8, 8, 8]


def test_count_mode_counts_a_last_linear_level_on_its_parents(
        f4, monkeypatch):
    # GF(4) ab(1,1) CYBE in greedy order closes its last poly on a linear
    # level: counting takes each parent's number of roots there instead of
    # growing the children.  Only the aligned range (0, 4**9) does so; the
    # other two cut subtrees, so they grow to the leaves.
    from baxter import _kernel

    system, _, _ = plan(compile_selector(make_family_ab(f4, f4.one(),
                                                        f4.one()), "cybe"))
    compiled = _compile(system)
    assert compiled.levels[compiled.last].linear is not None
    calls = []
    real = _kernel._count_last

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(_kernel, "_count_last", spy)
    for start, stop in ((0, 4 ** 9), (1234, 99999), (4 ** 8 + 5, 4 ** 8 + 6)):
        listed = solutions_in_range(system, start, stop)
        got = solutions_in_range(system, start, stop, buckets=4)
        want = np.bincount((listed // np.uint64(4 ** 8)).astype(np.intp),
                           minlength=4)
        assert got.tolist() == want.tolist()
    assert calls and set(calls) == {compiled.last - 1}


def test_count_mode_grows_a_mixed_last_level_to_its_children(
        f2, monkeypatch):
    # A last level that also holds polys of degree 2 in its variable keeps
    # a parent's root only where those vanish on it, so counting grows
    # its children and never counts the parents' roots: over GF(4), x1 =
    # x0 has four roots and only two of them solve x1**2 + x0.
    from baxter import _kernel

    calls = []
    real = _kernel._count_last

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(_kernel, "_count_last", spy)
    systems = [_case_system(case)[0] for case in MIXED_CASES.values()]
    systems.append(compile_selector(make_matrix_algebra(f2, 2), "qybe"))
    for system in systems:
        compiled = _compile(system)
        assert compiled.levels[compiled.last].rest is not None
        q, n = system.order, system.nvars
        listed = solutions_in_range(system, 0, q ** n)
        for k in range(3):
            got = solutions_in_range(system, 0, q ** n, buckets=q ** k)
            want = np.bincount(
                (listed // np.uint64(q ** (n - k))).astype(np.intp),
                minlength=q ** k)
            assert got.tolist() == want.tolist(), (system.polys, k)
    assert calls == []


@pytest.mark.parametrize("greedy", [False, True])
def test_limit_lists_the_first_solutions_in_search_order(f4, greedy):
    from baxter._kernel import _greedy_order

    system = _family_system(f4, "bd", "cybe")
    if greedy:
        system = system._replace(var_order=_greedy_order(system))
    for start, stop in ((0, 4 ** 11), (4 ** 9 - 50, 3 * 4 ** 9 + 7)):
        for chunk in (1 << 10, 1 << 20):
            listed = solutions_in_range(system, start, stop, chunk)
            for limit in (0, 1, 5, 300, listed.size + 1):
                got = solutions_in_range(system, start, stop, chunk,
                                         limit=limit)
                assert got.tolist() == listed[:limit].tolist()


def test_limit_stops_once_it_has_the_solutions(f8):
    # The abelian dim-3 algebra over GF(8): its CYBE system has no polys,
    # and listing its first four solutions holds about four codes, not
    # the 1 GB of all 8**9.
    import tracemalloc

    system = compile_selector(make_dim2(f8, "abelian"), "cybe")
    system = system._replace(nvars=9)
    assert not system.polys
    solutions_in_range(system, 0, 8 ** 9, limit=4)  # compile first
    tracemalloc.start()
    try:
        got = solutions_in_range(system, 5, 8 ** 9, limit=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [5, 6, 7, 8]
    assert peak < 1 << 20
    # 8**4 solutions from a first subtree cut by the start need the next
    # subtree too
    got = solutions_in_range(system, 5, 8 ** 9, limit=8 ** 4)
    assert got.tolist() == list(range(5, 5 + 8 ** 4))
    assert solutions_in_range(system, 0, 8 ** 9, buckets=8).tolist() == [
        8 ** 8] * 8


def test_buckets_must_be_a_power_of_the_field_order(f2):
    system = _family_system(f2, "ab", "cybe")
    for buckets in (0, 3, 2 ** 12):
        with pytest.raises(ValueError, match="power of 2"):
            solutions_in_range(system, 0, 2048, buckets=buckets)


def test_satisfied_matches_the_reference_evaluator(f4):
    from baxter._kernel import satisfied

    system = _family_system(f4, "ab", "cybe")
    codes = np.arange(0, 4 ** 11, 997, dtype=np.uint64)
    mask = satisfied(system, codes, 1 << 20)
    assert mask.tolist() == [evaluate_code(system, int(c)) for c in codes]
    assert mask.any()
