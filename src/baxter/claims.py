"""Registered verification suites for the cataloged claims.

Each claim id names one statement about YBE solutions or bialgebra
structures in the low-dimensional algebra families; ``claim_check`` runs the
registered exhaustive checks and returns the reports, any
predicate-vs-classifier disagreements (as a pinned, reproducible
:class:`~baxter.search.DiscrepancyLedger`), and human-readable notes.  Most
checks are rows of sweeps; Lemma2.1.1's identity is counted by the kernel
over each family at once; Lemma0.2 compares the encodings its selector
sweeps list against the rank-one image ``c v (x) v``, gathered in one kernel
call, and checks product invariance as one ring identity per field.  Only
Lemma0.2's basis-change check (over the 6 generators of GL_3(GF(2))) and
Example1.5 look at tensors one at a time.

The oracle-first policy applies throughout: residual/co-Jacobi brute force
is ground truth, closed-form classifiers are compared against it, and a
classifier that disagrees produces stable ledger entries rather than being
patched to match.  ``passed`` reports whether the claim holds exactly as
stated; a nonempty ledger documents where it does not.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field, replace
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import bialgebra, search, ybe
from ._kernel import compile_polys
from ._poly import PolyRing
from .algebra import (
    Family,
    StructureConstants,
    commutator_lie,
    lie_validate,
    make_dim2,
    make_family_ab,
    make_matrix_algebra,
)
from .errors import UnknownClaim
from .gf import Field, parse_field
from .tensor import (
    BasisChange,
    Tensor2,
    _contract,
    _nonzero_entries,
    encoding_literal,
)

__all__ = ["CLAIM_IDS", "ClaimResult", "claim_check", "claim_default_fields"]

_GF2 = "gf(2)"
_GF4 = "gf(2^2;0b111)"


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    reports: list = dc_field(default_factory=list)
    ledger: search.DiscrepancyLedger = dc_field(
        default_factory=search.DiscrepancyLedger)
    notes: list = dc_field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 pass; 1 claim false with empty ledger; 3 ledger nonempty."""
        if not self.ledger.is_empty():
            return 3
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "notes": list(self.notes),
            "reports": [r.to_dict() for r in self.reports],
            "ledger": self.ledger.to_list(),
        }


# ---------------------------------------------------------------------------
# algebra grids


# A grid item is an algebra or a whole family, swept in one pass over all
# of its members.  A grid that is not every parameter pair, or whose rows
# branch on the parameter values (``prop16-case``), lists its members.
# Rows read a grid through ``_grid_items``, so each grid's algebras are
# built and validated once per process and field.


def _ab_family(f: Field):
    return [Family("ab", f)]


def _bd_family(f: Field):
    return [Family("bd", f)]


def _bd_covered(f: Field):
    """bd family inside the classified/bialgebra hypotheses: beta = 0 with
    any delta, then beta != 0 with delta = 1, picked from the family's
    members, where bd(beta, delta) is at index beta * q + delta."""
    members = Family("bd", f).members()
    return members[:f.q] + members[f.q + 1::f.q]


def _ab00(f: Field):
    return [make_family_ab(f, f.zero(), f.zero())]


def _dim3_lie_algebras(f: Field):
    return _ab_family(f) + _bd_family(f)


def _dim2_algebras(f: Field):
    return [make_dim2(f, "abelian"), make_dim2(f, "nonabelian")]


def _dim3_and_dim2(f: Field):
    return _dim3_lie_algebras(f) + _dim2_algebras(f)


def _thm03_lie(f: Field):
    return _dim3_and_dim2(f) + [commutator_lie(make_matrix_algebra(f, 2))]


def _matrix2(f: Field):
    return [make_matrix_algebra(f, 2)]


@functools.lru_cache(maxsize=64)
def _grid_items(grid: Callable, f: Field) -> tuple:
    """The items of ``grid`` over ``f``, built once per process."""
    return tuple(grid(f))


def _prop16_label(L) -> str:
    return f"Prop1.6-{ybe.bd_case_of(L.params.beta, L.params.delta)}"


# ---------------------------------------------------------------------------
# claims as rows of sweeps


@dataclass(frozen=True)
class _Row:
    """One sweep per item of ``grid``, an algebra or a whole family: the
    ``predicate`` oracle against the ``classifier`` closed form, both within
    ``domain`` if given, reported per algebra (a family's members in
    parameter order).

    ``expect`` says what a disagreement means.  ``"equal"`` and
    ``"subset"`` (classifier set inside the predicate set) fail the claim
    and pin the counterexamples; ``"pinned"`` only pins them, for a stated
    link known to be false.  ``field`` restricts the row to that field;
    ``shown_as`` renames the classifier in the report; ``label`` may be a
    function of the algebra, on a grid of algebras.  With ``report=False``
    the row still pins, fails and notes as above but adds no report to the
    claim's list, for claims whose published output has none.
    """

    label: str | Callable
    grid: Callable
    predicate: str
    classifier: str
    domain: str | None = None
    expect: str = "equal"
    field: str | None = None
    shown_as: str | None = None
    report: bool = True


def _record(res: ClaimResult, row: _Row, report) -> None:
    """Record one sweep of ``row``: its report (unless ``row.report`` is
    false), ledger entries and a note."""
    if row.shown_as is not None:
        report = replace(report, classifier=row.shown_as)
    if row.report:
        res.reports.append(report)
    if row.expect == "subset":
        broken = report.class_only_count > 0
    else:
        broken = not report.agreement
    if broken:
        res.ledger.record_report(report)
        if row.expect != "pinned":
            res.passed = False
    res.notes.append(
        f"{report.claim}: {report.field} {report.algebra}: {report.predicate}"
        f" {report.predicate_count} vs {report.classifier}"
        f" {report.classifier_count}"
        + (f" of {report.total} in {row.domain}" if row.domain else "")
        + (" (disagreement pinned)" if broken else "")
    )


def _run_rows(res: ClaimResult, rows, fields, workers) -> None:
    """Run ``rows`` and record them in order; consecutive rows with the
    same grid and field restriction take turns on each algebra, and on each
    member of a family, which every row sweeps in one pass.  Every sweep is
    listed before the first one runs, so the helpers share them."""
    groups, specs = [], []
    for (grid, only), group in itertools.groupby(
        rows, key=lambda row: (row.grid, row.field)
    ):
        group = list(group)
        for f in fields:
            if only is not None and f.literal() != only:
                continue
            for L in _grid_items(grid, f):
                groups.append(group)
                specs.extend(search.SweepSpec(
                    algebra=L,
                    predicate=row.predicate,
                    classifier=row.classifier,
                    domain=row.domain,
                    claim=(row.label if isinstance(row.label, str)
                           else row.label(L)),
                    workers=workers,
                ) for row in group)
    reports = iter(search._sweep_all(specs, workers))
    for group in groups:
        per_row = [next(reports) for _ in group]
        for member in zip(*per_row):  # one report per row
            for row, report in zip(group, member):
                _record(res, row, report)


# ---------------------------------------------------------------------------
# claims that are not sweeps


def _selected(algebras, name: str, workers) -> list[list[int]]:
    """Per algebra, the encodings of the tensors the selector ``name``
    selects, ascending; the sweeps are listed first, so the helpers share
    them."""
    reports = search._sweep_all([search.SweepSpec(
        algebra=L, predicate=name, workers=workers, keep_solutions=True,
    ) for L in algebras], workers)
    return [report.solutions for (report,) in reports]


@functools.lru_cache(maxsize=16)
def _rank1_image(f: Field, n: int) -> np.ndarray:
    """The encodings of ``c v (x) v`` over every scale ``c`` and vector
    ``v`` of dimension ``n``, zero included, distinct and ascending: the
    ``q^(n + 1)`` codes of ``(c, v)`` mapped in one gather by
    :func:`~baxter.search._encodings`, once per process.  The scale
    matters outside characteristic 2, where ``v (x) v`` misses
    ``c v (x) v`` for ``c`` not a square."""
    ring = PolyRing(f, n + 1)
    c, *v = (ring.var(i) for i in range(n + 1))
    coords = compile_polys(ring, [c * vi * vj for vi in v for vj in v],
                           every=True)
    shape = search._Map(None, f.q, n + 1, coords, False)
    image = np.sort(search._encodings(
        shape, np.arange(f.q ** (n + 1)), search.SweepSpec.chunk))
    image = image[np.r_[True, image[1:] != image[:-1]]]
    image.flags.writeable = False
    return image


def _symmetric(q: int, n: int, codes: np.ndarray) -> np.ndarray:
    """Per encoding of a dim-``n`` tensor, whether its coefficients, its
    base-q digits row-major, are symmetric: ``k_ij = k_ji``."""
    digits = [codes // np.uint64(q ** (n * n - 1 - s)) % np.uint64(q)
              for s in range(n * n)]
    out = np.ones(codes.shape, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            out &= digits[i * n + j] == digits[j * n + i]
    return out


@functools.lru_cache(maxsize=4)
def _all_tensors(f: Field, n: int) -> tuple[Tensor2, ...]:
    """Every dim-``n`` tensor over ``f``, ascending, decoded once per
    process; the predicates that read them run on every call."""
    return tuple(search.enumerate_tensors(f, n))


def _transvections(f: Field, n: int) -> list[BasisChange]:
    """The changes ``I + E_ij`` (i != j), which generate GL_n(GF(2))."""
    zero, one = f.zero(), f.one()
    return [BasisChange(f, [[one if s == t or (s, t) == (i, j) else zero
                             for t in range(n)] for s in range(n)])
            for i in range(n) for j in range(n) if i != j]


def _claim_lemma02(res: ClaimResult, fields, workers) -> None:
    """Strong-symmetry structure: basis-change invariance, implied symmetry,
    product permutation invariance, and the rank-one normal form.  (II) and
    (IV) read the encodings the ``strongly-symmetric`` selector selects;
    (III) is one ring identity per field; (I) checks GF(2) tensors one at
    a time against the object-route predicate."""
    dims = (1, 2, 3)
    selected = iter(_selected([
        lie_validate(StructureConstants.from_terms(f, dim, {}))
        for f in fields for dim in dims
    ], "strongly-symmetric", workers))
    for f in fields:
        # (IV) the selector's members are exactly the tensors c v (x) v and
        # (II) each one is symmetric, dims 1..3
        for dim in dims:
            members = np.asarray(next(selected), dtype=np.uint64)
            built = _rank1_image(f, dim)
            normal = np.array_equal(members, built)
            if not normal:
                res.notes.append(
                    f"{f.literal()} dim {dim}: the selector selects "
                    f"{len(members)} tensors, the rank-one normal form "
                    f"builds {len(built)}"
                )
                for code in sorted(set(members.tolist())
                                   - set(built.tolist())):
                    res.notes.append(
                        f"{f.literal()} dim {dim}: the rank-one normal form "
                        f"misses {encoding_literal(f, dim, code)}"
                    )
            asymmetric = members[~_symmetric(f.q, dim, members)].tolist()
            for code in asymmetric:
                res.notes.append(
                    f"{f.literal()} dim {dim}: strongly symmetric tensor "
                    f"{encoding_literal(f, dim, code)} is not symmetric"
                )
            holds = normal and not asymmetric
            res.passed = res.passed and holds
            res.notes.append(
                f"{f.literal()} dim {dim}: {len(members)} strongly symmetric"
                f" tensors; symmetry and rank-one round-trip"
                f" {'hold' if holds else 'fail'}"
            )
        # (III) product invariance under all quadruple permutations, as one
        # identity in c, v0, v1, v2: with k = c v (x) v, whose image and zero
        # are the dim-3 members by (IV), k (x) k keyed (i, j, l, m) equals
        # its image under a transposition and a 4-cycle of the keys, which
        # generate every permutation
        ring = PolyRing(f, 4)
        c, *v = (ring.var(i) for i in range(4))
        k = _nonzero_entries(ybe.rank1_tensor(ring, c, v).rows, 2, ring.zero())
        prod = _contract("ijlm", [("ij", k), ("lm", k)])
        holds = all(
            {itemgetter(*perm)(key): kk for key, kk in prod.items()} == prod
            for perm in ((1, 0, 2, 3), (1, 2, 3, 0)))
        if not holds:
            res.passed = False
        res.notes.append(
            f"{f.literal()} dim 3: product permutation invariance "
            f"{'holds' if holds else 'fails'} across all quadruples, as an "
            f"identity in c, v for k = c v(x)v"
        )
    # (I) basis-change invariance of the predicate, GF(2).  Each change is
    # a bijection of the tensor space, so the predicate is invariant iff
    # every change maps the set it accepts onto itself, and it is enough
    # that every generator of GL_3(GF(2)) does.
    f2 = parse_field(_GF2)
    tensors = _all_tensors(f2, 3)
    changes = _transvections(f2, 3)
    strong = {r for r in tensors if ybe.is_strongly_symmetric(r)}
    invariant = all({ch.apply_t2(r) for r in strong} == strong
                    for ch in changes)
    if not invariant:
        res.passed = False
    res.notes.append(
        f"gf(2) dim 3: predicate invariance under the {len(changes)} "
        f"transvections I + E_ij, which generate all 168 invertible basis "
        f"changes, on all {len(tensors)} tensors "
        f"({'holds' if invariant else 'fails'})"
    )


@functools.lru_cache(maxsize=16)
def _lemma211_sides(family: Family) -> dict:
    """Per (reading, x), the system of the codes ``member * q^3 + a`` (``a``
    codes r's entries above the diagonal) where the reading's action of
    ``e_x`` on the CYBE residual equals the co-Jacobi defect at x, replayed
    once on the symbolic member and r on the ``im-one-minus-tau``
    parametrisation of the sweeps.  Cached per family by value, as
    :func:`~baxter.search.compile_selector` is."""
    ring = PolyRing(family.field, 5)
    L = family.symbolic(ring)
    r = search._tensor(ring, 3, "im-one-minus-tau")
    c, defects = ybe.cybe_residual(L, r), bialgebra.cojacobi_defect(L, r)
    return {(mode, x): compile_polys(ring, [
        a - d for a, d in zip(search._values(bialgebra.adjoint_act3(
            L, x, c, mode)), search._values(defects[x]))
    ]) for mode in ("diagonal", "cube") for x in range(3)}


def _lemma211_holds(family: Family, workers) -> dict:
    """Per (reading, x), the system of :func:`_lemma211_sides` and its
    :class:`~baxter.search._Side`: how many codes solve it, and while they
    fit in a sweep's chunk, their ascending codes."""
    sides = _lemma211_sides(family)
    chunk = search.SweepSpec.chunk
    task = search._task(sides, family.field.q ** 5, chunk, 1, sides.values())
    found = search._join(sides, task, search._run(
        task, search.resolve_workers(workers)))
    return {key: (sides[key], found[key]) for key in sides}


def _claim_lemma211(res: ClaimResult, fields, workers) -> None:
    """For r in Im(1 - tau): the adjoint action of x on the CYBE residual
    equals the co-Jacobi defect at x, counted by :func:`_lemma211_holds`.
    The diagonal (derivation) action is asserted, its first failures noted
    from a scan of the codes; the tensor-cube action is run in comparison
    mode, its verdict noted."""
    cap, chunk = search.COUNTEREXAMPLE_CAP, search.SweepSpec.chunk
    for f in fields:
        q, members, failed, first = f.q, [], {"diagonal": 0, "cube": 0}, []
        im = search._map(f, 3, "im-one-minus-tau")
        for family in _dim3_lie_algebras(f):
            for (mode, x), (system, side) in _lemma211_holds(
                    family, workers).items():
                (count,) = side.counts
                failed[mode] += q ** 5 - count
                if mode == "diagonal" and count < q ** 5:
                    fails = search._first(
                        system._replace(polys=()), 0, q ** 5, cap, chunk,
                        lambda codes: search.satisfied(system, codes, chunk))
                    first += [(len(members) + int(code) // q ** 3, r, x)
                              for code, r in zip(fails, search._encodings(
                                  im, fails, chunk).tolist())]
            members += family.members()
        for member, r, x in sorted(first)[:cap]:
            res.notes.append(
                f"diagonal reading fails: {members[member].label} over"
                f" {f.literal()}, r={encoding_literal(f, 3, r)}, x=e{x + 1}"
            )
        checked, (diag_fail, cube_fail) = 6 * q ** 5, failed.values()
        if diag_fail:
            res.passed = False
        cube_verdict = (f"fails in {cube_fail}/{checked} cases" if cube_fail
                        else "also holds everywhere")
        res.notes.append(
            f"{f.literal()}: diagonal reading holds in {checked - diag_fail}"
            f"/{checked} (algebra, r, x) cases; tensor-cube reading "
            f"{cube_verdict} -- the diagonal action is the operative reading"
        )


def _example15_spot_checks(res: ClaimResult, fields, workers) -> None:
    """The two fixed tensors of Example 1.5 in ab(0,0), by encoding:
    e3 (x) e3 is central, so its residual is zero, and e1 (x) e2 + e2 (x) e1
    has exactly six nonzero residual entries."""
    for f in fields:
        L, q = make_family_ab(f, f.zero(), f.zero()), f.q
        r1, r2 = (Tensor2.decode(f, 3, code) for code in (1, q ** 7 + q ** 5))
        if not ybe.cybe_residual(L, r1).is_zero():
            res.passed = False
            res.notes.append("spot check failed: e3(x)e3 should solve CYBE")
        nz = ybe.cybe_residual(L, r2).nonzero_entries()
        if len(nz) != 6:
            res.passed = False
            res.notes.append(
                f"spot check failed: e1(x)e2+e2(x)e1 residual has {len(nz)}"
                " nonzero entries, expected 6"
            )


# ---------------------------------------------------------------------------
# registry


class _Claim(NamedTuple):
    """A claim's default ``fields``, its sweeps as ``rows`` (run first), and
    ``code(res, fields, workers)`` for Lemma0.2's shared member sweeps,
    generator and ring-identity checks, Example1.5's spot checks and
    Lemma2.1.1's kernel count."""

    fields: tuple[str, ...]
    rows: tuple[_Row, ...] = ()
    code: Callable | None = None


_REGISTRY = {
    "Lemma0.2": _Claim((_GF2, _GF4), code=_claim_lemma02),
    # every strongly symmetric tensor solves CYBE in every built-in Lie
    # algebra, and QYBE in the matrix algebra.  The domain's equations prune
    # the dim-4 sweeps to the strongly symmetric tensors; these claims
    # publish no reports, only a failure and its ledger entries
    "Thm0.3-CYBE": _Claim((_GF2, _GF4), (
        _Row("Thm0.3-CYBE", _thm03_lie, "cybe", "strongly-symmetric",
             domain="strongly-symmetric", expect="subset", report=False),
    )),
    "Thm0.3-QYBE": _Claim((_GF2,), (
        _Row("Thm0.3-QYBE", _matrix2, "qybe", "strongly-symmetric",
             domain="strongly-symmetric", expect="subset", report=False),
    )),
    # the strongly symmetric set lies inside the CYBE solution set
    "Cor0.4": _Claim((_GF2, _GF4), (
        _Row("Cor0.4", _dim3_and_dim2, "cybe", "strongly-symmetric",
             expect="subset"),
    )),
    # dim 2: solutions = symmetric tensors; false for the abelian algebra,
    # where every tensor solves
    "Prop1.3": _Claim((_GF2, _GF4), (
        _Row("Prop1.3", _dim2_algebras, "cybe", "symmetric"),
    )),
    # ab family: solutions = alpha,beta-symmetric tensors, false when alpha
    # or beta is 0; the printed 27 relations against the residual
    "Prop1.4": _Claim((_GF2, _GF4), (
        _Row("Prop1.4", _ab_family, "cybe", "alpha-beta-symmetric"),
        _Row("Prop1.4-printed", _ab_family, "cybe", "expanded-relations",
             field=_GF2),
    )),
    # the ab(0,0) case of Prop1.4, plus two fixed tensors
    "Example1.5": _Claim((_GF2,), (
        _Row("Example1.5", _ab00, "cybe", "alpha-beta-symmetric"),
    ), code=_example15_spot_checks),
    # bd family, cases II/III/IV: solutions = case conditions; the printed
    # 21 relations against the residual
    "Prop1.6": _Claim((_GF2, _GF4), (
        _Row(_prop16_label, _bd_covered, "cybe", "prop16-case"),
        _Row("Prop1.6-printed", _bd_family, "cybe", "expanded-relations",
             field=_GF2),
    )),
    "Lemma2.1.1": _Claim((_GF2,), code=_claim_lemma211),
    # ab family: (I) coboundary iff Im(1 - tau); (II) triangular iff Im
    # membership and alpha u^2 + beta s^2 + p^2 = 0
    "Thm2.1": _Claim((_GF2, _GF4), (
        _Row("Thm2.1-I", _ab_family, "coboundary", "im-one-minus-tau"),
        _Row("Thm2.1-II", _ab_family, "triangular",
             "im-and-alpha-beta-symmetric", domain="im-one-minus-tau"),
    )),
    # ab(0,0): coboundary iff Im(1 - tau); triangular iff the s,u family;
    # the stated middle link (triangular iff 0,0-symmetric) is false
    "Example2.2": _Claim((_GF2,), (
        _Row("Example2.2-i", _ab00, "coboundary", "im-one-minus-tau"),
        _Row("Example2.2-ii", _ab00, "triangular", "su-family"),
        _Row("Example2.2-middle", _ab00, "triangular",
             "alpha-beta-symmetric", expect="pinned"),
    )),
    # bd family on its stated grid, within Im(1 - tau): the printed
    # coboundary and triangular conditions
    "Thm2.3-I": _Claim((_GF2, _GF4), (
        _Row("Thm2.3-I", _bd_covered, "coboundary", "bd-printed-coboundary",
             domain="im-one-minus-tau", shown_as="printed-condition"),
    )),
    "Thm2.3-II": _Claim((_GF2, _GF4), (
        _Row("Thm2.3-II", _bd_covered, "triangular", "bd-printed-triangular",
             domain="im-one-minus-tau", shown_as="printed-condition"),
    )),
    # dim 2: triangular iff coboundary iff Im(1 - tau); the two rows give
    # both equalities, so triangular implies coboundary
    "Thm2.4": _Claim((_GF2, _GF4), (
        _Row("Thm2.4", _dim2_algebras, "coboundary", "im-one-minus-tau"),
        _Row("Thm2.4", _dim2_algebras, "triangular", "im-one-minus-tau"),
    )),
}

CLAIM_IDS = tuple(_REGISTRY)


def claim_default_fields(claim: str) -> tuple[str, ...]:
    if claim not in _REGISTRY:
        raise UnknownClaim(claim, CLAIM_IDS)
    return _REGISTRY[claim].fields


def claim_check(
    claim: str,
    fields: list[Field] | None = None,
    workers: int | None = None,
) -> ClaimResult:
    """Run a registered claim suite over the given fields.

    ``fields`` defaults to the claim's registered field list.  With
    ``workers > 1`` the sweeps of the claim's rows are shared with the
    helper processes; the result is the same for any worker count.
    """
    if claim not in _REGISTRY:
        raise UnknownClaim(claim, CLAIM_IDS)
    spec = _REGISTRY[claim]
    fields = [parse_field(f) if isinstance(f, str) else f
              for f in (spec.fields if fields is None else fields)]
    res = ClaimResult(claim, True)
    _run_rows(res, spec.rows, fields, workers)
    if spec.code is not None:
        spec.code(res, fields, workers)
    return res
