"""Exhaustive sweeps of tensor spaces with predicate/classifier comparison.

A sweep walks every ``r`` in ``V (x) V`` over the algebra's base field (all
``q^(n^2)`` big-endian encodings), or every ``r`` of a domain, evaluates a
*predicate* (e.g. "solves CYBE") and optionally a *classifier* (a
closed-form solution description), and reports the counts plus any
disagreements.  Selectors name both roles:

``cybe`` | ``qybe`` | ``strongly-symmetric`` | ``alpha-beta-symmetric`` |
``prop16-case`` | ``coboundary`` | ``triangular`` | ``symmetric`` |
``im-one-minus-tau`` | ``expanded-relations`` | ``su-family`` |
``im-and-alpha-beta-symmetric`` | ``bd-printed-coboundary`` |
``bd-printed-triangular``

A sweep may also name a *domain* selector: the report then counts and
compares within it, and its ``total`` is the domain's size.  Every sweep
runs on a *parametrisation*, a map from ``k`` ring variables to the tensor
on which each selector's equations are replayed, and searches ``q^k``
codes per algebra.  ``im-one-minus-tau`` maps the ``n(n-1)/2`` entries
above the diagonal to ``r_ij = a``, ``r_ji = -a`` in every
characteristic, and ``strongly-symmetric`` in characteristic 2 maps ``v``
to ``v (x) v``: both are one to one onto the domain, whose own equations
then vanish identically and are dropped, so the domain is counted without
a kernel call.  Any other domain, and no domain, runs on the identity
(``k = n^2``) with the domain's equations conjoined to both sides.  A
code's tensor is encoded through the kernel's gather of one target per
coefficient; ``v (x) v`` does not keep the order of the encodings
(Frobenius permutes them from GF(4) on), so its reports sort the codes
they show by encoding.

Each selector's equations are written once, in ``_equations``, against
generic ring scalars.  Two evaluation routes use them and are
cross-checked in the test suite:

* a compiled route (:func:`build_selector_system`) that replays
  ``_equations`` over a polynomial ring and hands the frozen system to the
  vectorized evaluator in :mod:`baxter._kernel`, and
* an object route (:func:`selector_predicate`) evaluating one tensor at a
  time with field elements.  The nine selectors with a test of their own
  (``is_cybe_solution``, ``is_strongly_symmetric``,
  ``im_one_minus_tau_member``, ...) keep it, as the oracle the compiled
  route is held to; the paper's closed forms evaluate ``_equations`` on
  the tensor's field elements.

A sweep covers one algebra or, for a claim's rows, a whole
:class:`~baxter.algebra.Family`: its equations are replayed once on the
family's symbolic member, whose two parameters are the ring's leading
variables, so one solve covers every member and each side's solutions
are counted, or cut, per member; a plain algebra is the one member of no
parameters, and every report comes from the same routine.

A selector's system is built and compiled once per process, not once
per sweep: it is cached by the value of (algebra or family, selector),
and each system's plan by the system's value, so a sweep of an algebra
equal to one swept before with the same selectors (a claim run again, an
algebra file loaded again) replays, compiles and estimates nothing.  The
key holds the parametrisation, and a domain's equations are conjoined to
the sides outside the cache.

Sweeps are deterministic: a compiled system without polys is the whole
space and is counted (or listed, within ``chunk``) in the calling process
without a kernel call.  A sweep larger than its ``chunk`` runs every other
compiled system in the variable order :func:`baxter._kernel.plan` picks
for it, cut into ranges of that order's search codes, one per
``_BLOCK_WORK`` units of the plan's summed work estimate and at most
``_BLOCKS``, whatever the worker count.  Each range is a run of whole
subtrees of the top levels, equal to within one subtree, and the kernel
counts every one of them whole.  The chosen orders, their estimated
costs and the block count go to the ``baxter`` logger at DEBUG.
With ``workers > 1`` (default from the ``YBE_WORKERS`` environment
variable) the calling process and ``workers - 1`` helper processes,
started on first use and kept for later sweeps, share the ranges; a
worker count above the number of ranges is cut to it, so a sweep of one
range runs in the calling process.  A list of sweeps (a claim's rows) is
shared the same way, one whole sweep per item: each is planned where it is
taken and solved there if it is one range; the ranges of a larger one are
then shared as above.

A side builds an array of its solutions only while they fit in ``chunk``:
the classifier, and the predicate when it is compared or listed without a
limit, are listed when the sweep has at most ``chunk`` codes or the plan
estimates at most ``chunk`` solutions.  Its ranges then return their
survivors as encodings while those of one process stay within ``chunk``
(the kernel stops listing one past it), and the joined ranges are sorted
once (unless the order is natural, where they already ascend).  Every
other side, and a listed one whose solutions pass ``chunk``, is counted
per member by the kernel and holds no array.  Two listed sides are
compared as sorted arrays: the smaller is looked up in the larger.
Otherwise the codes they share are the solutions of one system of both
sides' polys: a side's own, when its polys include the other's, or else
counted.  A side-only count above zero that no array holds gets its first
``COUNTEREXAMPLE_CAP`` codes, and a listing its first ``limit``, from a
scan in ascending encoding order over the member's codes that stops once
it has them (on a map that does not keep the order, a scan of all of
them in batches of ``chunk`` that keeps the smallest).  So the report is
identical for any worker count, chunk size or variable order, and a
dense sweep holds ``O(workers * chunk)`` codes whatever the plan's
estimates.  A listing without a limit fails with
:class:`~baxter.errors.ListingTooLarge` past ``MAX_LISTING`` solutions,
whatever the chunk.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler
from typing import NamedTuple

import numpy as np

from . import bialgebra, ybe
from ._kernel import (
    CompiledSystem,
    check_order,
    compile_polys,
    estimated_solutions,
    plan,
    satisfied,
    solutions_in_range,
    poly_values,
)
from ._poly import PolyRing
from .algebra import AssocAlgebra, Family, LieAlgebra, StructureConstants
from .errors import HelperExited, InputError, ListingTooLarge, SweepTooLarge
from .gf import FieldElement
from .tensor import (
    Tensor2,
    encoding_literal,
    im_one_minus_tau_member,
    named_view,
)

__all__ = [
    "MAX_SWEEP",
    "MAX_LISTING",
    "COUNTEREXAMPLE_CAP",
    "LEDGER_CAP",
    "SELECTOR_NAMES",
    "tensor_count",
    "enumerate_tensors",
    "strong_symmetric_enumerate",
    "build_selector_system",
    "compile_selector",
    "selector_predicate",
    "resolve_workers",
    "SweepSpec",
    "sweep",
    "SolutionReport",
    "LedgerEntry",
    "DiscrepancyLedger",
]

_LOG = logging.getLogger("baxter")

MAX_SWEEP = 1 << 40
# A listing without a limit holds at most this many solutions; past it,
# the report fails before the listing is allocated.
MAX_LISTING = 1 << 20
COUNTEREXAMPLE_CAP = 16
LEDGER_CAP = 16


# ---------------------------------------------------------------------------
# plain enumeration


def tensor_count(field, dim: int) -> int:
    return field.q ** (dim * dim)


def enumerate_tensors(field, dim: int):
    """Yield every tensor in ascending encoding order."""
    total = tensor_count(field, dim)
    if total > MAX_SWEEP:
        raise SweepTooLarge(total, MAX_SWEEP)
    for code in range(total):
        yield Tensor2.decode(field, dim, code)


def strong_symmetric_enumerate(field, dim: int) -> list[Tensor2]:
    """All strongly symmetric tensors, ascending by encoding.

    Built from the rank-one normal form (zero plus ``c * v (x) v`` over all
    scales and vectors, deduplicated) rather than by filtering the full
    space, so it stays cheap even when ``q^(n^2)`` is not.
    """
    seen = {0}
    out = [Tensor2.zero(field, dim)]
    zero = field.zero()
    for c in field.elements():
        if c == zero:
            continue
        for vcode in range(field.q ** dim):
            digits = []
            tmp = vcode
            for _ in range(dim):
                digits.append(tmp % field.q)
                tmp //= field.q
            digits.reverse()
            v = [field.element(d) for d in digits]
            t = ybe.rank1_tensor(field, c, v)
            code = t.encode()
            if code not in seen:
                seen.add(code)
                out.append(t)
    out.sort(key=lambda t: t.encode())
    return out


# ---------------------------------------------------------------------------
# selector registry

SELECTOR_NAMES = (
    "cybe",
    "qybe",
    "strongly-symmetric",
    "alpha-beta-symmetric",
    "prop16-case",
    "coboundary",
    "triangular",
    "symmetric",
    "im-one-minus-tau",
    "expanded-relations",
    "su-family",
    "im-and-alpha-beta-symmetric",
    "bd-printed-coboundary",
    "bd-printed-triangular",
)

_LIE_SELECTORS = {"cybe", "coboundary", "triangular"}
_ASSOC_SELECTORS = {"qybe"}


def _check_selector(algebra, name: str) -> None:
    if name not in SELECTOR_NAMES:
        raise InputError(
            f"unknown selector {name!r}; valid: {', '.join(SELECTOR_NAMES)}"
        )
    if name in _LIE_SELECTORS and not isinstance(algebra, LieAlgebra):
        raise InputError(f"selector {name!r} needs a Lie algebra")
    if name in _ASSOC_SELECTORS and not isinstance(algebra, AssocAlgebra):
        raise InputError(f"selector {name!r} needs an associative algebra")


def _family_params(algebra, name: str, *attrs, symbolic: bool = False):
    """The algebra's parameters ``attrs`` as field elements.  Ring elements,
    the parameters of a symbolic family member, pass only with ``symbolic``,
    for equations that do not branch on the values."""
    params = getattr(algebra, "params", None)
    values = []
    for attr in attrs:
        v = getattr(params, attr, None) if params is not None else None
        if v is None:
            raise InputError(
                f"selector {name!r} needs an algebra with a "
                f"{'/'.join(attrs)} parameterization"
            )
        if not (symbolic or isinstance(v, FieldElement)):
            raise InputError(
                f"selector {name!r} needs a field value for {attr}, "
                f"got {v!r}"
            )
        values.append(v)
    return tuple(values)


def _im_polys(kt: Tensor2):
    """Membership of Im(1 - tau) as linear relations: a zero diagonal and
    ``k_ij + k_ji = 0``, which is symmetry in characteristic 2."""
    k, n = kt.rows, kt.dim
    return [k[i][i] for i in range(n)] + [
        k[i][j] + k[j][i] for i in range(n) for j in range(i + 1, n)
    ]


def _values(t) -> list:
    """Every coefficient of a ``Tensor2`` or ``Tensor3``, in index order."""
    return [v for *_, v in t.entries()]


def _equations(algebra, name: str, kt: Tensor2, const) -> list:
    """The selector's equations in the scalars of ``kt``: a tensor is a
    member iff every one vanishes on its coefficients.

    ``kt`` holds ring variables on the compiled route and field elements on
    the object route; ``const`` lifts a field element to those scalars.
    """
    k, n, field = kt.rows, kt.dim, algebra.field

    def params(*attrs):  # lifted; a symbolic member's parameters pass
        return [const(v) for v in
                _family_params(algebra, name, *attrs, symbolic=True)]

    if name in _LIE_SELECTORS | _ASSOC_SELECTORS:  # read the constants
        sc = StructureConstants(kt.field, algebra.dim, [
            [[const(v) for v in row] for row in plane] for plane in algebra.c
        ])
    if name == "cybe":
        return _values(ybe.cybe_residual(sc, kt))
    if name == "qybe":
        lhs, rhs = ybe.qybe_sides(sc, kt)
        return [lv - rv for lv, rv in zip(_values(lhs), _values(rhs))]
    if name == "coboundary":
        return _im_polys(kt) + [
            v for defect in bialgebra.cojacobi_defect(sc, kt)
            for v in _values(defect)
        ]
    if name == "triangular":
        return _im_polys(kt) + _values(ybe.cybe_residual(sc, kt))
    if name == "strongly-symmetric":
        return ybe.strong_symmetry_equations(k, n)
    if name == "symmetric":
        return [k[i][j] - k[j][i] for i in range(n) for j in range(i + 1, n)]
    if name == "im-one-minus-tau":
        return _im_polys(kt)
    if name == "alpha-beta-symmetric":
        return ybe.ab_symmetric_equations(
            named_view(kt), *params("alpha", "beta")
        )
    if name == "prop16-case":  # the case branches on the parameter values
        beta, delta = _family_params(algebra, name, "beta", "delta")
        case = ybe.bd_case_of(beta, delta)
        return ybe.bd_case_equations(
            case, named_view(kt), const(beta), const(delta), const(field.one())
        )
    # the paper's closed forms read the named dim-3 coefficients first, so
    # a tensor of another dimension fails before a missing parameter does
    nc = named_view(kt)
    if name == "su-family":
        return bialgebra.su_family_equations(nc)
    if name == "expanded-relations":
        if getattr(algebra.params, "alpha", None) is not None:
            return list(ybe.ab_printed_system(nc, *params("alpha", "beta")))
        return list(ybe.bd_printed_system(nc, *params("beta", "delta")))
    if name == "im-and-alpha-beta-symmetric":
        return _im_polys(kt) + [
            bialgebra.ab_triangular_condition(nc, *params("alpha", "beta"))
        ]
    condition = {
        "bd-printed-coboundary": bialgebra.bd_coboundary_condition,
        "bd-printed-triangular": bialgebra.bd_triangular_condition,
    }[name]
    return [condition(nc, *params("beta", "delta"), const(field.one()))]


# ---------------------------------------------------------------------------
# parametrised domains


def _parametrisation(field, domain: str | None) -> str | None:
    """The parametrisation a sweep within ``domain`` runs on: the domain's
    own, for ``im-one-minus-tau`` in every characteristic and for
    ``strongly-symmetric`` in characteristic 2, where ``v -> v (x) v`` is
    one to one onto it; else None, the identity."""
    if domain == "im-one-minus-tau" or (
            domain == "strongly-symmetric" and field.p == 2):
        return domain
    return None


def _arity(n: int, param: str | None) -> int:
    """How many parameters a dim-``n`` tensor has under ``param``."""
    return {None: n * n, "im-one-minus-tau": n * (n - 1) // 2,
            "strongly-symmetric": n}[param]


def _tensor(ring: PolyRing, n: int, param: str | None) -> Tensor2:
    """The dim-``n`` tensor of the ring's last ``_arity(n, param)``
    variables under ``param``: the variables themselves, row-major (the
    identity); ``r_ij = a`` and ``r_ji = -a`` for the variables ``a`` of the
    entries above the diagonal, row-major, with a zero diagonal
    (``im-one-minus-tau``); or ``v (x) v`` (``strongly-symmetric``).  The
    variables before them are a symbolic family member's parameters
    (:meth:`~baxter.algebra.Family.symbolic`)."""
    lead = ring.nvars - _arity(n, param)
    if lead < 0:
        raise InputError(f"ring has {ring.nvars} variables, expected at "
                         f"least {_arity(n, param)}")
    x = [ring.var(v) for v in range(lead, ring.nvars)]
    if param is None:
        rows = [x[i * n:(i + 1) * n] for i in range(n)]
    elif param == "strongly-symmetric":
        rows = [[vi * vj for vj in x] for vi in x]
    else:
        rows = [[ring.zero()] * n for _ in range(n)]
        above = iter(x)
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = next(above)
                rows[j][i] = -rows[i][j]
    return Tensor2(ring, n, rows)


class _Map(NamedTuple):
    """The tensors a sweep runs on, as the image of the last ``k`` digits
    of its codes (a family member's parameters lead) under the
    parametrisation ``param``: ``coords`` holds one poly per tensor
    coefficient over those digits, row-major (None for the identity,
    ``k = n^2``).  ``ascending``: ascending codes give ascending
    encodings."""

    param: str | None
    q: int
    k: int
    coords: CompiledSystem | None
    ascending: bool


@functools.lru_cache(maxsize=64)
def _map(field, n: int, param: str | None) -> _Map:
    """The :class:`_Map` of ``param`` on dim-``n`` tensors over ``field``.
    ``im-one-minus-tau`` is ascending: each parameter is the first
    coefficient that reads it, and every coefficient before it reads
    earlier ones.  ``v (x) v`` is not, once Frobenius permutes the
    encodings."""
    k = _arity(n, param)
    if param is None:
        return _Map(param, field.q, k, None, True)
    ring = PolyRing(field, k)
    coords = compile_polys(ring, _values(_tensor(ring, n, param)), every=True)
    return _Map(param, field.q, k, coords, param == "im-one-minus-tau")


def _encodings(shape: _Map, codes, chunk: int) -> np.ndarray:
    """The encodings of the tensors of ``codes`` under ``shape``, from the
    kernel's gather of one target per coefficient, at most ``chunk``
    entries at a time: ``uint64``, or Python ints past ``2**64``."""
    q = shape.q
    codes = np.asarray(codes, dtype=np.uint64) % np.uint64(q ** shape.k)
    if shape.coords is None or not codes.size:
        return codes
    wide = np.uint64 if q ** len(shape.coords.polys) <= 1 << 64 else object
    out = [np.empty(0, dtype=wide)]
    for block in poly_values(shape.coords, codes, chunk):
        enc = np.zeros(block.shape[1], dtype=wide)
        for digit in block:
            enc *= q
            enc += digit.astype(wide)
        out.append(enc)
    return np.concatenate(out)


def _smallest(shape: _Map, chunk: int, codes: np.ndarray,
              want: int) -> np.ndarray:
    """The ``want`` of ``codes`` whose tensors under ``shape`` have the
    smallest encodings, ascending by encoding."""
    return codes[np.argsort(_encodings(shape, codes, chunk))[:want]]


def build_selector_system(algebra, name: str, ring: PolyRing,
                          param: str | None = None):
    """Symbolic polynomials whose common zeros are the selector's members:
    its equations on the tensor of the ring's last variables under the
    parametrisation ``param`` (:func:`_tensor`; the identity reads ``n^2``
    of them)."""
    _check_selector(algebra, name)
    return _equations(algebra, name, _tensor(ring, algebra.dim, param),
                      ring.const)


@functools.lru_cache(maxsize=256)
def compile_selector(algebra, name: str,
                     param: str | None = None) -> CompiledSystem:
    """The compiled system of the selector ``name`` on ``algebra``: its
    equations replayed on the algebra, or on a
    :class:`~baxter.algebra.Family`'s symbolic member (built and
    Jacobi-checked here) over a ring whose two leading variables are the
    parameters, and on the tensor of the parametrisation ``param``.  Polys
    that vanish identically there, such as a domain's own equations on its
    parametrisation, are dropped.

    Cached per process by value, since algebras, families and structure
    constants compare and hash by value: a sweep of an algebra equal to one
    already swept with this selector and parametrisation, such as each
    claim run's freshly built grids, replays nothing.
    """
    n, lead = algebra.dim, _lead(algebra)
    ring = PolyRing(algebra.field, lead + _arity(n, param))
    symbolic = algebra.symbolic(ring) if lead else algebra
    return compile_polys(ring, build_selector_system(symbolic, name, ring,
                                                     param))


def selector_predicate(algebra, name: str):
    """Object-route membership test for one tensor at a time.

    Nine selectors have a test of their own, written apart from their
    equations, and the route-agreement tests hold the compiled route to
    it.  The paper's closed forms evaluate their equations on the tensor's
    field elements.
    """
    _check_selector(algebra, name)
    if name == "cybe":
        return lambda r: ybe.is_cybe_solution(algebra, r)
    if name == "qybe":
        return lambda r: ybe.is_qybe_solution(algebra, r)
    if name == "strongly-symmetric":
        return ybe.is_strongly_symmetric
    if name == "alpha-beta-symmetric":
        alpha, beta = _family_params(algebra, name, "alpha", "beta")
        return lambda r: ybe.is_alpha_beta_symmetric(r, alpha, beta)
    if name == "prop16-case":
        beta, delta = _family_params(algebra, name, "beta", "delta")
        return lambda r: ybe.is_bd_case_solution(r, beta, delta)
    if name == "coboundary":
        return lambda r: bialgebra.is_coboundary(algebra, r)
    if name == "triangular":
        return lambda r: bialgebra.is_triangular(algebra, r)
    if name == "symmetric":
        return lambda r: r.is_symmetric()
    if name == "im-one-minus-tau":
        return im_one_minus_tau_member
    return lambda r: all(
        v.is_zero() for v in _equations(algebra, name, r, lambda c: c)
    )


# ---------------------------------------------------------------------------
# sweeps


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else ``YBE_WORKERS``, else 1."""
    if explicit is not None:
        if explicit < 1:
            raise InputError("workers must be >= 1")
        return explicit
    env = os.environ.get("YBE_WORKERS")
    if env is None or not env.strip():
        return 1
    try:
        w = int(env)
    except ValueError:
        raise InputError(f"YBE_WORKERS must be an integer, got {env!r}")
    if w < 1:
        raise InputError("YBE_WORKERS must be >= 1")
    return w


@dataclass
class SweepSpec:
    """What to sweep: an algebra, a predicate, and an optional classifier.

    ``domain`` names a selector the report counts and compares within; its
    ``total`` is the domain's size.  ``im-one-minus-tau``, and
    ``strongly-symmetric`` in characteristic 2, are swept through their
    parametrisation, ``q^k`` codes of ``k`` parameters per algebra; any
    other domain's equations are conjoined to both sides.  ``chunk``
    bounds the entries the kernel holds in one step and the solutions a
    side holds as an array (memory); it never changes the report.
    ``limit`` caps the solutions ``keep_solutions`` keeps to the smallest
    ``limit`` encodings; without it, a listing past :data:`MAX_LISTING`
    solutions fails.
    """

    algebra: object
    predicate: str
    classifier: str | None = None
    domain: str | None = None
    claim: str | None = None
    chunk: int = 1 << 20
    workers: int | None = None
    keep_solutions: bool = False
    limit: int | None = None


# A sweep larger than ``chunk`` is cut into one range of search codes per
# ``_BLOCK_WORK`` units of :func:`plan`'s estimate for its systems, at most
# ``_BLOCKS``, whatever the worker count; the ranges' results are joined in
# order.  A range is a run of at least ``_SUBTREES`` whole subtrees of one
# depth, so the kernel counts it whole and ranges differ by at most an
# eighth.  Measured on a 2-vCPU Xeon VM, medians of 11: a kernel
# call costs 0.2-0.4 ms however small its range (the GF(5) dim-3
# strongly-symmetric system, 1.7e4 units, takes 0.4 ms in one call and
# 8 ms in 32), and 1e6 units take 3-4.5 ms (one whole-space call: GF(8)
# ab(1,1) CYBE 1.6e6 units in 6.5 ms, GF(16) 4.9e7 in 150 ms, GF(8) bd(0,1)
# CYBE 2.4e7 in 105 ms), so a block's fixed cost stays below about a tenth
# of its work.
_BLOCKS = 32
_BLOCK_WORK = 1e6
_SUBTREES = 8
# A scan for a side's first solutions (:func:`_first`) holds at most this
# many frontier entries per kernel step, or its batch if that is larger:
# at ``chunk`` (2**20 by default) a step grows the frontier across the
# whole range before it reaches the first solutions, and far fewer entries
# make each step's fixed cost dominate.  Measured on a 2-vCPU Xeon VM: the
# scans of GF(16) bd(1,1) CYBE against symmetric take 1.7 s at 2**20
# entries, 0.12 s at 2**12 and 0.25 s at the batch alone; the GF(4) bd
# family's CYBE against symmetric sweep at chunk 2**12 takes 0.13 s, and
# 0.30 s at the batch alone.
_SCAN_STEP = 1 << 12
# A helper replies item by item until its replies to a task reach this many
# bytes, and sends the rest when the task ends.  It stays below the 208 KiB
# a Linux socket pair buffers by default, so no reply waits on the caller,
# which reads replies only once it has no item left.
_REPLY_BYTES = 1 << 17


class _Solve(NamedTuple):
    """One system of a block task, in the order it is solved in: its
    solutions are counted per member, of ``members``, and listed as
    encodings while the blocks one process solves hold at most ``keep`` of
    them together (0: counted only); a block that would pass that counts,
    and so does every later block of the process.  A system without polys
    is its whole range, with no kernel call."""

    system: CompiledSystem
    members: int
    keep: int


class _Counted(NamedTuple):
    """A block's solutions of one system, counted per member."""

    counts: np.ndarray


# The task whose blocks this thread last solved, and how many more
# encodings of each of its systems the thread may still list.
_LISTING = threading.local()


def _listing_left(task) -> list:
    """The encodings of each system of ``task`` this thread may still list,
    as a list that :func:`_solve_block` draws down; a new task starts from
    each system's ``keep``."""
    if getattr(_LISTING, "task", None) is not task:
        _LISTING.task = task
        _LISTING.left = [solve.keep for solve in task[0]]
    return _LISTING.left


def _solve_block(task, index: int):
    solves, bounds, chunk = task
    start, stop = bounds[index], bounds[index + 1]
    left = _listing_left(task)
    out = []
    for i, solve in enumerate(solves):
        system = solve.system
        if not system.polys:
            out.append(None)
            continue
        if left[i]:
            codes = solutions_in_range(system, start, stop, chunk,
                                       limit=left[i] + 1)
            if codes.size <= left[i]:
                left[i] -= codes.size
                out.append(codes)
                continue
            left[i] = 0
        out.append(_Counted(solutions_in_range(
            system, start, stop, chunk, buckets=solve.members)))
    return out


def _per_member(codes: np.ndarray, total: int, members: int) -> np.ndarray:
    """How many of the encodings ``codes`` fall in each member's range."""
    width = np.uint64(total // members)
    return np.bincount((codes // width).astype(np.intp), minlength=members)


# A helper task is either a tuple ``(systems, bounds, chunk)`` whose items
# are the blocks of one sweep, or a list of one-worker ``SweepSpec``s whose
# items are whole sweeps (:func:`_sweep_item`).
def _item_count(task) -> int:
    return len(task) if isinstance(task, list) else len(task[1]) - 1


def _item_size(task, index: int) -> int:
    """The codes an item covers: a whole sweep's, or a block's range."""
    if isinstance(task, list):
        return _codes(task[index])
    return task[1][index + 1] - task[1][index]


def _solve_item(task, index: int):
    if isinstance(task, list):
        return _sweep_item(task[index])
    return _solve_block(task, index)


def _take(counter, tag: int, count: int) -> int | None:
    """The next of the ``count`` items of task number ``tag``; None once
    that task has none left or a later task has reset the counter."""
    with counter.get_lock():
        value = counter.value
        index = value & 0xFFFFFFFF
        if value >> 32 != tag or index >= count:
            return None
        counter.value = value + 1
    return index


def _running_cpu(pid: int) -> int:
    """The CPU ``pid`` last ran on (Linux ``/proc/<pid>/stat`` field 39)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _leave_cpu_of(parent: int) -> None:
    """Move this helper off the caller's CPU if the wake-up put it there.

    Linux places a task woken through a pipe on the waker's CPU, and the
    load balancer can take about a second to split the pair again, so a
    sub-second sweep would run both participants on one CPU.  Narrowing
    the affinity for a moment migrates the helper; restoring it at once
    leaves the scheduler free afterwards.
    """
    try:
        allowed = os.sched_getaffinity(0)
        cpu = _running_cpu(parent)
        if len(allowed) < 2 or _running_cpu(os.getpid()) != cpu:
            return
        os.sched_setaffinity(0, allowed - {cpu})
        os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError, ValueError, IndexError):
        pass  # no affinity control or no /proc here: leave placement alone


def _helper_main(conn, counter, parent: int) -> None:
    """Helper process loop: per task, a reply for each item it takes (held
    back once they pass ``_REPLY_BYTES`` and sent when the task ends), or a
    failure reply, until the caller goes away.

    Ctrl-C reaches the whole process group; the caller handles it and stops
    its helpers, so a helper ignores it instead of printing a traceback.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            tag, task = conn.recv()
        except EOFError:
            return
        _leave_cpu_of(parent)
        count = _item_count(task)
        held, sent, index = [], 0, None
        try:
            while (index := _take(counter, tag, count)) is not None:
                reply = ForkingPickler.dumps(
                    (tag, index, _solve_item(task, index), None)
                )
                sent += len(reply)
                if sent > _REPLY_BYTES:
                    held.append(reply)
                else:
                    conn.send_bytes(reply)
            for reply in held:
                conn.send_bytes(reply)
        except Exception:
            conn.send((tag, index, None, traceback.format_exc()))


class _Helpers:
    """Worker processes kept alive across sweeps.

    A task is the blocks of one sweep, or a list of whole sweeps, each
    solved in its item if it is one block and else returned planned.  The
    caller hands it to ``workers - 1`` helpers; they and the caller then
    take item indices off one shared counter until none is left, so the
    caller never idles while items remain, and the results come back in
    index order.  Helpers reply item by item.  Once the caller has no item
    left, it computes the first item that is still missing itself whenever
    no reply comes within twice the time its own items took on average, or
    twice their time per code times that item's codes if that is longer.
    So a helper that the machine stalls holds up the task by about two
    items, not by its whole stall, and a helper on an item larger than the
    caller's is not taken for a stalled one.  The counter and every reply
    carry the task's number, so a late helper or a late reply never mixes
    into a later task.  An item that fails in a helper is run again in the caller,
    so its error is raised with the type it has at one worker; a helper
    that dies raises :class:`~baxter.errors.HelperExited`.  Either failure
    stops the helpers, and the next task starts fresh ones.  Where the
    platform can fork, helpers are forked, as the process pool they replace
    was on Linux, so scripts without a ``__main__`` guard keep working;
    baxter starts no threads that a fork could catch holding a lock.
    """

    def __init__(self):
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._counter = self._ctx.Value("q", 0)
        self._tag = 0
        self._procs = []
        self._conns = []

    def grow(self, count: int) -> None:
        while len(self._procs) < count:
            here, there = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_helper_main,
                args=(there, self._counter, os.getpid()),
                daemon=True,
            )
            proc.start()
            there.close()
            self._procs.append(proc)
            self._conns.append(here)

    def run(self, task, count: int) -> list:
        nitems = _item_count(task)
        conns = self._conns[:count]
        self._tag += 1
        tag = self._tag
        results = [None] * nitems

        def recv(conn):
            try:
                return conn.recv()
            except EOFError:  # the helper's end of the pipe closed
                proc = self._procs[self._conns.index(conn)]
                proc.join(1.0)
                raise HelperExited(proc.exitcode) from None

        def collect(timeout) -> bool:
            """Store the replies that come within ``timeout``."""
            ready = multiprocessing.connection.wait(conns, timeout)
            for conn in ready:
                reply_tag, index, result, failure = recv(conn)
                if reply_tag != tag:
                    continue
                if failure is not None:
                    if index is not None:  # raise the item's own error
                        _solve_item(task, index)
                    raise RuntimeError(f"sweep helper failed:\n{failure}")
                if results[index] is None:
                    results[index] = result
            return bool(ready)

        try:
            for conn in conns:
                while conn.poll():  # late replies to an earlier task
                    recv(conn)
            with self._counter.get_lock():
                self._counter.value = tag << 32
            for conn in conns:
                conn.send((tag, task))
            start, mine, codes = time.perf_counter(), 0, 0
            while (index := _take(self._counter, tag, nitems)) is not None:
                results[index] = _solve_item(task, index)
                mine += 1
                codes += _item_size(task, index)
            elapsed = time.perf_counter() - start
            while None in results:
                index = results.index(None)
                patience = 2 * elapsed * max(
                    1 / mine, _item_size(task, index) / codes
                ) if mine else 0.01
                if not collect(patience):
                    results[index] = _solve_item(task, index)
        except BaseException:
            # stop helpers that may still be busy with this task
            self.close()
            raise
        return results

    def close(self) -> None:
        """Stop every helper; the next ``grow`` starts fresh ones."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.terminate()
            proc.join()
        self._procs, self._conns = [], []


_HELPERS: _Helpers | None = None
_HELPERS_LOCK = threading.Lock()  # one sweep at a time on the helpers


def _helpers(count: int) -> _Helpers:
    """The process-wide helpers, started on first use, at least ``count``."""
    global _HELPERS
    if _HELPERS is None:
        _HELPERS = _Helpers()
    _HELPERS.grow(count)
    return _HELPERS


def _task(sides: dict, total: int, chunk: int, members: int,
          listed=()) -> tuple:
    """The solve of ``sides`` over all ``total`` encodings as a block task
    ``(solves, bounds, chunk)``: block ``i`` runs one :class:`_Solve` per
    distinct system of ``sides`` over the codes from ``bounds[i]`` to
    ``bounds[i + 1]``, with its solutions counted per member of
    ``members``.

    A sweep within ``chunk`` is one block of its systems as they are, and
    lists those in ``listed``.  A larger one runs each system with polys
    in the variable order :func:`baxter._kernel.plan` picks for it, lists
    a system in ``listed`` when that order's estimated solutions fit in
    ``chunk``, and is cut into ``min(_BLOCKS, ceil(W / _BLOCK_WORK))``
    ranges of search codes, where ``W`` sums each system's estimate for
    its order.  A range is a run of whole subtrees of the shallowest depth
    with ``_SUBTREES`` per range, so its bounds never make the kernel grow
    a count past it.  Each process lists at most ``chunk`` encodings of a
    listed system, whatever the estimate; every other system is counted
    only.
    """
    solves, work, orders = [], 0.0, []
    for system in dict.fromkeys(sides.values()):
        keep = system in listed
        if total > chunk:
            if system.polys:
                name = "/".join(str(s) for s, v in sides.items()
                                if v == system)
                system, natural, greedy = plan(system)
                work += greedy if system.var_order else natural
                orders.append((name, system.var_order or "natural",
                               natural, greedy))
            keep = keep and estimated_solutions(system) <= chunk
        solves.append(_Solve(system, members, chunk if keep else 0))
    if not orders:
        return tuple(solves), (0, total), chunk
    blocks = min(_BLOCKS, max(1, math.ceil(work / _BLOCK_WORK)))
    _LOG.debug("variable order: "
               + "; ".join(["%s %s, estimated cost natural %.3g greedy %.3g"]
                           * len(orders))
               + "; estimated work %.3g in %d blocks",
               *sum(orders, ()), work, blocks)
    unit = total  # the codes of one subtree at the cut depth
    while unit > 1 and total // unit < _SUBTREES * blocks:
        unit //= system.order  # every side is over one field
    return tuple(solves), tuple(total // unit * k // blocks * unit
                                for k in range(blocks + 1)), chunk


def _run(task: tuple, workers: int) -> list:
    """Every block of ``task``, shared with ``workers - 1`` helpers; a
    participant without a block would idle, so there are at most as many
    participants as blocks."""
    blocks = _item_count(task)
    workers = min(workers, blocks)
    _LISTING.task = None  # a task run again lists afresh
    if workers == 1:
        return [_solve_block(task, index) for index in range(blocks)]
    with _HELPERS_LOCK:
        return _helpers(workers - 1).run(task, workers - 1)


class _Side(NamedTuple):
    """A side's solutions: how many each member has, and their ascending
    encodings while they fit (else None)."""

    counts: list
    codes: np.ndarray | None


def _join(sides: dict, task: tuple, parts: list) -> dict:
    """Each side's :class:`_Side` from the blocks' ``parts``.

    A listed system whose blocks all kept their encodings, at most its
    ``keep`` together, is joined in block order and sorted unless its
    order is natural (a single range is used as it is); any other is the
    sum of its blocks' counts.  A system without polys counts its range,
    and is listed as it while that fits.
    """
    solves, bounds, _ = task
    total = bounds[-1]
    found = {}
    for i, (system, solve) in enumerate(zip(dict.fromkeys(sides.values()),
                                            solves)):
        members, keep = solve.members, solve.keep
        if not system.polys:
            codes = (np.arange(total, dtype=np.uint64) if total <= keep
                     else None)
            found[system] = _Side([total // members] * members, codes)
            continue
        pieces = [part[i] for part in parts]
        counts = sum(piece.counts if isinstance(piece, _Counted)
                     else _per_member(piece, total, members)
                     for piece in pieces)
        codes = None
        if sum(counts) <= keep and not any(isinstance(piece, _Counted)
                                           for piece in pieces):
            codes = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            if solve.system.var_order is not None:
                codes.sort()
        found[system] = _Side(counts.tolist(), codes)
    return {side: found[system] for side, system in sides.items()}


def _sorted_diff(a: np.ndarray, b: np.ndarray,
                 cap: int | None = COUNTEREXAMPLE_CAP):
    """For sorted arrays of distinct values: the size of ``a - b`` and its
    first ``cap`` entries (all of them for None), then the same for
    ``b - a``.

    The smaller array is looked up in the larger one, so the work is the
    smaller array's size times a binary search, plus the cap.
    """
    swap = a.size > b.size
    small, large = (b, a) if swap else (a, b)
    pos = np.searchsorted(large, small)
    hit = pos < large.size
    hit[hit] = large[pos[hit]] == small[hit]
    common = int(np.count_nonzero(hit))
    small_only = small[~hit][:cap]
    # at most ``common`` hits come before the cap-th entry that is no hit
    head = large.size if cap is None else min(large.size, cap + common)
    found = pos[hit]
    free = np.ones(head, dtype=bool)
    free[found[:found.searchsorted(head)]] = False
    large_only = large[:head][free][:cap]
    sides = [(small.size - common, small_only),
             (large.size - common, large_only)]
    return sides[::-1] if swap else sides


@dataclass
class SolutionReport:
    """Outcome of one sweep; serializes deterministically.

    ``canonical_json`` drops ``duration_ms`` so byte-identical output is
    reproducible across runs and worker counts.
    """

    claim: str | None
    predicate: str
    classifier: str | None
    field: str
    algebra: str
    params: dict
    total: int
    predicate_count: int
    classifier_count: int | None
    pred_only_count: int
    class_only_count: int
    agreement: bool | None
    counterexamples: list
    duration_ms: float
    solutions: list | None = None

    def to_dict(self, include_duration: bool = True) -> dict:
        d = {
            "claim": self.claim,
            "predicate": self.predicate,
            "classifier": self.classifier,
            "field": self.field,
            "algebra": self.algebra,
            "params": dict(self.params),
            "total": self.total,
            "predicate_count": self.predicate_count,
            "classifier_count": self.classifier_count,
            "diff_pred_only": self.pred_only_count,
            "diff_class_only": self.class_only_count,
            "agreement": self.agreement,
            "counterexamples": list(self.counterexamples),
        }
        if self.solutions is not None:
            d["solutions"] = list(self.solutions)
        if include_duration:
            d["duration_ms"] = self.duration_ms
        return d

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(include_duration=False),
            sort_keys=True,
            separators=(",", ":"),
        )


def _lead(algebra) -> int:
    """How many leading ring variables ``algebra``'s parameters take: two
    for a :class:`~baxter.algebra.Family`, none for a plain algebra."""
    return 2 if isinstance(algebra, Family) else 0


def _shape(spec: SweepSpec) -> _Map:
    """The parametrisation a sweep of ``spec`` runs on, as a :class:`_Map`."""
    f = spec.algebra.field
    return _map(f, spec.algebra.dim, _parametrisation(f, spec.domain))


def _codes(spec: SweepSpec) -> int:
    """The codes a sweep of ``spec`` searches: every member's parameters."""
    return spec.algebra.field.q ** (_lead(spec.algebra) + _shape(spec).k)


class _Planned(NamedTuple):
    """A sweep whose systems are built, as ``{side: system}`` over the
    parametrisation ``shape``, and cut into the blocks of ``task``."""

    spec: SweepSpec
    shape: _Map
    sides: dict
    task: tuple


def _conjoined(system: CompiledSystem, other: CompiledSystem):
    """``system`` with the polys of ``other`` (over the same ring) that it
    lacks appended, as :func:`compile_polys` of both lists would give."""
    return system._replace(
        polys=tuple(dict.fromkeys(system.polys + other.polys)))


def _plan_sweep(spec: SweepSpec) -> _Planned:
    """Build the sides of a sweep of ``spec`` and cut its solve into blocks.

    Each selector's system comes from :func:`compile_selector` on the
    parametrisation of the domain (:func:`_parametrisation`), and the
    domain's polys there are conjoined to the predicate's and the
    classifier's: none, where the domain is parametrised.  A code is the
    member's index times ``q^k`` plus the code of the tensor's ``k``
    parameters; a plain algebra is the one member of no parameters.  The
    classifier, and the predicate when there is a classifier or an
    unlimited listing, are listed while they fit; every other side is
    counted.
    """
    algebra = spec.algebra
    check_order(algebra.field)
    shape = _shape(spec)
    space = algebra.field.q ** shape.k
    if space > MAX_SWEEP:  # per member, whatever the family's size
        raise SweepTooLarge(space, MAX_SWEEP)
    if spec.chunk < 1:
        raise InputError("chunk must be positive")
    if spec.limit is not None and spec.limit < 0:
        raise InputError("limit must be >= 0")
    domain = (None if spec.domain is None
              else compile_selector(algebra, spec.domain, shape.param))

    def system(name):
        own = compile_selector(algebra, name, shape.param)
        return own if domain is None else _conjoined(own, domain)

    sides = {"predicate": system(spec.predicate)}
    listed = []
    if spec.classifier is not None:
        sides["classifier"] = system(spec.classifier)
        listed = list(sides.values())
    elif spec.keep_solutions and spec.limit is None:
        listed = [sides["predicate"]]
    if domain is not None:
        sides["domain"] = domain
    codes = _codes(spec)
    return _Planned(spec, shape, sides, _task(sides, codes, spec.chunk,
                                              codes // space, listed))


def _finish(planned: _Planned, workers: int) -> list[SolutionReport]:
    """Solve a planned sweep's blocks and report on every member, in
    parameter order.  When a side of a comparison is counted, the
    solutions the two share are those of one system of both sides' polys:
    a side's own when its polys include the other's, else counted.  Each
    report's ``duration_ms`` is its share of the solve."""
    spec, shape, sides, task = planned
    algebra = spec.algebra
    members = algebra.members() if _lead(algebra) else [algebra]
    t0 = time.perf_counter()
    found = _join(sides, task, _run(task, workers))
    common = None
    if "classifier" in found and (found["predicate"].codes is None
                                  or found["classifier"].codes is None):
        pred, cls = sides["predicate"], sides["classifier"]
        if set(pred.polys) <= set(cls.polys):
            common = found["classifier"].counts
        elif set(cls.polys) <= set(pred.polys):
            common = found["predicate"].counts
        else:
            both = {"both": _conjoined(pred, cls)}
            task = _task(both, _codes(spec), spec.chunk, len(members))
            common = _join(both, task, _run(task, workers))["both"].counts
    duration_ms = (time.perf_counter() - t0) * 1000.0 / len(members)
    return [_report(spec, shape, member, k, sides, found, common,
                    duration_ms) for k, member in enumerate(members)]


def _first(system: CompiledSystem, start: int, stop: int, want: int,
           chunk: int, drop=None, smallest=None) -> np.ndarray:
    """The first ``want`` solutions of ``system`` in ``[start, stop)``,
    ascending, leaving out those that ``drop`` (a mask of an encoding
    array) flags.

    A scan in natural order that stops once it has them: each kernel call
    lists the next batch of solutions, twice the one before up to
    ``chunk`` (or ``want``, without ``drop``), and holds no more entries
    in a step than its batch or ``_SCAN_STEP``, so it grows its frontier
    depth first towards the batch's codes and not across the whole range.
    A system without polys lists its range with no kernel call.

    With ``smallest(codes, want)``, which keeps the ``want`` of ``codes``
    that come first in another order (the encodings of a map that is not
    ascending), the scan runs through the whole range and keeps that
    many after each batch, so it holds ``O(want + chunk)`` codes.
    """
    natural = system._replace(var_order=None)
    found, got, batch = [], 0, want
    while want and start < stop and (smallest is not None or got < want):
        if natural.polys:
            codes = solutions_in_range(natural, start, stop,
                                       min(max(batch, _SCAN_STEP), chunk),
                                       limit=batch)
        else:
            codes = np.arange(start, min(stop, start + batch),
                              dtype=np.uint64)
        start = int(codes[-1]) + 1 if codes.size == batch else stop
        if drop is not None:
            codes = codes[~drop(codes)]
        if smallest is None:
            found.append(codes[:want - got])
            got += found[-1].size
        else:
            found = [smallest(np.concatenate(found + [codes]), want)]
        batch = max(batch, min(2 * batch, chunk))
    return np.concatenate(found) if found else np.empty(0, dtype=np.uint64)


def _diff(spec: SweepSpec, sides: dict, pred: tuple, cls: tuple,
          common: int | None, lo: int, hi: int, smallest) -> list:
    """:func:`_sorted_diff` on one member's codes ``[lo, hi)`` of the two
    sides, given as ``(count, codes)`` with ``codes`` None for a counted
    side; each side-only count comes with the ``COUNTEREXAMPLE_CAP`` of
    its codes that ``smallest(codes, want)`` keeps (None: the first).

    Two listed sides are compared as arrays.  Otherwise the sides share
    ``common`` codes, and each side-only count above zero is headed by
    that side's codes on which the other side's polys do not all vanish:
    its array's, or a capped scan's when it is counted.
    """
    (pcount, pcodes), (ccount, ccodes) = pred, cls
    cap = COUNTEREXAMPLE_CAP
    if pcodes is not None and ccodes is not None:
        if smallest is None:
            return _sorted_diff(pcodes, ccodes)
        return [(count, smallest(codes, cap))
                for count, codes in _sorted_diff(pcodes, ccodes, None)]
    psys, csys = sides["predicate"], sides["classifier"]

    def only(system, codes, other, count):
        want = min(count, cap)
        if not want:
            return []
        if codes is not None:
            codes = codes[~satisfied(other, codes, spec.chunk)]
            return codes[:want] if smallest is None else smallest(codes, want)
        return _first(system, lo, hi, want, spec.chunk,
                      lambda batch: satisfied(other, batch, spec.chunk),
                      smallest)

    return [(pcount - common, only(psys, pcodes, csys, pcount - common)),
            (ccount - common, only(csys, ccodes, psys, ccount - common))]


def _report(spec: SweepSpec, shape: _Map, algebra, k: int, sides: dict,
            found: dict, common: list | None,
            duration_ms: float) -> SolutionReport:
    """The report on ``algebra``, member ``k`` of the sweep, from each
    side's :class:`_Side`: its codes are ``[k * w, (k + 1) * w)`` for the
    ``w = q^shape.k`` parameter codes of a member, and its listing and
    counterexamples are the encodings of their tensors, ascending.  Where
    ``shape`` is not ascending, they come from the codes of the smallest
    encodings, found by sorting a side's array or by a scan of the whole
    member."""
    f = algebra.field
    n = algebra.dim
    space = f.q ** shape.k
    lo, hi = k * space, (k + 1) * space

    def encode(codes):
        return _encodings(shape, codes, spec.chunk)

    smallest = (None if shape.ascending
                else functools.partial(_smallest, shape, spec.chunk))

    def part(side):
        count, codes = found[side].counts[k], found[side].codes
        if codes is not None:
            codes = codes[codes.searchsorted(np.uint64(lo)):
                          codes.searchsorted(np.uint64(hi))]
        return count, codes

    pred = part("predicate")
    classifier_count = agreement = None
    diff = [(0, []), (0, [])]
    if spec.classifier is not None:
        cls = part("classifier")
        classifier_count = cls[0]
        diff = _diff(spec, sides, pred, cls,
                     common[k] if common is not None else None, lo, hi,
                     smallest)
        agreement = not diff[0][0] and not diff[1][0]
    (pred_only_count, pred_only), (class_only_count, class_only) = diff

    candidates = sorted(
        [(code, True) for code in encode(pred_only).tolist()]
        + [(code, False) for code in encode(class_only).tolist()]
    )[:COUNTEREXAMPLE_CAP]
    counterexamples = [
        {
            "encoding": code,
            "tensor": encoding_literal(f, n, code),
            "predicate": in_pred,
            "classifier": not in_pred,
        }
        for code, in_pred in candidates
    ]

    solutions = None
    if spec.keep_solutions:
        if spec.limit is None and pred[0] > MAX_LISTING:
            raise ListingTooLarge(pred[0], MAX_LISTING)
        want = pred[0] if spec.limit is None else min(spec.limit, pred[0])
        if pred[1] is None:
            listing = _first(sides["predicate"], lo, hi, want, spec.chunk,
                             smallest=smallest)
        else:
            listing = (pred[1][:want] if smallest is None
                       else smallest(pred[1], want))
        solutions = encode(listing).tolist()

    params = algebra.params.as_dict() if algebra.params else {}
    return SolutionReport(
        claim=spec.claim,
        predicate=spec.predicate,
        classifier=spec.classifier,
        field=f.literal(),
        algebra=algebra.label,
        params=params,
        total=space if spec.domain is None else found["domain"].counts[k],
        predicate_count=pred[0],
        classifier_count=classifier_count,
        pred_only_count=pred_only_count,
        class_only_count=class_only_count,
        agreement=agreement,
        counterexamples=counterexamples,
        duration_ms=duration_ms,
        solutions=solutions,
    )


def sweep(spec: SweepSpec) -> SolutionReport:
    """Run the sweep described by ``spec`` over the whole tensor space,
    or over ``spec.domain`` when one is named."""
    if _lead(spec.algebra):
        raise InputError("sweep takes one algebra, not a family")
    (report,) = _finish(_plan_sweep(spec), resolve_workers(spec.workers))
    return report


def _sweep_item(spec: SweepSpec):
    """A whole sweep as one helper item: its reports if it is one block,
    else the planned sweep, whose blocks the caller then shares out."""
    planned = _plan_sweep(spec)
    if _item_count(planned.task) > 1:
        return planned
    return _finish(planned, 1)


def _sweep_all(specs: list, workers: int | None = None) -> list:
    """For every spec, in order, the reports on every member of its
    algebra (one report for a plain algebra, one per member of a family).

    With more than one worker and more than one spec, the specs go to the
    helpers as one task, one whole sweep per item (:func:`_sweep_item`);
    each sweep of more than one block comes back planned, and its blocks
    are then shared over the helpers.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(specs) < 2:
        return [_finish(_plan_sweep(spec), workers) for spec in specs]
    task = [replace(spec, workers=1) for spec in specs]
    count = min(workers, len(task)) - 1
    with _HELPERS_LOCK:
        done = _helpers(count).run(task, count)
    return [_finish(item, workers) if isinstance(item, _Planned) else item
            for item in done]


# ---------------------------------------------------------------------------
# discrepancy ledger


@dataclass(frozen=True)
class LedgerEntry:
    """One predicate/classifier disagreement, pinned for regression."""

    claim: str
    field: str
    params: tuple
    encoding: int
    tensor: str
    predicate: bool
    classifier: bool

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "field": self.field,
            "params": dict(self.params),
            "encoding": self.encoding,
            "tensor": self.tensor,
            "predicate": self.predicate,
            "classifier": self.classifier,
        }


class DiscrepancyLedger:
    """Ordered, capped record of predicate/classifier disagreements.

    At most :data:`LEDGER_CAP` entries are kept per (claim, params) pair, in
    ascending encoding order, so ledgers are stable regression artifacts.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self._per_key: dict[tuple, int] = {}

    def record(self, entry: LedgerEntry) -> bool:
        key = (entry.claim, entry.params)
        have = self._per_key.get(key, 0)
        if have >= LEDGER_CAP:
            return False
        self._per_key[key] = have + 1
        self.entries.append(entry)
        return True

    def record_report(self, report: SolutionReport) -> int:
        """Pin every counterexample of a report; returns how many stuck."""
        added = 0
        params = tuple(sorted(report.params.items()))
        for ce in report.counterexamples:
            entry = LedgerEntry(
                claim=report.claim or "",
                field=report.field,
                params=params,
                encoding=ce["encoding"],
                tensor=ce["tensor"],
                predicate=ce["predicate"],
                classifier=ce["classifier"],
            )
            if self.record(entry):
                added += 1
        return added

    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def to_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(d, sort_keys=True) for d in self.to_list()
        )
