"""Vectorized evaluation of polynomial systems over small finite fields.

A :class:`CompiledSystem` is a plain, picklable description of a conjunction
of multivariate polynomials over GF(p^m): every poly is a tuple of
``(coeff_encoding, variable_index_tuple)`` monomials.  Systems are produced
by replaying the generic object-level checks over a symbolic polynomial ring
(:mod:`baxter._poly`), so this module never re-derives any mathematics -- it
only evaluates.

Evaluation grows big-endian prefixes one variable at a time over a numpy
frontier of surviving prefixes and their digits.  Each system is compiled
once into levels, one per variable, holding the polys whose last variable
that level assigns; the compiled levels are cached by the system's value.
Before the split the polys are row-reduced over GF(q) by sparse forward
elimination, with monomials ranked by their factors' depths, deepest
first: the reduced polys have the same zeros, a poly that is a linear
combination of the others is dropped (GF(8) ``ab(1,1)``'s 27 CYBE
entries span 21), and every kept one closes at the depth of its leading
monomial, no later than the polys it came from.  A nonzero constant left
by the reduction means that nothing solves.  Polys are evaluated only
through gather rows: every monomial is one lookup of its factors' summed
discrete logs, and every target (a sum of monomials) is one segmented
sum over its rows, XOR in characteristic 2 and integer lanes reduced mod
p otherwise.  A level's polys of degree at most 1 in its variable ``x``
are ``a * x + c`` with ``a`` and ``c`` in earlier variables, so they are
solved on the parent prefixes: each parent keeps one child (the common
root ``-c / a``), all ``q`` (every ``a`` and ``c`` zero) or none.  A
level without such polys expands every prefix into its ``q`` children.
The level's other polys are then evaluated on the surviving children in
one gather, and a child is kept where they all vanish.  A listing grows
the frontier to the leaves: a level past the last poly keeps every
child, and since no poly reads those digits, each prefix there carries
its base (below) instead of its digits: a child's base is its parent's
plus its digit times its depth's encoding weight.  A prefix that fails
an early poly never has its subtree enumerated.

The kernel can also count instead of listing: a surviving prefix past
the last poly then counts as the size of its free subtree, per bucket of
leading digits (one bucket per member of a family's system).  Counting
grows a range at least to the depth where its bounds fall between
subtrees, so every prefix there counts whole: a sweep's blocks are runs
of whole subtrees of the top levels, and an unaligned range costs growth
down to the depth of its bounds.  A last level solved on the parent
prefixes, with no other polys, is counted there from each parent's number
of roots, without its children.  A listing can stop after its first
``limit`` solutions: past the last poly every leaf solves, so each level
keeps only the prefixes whose subtrees can hold them.  :func:`poly_values`
evaluates every poly of a system on given encodings in one gather, and
:func:`satisfied` tests them against the system with it.

Variables are assigned in the system's ``var_order``, natural (the tensor
encoding's own digit order) by default; the prefixes are then *search
codes*, and each depth's encoding weight maps a prefix to its *base*,
the encoding with its unassigned digits zero.
:func:`plan` picks the order for a system: the natural order or the
fail-first greedy order (next the variable that closes the most polys),
whichever a sampled estimate of the kernel's work favours, natural on a
tie.
"""
from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InputError
from .gf import Field

__all__ = [
    "CompiledSystem",
    "check_order",
    "compile_polys",
    "solutions_in_range",
    "plan",
    "estimated_solutions",
    "satisfied",
    "poly_values",
    "evaluate_code",
]

_MAX_ORDER = 256  # digit arrays are uint8
# Products are looked up by the sum of their coefficient's and factors'
# discrete logs in uint16: zero's log exceeds any sum of up to _MAX_FACTORS
# nonzero logs, and _MAX_FACTORS of it still fit, so a monomial has fewer
# than _MAX_FACTORS factors.
_ZERO_LOG = 1 << 12
_MAX_FACTORS = 15


class CompiledSystem(NamedTuple):
    p: int
    m: int
    modulus: int | None
    nvars: int
    # tuple of polys; each poly a tuple of (coeff_encoding, var_indices)
    polys: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    # the variable the kernel assigns at each depth; None is 0, 1, 2, ...
    var_order: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return self.p ** self.m

    def field(self) -> Field:
        return Field.make(self.p, self.m, self.modulus)


def check_order(field) -> None:
    """Refuse a field whose elements do not fit the kernel's ``uint8``
    digits, as bad input: callers check before replaying anything over it."""
    if field.q > _MAX_ORDER:
        raise InputError(f"sweeps support field orders up to {_MAX_ORDER},"
                         f" got {field.q}")


def compile_polys(ring, polys: Iterable, every: bool = False
                  ) -> CompiledSystem:
    """Freeze symbolic polynomials into a picklable system.

    Identically-zero polynomials are dropped and duplicates are kept once,
    preserving first-occurrence order; with ``every``, each one is kept in
    order, as the coordinates of a map (:func:`poly_values`) need.  A
    monomial of ``_MAX_FACTORS`` or more factors is rejected: its product
    would not fit the kernel's summed discrete logs; so is a ring over a
    field :func:`check_order` refuses.
    """
    base = ring.base
    check_order(base)
    out = []
    seen = set()
    for poly in polys:
        if poly.ring is not ring:
            raise ValueError("polynomial from a different ring")
        normalized = tuple(sorted(poly.terms.items()))
        if not every and (not normalized or normalized in seen):
            continue
        seen.add(normalized)
        g = max(map(len, poly.terms), default=0)
        if g >= _MAX_FACTORS:
            raise ValueError(f"vectorized evaluation supports monomials of"
                             f" fewer than {_MAX_FACTORS} factors, got {g}")
        out.append(tuple((coeff, vs) for vs, coeff in normalized))
    return CompiledSystem(base.p, base.m, base.modulus, ring.nvars, tuple(out))


# -- table cache, per field and worker process -------------------------------

_TABLES: dict[tuple, dict] = {}


def _tables(system: CompiledSystem) -> dict:
    key = (system.p, system.m, system.modulus)
    cached = _TABLES.get(key)
    if cached is not None:
        return cached
    f = system.field()
    q = f.q
    mul = np.zeros((q, q), dtype=np.uint8)
    for x in range(q):
        for y in range(x, q):
            v = f.mul_i(x, y)
            mul[x, y] = v
            mul[y, x] = v
    # The roots of a*x + c, indexed a*q + c, as the bounds (lo, hi) of an
    # interval of digits: one root is lo == hi, every digit is lo > hi and
    # no digit is lo < hi, so intersecting polys is min of lo, max of hi.
    inv = np.array([f.inv_i(a) if a else 0 for a in range(q)], np.uint8)
    neg = np.array([f.neg_i(c) for c in range(q)], np.uint8)
    lo = mul[inv[:, None], neg].astype(np.int16)
    hi = lo.copy()
    lo[0], hi[0] = -1, q  # a = 0, c != 0: no root
    lo[0, 0], hi[0, 0] = q, -1  # a = c = 0: every digit
    # Discrete logs to a generator of GF(q)*, so that a product is one
    # lookup of the sum of its factors' logs; zero's log is _ZERO_LOG, and
    # a sum that holds it looks up zero.
    for gen in range(1, q):
        powers = _powers(mul, gen, q)
        if len(set(powers.tolist())) == q - 1:
            break
    log = np.full(q, _ZERO_LOG, dtype=np.uint16)
    log[powers] = np.arange(q - 1)
    exp = np.zeros(1 << 16, dtype=np.uint8)
    exp[:_ZERO_LOG] = powers[np.arange(_ZERO_LOG) % (q - 1)]
    # field arithmetic on Python ints, for row-reducing a system
    arith = (mul.tolist(), [[f.sub_i(a, b) for b in range(q)]
                            for a in range(q)], inv.tolist())
    cached = {"q": q, "p": f.p, "m": f.m, "lo": lo.ravel(),
              "hi": hi.ravel(), "log": log, "exp": exp, "planes": {},
              "digits": np.arange(q, dtype=np.uint8), "arith": arith}
    _TABLES[key] = cached
    return cached


def _powers(mul: np.ndarray, g: int, q: int) -> np.ndarray:
    """``g**0, ..., g**(q - 2)`` in GF(q)."""
    out = np.ones(q - 1, dtype=np.uint8)
    for e in range(1, q - 1):
        out[e] = mul[out[e - 1], g]
    return out


def _planes(tables: dict, lane) -> list:
    """Outside characteristic 2: per base-p digit ``i`` of the field's
    encoding, the exp table of that digit in the integer type ``lane``,
    and ``p**i``.  Sums are then taken digit by digit."""
    key = np.dtype(lane)
    cached = tables["planes"].get(key)
    if cached is None:
        p = tables["p"]
        cached = tables["planes"][key] = [
            ((tables["exp"] // p ** i % p).astype(lane), p ** i)
            for i in range(tables["m"])
        ]
    return cached


# -- compiled levels ---------------------------------------------------------


class _Gather(NamedTuple):
    """Gather arrays of targets, each a sum of monomials, to evaluate on a
    frontier of prefixes.  Rows are monomials, grouped by target; a target
    without monomials gets one with coefficient zero.  Every row lists its
    variables padded with the one past the prefixes' digits, which the
    evaluation reads as a factor of one."""

    npolys: int  # the polys whose values or coefficients the targets are
    logs: np.ndarray  # (M, 1) log of each row's coefficient
    factors: np.ndarray  # (G, M) the variables of each row
    starts: np.ndarray  # (T,) first row of each target
    # outside characteristic 2, the unsigned type the sums fit in
    lane: type | None


class _Level(NamedTuple):
    """The polys a depth closes, with each variable renamed to the depth
    assigning it: those of degree at most 1 in its variable ``x``, solved
    on the parent prefixes, and the others, evaluated on the children."""

    linear: _Gather | None  # a_0 .. a_(k-1), then c_0 .. c_(k-1)
    rest: _Gather | None  # one target per poly
    # array entries the level holds per parent prefix: q children, one per
    # row of ``linear``, or q per row of ``rest``, whichever is most
    width: int


def _gather(targets, pad: int, tables: dict, npolys: int) -> _Gather:
    """The gather arrays of ``targets``, lists of ``(coeff, vs)``
    monomials, with every row's variables padded with ``pad``."""
    g = max([len(vs) for rows in targets for _, vs in rows] + [1])
    assert g < _MAX_FACTORS, "compile_polys refuses longer monomials"
    fill = [(pad,) * (g - j) for j in range(g + 1)]
    coeffs, factors, counts = [], [], []
    for rows in targets:
        rows = rows or [(0, ())]
        counts.append(len(rows))
        for coeff, vs in rows:
            coeffs.append(coeff)
            factors += vs
            factors += fill[len(vs)]
    lane = None
    if tables["p"] != 2:
        most = (tables["p"] - 1) * max(counts)
        lane = next(t for t in (np.uint8, np.uint16, np.uint32)
                    if most <= np.iinfo(t).max)
    return _Gather(
        npolys,
        tables["log"].take(coeffs)[:, None],
        np.array(factors, dtype=np.intp).reshape(-1, g).T.copy(),
        np.fromiter(itertools.accumulate(counts[:-1], initial=0), np.intp),
        lane,
    )


def _linear(polys, x: int, tables: dict) -> _Gather:
    """The gather arrays of ``a_i`` and ``c_i`` for polys ``a_i * x + c_i``
    of a level assigning ``x``, padded with ``x``: a row of ``a_i`` then
    yields the coefficient of ``x``."""
    k = len(polys)
    targets = [[] for _ in range(2 * k)]
    for i, poly in enumerate(polys):
        for coeff, vs in poly:
            targets[i if x in vs else k + i].append((coeff, vs))
    return _gather(targets, x, tables, k)


class _Compiled(NamedTuple):
    levels: tuple  # per depth, the _Level of the polys it closes, or None
    last: int  # the deepest depth that has polys
    weights: np.ndarray  # per depth, the encoding weight of its variable


def _reduce(polys, depth_of, arith) -> dict:
    """Row-reduce ``polys`` over the field: each poly becomes a row
    ``{monomial: coeff}``, a monomial its factors' depths, deepest first,
    and monomials rank as those tuples, so a row's leading monomial is one
    of its deepest.  Sparse forward elimination keeps one row per leading
    monomial, scaled to lead with 1; a row that reduces to zero is a
    combination of the kept ones and is dropped.  Returns the kept rows,
    in the order they were kept, as polys of ``(coeff, depths)`` monomials
    keyed by their leading monomial."""
    mul, sub, inv = arith
    renamed = {}  # each monomial's depths, deepest first
    pivots = {}
    for poly in polys:
        row = {}
        for c, vs in poly:
            key = renamed.get(vs)
            if key is None:
                key = renamed[vs] = tuple(sorted(map(depth_of.__getitem__, vs),
                                                 reverse=True))
            row[key] = c
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = mul[inv[row[lead]]]
                pivots[lead] = [(scale[c], vs) for vs, c in row.items()]
                break
            times = mul[row[lead]]
            for c, vs in pivot:
                left = sub[row.get(vs, 0)][times[c]]
                if left:
                    row[vs] = left
                else:
                    del row[vs]
    return pivots


@functools.lru_cache(maxsize=256)
def _compile(system: CompiledSystem) -> _Compiled:
    """Per depth, the :class:`_Level` of the polys whose last variable that
    depth assigns (None where there are none; depth 0 holds a nonzero
    constant), the deepest depth that has polys, and each depth's encoding
    weight.  The levels hold the polys row-reduced in this order
    (:func:`_reduce`): row operations over the field are invertible, so
    they have the system's zeros, but a poly that is a combination of the
    others is gone and each kept one sits at the depth of its leading
    monomial.  Nothing is built for the digits past the last poly: a
    listing grows the frontier to the leaves.  Cached by the system's
    value, so a system with other polys or another order compiles anew."""
    n = system.nvars
    order = system.var_order
    if order is not None and sorted(order) != list(range(n)):
        raise ValueError("var_order must be a permutation of the variables")
    depth_of = list(range(n))
    for d, v in enumerate(order or ()):
        depth_of[v] = d
    tables = _tables(system)
    by_depth = [[] for _ in range(n + 1)]
    for lead, poly in _reduce(system.polys, depth_of, tables["arith"]).items():
        by_depth[lead[0] + 1 if lead else 0].append(poly)
    q = tables["q"]
    levels = [None] * (n + 1)
    if by_depth[0]:  # a nonzero constant: nothing solves
        levels[0] = _Level(None, None, q)
    for depth, polys in enumerate(by_depth[1:], 1):
        if not polys:
            continue
        x = depth - 1
        linear, rest = [], []  # degree at most 1 in x, and the others
        for poly in polys:
            degree = max(vs.count(x) for _, vs in poly)
            (linear if degree <= 1 else rest).append(poly)
        linear = _linear(linear, x, tables) if linear else None
        rest = _gather(rest, depth, tables, len(rest)) if rest else None
        width = max(q, 0 if linear is None else linear.logs.size,
                    0 if rest is None else q * rest.logs.size)
        levels[depth] = _Level(linear, rest, width)
    last = max((d for d, level in enumerate(levels) if level), default=0)
    weights = np.array([q ** (n - 1 - v) for v in order or range(n)],
                       dtype=np.uint64)
    return _Compiled(tuple(levels), last, weights)


def _evaluate(gather: _Gather, tables: dict, digits) -> np.ndarray:
    """The value of each of ``gather``'s targets on every prefix, as rows.

    Each monomial is one exp lookup of its factors' summed logs, and each
    target's monomials are summed over 8-byte words of the padded rows
    (XOR in characteristic 2, else integer lanes reduced mod p)."""
    depth, size = digits.shape
    wide = -(-size // 8) * 8
    logs = np.zeros((depth + 1, wide), dtype=np.uint16)
    logs[:depth, :size] = tables["log"].take(digits)
    idx = logs.take(gather.factors[0], axis=0)
    idx += gather.logs
    for row in gather.factors[1:]:
        idx += logs.take(row, axis=0)
    if gather.lane is None:
        val = tables["exp"].take(idx)
        acc = np.bitwise_xor.reduceat(val.view(np.uint64), gather.starts,
                                      axis=0).view(np.uint8)
        return acc[:, :size]
    acc = None
    for exp, weight in _planes(tables, gather.lane):
        val = exp.take(idx)
        part = np.add.reduceat(val.view(np.uint64), gather.starts,
                               axis=0).view(gather.lane)
        part %= tables["p"]
        part *= weight
        acc = part if acc is None else acc + part
    return acc[:, :size].astype(np.uint8)


def _roots(linear: _Gather, tables: dict, digits):
    """Per prefix, the digits where every poly of a linear gather vanishes,
    as the bounds ``(lo, hi)`` of an interval: one root is ``lo == hi``,
    every digit ``lo > hi`` and none ``lo < hi``."""
    q = tables["q"]
    k = linear.npolys
    acc = _evaluate(linear, tables, digits)
    idx = acc[:k].astype(np.uint16)
    idx *= q
    idx += acc[k:]
    return (tables["lo"].take(idx).min(axis=0),
            tables["hi"].take(idx).max(axis=0))


def _solve_linear(linear: _Gather, tables: dict, depth: int, codes, digits):
    """The children of a linear gather: per prefix, the common root of its
    polys, every digit where all of them vanish identically, or none."""
    q = tables["q"]
    lo, hi = _roots(linear, tables, digits)
    every = lo > hi
    if every.any():
        counts = np.where(every, q, lo == hi)
        keep = np.repeat(np.arange(codes.size), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        digit = np.where(every[keep], np.arange(keep.size) - first, lo[keep])
    else:
        keep = np.flatnonzero(lo == hi)
        digit = lo.take(keep)
    digit = digit.astype(np.uint8)
    grown = np.empty((depth + 1, keep.size), dtype=np.uint8)
    grown[:depth] = digits.take(keep, axis=1)
    grown[depth] = digit
    codes = codes.take(keep) * np.uint64(q) + digit
    return codes, grown


def _step(level, tables: dict, depth: int, codes, digits):
    """Assign the variable at ``depth`` to every prefix: the surviving
    children, ascending when the prefixes are, and the work done (children
    times prefix length, plus the gather rows evaluated).

    A level's linear polys give each prefix its children; without them
    every prefix expands into its ``q`` children.  The level's other polys
    are then evaluated on the children in one gather, and a child is kept
    where they all vanish."""
    q = tables["q"]
    if level is not None and level.linear is not None:
        work = codes.size * (max(q, level.linear.logs.size) + depth)
        codes, digits = _solve_linear(level.linear, tables, depth,
                                      codes, digits)
        work += codes.size * depth
    else:
        row = tables["digits"]
        size = codes.size
        grown = np.empty((depth + 1, size, q), dtype=np.uint8)
        grown[:depth] = digits[:, :, None]
        grown[depth] = row
        digits = grown.reshape(depth + 1, size * q)
        codes = (codes[:, None] * np.uint64(q) + row).ravel()
        work = size * q * (depth + 1)
    if level is not None and level.rest is not None and codes.size:
        work += codes.size * level.rest.logs.size
        keep = np.flatnonzero(~_evaluate(level.rest, tables, digits).any(0))
        codes, digits = codes.take(keep), digits.take(keep, axis=1)
    return codes, digits, work


def _meeting(codes: np.ndarray, width: int, start: int, stop: int) -> slice:
    """The ascending prefixes whose subtrees of ``width`` codes meet
    ``[start, stop)``."""
    lo, hi = start // width, -(-stop // width)
    if codes.size and (codes[0] < lo or codes[-1] >= hi):
        return slice(codes.searchsorted(np.uint64(lo)),
                     codes.searchsorted(np.uint64(hi)))
    return slice(None)


def _frontiers(system: CompiledSystem, compiled: _Compiled, tables: dict,
               start: int, stop: int, chunk: int, target: int,
               limit: int | None):
    """The prefixes at depth ``target`` whose subtrees meet ``[start,
    stop)``, as ``(depth, codes, rows)`` pieces in ascending search-code
    order: ``rows`` are the prefixes' digits before the last poly's depth,
    and from there on, where no poly reads the digits, one row of their
    bases, which each level past it grows by its digit's weight.

    A frontier whose next level would hold more than ``chunk`` entries
    (the level's ``width`` per prefix) is halved first and the halves are
    grown depth first.

    With ``limit``, growing to the leaves (``target`` is ``nvars``) stops
    once the pieces hold ``limit`` leaves.  Past the last poly every leaf
    solves, so each level there keeps only its first ``ceil(left / q**(n
    - depth)) + 1`` prefixes, ``left`` being the leaves still wanted: only
    the first prefix's subtree can be cut by ``start``.
    """
    levels, last, weights = compiled.levels, compiled.last, compiled.weights
    q = tables["q"]
    n = system.nvars
    left = limit
    values = tables["digits"]  # a child's digit
    rows = (np.empty((0, 1), dtype=np.uint8) if last
            else np.zeros((1, 1), dtype=np.uint64))
    stack = [(0, np.zeros(1, dtype=np.uint64), rows)]
    while stack:
        depth, codes, rows = stack.pop()
        while codes.size and depth < target:
            size = codes.size
            level = levels[depth + 1]
            if size > 1 and size * (level.width if level else q) > chunk:
                half = size // 2
                stack.append((depth, codes[half:], rows[:, half:]))
                codes, rows = codes[:half], rows[:, :half]
                continue
            if depth < last:
                codes, rows, _ = _step(level, tables, depth, codes, rows)
            else:  # every child solves: grow the bases, not the digits
                rows = (rows[:, :, None] + values * weights[depth]).reshape(
                    1, size * q)
                codes = (codes[:, None] * np.uint64(q) + values).ravel()
            depth += 1
            span = q ** (n - depth)
            keep = _meeting(codes, span, start, stop)
            codes, rows = codes[keep], rows[:, keep]
            if left is not None and depth >= last:
                keep = slice(-(-left // span) + 1)
                codes, rows = codes[keep], rows[:, keep]
            if depth == last:
                rows = _bases(system, weights, q, depth, codes, rows)[None]
        if codes.size:
            yield depth, codes, rows
            if left is not None:
                left -= codes.size
                if left <= 0:
                    return


def _bases(system: CompiledSystem, weights: np.ndarray, q: int, depth: int,
           codes: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The encoding of each prefix with its unassigned digits zero: the
    weighted sum of its assigned digits."""
    if system.var_order is None:  # the search code is the encoding's prefix
        return codes * np.uint64(q ** (system.nvars - depth))
    return np.einsum("d,dp->p", weights[:depth], digits)


class _Tally(NamedTuple):
    """Solutions counted by bucket, ``counts[encoding // width]``, for a
    system of ``n`` variables over GF(``q``) whose depths have encoding
    ``weights``."""

    counts: np.ndarray
    width: int
    weights: np.ndarray
    q: int
    n: int


def _add_subtrees(tally: _Tally, depth: int, bases: np.ndarray,
                  sizes: np.ndarray | None = None) -> None:
    """Add the whole subtrees of prefixes at ``depth`` with ``bases`` to
    the tally, each ``sizes`` times over (once without ``sizes``).

    Every digit from ``depth`` on is free, so a subtree holds ``q**(n -
    depth)`` codes, spread evenly over the buckets that its free leading
    digits (weights of at least ``width``) can reach.
    """
    counts, width, weights, q, n = tally
    offsets = np.zeros(1, dtype=np.intp)
    for weight in weights[depth:].tolist():
        if weight >= width:
            step = weight // width
            offsets = np.add.outer(offsets, np.arange(0, q * step, step))
            offsets = offsets.ravel()
    per = q ** (n - depth) // offsets.size
    buckets = counts.size
    hist = np.bincount((bases // np.uint64(width)).astype(np.intp),
                       sizes, minlength=buckets).astype(np.int64)
    for offset in offsets.tolist():
        counts[offset:] += hist[:buckets - offset] * per


def _aligned(q: int, n: int, start: int, stop: int) -> int:
    """The shallowest depth whose subtrees of ``q**(n - depth)`` codes each
    lie inside or outside ``[start, stop)``."""
    depth = 0
    while start % q ** (n - depth) or stop % q ** (n - depth):
        depth += 1
    return depth


def _count_last(tally: _Tally, depth: int, level: _Level, tables: dict,
                digits: np.ndarray, bases: np.ndarray, chunk: int) -> None:
    """Count the subtrees under the children of the given prefixes, one
    short of the last poly's depth, whose level is solved on them: each
    prefix counts its children (one root, all ``q`` digits or none) times
    their free subtrees, at most ``chunk // level.width`` prefixes at a
    time."""
    size = max(1, chunk // level.width)
    for lo in range(0, bases.size, size):
        part = slice(lo, lo + size)
        low, high = _roots(level.linear, tables, digits[:, part])
        children = np.where(low > high, tally.q, low == high)
        _add_subtrees(tally, depth + 1, bases[part], children)


def solutions_in_range(
    system: CompiledSystem,
    start: int,
    stop: int,
    chunk: int = 1 << 20,
    *,
    limit: int | None = None,
    buckets: int | None = None,
) -> np.ndarray:
    """Encodings of the solutions whose search codes lie in ``[start, stop)``.

    A search code is the big-endian number whose digit ``d`` is the value
    of variable ``system.var_order[d]``; in natural order (``var_order``
    None) it is the encoding itself.  Returns a ``uint64`` array in
    ascending search-code order, which is ascending encoding order only in
    natural order.  Variables are assigned one at a time in search order
    over a frontier of surviving prefixes.  A level's polys linear in its
    variable are solved on the parent prefixes (without them, every prefix
    expands into its ``q`` children), and its other polys are evaluated
    on the children in one gather.  The frontier grows to the leaves, and
    their search codes map to encodings; a prefix that fails an early poly
    never has its subtree enumerated.  A frontier whose next level would
    hold more than ``chunk`` entries (its ``width`` per prefix: ``q``
    children, one per row of the linear gather, or ``q`` per row of the
    other polys' gather) is halved first and the halves are grown depth
    first, so peak memory stays ``O(chunk * nvars)`` bytes plus the
    output, however large the range (a single prefix always expands).

    With ``limit``, only the first ``limit`` solutions in search order are
    returned, and the search stops once it has them: past the last poly,
    each level keeps only the prefixes whose subtrees can hold them.

    With ``buckets`` (a power ``q**k`` of the field order, at most
    ``q**nvars``), the solutions are counted instead, and nothing is
    emitted: returns ``int64`` counts, entry ``b`` counting the solutions
    whose encoding lies in ``[b * width, (b + 1) * width)`` for ``width =
    q**nvars // buckets`` (for a family's system, one bucket per member).
    A surviving prefix counts as the size of its free subtree, once the
    frontier is past the last poly and at the depth where the range's
    bounds fall between subtrees: an unaligned range grows to the leaves.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    order = system.var_order
    if order is not None:
        system = system._replace(var_order=tuple(order))
    compiled = _compile(system)
    tables = _tables(system)
    q = tables["q"]
    n = system.nvars
    if buckets is not None:
        if buckets not in [q ** k for k in range(n + 1)]:
            raise ValueError(f"buckets must be a power of {q} up to {q}**{n}")
        tally = _Tally(np.zeros(buckets, dtype=np.int64), q ** n // buckets,
                       compiled.weights, q, n)
    start = max(start, 0)
    stop = min(stop, q ** n)
    if start >= stop or compiled.levels[0] is not None or limit == 0:
        return tally.counts if buckets is not None else np.empty(0, np.uint64)
    levels, last, weights = compiled.levels, compiled.last, compiled.weights
    target = n
    if buckets is not None:
        # a last level solved on the parent prefixes, with no other polys,
        # is counted there without its children, unless it assigns a
        # bucket's digit
        early = (last > 0 and levels[last].linear is not None
                 and levels[last].rest is None
                 and weights[last - 1] < tally.width)
        target, limit = max(last - early, _aligned(q, n, start, stop)), None
    parts = []
    for depth, codes, rows in _frontiers(system, compiled, tables, start,
                                         stop, chunk, target, limit):
        if buckets is None:
            parts.append(rows[0])
        elif depth < last:
            bases = _bases(system, weights, q, depth, codes, rows)
            _count_last(tally, depth, levels[last], tables, rows, bases,
                        chunk)
        else:
            _add_subtrees(tally, depth, rows[0])
    if buckets is not None:
        return tally.counts
    if len(parts) == 1:  # concatenating one part would copy it
        return parts[0][:limit]
    return np.concatenate(parts)[:limit] if parts else np.empty(0, np.uint64)


@functools.lru_cache(maxsize=16)
def _system_gather(system: CompiledSystem) -> _Gather:
    """One target per poly of ``system``, over its encoding's digits."""
    return _gather(system.polys, system.nvars, _tables(system),
                   len(system.polys))


def poly_values(system: CompiledSystem, codes: np.ndarray, chunk: int):
    """The value of every poly of ``system`` on each of the encodings
    ``codes``: all polys are evaluated in one gather over the decoded
    digits, on at most ``chunk`` gather entries (one per monomial and
    encoding) at a time, and each step yields its ``(polys, codes)``
    block of field encodings, in order."""
    gather = _system_gather(system._replace(var_order=None))
    tables = _tables(system)
    q = np.uint64(tables["q"])
    step = max(1, chunk // gather.logs.size)
    for lo in range(0, codes.size, step):
        rest = codes[lo:lo + step].astype(np.uint64)
        digits = np.empty((system.nvars, rest.size), dtype=np.uint8)
        for d in reversed(range(system.nvars)):
            digits[d] = rest % q
            rest //= q
        yield _evaluate(gather, tables, digits)


def satisfied(system: CompiledSystem, codes: np.ndarray,
              chunk: int) -> np.ndarray:
    """Whether every poly of ``system`` vanishes on each of the encodings
    ``codes``, as a boolean mask from :func:`poly_values`."""
    mask = np.ones(codes.size, dtype=bool)
    if not system.polys:
        return mask
    lo = 0
    for block in poly_values(system, codes, chunk):
        mask[lo:lo + block.shape[1]] = ~block.any(axis=0)
        lo += block.shape[1]
    return mask


# -- choosing the variable order ---------------------------------------------

_PLAN_SAMPLE = 256


def _greedy_order(system: CompiledSystem) -> tuple[int, ...]:
    """Fail first: next the variable that closes the most polys, ties broken
    by the number of open polys it appears in, then by the lower index."""
    n = system.nvars
    open_vars = [{v for _, vs in poly for v in vs} for poly in system.polys]
    polys_of = [[] for _ in range(n)]
    closes = [0] * n
    for vs in open_vars:
        for v in vs:
            polys_of[v].append(vs)
        if len(vs) == 1:
            closes[min(vs)] += 1
    appears = [len(polys) for polys in polys_of]
    left = list(range(n))
    order = []
    while left:
        v = max(left, key=lambda v: (closes[v], appears[v]))
        order.append(v)
        left.remove(v)
        for vs in polys_of[v]:
            vs.discard(v)
            if len(vs) == 1:
                closes[min(vs)] += 1
    return tuple(order)


@functools.lru_cache(maxsize=64)
def _estimate(system: CompiledSystem) -> tuple[float, float]:
    """Estimated kernel work over the whole space in ``system``'s order,
    and the estimated number of solutions there.

    The frontier is grown level by level by the kernel's own step, but
    whenever more than ``_PLAN_SAMPLE`` prefixes survive a level, a seeded
    sample of that many is kept and each stands for its share of the
    survivors; a level without polys past that size keeps one random child
    per prefix.  So the estimate is exact while the frontier is small.
    Cached by the system's value.
    """
    tables = _tables(system)
    q = tables["q"]
    rng = random.Random(0)  # a system always gets the same plan
    compiled = _compile(system)
    levels, last = compiled.levels, compiled.last
    codes = np.zeros(1, dtype=np.uint64)
    digits = np.empty((0, 1), dtype=np.uint8)
    weight = 1.0  # prefixes of the real frontier per sampled prefix
    cost = 0.0
    for depth in range(last):
        level = levels[depth + 1]
        if level is None and codes.size * q > _PLAN_SAMPLE:
            # a free variable keeps all q children of every prefix, so one
            # random child per prefix stands for them
            cost += weight * codes.size * q * (depth + 1)
            weight *= q
            digit = _random_words(rng, codes.size) % np.uint64(q)
            digits = np.vstack([digits, digit.astype(np.uint8)])
            codes = codes * np.uint64(q) + digit
            continue
        codes, digits, work = _step(level, tables, depth, codes, digits)
        cost += weight * work
        if codes.size > _PLAN_SAMPLE:
            weight *= codes.size / _PLAN_SAMPLE
            # the prefixes with the smallest of one random key each
            pick = _random_words(rng, codes.size).argpartition(
                _PLAN_SAMPLE)[:_PLAN_SAMPLE]
            codes, digits = codes[pick], digits[:, pick]
    if levels[0] is not None:  # a nonzero constant poly
        return cost, 0.0
    return cost, weight * codes.size * q ** (system.nvars - last)


def _random_words(rng: random.Random, size: int) -> np.ndarray:
    """``size`` random ``uint64`` words from one call of ``rng``."""
    bits = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
    return np.frombuffer(bits, dtype=np.uint64)


@functools.lru_cache(maxsize=256)
def plan(system: CompiledSystem) -> tuple[CompiledSystem, float, float]:
    """``system`` in the cheaper of natural and greedy variable order by
    their estimated costs (natural on a tie), with the estimated cost of
    each order (0 for a system without polys, which keeps natural order).
    Cached by the system's value."""
    natural = system._replace(var_order=None)
    if not system.polys:
        return natural, 0.0, 0.0
    natural_cost, _ = _estimate(natural)
    greedy_sys = system._replace(var_order=_greedy_order(system))
    greedy_cost, _ = _estimate(greedy_sys)
    if greedy_cost < natural_cost:
        return greedy_sys, natural_cost, greedy_cost
    return natural, natural_cost, greedy_cost


def estimated_solutions(system: CompiledSystem) -> float:
    """The number of solutions of ``system`` over its whole space, as
    :func:`plan` estimates it in the system's order: exact while the
    sampled frontier is small, and exact for a system without polys."""
    if not system.polys:
        return float(system.order ** system.nvars)
    return _estimate(system)[1]


def evaluate_code(system: CompiledSystem, code: int) -> bool:
    """Reference check of one tensor encoding (whatever the system's
    ``var_order``), in pure field arithmetic."""
    f = system.field()
    q = f.q
    digits = []
    tmp = code
    for _ in range(system.nvars):
        digits.append(tmp % q)
        tmp //= q
    digits.reverse()
    for poly in system.polys:
        acc = 0
        for coeff, vs in poly:
            term = coeff
            for v in vs:
                term = f.mul_i(term, digits[v])
            acc = f.add_i(acc, term)
        if acc != 0:
            return False
    return True
