"""Vectorized evaluation of polynomial systems over small finite fields.

A :class:`CompiledSystem` is a plain, picklable description of a conjunction
of multivariate polynomials over GF(p^m): every poly is a tuple of
``(coeff_encoding, variable_index_tuple)`` monomials.  Systems are produced
by replaying the generic object-level checks over a symbolic polynomial ring
(:mod:`baxter._poly`), so this module never re-derives any mathematics -- it
only evaluates.

Evaluation grows big-endian prefixes one variable at a time over a numpy
frontier of surviving prefixes and their digits.  Each polynomial is folded
through precomputed q-by-q multiplication tables (with the coefficient
fused into the first pairwise product) as soon as its last variable is
assigned, and the frontier is compressed to the survivors; once no
polynomial is left, the remaining digits are free and whole ranges are
emitted.  Characteristic 2 accumulates with XOR; other characteristics go
through an addition table.

Variables are assigned in the system's ``var_order``, natural (the tensor
encoding's own digit order) by default; the prefixes are then *search
codes*, and each call maps its survivors back to tensor encodings.
:func:`plan` picks the order for a system: the natural order or the
fail-first greedy order (next the variable that closes the most polys),
whichever a sampled estimate of the kernel's work favours; greedy must
win by a factor of ``_PLAN_GAIN``.
"""
from __future__ import annotations

import random
from typing import Iterable, NamedTuple

import numpy as np

from .gf import Field

__all__ = [
    "CompiledSystem",
    "compile_polys",
    "solutions_in_range",
    "plan",
    "evaluate_code",
]

_MAX_ORDER = 256  # digit arrays are uint8


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


def compile_polys(ring, polys: Iterable) -> CompiledSystem:
    """Freeze symbolic polynomials into a picklable system.

    Identically-zero polynomials are dropped and duplicates are kept once,
    preserving first-occurrence order.
    """
    base = ring.base
    if base.q > _MAX_ORDER:
        raise ValueError(
            f"vectorized evaluation supports field orders up to {_MAX_ORDER},"
            f" got {base.q}"
        )
    out = []
    seen = set()
    for poly in polys:
        if poly.ring is not ring:
            raise ValueError("polynomial from a different ring")
        normalized = tuple(sorted(poly.terms.items()))
        if not normalized:
            continue
        if normalized in seen:
            continue
        seen.add(normalized)
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
    add = None
    if f.p != 2:
        add = np.zeros((q, q), dtype=np.uint8)
        for x in range(q):
            for y in range(x, q):
                v = f.add_i(x, y)
                add[x, y] = v
                add[y, x] = v
    cached = {"q": q, "mul": mul, "add": add, "fold": {}}
    _TABLES[key] = cached
    return cached


def _fold_table(tables: dict, coeff: int) -> np.ndarray:
    """q-by-q table of ``coeff * x * y``."""
    tab = tables["fold"].get(coeff)
    if tab is None:
        row = tables["mul"][coeff]
        tab = row[tables["mul"]]
        tables["fold"][coeff] = tab
    return tab


def _levels(system: CompiledSystem) -> list[list]:
    """Polys grouped by the prefix depth at which their last variable is
    assigned (depth 0 holds constant polys), with each variable renamed to
    the depth that assigns it."""
    depth = list(range(system.nvars))
    for d, v in enumerate(system.var_order or ()):
        depth[v] = d
    levels = [[] for _ in range(system.nvars + 1)]
    for poly in system.polys:
        poly = tuple((c, tuple(depth[v] for v in vs)) for c, vs in poly)
        top = max((v for _, vs in poly for v in vs), default=-1)
        levels[top + 1].append(poly)
    return levels


def _prune(polys, tables: dict, char2: bool, codes, digits):
    """Keep the prefixes on which every poly in ``polys`` vanishes."""
    mul = tables["mul"]
    add = tables["add"]
    for poly in polys:
        if codes.size == 0:
            break
        acc = np.zeros(codes.size, dtype=np.uint8)
        for coeff, vs in poly:
            if not vs:
                val = np.full(codes.size, coeff, dtype=np.uint8)
            elif len(vs) == 1:
                val = mul[coeff][digits[vs[0]]]
            else:
                val = _fold_table(tables, coeff)[digits[vs[0]], digits[vs[1]]]
                for v in vs[2:]:
                    val = mul[val, digits[v]]
            if char2:
                acc ^= val
            else:
                acc = add[acc, val]
        keep = np.flatnonzero(acc == 0)
        codes = codes[keep]
        digits = digits[:, keep]
    return codes, digits


def _ranges(codes: np.ndarray, width: int, start: int, stop: int):
    """Every encoding under the given prefixes, clipped to ``[start, stop)``.

    The prefixes are ascending and each one's subtree meets the range, so
    only the first and last subtree can be cut.
    """
    if width == 1:
        return codes
    lo = codes * np.uint64(width)
    hi = lo + np.uint64(width)
    lo[0] = max(int(lo[0]), start)
    hi[-1] = min(int(hi[-1]), stop)
    sizes = hi - lo
    ends = np.cumsum(sizes)
    out = np.arange(int(ends[-1]), dtype=np.uint64)
    out += np.repeat(lo - (ends - sizes), sizes.astype(np.intp))
    return out


def _encodings(codes: np.ndarray, var_order, q: int) -> np.ndarray:
    """The tensor encodings of search codes, whose digit ``d`` is the
    value of variable ``var_order[d]``."""
    n = len(var_order)
    out = np.zeros_like(codes)
    for d in reversed(range(n)):
        codes, digit = np.divmod(codes, np.uint64(q))
        digit *= np.uint64(q ** (n - 1 - var_order[d]))
        out += digit
    return out


def solutions_in_range(
    system: CompiledSystem,
    start: int,
    stop: int,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """Encodings of the solutions whose search codes lie in ``[start, stop)``.

    A search code is the big-endian number whose digit ``d`` is the value
    of variable ``system.var_order[d]``; in natural order (``var_order``
    None) it is the encoding itself.  Returns a ``uint64`` array in
    ascending search-code order, which is ascending encoding order only in
    natural order.  Variables are assigned one at a time in search order
    over a frontier of surviving prefixes; each poly prunes the frontier as
    soon as its last variable is assigned, and once no poly is left the
    remaining digits are emitted as whole ranges.  A frontier whose next
    expansion would exceed ``chunk`` candidates is halved first and the
    halves are grown depth first, so peak memory stays
    ``O(max(chunk, q) * nvars)`` bytes plus the output, however large the
    range (a single prefix always expands to its ``q`` children).
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    order = system.var_order
    if order is not None and sorted(order) != list(range(system.nvars)):
        raise ValueError("var_order must be a permutation of the variables")
    tables = _tables(system)
    q = tables["q"]
    n = system.nvars
    start = max(start, 0)
    stop = min(stop, q ** n)
    if start >= stop:
        return np.empty(0, dtype=np.uint64)
    char2 = system.p == 2
    levels = _levels(system)
    last = max((d for d, polys in enumerate(levels) if polys), default=0)
    digit_row = np.arange(q, dtype=np.uint8)
    parts = []
    stack = [(0,) + _prune(
        levels[0], tables, char2,
        np.zeros(1, dtype=np.uint64), np.empty((0, 1), dtype=np.uint8),
    )]
    while stack:
        depth, codes, digits = stack.pop()
        while codes.size and depth < last:
            size = codes.size
            if size * q > chunk and size > 1:
                half = size // 2
                stack.append((depth, codes[half:], digits[:, half:]))
                codes, digits = codes[:half], digits[:, :half]
                continue
            grown = np.empty((depth + 1, size, q), dtype=np.uint8)
            grown[:depth] = digits[:, :, None]
            grown[depth] = digit_row
            digits = grown.reshape(depth + 1, size * q)
            codes = (codes[:, None] * np.uint64(q) + digit_row).ravel()
            depth += 1
            width = q ** (n - depth)
            lo, hi = start // width, -(-stop // width)
            if codes[0] < lo or codes[-1] >= hi:
                i = codes.searchsorted(np.uint64(lo))
                j = codes.searchsorted(np.uint64(hi))
                codes, digits = codes[i:j], digits[:, i:j]
            codes, digits = _prune(levels[depth], tables, char2, codes, digits)
        if codes.size:
            parts.append(_ranges(codes, q ** (n - depth), start, stop))
    if not parts:
        return np.empty(0, dtype=np.uint64)
    out = np.concatenate(parts)
    if order is not None:
        out = _encodings(out, order, q)
    return out


# -- choosing the variable order ---------------------------------------------

_PLAN_SAMPLE = 256
# Greedy order is taken only when estimated this many times cheaper than
# natural order: the estimate is a sample, and a natural-order sweep's
# ranges come out in encoding order and need no sort.
_PLAN_GAIN = 2.0


def _greedy_order(system: CompiledSystem) -> tuple[int, ...]:
    """Fail first: next the variable that closes the most polys, ties broken
    by the number of open polys it appears in, then by the lower index."""
    open_vars = [{v for _, vs in poly for v in vs} for poly in system.polys]
    open_vars = [vs for vs in open_vars if vs]
    left = list(range(system.nvars))
    order = []
    while left:
        v = max(left, key=lambda v: (
            sum(vs == {v} for vs in open_vars),
            sum(v in vs for vs in open_vars),
        ))
        order.append(v)
        left.remove(v)
        open_vars = [vs - {v} for vs in open_vars if vs != {v}]
    return tuple(order)


def _cost(system: CompiledSystem, tables: dict) -> float:
    """Estimated kernel work over the whole space in ``system``'s order.

    The frontier is grown level by level as in the kernel, but whenever
    more than ``_PLAN_SAMPLE`` prefixes survive a level, a seeded sample of
    that many is kept and each stands for its share of the survivors.  So
    the estimate is exact while the frontier is small.  A level costs the
    children built times (depth + terms evaluated per child).
    """
    q = tables["q"]
    char2 = system.p == 2
    rng = random.Random(0)  # a system always gets the same plan
    levels = _levels(system)
    last = max((d for d, polys in enumerate(levels) if polys), default=0)
    digit_row = np.arange(q, dtype=np.uint8)
    digits = np.empty((0, 1), dtype=np.uint8)
    weight = 1.0  # prefixes of the real frontier per sampled prefix
    cost = 0.0
    for depth in range(1, last + 1):
        size = digits.shape[1]
        grown = np.empty((depth, size, q), dtype=np.uint8)
        grown[:-1] = digits[:, :, None]
        grown[-1] = digit_row
        digits = grown.reshape(depth, size * q)
        ids = np.arange(size * q)
        terms = 0
        for poly in levels[depth]:
            terms += ids.size * len(poly)
            ids, digits = _prune([poly], tables, char2, ids, digits)
        cost += weight * (size * q * depth + terms)
        if ids.size > _PLAN_SAMPLE:
            weight *= ids.size / _PLAN_SAMPLE
            digits = digits[:, rng.sample(range(ids.size), _PLAN_SAMPLE)]
    return cost


def plan(system: CompiledSystem) -> tuple[CompiledSystem, float, float]:
    """``system`` in the cheaper of natural and greedy variable order, with
    the estimated cost of each order (0 for a system without polys, which
    keeps natural order)."""
    natural = system._replace(var_order=None)
    if not system.polys:
        return natural, 0.0, 0.0
    tables = _tables(system)
    natural_cost = _cost(natural, tables)
    greedy_sys = system._replace(var_order=_greedy_order(system))
    greedy_cost = _cost(greedy_sys, tables)
    if greedy_cost * _PLAN_GAIN <= natural_cost:
        return greedy_sys, natural_cost, greedy_cost
    return natural, natural_cost, greedy_cost


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
