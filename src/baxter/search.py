"""Exhaustive sweeps of tensor spaces with predicate/classifier comparison.

A sweep walks every ``r`` in ``V (x) V`` over the algebra's base field (all
``q^(n^2)`` big-endian encodings), evaluates a *predicate* (e.g. "solves
CYBE") and optionally a *classifier* (a closed-form solution description),
and reports the counts plus any disagreements.  Selectors name both roles:

``cybe`` | ``qybe`` | ``strongly-symmetric`` | ``alpha-beta-symmetric`` |
``prop16-case`` | ``coboundary`` | ``triangular`` | ``symmetric`` |
``im-one-minus-tau`` | ``expanded-relations`` | ``su-family`` |
``im-and-alpha-beta-symmetric`` | ``bd-printed-coboundary`` |
``bd-printed-triangular``

A sweep may also name a *domain* selector; its equations are conjoined to
both sides and the report's ``total`` counts the domain instead of the
whole space.

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
are cut into one slice per member; a plain algebra is the one member of
no parameters, and every report comes from the same routine.

Sweeps are deterministic: a compiled system without polys is the whole
space and is built in the calling process without a kernel call.  A sweep
larger than its ``chunk`` runs every other compiled system in the variable
order :func:`baxter._kernel.plan` picks for it, cut into equal ranges of
that order's search codes, one per ``_BLOCK_WORK`` units of the plan's
summed work estimate and at most ``_BLOCKS``, whatever the worker count;
each range returns its survivors as encodings, and the joined ranges are
sorted once (unless the order is natural, where they already ascend), so
the report is identical for any worker count, chunk size or variable
order.  The chosen orders, their estimated costs and the block count go
to the ``baxter`` logger at DEBUG.  With ``workers > 1`` (default from the
``YBE_WORKERS`` environment variable) the calling process and
``workers - 1`` helper processes, started on first use and kept for later
sweeps, share the ranges; a worker count above the number of ranges is
cut to it, so a sweep of one range runs in the calling process.  A list of
sweeps (a claim's rows) is shared the same way, one whole sweep per item:
each is planned where it is taken and solved there if it is one range;
the ranges of a larger one are then shared as above.  The two sides are
compared as sorted arrays: the smaller is looked up in the larger, and
only the first ``COUNTEREXAMPLE_CAP`` disagreements of each side are
materialised.
"""
from __future__ import annotations

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
from ._kernel import CompiledSystem, compile_polys, plan, solutions_in_range
from ._poly import PolyRing
from .algebra import AssocAlgebra, Family, LieAlgebra, StructureConstants
from .errors import HelperExited, InputError, SweepTooLarge
from .gf import FieldElement
from .tensor import Tensor2, im_one_minus_tau_member, named_view

__all__ = [
    "MAX_SWEEP",
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


def build_selector_system(algebra, name: str, ring: PolyRing):
    """Symbolic polynomials whose common zeros are the selector's members:
    its equations on the tensor of the ring's last ``n^2`` variables.  The
    variables before them are a symbolic family member's parameters
    (:meth:`~baxter.algebra.Family.symbolic`)."""
    _check_selector(algebra, name)
    n = algebra.dim
    lead = ring.nvars - n * n
    if lead < 0:
        raise InputError(
            f"ring has {ring.nvars} variables, expected at least {n * n}"
        )
    kt = Tensor2(ring, n, [
        [ring.var(lead + i * n + j) for j in range(n)] for i in range(n)
    ])
    return _equations(algebra, name, kt, ring.const)


def compile_selector(algebra, name: str) -> CompiledSystem:
    n = algebra.dim
    ring = PolyRing(algebra.field, n * n)
    return compile_polys(ring, build_selector_system(algebra, name, ring))


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

    ``domain`` names a selector whose equations are conjoined to both
    sides, so the report counts and compares within it and its ``total``
    is the domain's size.  ``chunk`` bounds the entries the kernel holds
    in one step (memory); it never changes the report.  ``limit``
    caps the solutions ``keep_solutions`` keeps to the smallest ``limit``
    encodings.
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


# A sweep larger than ``chunk`` is cut into one equal range of search codes
# per ``_BLOCK_WORK`` units of :func:`plan`'s estimate for its systems, at
# most ``_BLOCKS``, whatever the worker count; the ranges' results are
# joined in order.  Measured on a 2-vCPU Xeon VM, medians of 7: a kernel
# call costs 0.2-0.4 ms however small its range (the GF(5) dim-3
# strongly-symmetric system, 3.9e4 units, takes 0.6 ms in one call and
# 8 ms in 32), and 1e6 units take 3-6 ms (one whole-space call: GF(8)
# ab(1,1) CYBE 4.2e6 units in 15 ms, GF(16) 1.3e8 in 370 ms, GF(8) bd(0,1)
# CYBE 2.4e7 in 131 ms), so a block's fixed cost stays below about a tenth
# of its work.
_BLOCKS = 32
_BLOCK_WORK = 1e6
# A helper replies item by item until its replies to a task reach this many
# bytes, and sends the rest when the task ends.  It stays below the 208 KiB
# a Linux socket pair buffers by default, so no reply waits on the caller,
# which reads replies only once it has no item left.
_REPLY_BYTES = 1 << 17


def _solve_block(task, index: int):
    systems, bounds, chunk = task
    start, stop = bounds[index], bounds[index + 1]
    return [solutions_in_range(system, start, stop, chunk)
            for system in systems]


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


def _systems(sides: dict) -> list:
    """The distinct systems with polys among ``sides``, in side order;
    sides with equal systems share one solve."""
    return [system for system in dict.fromkeys(sides.values())
            if system.polys]


def _blocks(sides: dict, total: int, chunk: int) -> tuple:
    """The solve of ``sides`` over all ``total`` encodings as a block task
    ``(systems, bounds, chunk)``: block ``i`` runs every system over the
    codes from ``bounds[i]`` to ``bounds[i + 1]``.

    A system without polys is the whole space and needs no kernel call.
    A sweep within ``chunk`` is one block of its systems as they are.  A
    larger one runs every system in the variable order
    :func:`baxter._kernel.plan` picks for it, cut into
    ``min(_BLOCKS, ceil(W / _BLOCK_WORK))`` equal ranges of search codes,
    where ``W`` sums each system's estimate for its chosen order.
    """
    systems = _systems(sides)
    if total <= chunk or not systems:
        return systems, (0, total), chunk
    planned = [plan(system) for system in systems]
    runs = [run for run, _, _ in planned]
    work = sum(natural if run.var_order is None else greedy
               for run, natural, greedy in planned)
    blocks = min(_BLOCKS, max(1, math.ceil(work / _BLOCK_WORK)))
    _LOG.debug("variable order: %s; estimated work %.3g in %d blocks",
               "; ".join(
                   f"{'/'.join(s for s, v in sides.items() if v == system)}"
                   f" {run.var_order or 'natural'}, estimated cost"
                   f" natural {natural:.3g} greedy {greedy:.3g}"
                   for system, (run, natural, greedy) in zip(systems, planned)
               ), work, blocks)
    return runs, tuple(total * k // blocks for k in range(blocks + 1)), chunk


def _run(task: tuple, workers: int) -> list:
    """Every block of ``task``, shared with ``workers - 1`` helpers; a
    participant without a block would idle, so there are at most as many
    participants as blocks."""
    blocks = _item_count(task)
    workers = min(workers, blocks)
    if workers == 1:
        return [_solve_block(task, index) for index in range(blocks)]
    with _HELPERS_LOCK:
        return _helpers(workers - 1).run(task, workers - 1)


def _join(sides: dict, total: int, task: tuple, parts: list) -> dict:
    """Each side's ascending solution array from the blocks' ``parts``.

    A system's ranges are joined in block order and sorted unless its order
    is natural; a single range is used as it is.
    """
    found = {system: np.arange(total, dtype=np.uint64)
             for system in dict.fromkeys(sides.values()) if not system.polys}
    for i, (system, run) in enumerate(zip(_systems(sides), task[0])):
        pieces = [part[i] for part in parts]
        joined = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if run.var_order is not None:
            joined.sort()
        found[system] = joined
    return {side: found[system] for side, system in sides.items()}


def _sorted_diff(a: np.ndarray, b: np.ndarray):
    """For sorted arrays of distinct values: the size of ``a - b`` and its
    first ``COUNTEREXAMPLE_CAP`` entries, then the same for ``b - a``.

    The smaller array is looked up in the larger one, so the work is the
    smaller array's size times a binary search, plus the cap.
    """
    swap = a.size > b.size
    small, large = (b, a) if swap else (a, b)
    pos = np.searchsorted(large, small)
    hit = pos < large.size
    hit[hit] = large[pos[hit]] == small[hit]
    common = int(np.count_nonzero(hit))
    small_only = small[~hit][:COUNTEREXAMPLE_CAP]
    # at most ``common`` hits come before the cap-th entry that is no hit
    head = min(large.size, COUNTEREXAMPLE_CAP + common)
    found = pos[hit]
    free = np.ones(head, dtype=bool)
    free[found[:found.searchsorted(head)]] = False
    large_only = large[:head][free][:COUNTEREXAMPLE_CAP]
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


def _codes(spec: SweepSpec) -> int:
    """The codes a sweep of ``spec`` searches: every member's tensors."""
    algebra = spec.algebra
    return algebra.field.q ** (_lead(algebra) + algebra.dim ** 2)


class _Planned(NamedTuple):
    """A sweep whose systems are built, as ``{side: system}``, and cut into
    the blocks of ``task``."""

    spec: SweepSpec
    sides: dict
    task: tuple


def _plan_sweep(spec: SweepSpec) -> _Planned:
    """Build the sides of a sweep of ``spec`` and cut its solve into blocks.

    The selectors' equations are replayed once, on the algebra or on a
    family's symbolic member over a ring whose leading variables are its
    parameters, so a code is the member's index times ``q^(n^2)`` plus the
    tensor's encoding.  A plain algebra is the one member of no parameters.
    """
    algebra = spec.algebra
    n = algebra.dim
    space = tensor_count(algebra.field, n)
    if space > MAX_SWEEP:  # per member, whatever the family's size
        raise SweepTooLarge(space, MAX_SWEEP)
    if spec.chunk < 1:
        raise InputError("chunk must be positive")
    if spec.limit is not None and spec.limit < 0:
        raise InputError("limit must be >= 0")
    lead = _lead(algebra)
    ring = PolyRing(algebra.field, lead + n * n)
    symbolic = algebra.symbolic(ring) if lead else algebra
    built = {}

    def polys(name):
        if name not in built:
            built[name] = build_selector_system(symbolic, name, ring)
        return built[name]

    domain = [] if spec.domain is None else polys(spec.domain)

    def system(name):
        return compile_polys(ring, [*polys(name), *domain])

    sides = {"predicate": system(spec.predicate)}
    if spec.classifier is not None:
        sides["classifier"] = system(spec.classifier)
    if spec.domain is not None:
        sides["domain"] = compile_polys(ring, domain)
    return _Planned(spec, sides, _blocks(sides, _codes(spec), spec.chunk))


def _finish(planned: _Planned, workers: int) -> list[SolutionReport]:
    """Solve a planned sweep's blocks and report on every member, in
    parameter order: each side's ascending solutions are cut at the
    multiples of ``q^(n^2)`` into one slice per member.  Each report's
    ``duration_ms`` is its share of the solve."""
    spec, sides, task = planned
    algebra = spec.algebra
    members = algebra.members() if _lead(algebra) else [algebra]
    space = tensor_count(algebra.field, algebra.dim)
    t0 = time.perf_counter()
    found = _join(sides, _codes(spec), task, _run(task, workers))
    duration_ms = (time.perf_counter() - t0) * 1000.0 / len(members)
    cuts = np.arange(len(members) + 1, dtype=np.uint64) * np.uint64(space)
    bounds = {side: codes.searchsorted(cuts) for side, codes in found.items()}

    def part(side, k):
        codes = found[side][bounds[side][k]:bounds[side][k + 1]]
        return codes - np.uint64(k * space) if k else codes

    return [
        _report(spec, member, part("predicate", k),
                part("classifier", k) if "classifier" in found else None,
                space if spec.domain is None else part("domain", k).size,
                duration_ms)
        for k, member in enumerate(members)
    ]


def _report(spec: SweepSpec, algebra, pred, cls, total: int,
            duration_ms: float) -> SolutionReport:
    """The report on ``algebra`` from its ascending solution arrays."""
    f = algebra.field
    n = algebra.dim
    classifier_count = agreement = None
    diff = [(0, pred[:0]), (0, pred[:0])]
    if cls is not None:
        classifier_count = int(cls.size)
        diff = _sorted_diff(pred, cls)
        agreement = not diff[0][0] and not diff[1][0]
    (pred_only_count, pred_only), (class_only_count, class_only) = diff

    candidates = sorted(
        [(code, True) for code in pred_only.tolist()]
        + [(code, False) for code in class_only.tolist()]
    )[:COUNTEREXAMPLE_CAP]
    counterexamples = [
        {
            "encoding": code,
            "tensor": Tensor2.decode(f, n, code).literal(),
            "predicate": in_pred,
            "classifier": not in_pred,
        }
        for code, in_pred in candidates
    ]

    params = algebra.params.as_dict() if algebra.params else {}
    return SolutionReport(
        claim=spec.claim,
        predicate=spec.predicate,
        classifier=spec.classifier,
        field=f.literal(),
        algebra=algebra.label,
        params=params,
        total=int(total),
        predicate_count=int(pred.size),
        classifier_count=classifier_count,
        pred_only_count=pred_only_count,
        class_only_count=class_only_count,
        agreement=agreement,
        counterexamples=counterexamples,
        duration_ms=duration_ms,
        solutions=(
            pred[:spec.limit].tolist() if spec.keep_solutions else None
        ),
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
