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

Sweeps are deterministic: a compiled system without polys is the whole
space and is built in the calling process without a kernel call.  A sweep
larger than its ``chunk`` runs every other compiled system in the variable
order :func:`baxter._kernel.plan` picks for it, cut into a fixed number of
equal ranges of that order's search codes whatever the worker count; each
range returns its survivors as tensor encodings, and the joined ranges are
sorted once (unless the order is natural, where they already ascend), so
the report is identical for any worker count, chunk size or variable
order.  The chosen orders and their estimated costs go to the ``baxter``
logger at DEBUG.  With ``workers > 1`` (default from the ``YBE_WORKERS``
environment variable) the calling process and ``workers - 1`` helper
processes, started on first use and kept for later sweeps, share the
ranges; a worker count above the number of ranges is cut to it.  A list
of sweeps (a claim's rows) is shared the same way, one whole sweep per
item, as long as each fits its ``chunk``; a larger one is still cut into
ranges.  The two sides are compared as sorted arrays: the smaller is
looked up in the larger, and only the first ``COUNTEREXAMPLE_CAP``
disagreements of each side are materialised.
"""
from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler

import numpy as np

from . import bialgebra, ybe
from ._kernel import CompiledSystem, compile_polys, plan, solutions_in_range
from ._poly import PolyRing
from .algebra import AssocAlgebra, LieAlgebra, StructureConstants
from .errors import HelperExited, InputError, SweepTooLarge
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


def _family_params(algebra, name: str, *attrs):
    params = getattr(algebra, "params", None)
    values = []
    for attr in attrs:
        v = getattr(params, attr, None) if params is not None else None
        if v is None:
            raise InputError(
                f"selector {name!r} needs an algebra with a "
                f"{'/'.join(attrs)} parameterization"
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
        alpha, beta = _family_params(algebra, name, "alpha", "beta")
        return ybe.ab_symmetric_equations(
            named_view(kt), const(alpha), const(beta)
        )
    if name == "prop16-case":
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
            alpha, beta = _family_params(algebra, name, "alpha", "beta")
            return list(
                ybe.ab_printed_system(nc, const(alpha), const(beta))
            )
        beta, delta = _family_params(algebra, name, "beta", "delta")
        return list(ybe.bd_printed_system(nc, const(beta), const(delta)))
    if name == "im-and-alpha-beta-symmetric":
        alpha, beta = _family_params(algebra, name, "alpha", "beta")
        return _im_polys(kt) + [
            bialgebra.ab_triangular_condition(nc, const(alpha), const(beta))
        ]
    beta, delta = _family_params(algebra, name, "beta", "delta")
    condition = {
        "bd-printed-coboundary": bialgebra.bd_coboundary_condition,
        "bd-printed-triangular": bialgebra.bd_triangular_condition,
    }[name]
    return [condition(nc, const(beta), const(delta), const(field.one()))]


def build_selector_system(algebra, name: str, ring: PolyRing):
    """Symbolic polynomials whose common zeros are the selector's members:
    its equations on the tensor of the ring's variables."""
    _check_selector(algebra, name)
    n = algebra.dim
    if ring.nvars != n * n:
        raise InputError(
            f"ring has {ring.nvars} variables, expected {n * n}"
        )
    kt = Tensor2(
        ring, n, [[ring.var(i * n + j) for j in range(n)] for i in range(n)]
    )
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


# A sweep larger than ``chunk`` is cut into this many equal encoding ranges
# whatever the worker count, and the ranges' results are joined in order.
_BLOCKS = 32
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
# items are whole sweeps, each within one chunk.
def _item_count(task) -> int:
    return len(task) if isinstance(task, list) else len(task[1]) - 1


def _solve_item(task, index: int):
    if isinstance(task, list):
        return sweep(task[index])
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

    A task is the blocks of one sweep, or a list of whole sweeps that each
    fit one chunk.  The caller hands it to ``workers - 1`` helpers; they and
    the caller then take item indices off one shared counter until none is
    left, so the caller never idles while items remain, and the results
    come back in index order.  Helpers reply item by item.  Once the caller
    has no item left, it computes an item that is still missing itself
    whenever no reply comes within twice the time its own items took on
    average, so a helper that the machine stalls holds up the task by about
    two items, not by its whole stall.  The counter and every reply carry
    the task's number, so a late helper or a late reply never mixes into a
    later task.  An item that fails in a helper is run again in the caller,
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
            start, mine = time.perf_counter(), 0
            while (index := _take(self._counter, tag, nitems)) is not None:
                results[index] = _solve_item(task, index)
                mine += 1
            elapsed = time.perf_counter() - start
            patience = 2 * elapsed / mine if mine else 0.01
            while None in results:
                if not collect(patience):
                    index = results.index(None)
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


def _solve(sides: dict, total: int, chunk: int, workers: int) -> dict:
    """Ascending solution arrays over all ``total`` encodings, one for each
    ``{side: system}`` entry; sides with equal systems share one solve.

    A system without polys is the whole space and needs no kernel call.
    A sweep larger than ``chunk`` runs every other system in the variable
    order :func:`baxter._kernel.plan` picks for it, cut into ``_BLOCKS``
    ranges of that system's search codes; each range comes back as
    encodings, and the joined ranges are sorted unless the order is
    natural.
    """
    shared: dict = {}  # system -> the sides it serves, in order
    for side, system in sides.items():
        shared.setdefault(system, []).append(side)
    found = {system: np.arange(total, dtype=np.uint64)
             for system in shared if not system.polys}
    systems = [system for system in shared if system.polys]
    if systems and total <= chunk:
        parts = [_solve_block((systems, (0, total), chunk), 0)]
        runs = systems
    elif systems:
        planned = [plan(system) for system in systems]
        _LOG.debug("variable order: %s", "; ".join(
            f"{'/'.join(shared[system])} {run.var_order or 'natural'},"
            f" estimated cost natural {natural:.3g} greedy {greedy:.3g}"
            for system, (run, natural, greedy) in zip(systems, planned)
        ))
        runs = [run for run, _, _ in planned]
        bounds = tuple(total * k // _BLOCKS for k in range(_BLOCKS + 1))
        task = (runs, bounds, chunk)
        workers = min(workers, _BLOCKS)  # a participant without a block idles
        if workers == 1:
            parts = [_solve_block(task, index) for index in range(_BLOCKS)]
        else:
            with _HELPERS_LOCK:
                parts = _helpers(workers - 1).run(task, workers - 1)
    for i, system in enumerate(systems):
        joined = np.concatenate([part[i] for part in parts])
        if runs[i].var_order is not None:
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


def sweep(spec: SweepSpec) -> SolutionReport:
    """Run the sweep described by ``spec`` over the whole tensor space,
    or over ``spec.domain`` when one is named."""
    algebra = spec.algebra
    f = algebra.field
    n = algebra.dim
    space = tensor_count(f, n)
    if space > MAX_SWEEP:
        raise SweepTooLarge(space, MAX_SWEEP)
    if spec.chunk < 1:
        raise InputError("chunk must be positive")
    if spec.limit is not None and spec.limit < 0:
        raise InputError("limit must be >= 0")
    ring = PolyRing(f, n * n)
    built = {}

    def polys(name):
        if name not in built:
            built[name] = build_selector_system(algebra, name, ring)
        return built[name]

    domain = [] if spec.domain is None else polys(spec.domain)

    def system(name):
        return compile_polys(ring, [*polys(name), *domain])

    sides = {"predicate": system(spec.predicate)}
    if spec.classifier is not None:
        sides["classifier"] = system(spec.classifier)
    if spec.domain is not None:
        sides["domain"] = compile_polys(ring, domain)
    workers = resolve_workers(spec.workers)
    t0 = time.perf_counter()
    found = _solve(sides, space, spec.chunk, workers)
    pred, cls = found["predicate"], found.get("classifier")
    total = space if spec.domain is None else int(found["domain"].size)
    duration_ms = (time.perf_counter() - t0) * 1000.0

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
        total=total,
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


def _sweep_all(specs: list, workers: int | None = None) -> list:
    """The reports of ``sweep(spec)`` for every spec, in order.

    With more than one worker, the sweeps whose space fits their ``chunk``
    go to the helpers as one task, one whole sweep at one worker per item;
    each other sweep then runs here, cut into blocks over the helpers.
    """
    workers = resolve_workers(workers)
    small = [i for i, spec in enumerate(specs)
             if tensor_count(spec.algebra.field, spec.algebra.dim)
             <= spec.chunk]
    reports = [None] * len(specs)
    if workers > 1 and len(small) > 1:
        task = [replace(specs[i], workers=1) for i in small]
        count = min(workers, len(task)) - 1
        with _HELPERS_LOCK:
            done = _helpers(count).run(task, count)
        for i, report in zip(small, done):
            reports[i] = report
    return [sweep(spec) if report is None else report
            for spec, report in zip(specs, reports)]


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
