"""Sweeps: determinism, reports, ledger, selectors, worker resolution."""
import json
import logging

import numpy as np
import pytest

from baxter import (
    DiscrepancyLedger,
    SELECTOR_NAMES,
    SweepSpec,
    Tensor2,
    enumerate_tensors,
    is_cybe_solution,
    is_strongly_symmetric,
    make_dim2,
    make_family_ab,
    make_family_bd,
    build_selector_system,
    compile_selector,
    make_matrix_algebra,
    resolve_workers,
    selector_predicate,
    strong_symmetric_enumerate,
    sweep,
    tensor_count,
)
from baxter._kernel import solutions_in_range
from baxter.errors import InputError, SweepTooLarge
from baxter.search import COUNTEREXAMPLE_CAP, _sorted_diff


def test_tensor_count(f2, f4, f8):
    assert tensor_count(f2, 3) == 512
    assert tensor_count(f4, 3) == 4 ** 9
    assert tensor_count(f8, 2) == 8 ** 4


def test_enumerate_tensors_order_and_count(f2):
    seen = [r.encode() for r in enumerate_tensors(f2, 2)]
    assert seen == list(range(16))


def test_enumerate_tensors_guards_size(f8):
    with pytest.raises(SweepTooLarge):
        list(enumerate_tensors(f8, 5))


def test_strong_enumerate_equals_filter(f2, f4):
    for f, dim in ((f2, 2), (f2, 3), (f4, 2)):
        direct = sorted(
            r.encode() for r in enumerate_tensors(f, dim)
            if is_strongly_symmetric(r)
        )
        fast = [r.encode() for r in strong_symmetric_enumerate(f, dim)]
        assert fast == direct


def test_selector_names_frozen():
    assert SELECTOR_NAMES == (
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


def test_selector_rejects_unknown(f2):
    L = make_dim2(f2, "abelian")
    with pytest.raises(InputError) as exc:
        selector_predicate(L, "does-not-exist")
    assert "cybe" in str(exc.value)


def test_selector_kind_checks(f2):
    L = make_dim2(f2, "abelian")
    A = make_matrix_algebra(f2, 2)
    with pytest.raises(InputError):
        selector_predicate(L, "qybe")  # qybe needs an associative algebra
    with pytest.raises(InputError):
        selector_predicate(A, "cybe")  # cybe needs a Lie algebra
    with pytest.raises(InputError):
        selector_predicate(L, "alpha-beta-symmetric")  # needs ab params


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("YBE_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("YBE_WORKERS", "6")
    assert resolve_workers(None) == 6
    assert resolve_workers(2) == 2  # explicit beats environment
    monkeypatch.setenv("YBE_WORKERS", "zero")
    with pytest.raises(InputError):
        resolve_workers(None)
    with pytest.raises(InputError):
        resolve_workers(0)


def test_sweep_report_contract_keys(f2):
    L = make_family_ab(f2, f2.zero(), f2.zero())
    rep = sweep(SweepSpec(algebra=L, predicate="cybe",
                          classifier="alpha-beta-symmetric"))
    d = rep.to_dict()
    for key in (
        "claim", "field", "algebra", "params", "total", "predicate_count",
        "classifier_count", "diff_pred_only", "diff_class_only",
        "counterexamples", "duration_ms",
    ):
        assert key in d
    assert d["total"] == 512
    assert d["predicate_count"] == 56
    assert d["classifier_count"] == 32
    assert d["diff_pred_only"] == 24
    assert d["diff_class_only"] == 0
    assert len(d["counterexamples"]) == 16  # capped
    ce = d["counterexamples"][0]
    assert set(ce) == {"encoding", "tensor", "predicate", "classifier"}
    # counterexamples are ascending by encoding
    encs = [c["encoding"] for c in d["counterexamples"]]
    assert encs == sorted(encs)


def test_sweep_canonical_json_drops_duration(f2):
    L = make_dim2(f2, "nonabelian")
    rep = sweep(SweepSpec(algebra=L, predicate="cybe"))
    canon = json.loads(rep.canonical_json())
    assert "duration_ms" not in canon
    assert "duration_ms" in rep.to_dict()


def test_sweep_deterministic_across_workers_and_chunks(f4):
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    reports = [
        sweep(SweepSpec(algebra=L, predicate="cybe",
                        classifier="prop16-case",
                        workers=w, chunk=c))
        for w, c in ((1, 1 << 20), (1, 777), (8, 1 << 12), (3, 4099))
    ]
    canon = {r.canonical_json() for r in reports}
    assert len(canon) == 1
    assert reports[0].predicate_count == 1408


def test_sweep_keep_solutions(f2):
    L = make_dim2(f2, "nonabelian")
    rep = sweep(SweepSpec(algebra=L, predicate="cybe", keep_solutions=True))
    assert rep.solutions is not None
    assert len(rep.solutions) == rep.predicate_count == 8
    pred = selector_predicate(L, "cybe")
    for code in rep.solutions:
        assert pred(Tensor2.decode(f2, 2, code))


def test_sweep_guards_size(f8):
    with pytest.raises(SweepTooLarge):
        sweep(SweepSpec(algebra=_big_algebra(f8), predicate="qybe"))


def _big_algebra(f8):
    from baxter import make_matrix_algebra

    return make_matrix_algebra(f8, 3)  # 8^81 candidates


def test_sweep_agreement_flag(f2):
    L = make_family_bd(f2, f2.one(), f2.one())
    rep = sweep(SweepSpec(algebra=L, predicate="cybe",
                          classifier="prop16-case"))
    assert rep.agreement is True
    assert rep.pred_only_count == rep.class_only_count == 0
    rep2 = sweep(SweepSpec(algebra=make_family_ab(f2, f2.zero(), f2.zero()),
                           predicate="cybe",
                           classifier="alpha-beta-symmetric"))
    assert rep2.agreement is False


def test_ledger_records_and_caps(f2):
    L = make_family_ab(f2, f2.zero(), f2.zero())
    rep = sweep(SweepSpec(algebra=L, predicate="cybe",
                          classifier="alpha-beta-symmetric", claim="T"))
    ledger = DiscrepancyLedger()
    ledger.record_report(rep)
    assert not ledger.is_empty()
    assert len(ledger) == 16  # capped per claim/params
    rows = ledger.to_list()
    assert rows[0]["claim"] == "T"
    assert {"claim", "field", "params", "encoding", "tensor",
            "predicate", "classifier"} <= set(rows[0])
    lines = ledger.to_json_lines().splitlines()
    assert len(lines) == 16
    assert json.loads(lines[0])["encoding"] == rows[0]["encoding"]


def test_ledger_empty(f2):
    ledger = DiscrepancyLedger()
    assert ledger.is_empty()
    assert ledger.to_json_lines() == ""
    assert ledger.to_list() == []


def test_sweep_qybe_matrix_algebra(f2):
    A = make_matrix_algebra(f2, 2)
    rep = sweep(SweepSpec(algebra=A, predicate="qybe",
                          classifier="strongly-symmetric"))
    assert rep.total == 65536
    assert rep.classifier_count == 16
    assert rep.class_only_count == 0  # strong implies QYBE
    assert rep.predicate_count > 16


def test_sweep_symmetric_selector_counts(f2):
    L = make_dim2(f2, "nonabelian")
    rep = sweep(SweepSpec(algebra=L, predicate="symmetric"))
    assert rep.predicate_count == 8  # q^(n(n+1)/2)
    rep = sweep(SweepSpec(algebra=L, predicate="im-one-minus-tau"))
    assert rep.predicate_count == 2  # q^(n(n-1)/2)


def test_sweep_keep_solutions_limit(f2):
    L = make_family_ab(f2, f2.zero(), f2.zero())
    full = sweep(SweepSpec(algebra=L, predicate="cybe", keep_solutions=True))
    capped = sweep(SweepSpec(algebra=L, predicate="cybe",
                             keep_solutions=True, limit=3))
    assert capped.solutions == full.solutions[:3]
    assert capped.predicate_count == full.predicate_count == 56


def test_sweep_memory_bounded_by_chunk(f8):
    # A frontier entry is an 8-byte code plus one digit byte per variable,
    # and one expansion step holds at most ``chunk`` of them; the factor 3
    # covers the step's temporaries (index arrays, pruned copies, pending
    # halves).  The 32,768 solutions are held twice while the ranges are
    # joined.  Without the halving, a range's 65,536-entry frontier would
    # pass this bound.
    import tracemalloc

    L = make_family_ab(f8, f8.one(), f8.one())
    chunk = 1 << 14
    tracemalloc.start()
    try:
        small = sweep(SweepSpec(algebra=L, predicate="cybe", chunk=chunk,
                                workers=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * chunk * (9 + 8) + 2 * 8 * 32768
    whole = sweep(SweepSpec(algebra=L, predicate="cybe", chunk=1 << 20,
                            workers=1))
    assert small.canonical_json() == whole.canonical_json()


def test_kernel_memory_bounded_by_chunk_on_qybe(f2):
    # The bound of test_sweep_memory_bounded_by_chunk on the kernel alone.
    # A level solved on the parent prefixes holds one entry per term and
    # prefix, and QYBE levels carry the most terms: the linear level of
    # M2's 14th variable has 28.  Halving only by the q children of a
    # prefix would peak at about 0.58 MB here.
    import tracemalloc

    system = compile_selector(make_matrix_algebra(f2, 2), "qybe")
    whole = solutions_in_range(system, 0, 1 << 16)
    chunk = 1 << 12
    tracemalloc.start()
    try:
        got = solutions_in_range(system, 0, 1 << 16, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * chunk * (16 + 8) + 2 * 8 * whole.size
    assert got.tolist() == whole.tolist()


def test_kernel_memory_bounded_by_chunk_on_quadratic_qybe_levels(f8):
    # The same bound on a level of polys of degree 2 in its variable,
    # evaluated on the q children of every prefix.  In this order of M2's
    # QYBE variables over GF(8), depth 14 closes only such polys, once
    # row-reduced one poly of 16 monomials.  A level that counted q entries
    # per prefix instead of q per monomial would peak at about 3.2 times
    # the bound here.
    import tracemalloc

    from baxter._kernel import _compile

    order = (15, 13, 8, 7, 6, 5, 0, 11, 10, 14, 4, 3, 9, 1, 2, 12)
    system = compile_selector(make_matrix_algebra(f8, 2), "qybe")
    system = system._replace(var_order=order)
    levels = _compile(system).levels
    assert levels[14].linear is None and levels[14].rest is not None
    whole = solutions_in_range(system, 0, 8 ** 6)
    chunk = 1 << 12
    tracemalloc.start()
    try:
        got = solutions_in_range(system, 0, 8 ** 6, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * chunk * (16 + 8) + 2 * 8 * whole.size
    assert got.tolist() == whole.tolist()


def _diff_pairs():
    rng = np.random.default_rng(7)

    def draw(size, top):
        return np.unique(rng.integers(0, top, size)).astype(np.uint64)

    many, few = draw(3000, 10 ** 4), draw(40, 10 ** 4)
    evens = np.arange(0, 200, 2, dtype=np.uint64)
    yield "empty", np.empty(0, np.uint64), many
    yield "both empty", np.empty(0, np.uint64), np.empty(0, np.uint64)
    yield "disjoint", evens, evens + np.uint64(1)
    yield "subset", many[::3], many
    yield "equal", many, many.copy()
    yield "overlap", many, np.union1d(few, many[:50])
    yield "random", draw(500, 800), draw(300, 800)


@pytest.mark.parametrize("name, a, b", list(_diff_pairs()))
def test_sorted_diff_matches_setdiff1d(name, a, b):
    for x, y in ((a, b), (b, a)):
        want = [np.setdiff1d(x, y, assume_unique=True),
                np.setdiff1d(y, x, assume_unique=True)]
        got = _sorted_diff(x, y)
        for (count, head), full in zip(got, want):
            assert count == full.size
            assert head.tolist() == full[:COUNTEREXAMPLE_CAP].tolist()


def test_sweep_with_empty_predicate_identical_across_workers_and_chunks(f4):
    # Every tensor solves CYBE for the abelian algebra, so the predicate's
    # system has no polys and is the whole space without a kernel call.
    L = make_dim2(f4, "abelian")
    canon = set()
    for workers in (1, 2):
        for chunk in (1 << 4, 1 << 6, 1 << 20):
            report = sweep(SweepSpec(
                algebra=L, predicate="cybe", classifier="symmetric",
                chunk=chunk, workers=workers, keep_solutions=True,
            ))
            canon.add(report.canonical_json())
    assert len(canon) == 1
    assert report.solutions == list(range(4 ** 4))
    assert report.class_only_count == 0
    assert report.pred_only_count == 4 ** 4 - report.classifier_count


def test_sweep_within_one_chunk_starts_no_helpers(f2, monkeypatch):
    from baxter import search

    def refuse(count):
        raise AssertionError("a sweep of total <= chunk started helpers")

    monkeypatch.setattr(search, "_helpers", refuse)
    L = make_family_ab(f2, f2.zero(), f2.zero())
    rep = sweep(SweepSpec(algebra=L, predicate="cybe", workers=2))
    assert rep.predicate_count == 56


def test_sweep_more_workers_than_cores(f4):
    # Every participant takes blocks off one shared counter; a lost or
    # doubled update would drop or repeat a block and change the report.
    import os
    import time

    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                chunk=1 << 12, keep_solutions=True)
    want = sweep(SweepSpec(workers=1, **spec)).canonical_json()
    t0 = time.perf_counter()
    for _ in range(3):
        got = sweep(SweepSpec(workers=(os.cpu_count() or 1) + 3, **spec))
        assert got.canonical_json() == want
    assert time.perf_counter() - t0 < 60


def _pin_blocks(monkeypatch, blocks=32) -> list:
    """Cut every planned sweep into ``blocks`` ranges whatever its estimated
    work; returns the list of tasks that then reach ``_Helpers.run``."""
    from baxter import search

    tasks = []
    real = search._Helpers.run

    def spy(self, task, count):
        tasks.append(task)
        return real(self, task, count)

    monkeypatch.setattr(search, "_BLOCKS", blocks)
    monkeypatch.setattr(search, "_BLOCK_WORK", 1)
    monkeypatch.setattr(search._Helpers, "run", spy)
    return tasks


def _block_tasks(tasks) -> list:
    return [task for task in tasks if isinstance(task, tuple)]


def test_sweep_forks_no_more_helpers_than_blocks(f4, monkeypatch):
    # With 4 ranges, a 6-worker sweep has work for the caller and 3 helpers.
    from baxter import search

    asked = []
    real = search._helpers

    def spy(count):
        asked.append(count)
        return real(count)

    tasks = _pin_blocks(monkeypatch, blocks=4)
    monkeypatch.setattr(search, "_helpers", spy)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                chunk=1 << 12, keep_solutions=True)
    got = sweep(SweepSpec(workers=6, **spec)).canonical_json()
    assert asked and max(asked) <= 3
    assert [len(bounds) - 1 for _, bounds, _ in _block_tasks(tasks)] == [4]
    assert got == sweep(SweepSpec(workers=1, **spec)).canonical_json()


def test_sweep_helper_failure_raises_and_pool_recovers(f4, monkeypatch):
    import os
    import time

    from baxter import search

    search._helpers(0).close()  # helpers forked below inherit the patch
    caller = os.getpid()
    real = search._solve_block

    def broken(task, index):
        if os.getpid() != caller:
            raise ValueError("block failed in a helper")
        time.sleep(0.02)  # leave blocks for the helper to take
        return real(task, index)

    tasks = _pin_blocks(monkeypatch)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", chunk=1 << 12)
    with monkeypatch.context() as patch:
        patch.setattr(search, "_solve_block", broken)
        with pytest.raises(RuntimeError, match="block failed in a helper"):
            sweep(SweepSpec(workers=2, **spec))
    assert len(_block_tasks(tasks)) == 1
    assert not search._HELPERS._procs  # stopped: stale replies cannot leak
    # the next sweep forks unpatched helpers
    assert (sweep(SweepSpec(workers=2, **spec)).canonical_json()
            == sweep(SweepSpec(workers=1, **spec)).canonical_json())
    assert len(_block_tasks(tasks)) == 2


def test_sweep_helper_that_dies_raises_and_cli_exits_2(f4, monkeypatch,
                                                      capsys):
    import os
    import time

    from baxter import cli, search
    from baxter.errors import HelperExited

    search._helpers(0).close()  # helpers forked below inherit the patch
    caller = os.getpid()
    real = search._solve_block

    def dying(task, index):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.02)  # leave blocks for the helper to take
        return real(task, index)

    tasks = _pin_blocks(monkeypatch)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", chunk=1 << 12)
    with monkeypatch.context() as patch:
        patch.setattr(search, "_solve_block", dying)
        with pytest.raises(HelperExited, match="exited with code 3"):
            sweep(SweepSpec(workers=2, **spec))
        assert not search._HELPERS._procs  # stopped: the next sweep forks anew
        assert cli.main([
            "enumerate", "--field", "gf(2^2;0b111)", "--family", "bd",
            "--beta", "0x0", "--delta", "0x2", "--predicate", "cybe",
            "--chunk", "4096", "--workers", "2",
        ]) == 2
        assert "exited with code 3" in capsys.readouterr().err
    assert len(_block_tasks(tasks)) == 2
    assert (sweep(SweepSpec(workers=2, **spec)).canonical_json()
            == sweep(SweepSpec(workers=1, **spec)).canonical_json())
    assert len(_block_tasks(tasks)) == 3


def test_sweep_failing_in_a_helper_keeps_its_error_type(f2, monkeypatch):
    # The caller holds the first sweep until the helper has taken the
    # second, which fails; the caller runs it again and raises its error.
    import os
    import time

    from baxter import search

    L = make_dim2(f2, "abelian")
    specs = [SweepSpec(algebra=L, predicate="cybe"),
             SweepSpec(algebra=L, predicate="qybe")]  # needs associative
    with pytest.raises(InputError) as one:
        search._sweep_all(specs, workers=1)
    search._helpers(0).close()  # helpers forked below inherit the patch
    caller = os.getpid()
    real = search._sweep_item
    handed_over = []

    def hold_first(spec):
        if os.getpid() == caller and spec.predicate == "cybe":
            deadline = time.monotonic() + 10
            while (search._HELPERS._counter.value & 0xFFFFFFFF < 2
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            handed_over.append(time.monotonic() < deadline)
        return real(spec)

    monkeypatch.setattr(search, "_sweep_item", hold_first)
    with pytest.raises(InputError) as two:
        search._sweep_all(specs, workers=2)
    assert handed_over == [True]
    assert type(two.value) is type(one.value)
    assert str(two.value) == str(one.value)
    assert not search._HELPERS._procs


def test_sweep_does_not_wait_out_a_stalled_helper(f4, monkeypatch):
    # Every block a helper takes stalls for 5 s; the caller computes those
    # blocks itself once their replies are late.
    import os
    import time

    from baxter import search

    search._helpers(0).close()  # helpers forked below inherit the patch
    caller = os.getpid()
    real = search._solve_block

    def stalling(task, index):
        if os.getpid() != caller:
            time.sleep(5)
        return real(task, index)

    monkeypatch.setattr(search, "_solve_block", stalling)
    tasks = _pin_blocks(monkeypatch)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                chunk=1 << 12, keep_solutions=True)
    try:
        t0 = time.perf_counter()
        got = sweep(SweepSpec(workers=2, **spec)).canonical_json()
        assert time.perf_counter() - t0 < 2.5
    finally:
        search._helpers(0).close()  # the stalled helper still sleeps
    assert len(_block_tasks(tasks)) == 1
    assert got == sweep(SweepSpec(workers=1, **spec)).canonical_json()


def test_planned_sweep_logs_its_variable_order(f4, caplog):
    import math
    import re

    from baxter import search
    from baxter._kernel import plan

    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                keep_solutions=True)
    with caplog.at_level(logging.DEBUG, logger="baxter"):
        planned = sweep(SweepSpec(chunk=1 << 12, **spec))
        one_chunk = sweep(SweepSpec(**spec))
    lines = [r.getMessage() for r in caplog.records if r.name == "baxter"]
    assert len(lines) == 1  # only the sweep cut into ranges is planned
    assert lines[0].startswith("variable order: predicate ")
    assert "; classifier " in lines[0] and "greedy" in lines[0]
    # the summed estimate of the chosen orders, and the blocks it makes
    work = 0.0
    for name in ("cybe", "prop16-case"):
        run, natural, greedy = plan(compile_selector(L, name))
        work += natural if run.var_order is None else greedy
    found = re.search(r"; estimated work (\S+) in (\d+) blocks$", lines[0])
    assert found and float(found[1]) == pytest.approx(work, rel=1e-2)
    assert int(found[2]) == min(search._BLOCKS,
                                math.ceil(work / search._BLOCK_WORK)) == 1
    assert planned.canonical_json() == one_chunk.canonical_json()
    assert "order" not in planned.canonical_json()
    assert "blocks" not in planned.canonical_json()


def test_sweep_cut_into_blocks_by_its_estimated_work(monkeypatch):
    # Every tensor solves CYBE for the abelian dim-3 algebra over GF(5), so
    # the only system with polys is the classifier's; its 5**9 codes exceed
    # the chunk, but its estimated work is below one block's.
    import os

    from baxter import field, parse_algebra, search

    L = parse_algebra("field gf(5)\ndim 3\n")
    spec = dict(algebra=L, predicate="cybe", classifier="strongly-symmetric",
                keep_solutions=True, limit=16)
    assert tensor_count(field(5), 3) > SweepSpec(algebra=L,
                                                 predicate="cybe").chunk
    caller = os.getpid()
    calls = []
    real = search.solutions_in_range

    def counting(system, start, stop, chunk, **kwargs):
        if os.getpid() == caller:
            calls.append((system, start, stop))
        return real(system, start, stop, chunk, **kwargs)

    def refuse(count):
        raise AssertionError("a one-block sweep started helpers")

    monkeypatch.setattr(search, "solutions_in_range", counting)
    canon = set()
    with monkeypatch.context() as patch:
        patch.setattr(search, "_helpers", refuse)
        for workers in (1, 2):
            calls.clear()
            canon.add(sweep(SweepSpec(workers=workers, **spec))
                      .canonical_json())
            assert len(calls) == 1
            assert calls[0][1:] == (0, 5 ** 9)
    # with the work per block patched down, the same sweep takes _BLOCKS
    tasks = _pin_blocks(monkeypatch)
    calls.clear()
    canon.add(sweep(SweepSpec(workers=1, **spec)).canonical_json())
    assert len(calls) == search._BLOCKS
    assert [stop for _, _, stop in calls][-1] == 5 ** 9
    canon.add(sweep(SweepSpec(workers=2, **spec)).canonical_json())
    assert [len(bounds) - 1 for _, bounds, _ in _block_tasks(tasks)] == [
        search._BLOCKS]
    assert len(canon) == 1
    report = json.loads(canon.pop())
    assert report["predicate_count"] == 5 ** 9
    assert report["classifier_count"] == 125


@pytest.mark.parametrize("blocks", [3, 5, 7, 32])
def test_planned_blocks_are_runs_of_whole_subtrees(f2, f4, f8, monkeypatch,
                                                   blocks):
    # Each bound is a multiple of q**(N - d), for the shallowest depth d
    # with at least 8 subtrees per block, so the kernel counts a block
    # without growing past d; the blocks cover 0 to total and differ by at
    # most one subtree in eight.
    from dataclasses import replace

    from baxter import field, parse_algebra, search
    from baxter.algebra import Family

    f5 = field(5)
    specs = [
        SweepSpec(algebra=Family("bd", f2), predicate="cybe"),
        SweepSpec(algebra=make_family_ab(f4, f4.one(), f4.one()),
                  predicate="cybe", classifier="symmetric"),
        SweepSpec(algebra=parse_algebra("field gf(5)\ndim 3\n"),
                  predicate="symmetric", classifier="strongly-symmetric"),
        SweepSpec(algebra=make_dim2(f5, "nonabelian"), predicate="cybe",
                  classifier="symmetric"),
        SweepSpec(algebra=make_family_ab(f8, f8.one(), f8.one()),
                  predicate="cybe", classifier="alpha-beta-symmetric"),
    ]
    _pin_blocks(monkeypatch, blocks=blocks)
    for spec in specs:
        algebra = spec.algebra
        q, n = algebra.field.q, search._lead(algebra) + algebra.dim ** 2
        total = q ** n
        _, bounds, _ = search._plan_sweep(replace(spec, chunk=64)).task
        cut = next((d for d in range(n + 1) if q ** d >= 8 * blocks), n)
        assert len(bounds) == blocks + 1
        assert bounds[0] == 0 and bounds[-1] == total
        assert all(bound % q ** (n - cut) == 0 for bound in bounds), (q, n)
        sizes = np.diff(bounds)
        assert 8 * (sizes.max() - sizes.min()) <= sizes.min(), (q, sizes)


def test_counted_side_in_odd_characteristic_over_pinned_blocks(
        monkeypatch):
    # Over GF(5) the abelian dim-3 algebra has 5**6 = 15,625 symmetric
    # tensors, more than the chunk, so that side is counted, block by
    # block: any block count and worker count gives the same report.
    from baxter import parse_algebra, search

    L = parse_algebra("field gf(5)\ndim 3\n")
    spec = dict(algebra=L, predicate="symmetric",
                classifier="strongly-symmetric", chunk=4096)
    want = sweep(SweepSpec(workers=1, **spec)).canonical_json()
    report = json.loads(want)
    assert report["predicate_count"] == 5 ** 6 > spec["chunk"]
    assert report["classifier_count"] == 125
    counted = []
    real = search.solutions_in_range

    def spy(system, start, stop, chunk, **kwargs):
        if "buckets" in kwargs:
            counted.append((start, stop))
        return real(system, start, stop, chunk, **kwargs)

    for blocks in (3, 5, 7):
        with monkeypatch.context() as patch:
            tasks = _pin_blocks(patch, blocks=blocks)
            patch.setattr(search, "solutions_in_range", spy)
            counted.clear()
            assert sweep(SweepSpec(workers=1, **spec)).canonical_json() \
                == want
            assert len(counted) >= blocks
            search._helpers(0).close()  # helpers forked below are unpatched
            assert sweep(SweepSpec(workers=2, **spec)).canonical_json() \
                == want
            # the sides' blocks, then those of the conjoined count
            assert [len(bounds) - 1 for _, bounds, _
                    in _block_tasks(tasks)] == [blocks, blocks]


# -- a family swept as one system ------------------------------------------

_GENERIC = [name for name in SELECTOR_NAMES
            if name not in ("qybe", "prop16-case")]


def _family_vs_members(f, kind, predicate, classifier, domain):
    """One family sweep against a sweep of each member that
    ``make_family_*`` builds: equal reports, or the same error."""
    from dataclasses import replace

    from baxter import search
    from baxter.algebra import Family

    make = {"ab": make_family_ab, "bd": make_family_bd}[kind]
    spec = SweepSpec(algebra=Family(kind, f), predicate=predicate,
                     classifier=classifier, domain=domain,
                     keep_solutions=True, limit=64)
    try:
        want = [sweep(replace(spec, algebra=make(f, x, y))).canonical_json()
                for x in f.elements() for y in f.elements()]
    except InputError as exc:  # the selector needs the other family
        with pytest.raises(InputError, match=str(exc)):
            search._sweep_all([spec], workers=1)
        return
    (got,) = search._sweep_all([spec], workers=1)
    assert [r.canonical_json() for r in got] == want


@pytest.mark.parametrize("kind", ["ab", "bd"])
@pytest.mark.parametrize("q", [2, 4])
def test_family_sweep_reports_each_member(kind, q):
    # Every selector that does not branch on the parameter values, as
    # predicate against the CYBE oracle, the domains the claims use taking
    # turns: each member's slice of the family's solve is its own sweep.
    from baxter import field

    f = field(2) if q == 2 else field(2, 2, 0b111)
    domains = (None, "im-one-minus-tau", "strongly-symmetric")
    for i, name in enumerate(_GENERIC):
        _family_vs_members(f, kind, name, "cybe", domains[i % 3])


def test_family_sweep_reports_each_member_over_gf8(f8):
    # Thm2.1-II over GF(8): 64 members of 8**9 tensors each
    _family_vs_members(f8, "ab", "triangular",
                       "im-and-alpha-beta-symmetric", "im-one-minus-tau")


def test_symbolic_parameters_are_refused_where_values_branch(f4):
    # A selector that branches on the parameter values cannot take a
    # family's symbolic member: Poly.is_zero() on a parameter is False, so
    # prop16-case would silently build the case-III/IV equations.
    from baxter import search, ybe
    from baxter._poly import PolyRing
    from baxter.algebra import Family

    ring = PolyRing(f4, 11)
    bd = Family("bd", f4).symbolic(ring)
    ab = Family("ab", f4).symbolic(ring)
    with pytest.raises(InputError, match="field values"):
        ybe.bd_case_of(ring.var(0), ring.var(1))
    with pytest.raises(InputError, match="field value for beta"):
        search._family_params(bd, "prop16-case", "beta", "delta")
    with pytest.raises(InputError, match="field value for alpha"):
        selector_predicate(ab, "alpha-beta-symmetric")
    spec = SweepSpec(algebra=Family("bd", f4), predicate="cybe",
                     classifier="prop16-case")
    with pytest.raises(InputError, match="field value for beta"):
        search._sweep_all([spec], workers=1)
    # the selectors that do not branch take the ring variables
    assert build_selector_system(bd, "bd-printed-coboundary", ring)


def test_family_sweep_guards_each_member_space(monkeypatch):
    # A GF(16) family has 16**11 = 2**44 codes, above MAX_SWEEP but within
    # uint64; its members have 16**9, so it passes the guard.
    from baxter import field, search
    from baxter.algebra import Family
    from baxter.search import MAX_SWEEP

    spec = SweepSpec(algebra=Family("ab", field(2, 4, 0b10011)),
                     predicate="cybe")
    assert search._codes(spec) == 16 ** 11 > MAX_SWEEP

    class Planned(Exception):
        pass

    def stop(sides, total, chunk, members, listed=()):
        raise Planned(total)

    monkeypatch.setattr(search, "_task", stop)
    with pytest.raises(Planned) as past:
        search._plan_sweep(spec)
    assert past.value.args == (16 ** 11,)
    monkeypatch.setattr(search, "MAX_SWEEP", 16 ** 9 - 1)
    with pytest.raises(SweepTooLarge):
        search._plan_sweep(spec)
    with pytest.raises(InputError, match="not a family"):
        sweep(spec)


_AB11 = ("dim 3\nbracket 1 2 -> 3:0x1\nbracket 2 3 -> 1:0x1\n"
         "bracket 3 1 -> 2:0x1\n")


def _reports(spec) -> list:
    from baxter import search

    (reports,) = search._sweep_all([spec], workers=1)
    return [r.canonical_json() for r in reports]


def test_equal_algebras_built_apart_share_the_cached_systems(
        f4, tmp_path, fresh_selector_cache):
    # Each selector's system is cached by the algebra's value, so an
    # algebra built again (a file loaded twice, a family member made twice)
    # finds the first one's systems and reports byte-identically.
    from baxter import load_algebra, search

    path = tmp_path / "ab11.alg"
    path.write_text(f"field {f4.literal()}\n{_AB11}", encoding="utf-8")
    zero, one = f4.zero(), f4.one()
    for make, classifier in (
        (lambda: load_algebra(str(path)), "strongly-symmetric"),
        (lambda: make_family_bd(f4, zero, one), "prop16-case"),
    ):
        first, second = make(), make()
        assert first is not second and first.sc is not second.sc
        search.compile_selector.cache_clear()
        reports = [_reports(SweepSpec(algebra=algebra, predicate="cybe",
                                      classifier=classifier))
                   for algebra in (first, second)]
        info = search.compile_selector.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        assert reports[0] == reports[1]


def test_sweeps_that_differ_report_as_cold_runs(f2, f4, tmp_path,
                                                fresh_selector_cache):
    # Each pair differs in one part of what a sweep's systems depend on.
    # Run after the first, the second sweep hits only the systems the two
    # share, and reports as it does alone on an empty cache.  A domain
    # with a parametrisation replays every selector on its tensor, so a
    # sweep within Im(1 - tau) shares no system with one of the whole
    # space.
    from dataclasses import replace

    from baxter import load_algebra, search
    from baxter.algebra import (
        Family, StructureConstants, assoc_validate, lie_validate,
    )

    zero = StructureConstants.from_terms(f2, 2, {})
    files = []  # one label, other constants: ab(1,1) and the abelian algebra
    for folder, brackets in (("ab11", _AB11), ("abelian", "dim 3\n")):
        (tmp_path / folder).mkdir()
        files.append(tmp_path / folder / "dim3.alg")
        files[-1].write_text(f"field {f4.literal()}\n{brackets}",
                             encoding="utf-8")
    triangular = SweepSpec(algebra=make_family_ab(f4, f4.one(), f4.one()),
                           predicate="triangular",
                           classifier="im-and-alpha-beta-symmetric")
    prop16 = SweepSpec(algebra=make_family_bd(f4, f4.zero(), f4.one()),
                       predicate="cybe", classifier="prop16-case")
    pairs = {  # the pair, and the second sweep's (misses, hits)
        "fields": ([SweepSpec(algebra=make_dim2(f, "nonabelian"),
                              predicate="cybe", classifier="symmetric")
                    for f in (f2, f4)], (2, 0)),
        "constants": ([SweepSpec(algebra=load_algebra(str(path)),
                                 predicate="cybe", classifier="symmetric")
                       for path in files], (2, 0)),
        "lie or associative": ([
            SweepSpec(algebra=validate(zero, label="zero"),
                      predicate="strongly-symmetric", classifier="symmetric")
            for validate in (lie_validate, assoc_validate)], (2, 0)),
        "domain": ([replace(triangular, domain="im-one-minus-tau"),
                    triangular], (2, 0)),
        "family": ([SweepSpec(algebra=Family(kind, f2), predicate="cybe",
                              classifier="strongly-symmetric")
                    for kind in ("ab", "bd")], (2, 0)),
        "prop16-case values": ([prop16, replace(
            prop16, algebra=make_family_bd(f4, f4.one(), f4.one()))],
            (2, 0)),
    }
    for name, ((first, second), lookups) in pairs.items():
        search.compile_selector.cache_clear()
        _reports(first)
        before = search.compile_selector.cache_info()
        warm = _reports(second)
        after = search.compile_selector.cache_info()
        assert (after.misses - before.misses,
                after.hits - before.hits) == lookups, name
        search.compile_selector.cache_clear()
        assert _reports(second) == warm, name


def test_sweep_all_shares_the_blocks_of_a_planned_item(f4, monkeypatch):
    # A whole sweep of more than one block comes back planned from its
    # item, and the caller then shares its blocks over the helpers.
    from baxter import search
    from baxter.algebra import Family

    specs = [
        SweepSpec(algebra=Family("ab", f4), predicate="cybe",
                  classifier="alpha-beta-symmetric"),
        SweepSpec(algebra=make_dim2(f4, "nonabelian"), predicate="cybe",
                  classifier="symmetric"),
    ]
    want = [[r.canonical_json() for r in reports]
            for reports in search._sweep_all(specs, workers=1)]
    search._helpers(0).close()  # helpers forked below inherit the patch
    tasks = _pin_blocks(monkeypatch, blocks=4)
    got = search._sweep_all(specs, workers=2)
    search._helpers(0).close()
    assert [type(task) for task in tasks] == [list, tuple]
    assert len(tasks[1][1]) - 1 == 4
    assert [[r.canonical_json() for r in reports] for reports in got] == want
    assert [len(reports) for reports in got] == [16, 1]


# -- sides past the chunk are counted ----------------------------------------


def test_dense_sweep_counts_in_bounded_memory(tmp_path, capsys):
    # Every tensor of the abelian dim-3 algebra over GF(8) solves CYBE:
    # 8**9 = 134,217,728 solutions, which the sweep counts and does not
    # hold; only the four listed ones are built.
    import tracemalloc

    from baxter import cli

    path = tmp_path / "abelian3_gf8.alg"
    path.write_text("field gf(2^3;0b1011)\ndim 3\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main([
            "enumerate", "--algebra", str(path), "--predicate", "cybe",
            "--classifier", "strongly-symmetric", "--limit", "4",
            "--format", "json", "--workers", "1",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["predicate_count"], payload["classifier_count"]) == (
        8 ** 9, 512)
    assert payload["diff_pred_only"] == 8 ** 9 - 512
    assert payload["diff_class_only"] == 0
    assert [s["encoding"] for s in payload["solutions"]] == [0, 1, 2, 3]
    assert len(payload["counterexamples"]) == COUNTEREXAMPLE_CAP
    assert peak < 16 << 20


def test_listed_side_holds_at_most_chunk_whatever_the_estimate(
        f4, tmp_path, monkeypatch):
    # With the plan's solution estimate forced to 0, every side is tried as
    # a listed one.  The 8**6 = 262,144 symmetric tensors of the abelian
    # dim-3 algebra over GF(8) (2 MB as encodings) stop one past chunk 2**10
    # and are counted.  A GF(4) bd family's 40,000 CYBE and 65,536
    # symmetric solutions come in three blocks (the plan's work estimate,
    # 2.93e6, over 1e6 per block) of 10,400 to 24,576: at chunk 2**15 one
    # process lists the first one or two and counts the rest.
    import tracemalloc
    from dataclasses import replace

    from baxter import load_algebra, search
    from baxter.algebra import Family

    path = tmp_path / "abelian3_gf8.alg"
    path.write_text("field gf(2^3;0b1011)\ndim 3\n", encoding="utf-8")
    specs = [
        SweepSpec(algebra=load_algebra(str(path)), predicate="cybe",
                  classifier="symmetric"),
        SweepSpec(algebra=Family("bd", f4), predicate="cybe",
                  classifier="symmetric"),
    ]
    want = [[r.canonical_json() for r in reports]
            for reports in search._sweep_all(specs, workers=1)]
    search._helpers(0).close()  # helpers forked below inherit the patches
    monkeypatch.setattr(search, "estimated_solutions", lambda system: 0.0)
    listed = []
    real = search._solve_block

    def spy(task, index):
        out = real(task, index)
        listed.append([piece.size if isinstance(piece, np.ndarray) else 0
                       for piece in out])
        return out

    monkeypatch.setattr(search, "_solve_block", spy)
    small = [replace(specs[0], chunk=1 << 10),
             replace(specs[1], chunk=1 << 15)]
    tracemalloc.start()
    try:
        (first,) = search._sweep_all(small[:1], workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    listed.clear()
    (family,) = search._sweep_all(small[1:], workers=1)
    # the second task counts the codes both sides share
    sides = [sizes for sizes in listed if len(sizes) == 2]
    assert [sum(sizes) for sizes in zip(*sides)] == [17120 + 10400, 20480]
    try:
        got = [first, family, *search._sweep_all(small[1:], workers=2)]
    finally:
        search._helpers(0).close()
    assert [[r.canonical_json() for r in reports]
            for reports in got] == want + want[1:]


def test_listing_past_max_listing_fails_before_it_is_built(f4, monkeypatch,
                                                          capsys):
    # Whether the predicate is listed (chunk 2**20) or counted (chunk 64),
    # a listing without a limit past MAX_LISTING fails, and a limit lists.
    from baxter import cli, search
    from baxter.errors import ListingTooLarge

    monkeypatch.setattr(search, "MAX_LISTING", 100)
    L = make_family_bd(f4, f4.zero(), f4.element(2))  # 1408 solutions
    for chunk in (64, 1 << 20):
        spec = dict(algebra=L, predicate="cybe", chunk=chunk,
                    keep_solutions=True)
        with pytest.raises(ListingTooLarge, match="1408 solutions"):
            sweep(SweepSpec(**spec))
        with pytest.raises(ListingTooLarge):
            sweep(SweepSpec(classifier="prop16-case", **spec))
        assert sweep(SweepSpec(limit=100, **spec)).solutions == sweep(
            SweepSpec(limit=100, **dict(spec, chunk=1 << 20))).solutions
    assert cli.main([
        "enumerate", "--field", "gf(2^2;0b111)", "--family", "bd",
        "--beta", "0x0", "--delta", "0x2", "--predicate", "cybe",
    ]) == 2
    assert "exceeds the guard of 100" in capsys.readouterr().err


def test_limit_lists_no_more_than_it_keeps(f4, monkeypatch):
    # With a limit and no classifier, the predicate is counted and its
    # listing is a scan that builds at most ``limit`` codes.
    from baxter import search

    sizes = []
    real = search.solutions_in_range

    def spy(system, start, stop, chunk, **kwargs):
        out = real(system, start, stop, chunk, **kwargs)
        if "buckets" not in kwargs:
            assert "limit" in kwargs, "the whole predicate was listed"
            sizes.append(out.size)
        return out

    monkeypatch.setattr(search, "solutions_in_range", spy)
    L = make_family_ab(f4, f4.one(), f4.one())
    for chunk in (1 << 10, 1 << 20):
        report = sweep(SweepSpec(algebra=L, predicate="cybe", chunk=chunk,
                                 keep_solutions=True, limit=3))
        assert report.predicate_count == 1024
        assert len(report.solutions) == 3
    assert sizes and max(sizes) <= 3


def test_counted_sides_report_like_listed_ones(f2, f4):
    # Both sides listed (chunk 2**20), or one or neither at chunk 64, where
    # the shared codes are counted as one system: the same reports,
    # counterexamples included.
    from dataclasses import replace

    from baxter import search
    from baxter.algebra import Family

    specs = [
        SweepSpec(algebra=Family("ab", f2), predicate="cybe",
                  classifier="symmetric", keep_solutions=True, limit=9),
        SweepSpec(algebra=Family("bd", f2), predicate="strongly-symmetric",
                  classifier="cybe", domain="symmetric"),
        SweepSpec(algebra=make_family_bd(f4, f4.zero(), f4.one()),
                  predicate="cybe", classifier="im-one-minus-tau",
                  keep_solutions=True),
    ]
    want = [[r.canonical_json() for r in reports]
            for reports in search._sweep_all(specs, workers=1)]
    small = [replace(spec, chunk=64) for spec in specs]
    for workers in (1, 2):
        got = search._sweep_all(small, workers=workers)
        assert [[r.canonical_json() for r in reports]
                for reports in got] == want
    assert any(r.counterexamples for reports in got for r in reports)


# ---------------------------------------------------------------------------
# parametrised domains


def _abelian(f, n):
    from baxter import lie_validate
    from baxter.algebra import StructureConstants

    return lie_validate(StructureConstants.from_terms(f, n, {}),
                        label=f"abelian{n}")


@pytest.mark.parametrize("param, fields, dims", [
    ("im-one-minus-tau",
     ((2, 1, None), (3, 1, None), (2, 2, 0b111), (5, 1, None)), (1, 2, 3)),
    ("strongly-symmetric",
     ((2, 1, None), (2, 2, 0b111), (2, 3, 0b1011)), (1, 2, 3)),
])
def test_parametrised_domain_is_the_image_of_its_codes(param, fields, dims):
    # The q^k parameter codes map to q^k distinct encodings, each selected
    # by the domain's object route: the members the full-space sweep of the
    # domain lists, ascending where the map says so.
    from baxter import field, search

    for spec in fields:
        f = field(*spec)
        assert search._parametrisation(f, param) == param
        for n in dims:
            shape = search._map(f, n, param)
            codes = np.arange(f.q ** shape.k, dtype=np.uint64)
            image = search._encodings(shape, codes, 1 << 20).tolist()
            assert len(set(image)) == f.q ** shape.k, (f, n)
            member = selector_predicate(_abelian(f, n), param)
            assert all(member(Tensor2.decode(f, n, e)) for e in image)
            full = sweep(SweepSpec(algebra=_abelian(f, n), predicate=param,
                                   keep_solutions=True))
            assert full.predicate_count == len(image), (f, n)
            assert full.solutions == sorted(image), (f, n)
            if shape.ascending:
                assert image == full.solutions, (f, n)


@pytest.mark.parametrize("make, predicate, digest", [
    (lambda f: make_dim2(f, "nonabelian"), "cybe",
     "5affbc056cb86532c54c015085e42088cde9729ddb9417095d2f5c050d7ccf45"),
    (lambda f: make_matrix_algebra(f, 2), "qybe",
     "7431d7a3841432914e6fb2f4fb44c6e28abf17e192b2104d2f2b287d0d83b0e4"),
])
def test_strongly_symmetric_domain_outside_char_2_is_conjoined(
        f3, make, predicate, digest):
    # Over GF(3), v -> v (x) v misses the tensors c v (x) v with c not a
    # square, so the sweep runs on the whole space with the domain's
    # equations conjoined, and reports byte for byte as it did before
    # domains were parametrised (digests of that report).
    import hashlib

    from baxter import search

    spec = SweepSpec(algebra=make(f3), predicate=predicate,
                     classifier="im-one-minus-tau",
                     domain="strongly-symmetric", keep_solutions=True)
    assert search._parametrisation(f3, "strongly-symmetric") is None
    assert search._codes(spec) == tensor_count(f3, spec.algebra.dim)
    report = sweep(spec)
    assert report.total == report.predicate_count == 3 ** spec.algebra.dim
    assert hashlib.sha256(
        report.canonical_json().encode()).hexdigest() == digest


def _broken_lie(f):
    """A dim-3 bracket with [e1, e1] = e2: not alternating, so v (x) v no
    longer solves CYBE identically in v."""
    from baxter.algebra import LieAlgebra, StructureConstants

    return LieAlgebra(StructureConstants.from_terms(
        f, 3, {(0, 0): {1: f.one()}}), label="broken")


def _conjoined_report(spec, monkeypatch):
    """``spec`` swept on the whole space with its domain conjoined."""
    from baxter import search

    with monkeypatch.context() as patch:
        patch.setattr(search, "_parametrisation", lambda f, domain: None)
        assert search._codes(spec) == tensor_count(spec.algebra.field,
                                                   spec.algebra.dim)
        return sweep(spec)


def test_thm03_row_fails_on_a_bracket_that_is_not_alternating(
        f4, monkeypatch, fresh_selector_cache):
    # The row pins the ascending counterexamples of the conjoined
    # full-space sweep: from the listed sides' arrays, and at chunk 1 from
    # a scan of the member's codes, over GF(4), where v -> v (x) v does not
    # keep the order of the encodings.
    from dataclasses import replace

    from baxter import claims, claim_check

    L = _broken_lie(f4)
    spec = SweepSpec(algebra=L, predicate="cybe",
                     classifier="strongly-symmetric",
                     domain="strongly-symmetric", claim="Thm0.3-CYBE")
    want = _conjoined_report(spec, monkeypatch)
    assert want.total == 64 and want.class_only_count > COUNTEREXAMPLE_CAP
    encodings = [c["encoding"] for c in want.counterexamples]
    assert encodings == sorted(encodings)
    for chunk in (1, 7, 1 << 20):
        got = sweep(replace(spec, chunk=chunk))
        assert got.canonical_json() == want.canonical_json(), chunk
    thm03 = claims._REGISTRY["Thm0.3-CYBE"]
    (row,) = thm03.rows
    monkeypatch.setitem(claims._REGISTRY, "Thm0.3-CYBE", thm03._replace(
        rows=(replace(row, grid=lambda f: [L]),)))
    res = claim_check("Thm0.3-CYBE", fields=[f4])
    assert not res.passed and res.exit_code == 3
    assert [e["encoding"] for e in res.ledger.to_list()] == encodings


@pytest.mark.parametrize("chunk", [1, 1 << 20])
@pytest.mark.parametrize("limit", [None, 5])
def test_strongly_symmetric_listing_ascends_by_encoding(f4, monkeypatch,
                                                        chunk, limit):
    # v -> v (x) v over GF(4): the listing is the smallest encodings,
    # ascending, listed from an array or scanned, as the conjoined
    # full-space sweep lists them
    from dataclasses import replace

    want = sorted(t.encode() for t in strong_symmetric_enumerate(f4, 4))
    for algebra, predicate in ((make_matrix_algebra(f4, 2), "qybe"),
                               (_broken_lie(f4), "cybe")):
        spec = SweepSpec(algebra=algebra, predicate=predicate,
                         domain="strongly-symmetric", keep_solutions=True,
                         limit=limit)
        got = sweep(replace(spec, chunk=chunk))
        listed = _conjoined_report(spec, monkeypatch)
        assert got.canonical_json() == listed.canonical_json()
        assert got.solutions == sorted(got.solutions)
        assert len(got.solutions) == min(limit or got.predicate_count,
                                         got.predicate_count)
    assert listed.predicate_count < 64  # the broken bracket's
    assert sweep(replace(spec, algebra=make_matrix_algebra(f4, 2),
                         predicate="qybe")).solutions == want[:limit]


def test_parametrised_sweep_is_guarded_by_its_parameter_codes(
        monkeypatch, fresh_selector_cache):
    # M2 over GF(16) has 16**16 = 2**64 tensors but 16**4 strongly
    # symmetric ones: the guard reads the parameter codes, and a sweep
    # past it fails before any selector is replayed
    from baxter import field, search

    f16 = field(2, 4, 0b10011)
    spec = SweepSpec(algebra=make_matrix_algebra(f16, 2), predicate="qybe",
                     classifier="strongly-symmetric",
                     domain="strongly-symmetric")
    assert search._codes(spec) == 16 ** 4
    monkeypatch.setattr(search, "MAX_SWEEP", 16 ** 4 - 1)
    with pytest.raises(SweepTooLarge) as err:
        sweep(spec)
    assert err.value.total == 16 ** 4
    assert search.compile_selector.cache_info().misses == 0
    monkeypatch.setattr(search, "MAX_SWEEP", 16 ** 4)
    report = sweep(spec)
    assert (report.total, report.predicate_count, report.agreement) == (
        16 ** 4, 16 ** 4, True)
