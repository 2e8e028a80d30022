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


def test_sweep_forks_no_more_helpers_than_blocks(f4, monkeypatch):
    # With 4 ranges, a 6-worker sweep has work for the caller and 3 helpers.
    from baxter import search

    asked = []
    real = search._helpers

    def spy(count):
        asked.append(count)
        return real(count)

    monkeypatch.setattr(search, "_BLOCKS", 4)
    monkeypatch.setattr(search, "_helpers", spy)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                chunk=1 << 12, keep_solutions=True)
    got = sweep(SweepSpec(workers=6, **spec)).canonical_json()
    assert asked and max(asked) <= 3
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

    monkeypatch.setattr(search, "_solve_block", broken)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", chunk=1 << 12)
    with pytest.raises(RuntimeError, match="block failed in a helper"):
        sweep(SweepSpec(workers=2, **spec))
    assert not search._HELPERS._procs  # stopped: stale replies cannot leak
    monkeypatch.undo()  # the next sweep forks unpatched helpers
    assert (sweep(SweepSpec(workers=2, **spec)).canonical_json()
            == sweep(SweepSpec(workers=1, **spec)).canonical_json())


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

    monkeypatch.setattr(search, "_solve_block", dying)
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", chunk=1 << 12)
    with pytest.raises(HelperExited, match="exited with code 3"):
        sweep(SweepSpec(workers=2, **spec))
    assert not search._HELPERS._procs  # stopped: the next sweep forks anew
    assert cli.main([
        "enumerate", "--field", "gf(2^2;0b111)", "--family", "bd",
        "--beta", "0x0", "--delta", "0x2", "--predicate", "cybe",
        "--chunk", "4096", "--workers", "2",
    ]) == 2
    assert "exited with code 3" in capsys.readouterr().err
    monkeypatch.undo()
    assert (sweep(SweepSpec(workers=2, **spec)).canonical_json()
            == sweep(SweepSpec(workers=1, **spec)).canonical_json())


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
    real = search.sweep
    handed_over = []

    def hold_first(spec):
        if os.getpid() == caller and spec.predicate == "cybe":
            deadline = time.monotonic() + 10
            while (search._HELPERS._counter.value & 0xFFFFFFFF < 2
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            handed_over.append(time.monotonic() < deadline)
        return real(spec)

    monkeypatch.setattr(search, "sweep", hold_first)
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
    L = make_family_bd(f4, f4.zero(), f4.element(2))
    spec = dict(algebra=L, predicate="cybe", classifier="prop16-case",
                chunk=1 << 12, keep_solutions=True)
    try:
        t0 = time.perf_counter()
        got = sweep(SweepSpec(workers=2, **spec)).canonical_json()
        assert time.perf_counter() - t0 < 2.5
    finally:
        search._helpers(0).close()  # the stalled helper still sleeps
    assert got == sweep(SweepSpec(workers=1, **spec)).canonical_json()


def test_planned_sweep_logs_its_variable_order(f4, caplog):
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
    assert planned.canonical_json() == one_chunk.canonical_json()
    assert "order" not in planned.canonical_json()

