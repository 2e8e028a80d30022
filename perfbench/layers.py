"""Traced run: per-layer metrics from spans around baxter's layers.

The workload runs at 1 worker untraced, traced, and untraced again (the
traced time minus the mean of the two untraced ones is the tracing
overhead), once untraced at 2 workers (for the pool's share), and once
with ``tracemalloc`` switched on inside each sweep only (for bytes per
solution).  On gf8-cybe the chunk-0 survivor funnel of
the identity presentation is then measured by evaluating every prefix of
the CYBE system and compared with the captured one.  A metric whose layer
the workload never reaches reads 0.
"""
from __future__ import annotations

import statistics
import tracemalloc

import baxter
from baxter import _kernel, algebra, bialgebra, claims, cli, search, tensor, ybe

import workloads
from tracer import Tracer

REPLAY = "search.build_selector_system"


def install(tracer: Tracer) -> None:
    """Wrap each layer's boundary; notes keep counts, never big results."""
    tracer.patch(algebra, "load_algebra", "algebra.load_algebra")
    tracer.patch(search, "build_selector_system", REPLAY)
    tracer.patch(search, "sweep", "search.sweep", note=lambda a, r: (
        r.predicate_count, r.pred_only_count + r.class_only_count))
    tracer.patch(_kernel, "compile_polys", "_kernel.compile_polys",
                 note=lambda a, r: (len(r.polys), sum(map(len, r.polys))))
    tracer.patch(_kernel, "solutions_in_range", "_kernel.solutions_in_range",
                 note=lambda a, r: (a[2] - a[1], len(r)))
    if hasattr(_kernel, "_decode_digits"):
        tracer.patch(_kernel, "_decode_digits", "_kernel.decode")
    tracer.patch_public(ybe, "ybe")
    tracer.patch_public(bialgebra, "bialgebra")
    tracer.patch(tensor.Tensor2, "decode", "tensor.Tensor2.decode")
    tracer.patch(claims, "claim_check", "claims.claim_check",
                 note=lambda a, r: a[0])
    tracer.patch(cli, "main", "cli.main")


def sweep_bytes_per_solution(wl, tally) -> float:
    """tracemalloc peak of each sweep over its predicate solutions."""
    peaks, solutions = [], []

    def make(sweep):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                report = sweep(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            solutions.append(report.predicate_count)
            return report
        return measured

    patcher = Tracer()
    patcher.replace(search, "sweep", make)
    try:
        out, _ = tally.op(wl.run, 1)
    finally:
        patcher.restore()
    tally.check(wl.check, out)
    return sum(peaks) / max(1, sum(solutions))


def gf8_funnel(tally):
    """Survivors after each polynomial on chunk 0 of ab(1,1) over GF(8)."""
    f = baxter.parse_field(workloads.GF8)
    system = baxter.compile_selector(
        baxter.make_family_ab(f, f.one(), f.one()), "cybe")
    counts = [
        len(_kernel.solutions_in_range(
            system._replace(polys=system.polys[:k + 1]),
            0, workloads.CHUNK0))
        for k in range(len(system.polys))
    ]
    tally.check(lambda c: [tuple(c) == workloads.GF8_FUNNEL], counts)
    return system, counts


def kernel_cost(system, counts, chunk: int) -> tuple[int, int]:
    """Table lookups and bytes the numpy kernel moves on one chunk.

    Model: decoding reads an 8-byte code and writes one digit byte per
    variable; a degree-d monomial costs max(d - 1, 1) lookups (one more for
    the addition table outside characteristic 2), each reading two bytes and
    writing one, plus a 3-byte accumulate; compaction reads mask, code and
    digits of every entering candidate and writes code and digits of every
    survivor.
    """
    row = 8 + system.nvars
    lookups = 0
    moved = chunk * system.nvars * 9
    entering = chunk
    for poly, left in zip(system.polys, counts):
        k = sum((max(len(vs) - 1, 1) if vs else 0) + (system.p != 2)
                for _, vs in poly)
        lookups += entering * k
        moved += entering * (3 * k + 3 * len(poly) + 1 + row) + left * row
        entering = left
    return lookups, moved


def run_traced(make, tally, w2: int) -> dict:
    """``make()`` builds the workload; the traced pass builds it again under
    the tracer, so set-up layers such as ``load_algebra`` are seen."""
    wl = make()
    out, plain = tally.op(wl.run, 1)
    tally.check(wl.check, out)
    tally.check(wl.check_once, out)
    del out
    tracer = Tracer()
    install(tracer)
    try:
        wl = make()
        out, traced = tally.op(wl.run, 1)
    finally:
        tracer.restore()
    tally.check(wl.check, out)
    again, plain2 = tally.op(wl.run, 1)
    tally.check(wl.check, again)
    del again
    out2, wall_w2 = tally.op(wl.run, w2)
    tally.check(wl.check, out2)
    tally.check(wl.check_pair, out, out2)
    del out2
    output_bytes = 0
    if isinstance(wl, workloads.DenseGf5) and out is not None:
        output_bytes = len(out[1].encode())
    del out
    if None in (plain, plain2, traced, wall_w2):
        raise SystemExit("perfbench: traced run failed")
    values = summarize(tracer)
    values["search.bytes_per_solution"] = sweep_bytes_per_solution(wl, tally)
    values["search.pool_s"] = wall_w2 - values["kernel.eval_s"] / 2
    values["cli.output_bytes"] = output_bytes
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - (plain + plain2) / 2
    if isinstance(wl, workloads.Gf8Cybe):
        system, counts = gf8_funnel(tally)
        chunk = workloads.CHUNK0
    else:
        system, counts, chunk = None, [], 0
    for k in range(len(workloads.GF8_FUNNEL)):
        values[f"kernel.funnel.p{k:02d}"] = counts[k] if k < len(counts) else 0
    lookups, moved = kernel_cost(system, counts, chunk) if system else (0, 0)
    values["kernel.lookups"] = lookups
    values["kernel.bytes_computed"] = moved
    return values


def summarize(tracer: Tracer) -> dict:
    spans = tracer.spans
    own = tracer.self_times()

    def pick(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    v = {}
    kern = pick("_kernel.solutions_in_range")
    chunk_ms = sorted((spans[i][2] - spans[i][1]) * 1e3 for i in kern)
    candidates = sum(spans[i][4][0] for i in kern)
    v["kernel.eval_s"] = total(kern)
    v["kernel.calls"] = len(kern)
    v["kernel.chunk_ms_p50"] = statistics.median(chunk_ms) if kern else 0
    v["kernel.chunk_ms_p90"] = (
        chunk_ms[int(0.9 * (len(kern) - 1))] if kern else 0)
    v["kernel.candidates"] = candidates
    v["kernel.decode_ms"] = total(pick("_kernel.decode")) * 1e3
    v["kernel.survivor_ratio"] = (
        sum(spans[i][4][1] for i in kern) / candidates if candidates else 0)
    comp = pick("_kernel.compile_polys")
    v["kernel.compile_s"] = total(comp)
    v["kernel.polys"] = sum(spans[i][4][0] for i in comp)
    v["kernel.terms"] = sum(spans[i][4][1] for i in comp)
    sweeps = pick("search.sweep")
    v["search.merge_s"] = sum(own[i] for i in sweeps)
    v["search.solutions"] = sum(spans[i][4][0] for i in sweeps)
    v["search.diff"] = sum(spans[i][4][1] for i in sweeps)
    build = pick(REPLAY)
    v["search.build_s"] = total(build)
    v["search.build_calls"] = len(build)
    for name in ("ybe", "bialgebra"):
        idx = [i for i in range(len(spans))
               if layer(i) == name and not tracer.under(i, REPLAY)]
        v[f"{name}.self_s"] = sum(own[i] for i in idx)
        v[f"{name}.calls"] = sum(
            1 for i in idx if spans[i][3] < 0 or layer(spans[i][3]) != name)
    v["tensor.decode_calls"] = len(pick("tensor.Tensor2.decode"))
    per_claim = {cid: 0.0 for cid in baxter.CLAIM_IDS}
    for i in pick("claims.claim_check"):
        per_claim[spans[i][4]] += spans[i][2] - spans[i][1]
    for cid, seconds in per_claim.items():
        v[f"claims.{cid}_s"] = seconds
    main = pick("cli.main")
    v["cli.main_s"] = total(main)
    v["cli.self_s"] = sum(own[i] for i in main)
    v["algebra.load_s"] = total(pick("algebra.load_algebra"))
    return v
