"""baxter benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload gf8-cybe --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout and measures the package under
``src/``.  ``--trace 0`` repeats the workload (at 1 and 2 workers) for
about ``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs it
traced and untraced (``layers.py``) and prints the per-layer metrics.
The last line of stdout is the result object; the line before it records
the environment and a short machine probe.  Metric names and units come
from ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPS = 11


def import_program():
    """Import baxter from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import baxter
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import baxter from {SRC}: {exc}")
    if not Path(baxter.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: baxter imported from {baxter.__file__},"
                 f" not from {SRC}")
    return baxter


class Tally:
    """Operations attempted and failed; a failed check counts as one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args):
        """Run and time ``fn``; returns ``(output, seconds)`` or
        ``(None, None)`` when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        return out, time.perf_counter() - t0

    def check(self, fn, *outs):
        if any(o is None for o in outs):
            return
        try:
            results = fn(*outs)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return
        self.attempted += len(results)
        self.failed += results.count(False)


def time_setup(args) -> float:
    """Wall time of a fresh process that imports baxter and builds the
    workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# -- environment --------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def last_level_cache_bytes() -> int:
    best = (0, 0)
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, size = _read(f"{d}/level").strip(), _read(f"{d}/size").strip()
        if level.isdigit() and size.endswith("K"):
            best = max(best, (int(level), int(size[:-1]) * 1024))
    return best[1]


def machine_probe(llc: int) -> dict:
    """Pure-Python loop rate and numpy copy bandwidth.

    The copy arrays are four times the last-level cache, capped at 256 MiB
    each so the probe never holds more memory than the workloads do.
    """
    import numpy as np

    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i
        rates.append(1.0 / (time.perf_counter() - t0))
    size = min(max(4 * llc, 64 << 20), 256 << 20)
    src = np.ones(size, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copies = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copies.append(size / (time.perf_counter() - t0) / 1e9)
    return {"py_loop_mops": statistics.median(rates),
            "copy_gbps": statistics.median(copies), "copy_bytes": size}


def environment(baxter, llc: int) -> dict:
    import numpy as np

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "baxter": baxter.__version__, "git_commit": commit,
            "llc_bytes": llc}


# -- the two modes ------------------------------------------------------


def run_pass(wl, tally: Tally, w2: int):
    """One operation at 1 and at ``w2`` workers, unit by unit, so the two
    worker counts see the machine in the same state.  Returns both outputs
    and times, or ``None`` for a side on which some unit raised."""
    pieces, times, failed = ([], []), [0.0, 0.0], [False, False]
    for unit in wl.units:
        for side, workers in enumerate((1, w2)):
            out, seconds = tally.op(wl.run, workers, unit)
            if out is None:
                failed[side] = True
            else:
                pieces[side].append(out)
                times[side] += seconds
    return [(None, None) if failed[side]
            else (wl.merge(pieces[side]), times[side]) for side in (0, 1)]


def run_end_to_end(wl, tally: Tally, args, w2: int) -> dict:
    """Closed loop of passes until ``--seconds`` is used up; medians over
    passes.  A pass starts if at least half of one as long as the last
    still fits, so a run overshoots by at most half a pass.

    Set-up is timed in fresh processes spread over the run (some before the
    first pass, two after each pass), so its median does not hang on the
    machine's state at one moment."""
    walls, walls2 = [], []
    setups = [time_setup(args) for _ in range(3)]
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        (o1, t1), (o2, t2) = run_pass(wl, tally, w2)
        tally.check(wl.check, o1)
        tally.check(wl.check, o2)
        tally.check(wl.check_pair, o1, o2)
        if not walls:
            tally.check(wl.check_once, o1)
        if t1 is not None and t2 is not None:
            walls.append(t1)
            walls2.append(t2)
            candidates = wl.candidates(o1)
        del o1, o2
        setups += [time_setup(args) for _ in range(2)]
        p1 = time.perf_counter()
        if p1 - start + (p1 - p0) / 2 >= args.seconds:
            break
    setups += [time_setup(args) for _ in range(SETUP_REPS - len(setups))]
    if not walls:
        sys.exit("perfbench: every pass failed")
    wall, wall2 = statistics.median(walls), statistics.median(walls2)
    return {"setup_s": statistics.median(setups), "wall_s": wall,
            "wall_w2_s": wall2, "scaling_eff": wall / (2 * wall2),
            "candidates_per_s": candidates / wall,
            "passes": [walls, walls2]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    baxter = import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; valid:"
                 f" {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        def make():
            return workloads.WORKLOADS[args.workload](args.seed, Path(tmp))

        if args.setup_only:
            make()
            return 0
        tally = Tally()
        w2 = min(2, os.cpu_count() or 1)
        if args.trace:
            import layers

            values = layers.run_traced(make, tally, w2)
            kind = "per_layer"
        else:
            wl = make()
            values = run_end_to_end(wl, tally, args, w2)
            values["peak_rss_mb"] = peak_rss_mb()
            values["ok_frac"] = 1.0 - tally.failed / tally.attempted
            kind = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    llc = last_level_cache_bytes()
    probe = machine_probe(llc)
    if args.trace:
        values["machine.py_loop_mops"] = probe["py_loop_mops"]
        values["machine.copy_gbps"] = probe["copy_gbps"]
    env = environment(baxter, llc)
    env.update(probe, workload=args.workload, seed=args.seed,
               workers=[1, w2], passes=values.pop("passes", None))
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values.pop(m["name"]),
                              "unit": m["unit"]}
    if values:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {values}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
