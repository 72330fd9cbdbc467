"""tseitinkit benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload mid-compile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The workload is set up several times (`setup_s` is the median), then
passes over all of its operations run back to back, each operation from a
cold library state.  Passes start while the next one is expected to end
within --seconds, and there is always at least one.  With --trace 1 one
more pass runs with every public library function wrapped in a span, and
the per-layer metrics come from that pass.  Every reported time is
rescaled to a reference core speed by `probe.SpeedProbe`.

Prints each metric as `<workload> <name> <value> <unit>`, then the result
as one JSON object on the last line.  Exits 1 when an output check failed,
2 when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok": "ratio", "artifact_size": "count",
}
COUNTERS = ("bp.nodes", "bp.share_ratio", "compiler.dnnf_gates", "compiler.budget_use", "nnf.smooth_gates",
            "nnf.truth_table_cells", "resolution.steps", "bounds.k")
RATIOS = ("bp.share_ratio", "compiler.budget_use", "trace.coverage")
SETUP_SPAN_S = 2.0


def load_library():
    """Import tseitinkit from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "tseitinkit" / "__init__.py").is_file():
        raise ImportError(f"no tseitinkit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tseitinkit

    if Path(tseitinkit.__file__).resolve().parent != (src / "tseitinkit").resolve():
        raise ImportError(f"tseitinkit imported from {tseitinkit.__file__}, not from {src}")
    return tseitinkit


class Pass(NamedTuple):
    start: float  # perf_counter
    end: float
    cpu: float  # main-thread CPU seconds
    attempted: int
    failed: int


def run_pass(workload, cold_start) -> Pass:
    """One pass over the workload's operations, each from a cold library state."""
    ops = workload.operations()
    failed = 0
    gc.collect()
    start, cpu0 = time.perf_counter(), time.thread_time()
    for label, op in ops:
        cold_start()
        try:
            ok = op()
        except (Exception, SystemExit) as exc:  # any escape is a failed operation
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"{label}: output check failed", file=sys.stderr)
    return Pass(start, time.perf_counter(), time.thread_time() - cpu0, len(ops), failed)


def measure(args) -> tuple[dict, int, int]:
    package = load_library()
    import tracer
    import workloads
    from probe import SpeedProbe

    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:

            def scaled(t0, t1, secs=None):
                """Seconds rescaled to the reference core speed."""
                return (t1 - t0 if secs is None else secs) * probe.factor(t0, t1)

            def report(p: Pass, tag: str) -> float:
                run_s = scaled(p.start, p.end)
                print(f"{tag}pass: {p.end - p.start:.3f} s wall, {run_s:.3f} s scaled, "
                      f"{p.attempted} operations, {p.failed} failed", file=sys.stderr)
                return run_s

            setups = []
            for _ in range(workload.setup_repeats):
                t0 = time.perf_counter()
                workload.setup(args.seed, workdir)
                t1 = time.perf_counter()
                setups.append(scaled(t0, t1))
                # A set-up of a few ms sits inside one host-contention spell that
                # the probe does not fully correct; spreading the repetitions
                # over SETUP_SPAN_S lets the median see several spells.
                time.sleep(max(0.0, SETUP_SPAN_S / workload.setup_repeats - (t1 - t0)))
            passes = []
            while True:
                passes.append(run_pass(workload, workloads.cold_start))
                if 2 * passes[-1].end - passes[-1].start - passes[0].start > args.seconds:
                    break
            run_s = [report(p, "") for p in passes]
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            if not args.trace:
                counts = workload.counters()
                metrics = {
                    "run_s": statistics.median(run_s),
                    "cpu_s": statistics.median(scaled(p.start, p.end, p.cpu) for p in passes),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "ops_ok": (attempted - failed) / attempted,
                    "artifact_size": sum(counts.get(k, 0) for k in ("bp.nodes", "compiler.dnnf_gates", "resolution.steps")),
                }
                return metrics, attempted, failed
            spans = tracer.Tracer()
            spans.install(package)
            try:
                spans.enabled = True
                traced = run_pass(workload, workloads.cold_start)
                spans.enabled = False
                counts = workload.counters()
            finally:
                spans.uninstall()
            traced_s = report(traced, "traced ")
            factor = probe.factor(traced.start, traced.end)
        times, calls, covered = spans.layer_times()
        metrics = {name: times.get(name, 0.0) * factor for name in tracer.TIME_METRICS}
        metrics.update({name: calls.get(fn, 0) for name, fn in tracer.CALLS_OF.items()})
        metrics.update({name: counts.get(name, 0) for name in COUNTERS})
        metrics["trace.coverage"] = covered / (traced.end - traced.start)
        metrics["trace.uncovered_s"] = traced_s - covered * factor
        metrics["trace.overhead_s"] = traced_s - statistics.median(run_s)
        return metrics, attempted + traced.attempted, failed + traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mid-compile", "proofs", "check"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        metrics, attempted, failed = measure(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
