"""Time-to-verdict benchmark for cantorfull.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`).  Load is a closed loop with one client: one single-threaded process
issues an operation, waits for its verdict, and issues the next.  Each
operation is re-checked by the independent oracle in `oracle.py` outside the
timed region.

With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics, their times in reference seconds (see speed.py); with `--trace 1` the listed library functions are wrapped
by `tracer.py` and the object carries the per-layer metrics, and the spans
are written to `.perfbench_out/`.  Lines before it are a readable report.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple

import speed
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 11  # fresh processes per run; setup_s is their median
EXIT_NO_PROGRAM = 2
EXHAUSTED = "exhausted_at_bound"
CLI_EXHAUSTED = 2  # cfl exit code for ExhaustedAtBound
# a run stops early, at a cycle boundary, after this many times --seconds of
# timed operations, so that even a much slower program ends within 180 s
LIMIT_FACTOR = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal roles of child processes
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--replay", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, *extra):
    """Run this script in a fresh process and return its last stdout line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child process {' '.join(extra)} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_setup(workload):
    """Import the package and build the workload's state; (state, reference
    seconds it took)."""
    before = speed.probe()
    t0 = time.perf_counter()
    import cantorfull  # noqa: F401

    state = workload.setup()
    seconds = time.perf_counter() - t0
    return state, speed.to_reference(seconds, before, speed.probe())


Loop = namedtuple("Loop", "times kinds failures ref rss_mb cycles probes")


def run_ops(workload, state, rng, cycles=None, count=None, limit_s=None, tracer=None,
            calibrate=False):
    """Closed loop: time each operation, then check it.

    Stops after `cycles` whole cycles, or after exactly `count` operations,
    so that the same seed gives the same operations, verdicts and failures
    however fast the machine runs.  Only a program far slower than the one
    the cycle counts were set for hits `limit_s`: past that much timed wall
    time the loop stops at the next cycle boundary.  Returns a Loop:
    per-operation wall times and kinds; per operation None for a confirmed
    verdict, else the pair (reason, recorded Defect or None); with
    `calibrate`, the times in reference seconds (see speed.py), else None;
    the peak RSS in MB at the end; the number of whole cycles run; and with
    `calibrate`, the probe groups.
    """
    times, kinds, failures, segments = [], [], [], []
    # groups of probes, one probe per PERIOD_S of operation time, so a long
    # operation is bracketed by as many probes as the short ones around it
    groups = [probe_group(3)] if calibrate else None
    since = 0.0
    done = 0

    def finish():
        if not calibrate:
            return Loop(times, kinds, failures, None, peak_rss_mb(), done, None)
        groups.append(probe_group(3))
        ref = [speed.to_reference(dt, statistics.mean(groups[i]), statistics.mean(groups[i + 1]))
               for dt, i in zip(times, segments)]
        return Loop(times, kinds, failures, ref, peak_rss_mb(), done, groups)

    for cycle in workload.cycles(state, rng):
        for op in cycle:
            if count is not None and len(times) >= count:
                return finish()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            times.append(dt)
            kinds.append(op.kind)
            failures.append(failure(op, result, error))
            if calibrate:
                segments.append(len(groups) - 1)
                since += dt
                if since >= speed.PERIOD_S:
                    groups.append(probe_group(int(since / speed.PERIOD_S)))
                    since = 0.0
        done += 1
        if done == cycles or (limit_s is not None and sum(times) >= limit_s):
            return finish()


def cycle_count(workload, seconds):
    """The whole cycles a run of `seconds` does: about `seconds` of timed
    operations at the seed on the tuning machine (see workloads.py)."""
    return max(1, round(seconds * workload.cycles_per_s))


def probe_group(n):
    return [speed.probe() for _ in range(n)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failure(op, result, error):
    """None for a confirmed verdict; else (reason, Defect or None), the
    reason being "raised", "exhausted" or "wrong"."""
    if error is not None:
        return "raised", None
    if getattr(result, "status", None) == EXHAUSTED or (
        isinstance(result, tuple) and result[0] == CLI_EXHAUSTED
    ):
        reason = "exhausted"
    else:
        try:
            if op.check(result):
                return None
        except Exception:  # a result the oracle cannot read is a wrong one
            pass
        reason = "wrong"
    defect = op.defect if op.defect is not None and op.defect.reason == reason else None
    return reason, defect


def percentile(sorted_values, p):
    """Nearest-rank percentile: (value, samples beyond it)."""
    n = len(sorted_values)
    rank = max(1, -(-p * n // 100))
    return sorted_values[rank - 1], n - rank


def incorrect(loop):
    """Notes on what makes the run incorrect: any failure outside a recorded
    defect, and a recorded defect's failures beyond its cap.  Empty when the
    run is correct."""
    unknown, shown = {}, {}
    for kind, f in zip(loop.kinds, loop.failures):
        if f is None:
            continue
        reason, defect = f
        if defect is None:
            unknown[kind, reason] = unknown.get((kind, reason), 0) + 1
        else:
            shown[kind, defect] = shown.get((kind, defect), 0) + 1
    notes = [f"{kind} {reason}: {n}" for (kind, reason), n in sorted(unknown.items())]
    for (kind, defect), n in shown.items():
        total = loop.kinds.count(kind)
        if n > defect.cap * total:
            notes.append(f"{kind}: {defect.name} on {n}/{total}, over its cap {defect.cap:.0%}")
    return notes


def failure_note(loop):
    counts = {}
    for kind, f in zip(loop.kinds, loop.failures):
        if f is not None:
            reason, defect = f
            key = f"{kind} {reason}" + (f" (known: {defect.name})" if defect else "")
            counts[key] = counts.get(key, 0) + 1
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    failed = sum(counts.values())
    return f"{failed}/{len(loop.times)}" + (f"; {detail}" if detail else "")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(workload, metrics, notes):
    print(f"# workload {workload.name}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:>50} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cantorfull", "__init__.py")):
        print(f"error: no cantorfull sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    if args.setup_only:
        _, setup = timed_setup(workload)
        print(json.dumps({"setup_s": setup}))
        return 0

    rng = random.Random(args.seed)
    if args.replay:
        state, _ = timed_setup(workload)
        loop = run_ops(workload, state, rng, count=args.replay)
        print(json.dumps({"ops_wall_s": sum(loop.times), "ops": len(loop.times)}))
        return 0

    if args.trace:
        return traced(args, workload, rng)

    setups = [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    state, own_setup = timed_setup(workload)
    setups.append(own_setup)
    started = time.perf_counter()
    loop = run_ops(workload, state, rng, cycles=cycle_count(workload, args.seconds),
                   limit_s=LIMIT_FACTOR * args.seconds, calibrate=True)
    wall = time.perf_counter() - started

    # latencies and throughput count confirmed verdicts only, so a failure
    # that returns early cannot make the program look faster
    confirmed = [i for i, f in enumerate(loop.failures) if f is None] or range(len(loop.times))
    ref = sorted(loop.ref[i] for i in confirmed)
    raw = sorted(loop.times[i] for i in confirmed)
    tail_p = workload.tail_percentile
    tail_value, beyond = percentile(ref, tail_p)
    raw_tail, _ = percentile(raw, tail_p)
    attempted = len(loop.times)
    failed = attempted - sum(f is None for f in loop.failures)
    wrong = incorrect(loop)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s_p50": (statistics.median(ref), "s"),
        "verdict_s_tail": (tail_value, "s"),
        "certs_per_s": ((attempted - failed) / sum(loop.ref), "1/s"),
        "peak_rss_mb": (loop.rss_mb, "MB"),
    }
    by_kind = {}
    for kind, dt in zip(loop.kinds, loop.times):
        by_kind.setdefault(kind, []).append(dt)
    report(workload, {**metrics, "failed_ratio": (failed / attempted, "-")}, {
        "setup_s": f"median of {len(setups)} fresh processes",
        "verdict_s_p50": f"confirmed verdicts; wall {statistics.median(raw):.6g} s",
        "verdict_s_tail": f"p{tail_p}, {beyond} samples beyond, n={len(ref)}; wall {raw_tail:.6g} s",
        "certs_per_s": f"{attempted - failed} verdicts in {sum(loop.times):.2f} s timed"
                       f" ({wall:.2f} s with checks and probes)",
        "peak_rss_mb": f"at the end, after set-up and {loop.cycles} cycles",
        "failed_ratio": failure_note(loop),
    })
    print("# operations (count, median s): " + ", ".join(
        f"{k} {len(v)} {statistics.median(v):.4f}" for k, v in sorted(by_kind.items())))
    probes = [p for group in loop.probes for p in group]
    # a change that slows the kernel itself (say, by bloating the heap) would
    # divide out part of its own slowdown; this line makes that visible
    print(f"# speed probe: median {statistics.median(probes) * 1e3:.3f} ms over the run,"
          f" {statistics.mean(loop.probes[0]) * 1e3:.3f} ms before the first operation")
    for note in wrong:
        print(f"# incorrect: {note}")
    print(result_line(not wrong, attempted, failed, metrics))
    return 0


def traced(args, workload, rng):
    """Per-layer run: the same loop with every listed function wrapped."""
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    t0 = time.perf_counter()
    state = workload.setup()
    setup_wall = time.perf_counter() - t0
    tracer.active = False
    loop = run_ops(workload, state, rng, cycles=cycle_count(workload, args.seconds),
                   limit_s=LIMIT_FACTOR * args.seconds, tracer=tracer)
    tracer.uninstall()
    ops_wall = sum(loop.times)
    traced_wall = setup_wall + ops_wall
    untraced = child(args, "--replay", str(len(loop.times)))
    overhead = ops_wall - untraced["ops_wall_s"]

    metrics = tracer.metrics()
    self_sum = tracer.self_sum()
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.remainder_s"] = (traced_wall - self_sum, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    stem = f"trace-{workload.name}-seed{args.seed}"
    tracer.write(OUT_DIR, stem)
    report(workload, metrics, {
        "trace.wall_s": "set-up plus timed operations, tracing on",
        "trace.remainder_s": "traced wall time outside every wrapped call",
        "trace.overhead_s": f"traced minus untraced wall of the same {len(loop.times)} operations"
                            f" ({untraced['ops_wall_s']:.3f} s untraced)",
    })
    print(f"# spans: {len(tracer.span_start)} kept, {tracer.dropped} dropped, "
          f"written to {os.path.relpath(OUT_DIR, ROOT)}/{stem}.*")
    print("# failed_ratio " + failure_note(loop))
    wrong = incorrect(loop)
    for note in wrong:
        print(f"# incorrect: {note}")
    failed = sum(f is not None for f in loop.failures)
    print(result_line(not wrong, len(loop.times), failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
