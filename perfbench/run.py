"""Benchmark of the outpainter package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Set-up (the checkpoint from the program's own `train`, and the
inputs synthesised from --seed) runs three times and reports its median.
Then a forked child runs whole rounds of the workload's operations back
to back, one client in closed loop, until --seconds have passed, so that
its peak memory is that of the operations and not of set-up. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced rounds alternate, and the
JSON carries per-operation calls and self time of each span plus the
tracing overhead. Outputs are checked against the oracles in oracles.py
after timing; `correct` is false if any check fails.

BLAS runs one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is already set in the environment.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

# before numpy is imported: the load is one process with no worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUPS = 3


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the names of workloads.WORKLOADS, which imports from ./src
    p.add_argument("--workload", required=True,
                   choices=("train", "outpaint-guided", "outpaint-long", "refine-io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def time_round(wl, times: list) -> int:
    """Run one round, appending each operation's time; return the failures."""
    failed = 0
    for op in wl.start_round():
        t0 = perf_counter()
        ok = op()
        times.append(perf_counter() - t0)
        failed += not ok
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def measure(args, wl, setup_times: list, setup_rss_mb: float) -> None:
    """The timed loop, the checks and the result line. Runs in a child
    forked after set-up, whose peak memory starts from the memory set-up
    left in use, not from set-up's own peak."""
    import numpy as np
    import workloads
    from oracles import CheckFailed
    from spans import Tracer

    start_rss_mb = peak_rss_mb()
    times, failed = [], 0
    start = perf_counter()
    tracer = None
    if args.trace:
        # alternate rounds, so that drift in host speed falls on both sides
        plain = []
        tracer = Tracer(workloads.SPANS)
        while perf_counter() - start < args.seconds:
            failed += time_round(wl, plain)
            tracer.install(workloads.frameio)
            try:
                failed += time_round(wl, times)
            finally:
                tracer.uninstall()
        attempted = len(plain) + len(times)
    else:
        while perf_counter() - start < args.seconds:
            failed += time_round(wl, times)
        attempted = len(times)
    ops_rss_mb = peak_rss_mb()

    problems = []
    quality, extras = None, {}
    try:
        quality, extras = wl.verify()
    except CheckFailed as e:
        problems.append(str(e))

    op_p50 = statistics.median(times)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s.p50": (op_p50, "s"),
            "frames_per_s": (wl.frames_per_op * len(times) / sum(times), "frames/s"),
            "peak_rss_mb": (ops_rss_mb, "MB"),
            "masked_psnr_db": (quality, "dB"),
        }
    else:
        n = len(times)
        metrics = {}
        for name, (calls, self_s) in tracer.totals().items():
            metrics[f"{name}.calls"] = (calls / n, "calls/op")
            metrics[f"{name}.self_ms"] = (1000.0 * self_s / n, "ms/op")
            if calls == 0 and name in wl.expected:
                problems.append(f"span {name} recorded no calls")
            if calls and name in wl.absent:
                problems.append(f"span {name} ran on a workload without it")
        metrics["frameio.bytes_read"] = (tracer.bytes_read / n, "bytes/op")
        metrics["frameio.bytes_written"] = (tracer.bytes_written / n, "bytes/op")
        metrics["trace.overhead_ratio"] = (op_p50 / statistics.median(plain), "x")

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "threads": thread_count(),
        "numpy": np.__version__, "ops": len(times), "ops_per_s": len(times) / sum(times),
        "op_s.min": min(times), "op_s.max": max(times), "setup_s": setup_times,
        "setup_peak_rss_mb": setup_rss_mb, "ops_start_rss_mb": start_rss_mb,
        "masked_psnr_db": quality, **extras,
    }
    print("summary " + json.dumps(summary))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    args = parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "outpainter", "__init__.py")):
        print("perfbench: run from a checkout root holding src/outpainter", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setup_times = []
        for i in range(1 if args.trace else SETUPS):
            t0 = perf_counter()
            wl.setup(os.path.join(work, f"setup{i}"))
            setup_times.append(perf_counter() - t0)
        setup_rss_mb = peak_rss_mb()

        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                measure(args, wl, setup_times, setup_rss_mb)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
