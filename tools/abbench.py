"""Alternated before/after benchmark of two revisions, written to BENCH_<number>.json.

Run it from a checkout root:

    python tools/abbench.py BASE CHANGE --number N [--pairs 10] [--seed 61] [--trace]

BASE and CHANGE are git revisions. Each is extracted with `git archive`
into a fresh temporary directory, at paths of equal length, so that the
checkout's path length moves neither side's memory layout. For every
workload and every seed SEED..SEED+PAIRS-1, `perfbench/run.py` runs once on
each side, BASE first on even pairs and CHANGE first on odd ones, with the
same environment and stdout captured through a pipe on both sides.
With --trace, one more traced run per side and workload, at the first
seed, gives calls/op and self ms/op per span, and the calls are compared.

BENCH_<number>.json, at the repository root, holds every run's end-to-end
metrics with `ops_start_rss_mb` and `setup_peak_rss_mb`, each metric's
median, quartiles and win count per side, and the machine: nproc, BLAS
threads, numpy and OpenBLAS versions, and the load average before and
after. The workloads, metrics, bounds and run length come from
BENCHMARK.json.

The claim rule, printed per metric as "met", "not met" or "unresolved":
a claim is "not met" if any CHANGE run is not correct, if CHANGE's runs
fail more operations in total than BASE's, or if CHANGE is better than
BASE in fewer than nine tenths of the pairs (ties count for neither). It
is "unresolved" if the medians differ, in CHANGE's favour, by no more than
the distance between BASE's quartiles, and "met" otherwise. Separately,
"within bound" says that CHANGE's median is no worse than BASE's by more
than the metric's bound from BENCHMARK.json, as a fraction of BASE's median.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

EXTRA = ("ops_start_rss_mb", "setup_peak_rss_mb")  # from run.py's summary line


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first seed; one seed per pair")
    p.add_argument("--trace", action="store_true",
                   help="also one traced run per side and workload at the first seed")
    return p.parse_args()


def checkout(rev: str, dest: str) -> str:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run; its result line, with the summary's extra fields."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {root}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    summary = next(json.loads(line[len("summary "):]) for line in lines
                   if line.startswith("summary "))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update((k, summary[k]) for k in EXTRA)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "blas_threads": summary["blas_threads"], "numpy": summary["numpy"]}


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def judge(spec: dict, name: str, base_runs: list, change_runs: list) -> dict:
    """The claim rule and the bound check for metric `name` over the pairs."""
    base = [r["metrics"][name] for r in base_runs]
    change = [r["metrics"][name] for r in change_runs]
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    sb, sc = spread(base), spread(change)
    gain = sign * (sc["median"] - sb["median"])
    if (not all(r["correct"] for r in change_runs)
            or sum(r["failed"] for r in change_runs) > sum(r["failed"] for r in base_runs)
            or wins < math.ceil(0.9 * len(base))):
        claim = "not met"
    else:
        claim = "met" if gain > sb["q3"] - sb["q1"] else "unresolved"
    within = -gain <= spec["bound"] * abs(sb["median"])
    return {"base": sb, "change": sc, "change_wins": wins, "change_losses": losses,
            "claim": claim, "within_bound": within}


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # OpenBLAS's configuration line names its version and CPU kernel
        info["blas"] = (blas.get("openblas configuration")
                        or f"{blas.get('name')} {blas.get('version')}")
    except (ImportError, KeyError, TypeError):
        info["blas"] = None
    return info


def main() -> int:
    args = parse_args()
    repo = os.getcwd()
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.seed, args.seed + args.pairs))
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
           "rule": __doc__.split("\n\n")[-1].replace("\n", " ").strip(),
           "workloads": {}}

    work = tempfile.mkdtemp(prefix="abbench-")
    try:
        roots = {"base": os.path.join(work, "a"), "change": os.path.join(work, "b")}
        out["revisions"] = {side: checkout(rev, roots[side])
                            for side, rev in (("base", args.base), ("change", args.change))}
        for wl in workloads:
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_once(roots[side], wl, seed, seconds, trace=False)
                    runs[side].append(r)
                    shown = ", ".join(f"{k} {r['metrics'][k]:.4g}" for k in specs
                                      if r["metrics"].get(k) is not None)
                    print(f"{wl} seed {seed} {side}: {shown}, correct {r['correct']}",
                          flush=True)
            entry = {"runs": runs, "metrics": {}}
            for name in list(specs) + list(EXTRA):
                if any(r["metrics"][name] is None for r in runs["base"] + runs["change"]):
                    continue
                spec = specs.get(name, {"better": "lower", "bound": math.inf})
                entry["metrics"][name] = judge(spec, name, runs["base"], runs["change"])
            if args.trace:
                traced = {side: run_once(roots[side], wl, seeds[0], seconds, trace=True)
                          for side in ("base", "change")}
                calls = {side: {k: v for k, v in t["metrics"].items() if k.endswith(".calls")}
                         for side, t in traced.items()}
                entry["trace"] = {side: t["metrics"] for side, t in traced.items()}
                entry["trace_calls_equal"] = calls["base"] == calls["change"]
            first = runs["base"][0]
            out["machine"].update(blas_threads=first["blas_threads"], numpy=first["numpy"])
            out["workloads"][wl] = entry
            for name, j in entry["metrics"].items():
                print(f"{wl} {name}: base {j['base']['median']:.4g} "
                      f"[{j['base']['q1']:.4g}, {j['base']['q3']:.4g}], change "
                      f"{j['change']['median']:.4g} [{j['change']['q1']:.4g}, "
                      f"{j['change']['q3']:.4g}], change better in {j['change_wins']}/"
                      f"{len(seeds)}: {j['claim']}, "
                      f"{'within bound' if j['within_bound'] else 'OUTSIDE BOUND'}",
                      flush=True)
            if args.trace:
                print(f"{wl} trace calls/op equal: {entry['trace_calls_equal']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out["machine"]["loadavg_end"] = os.getloadavg()
    path = os.path.join(repo, f"BENCH_{args.number}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
