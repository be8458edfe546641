"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --out perfbench/results/BENCH_<commit>.json

Run from the repository root.  For every workload in BENCHMARK.json it makes
one plain run per seed (seeds 1..10), one after another, each as long as
BENCHMARK.json's `run_seconds`, then one traced run on seed 1, and writes a
JSON summary: per end-to-end metric the ten values, median, quartiles and
spread (interquartile distance over median, from
`statistics.quantiles(values, n=4)`), next to the bound in BENCHMARK.json;
the same for the timing metrics as timed, before scaling; per-layer metrics
from the traced run.  Seeds, run length, workloads and the
traced run are fixed, so every summary is made the same way; a later change
measures its parent and itself with this script and compares the medians.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"info": json.loads(info_line), "result": json.loads(result_line), "elapsed_s": elapsed}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary here as well as to stdout")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f}s", file=sys.stderr)
        metrics = {}
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            metrics[name] = stats
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "run_elapsed_s": summarise([r["elapsed_s"] for r in runs]),
            # the timing metrics before scaling to the reference speed (harness.run_plain)
            "as_timed": {
                name: summarise([r["info"]["shape"]["as_timed"][name] for r in runs])
                for name in runs[0]["info"]["shape"]["as_timed"]
            },
            "reference_s": summarise([r["info"]["shape"]["reference_s"] for r in runs]),
            "shape": runs[0]["info"]["shape"],
            "blas_threads": runs[0]["info"]["blas_threads"],
            "end_to_end": metrics,
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced_seed"] = SEEDS[0]
        entry["traced_correct"] = traced["result"]["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, stats in metrics.items():
            flag = "" if stats["spread"] is None or stats["spread"] <= stats["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {stats['median']:.6g} {stats['unit']:8s} spread {stats['spread']:.4f} "
                  f"bound {stats['bound']}{flag}", file=sys.stderr)

    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
