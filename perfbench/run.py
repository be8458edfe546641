"""Benchmark entry point.

    python3 perfbench/run.py --workload short-hist --seed 1 --seconds 30 --trace 0

Run from the repository root.  It imports `liverec` from this checkout's
`src/`, builds the workload from the seed, measures for about `--seconds`
seconds and prints one JSON line of run information, then, as the last
line, the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer split (see README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

# One BLAS thread: the benchmark models one process with one client thread,
# and a fixed count keeps figures comparable across machines.  It must be
# set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "liverec", "__init__.py")):
        print(f"perfbench: no liverec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as workdir:
        info, result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
