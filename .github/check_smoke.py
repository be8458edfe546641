"""Pass or fail a benchmark smoke run from its output file.

Usage: python3 .github/check_smoke.py FILE

FILE holds what ``perfbench/run.py`` printed; its last line is the run's
JSON result.  Prints the result's correctness and operation counts, then
every metric it reports with its unit, one a line: a plain run's
end-to-end metrics (its timings and ``peak_rss_mb``), a traced run's
per-layer split.  Exits 0 only when the run was correct and no operation
failed; the metrics' values never fail it.
"""
import json
import sys

r = json.loads(open(sys.argv[1]).read().splitlines()[-1])
print({k: r[k] for k in ("correct", "attempted", "failed")})
for name, metric in r["metrics"].items():
    value = metric["value"]
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
    print(f"  {name} = {shown} {metric['unit']}")
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
