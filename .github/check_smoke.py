"""Pass or fail a benchmark smoke run from its output file.

Usage: python3 .github/check_smoke.py FILE

FILE holds what ``perfbench/run.py`` printed; its last line is the run's
JSON result.  Prints the result's correctness and operation counts, and
exits 0 only when the run was correct and no operation failed.
"""
import json
import sys

r = json.loads(open(sys.argv[1]).read().splitlines()[-1])
print({k: r[k] for k in ("correct", "attempted", "failed")})
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
