#!/usr/bin/env python3
"""Pass a benchmark run's standard output through and check its last line.

    python3 perfbench/run.py --workload NAME --trace 1 | python3 scripts/check_bench_result.py

Exits 1 unless the last line is a JSON result whose every metric has a
numeric value. A traced run whose stage or step function was renamed or
re-signed still exits 0, with that metric null; this check fails it. Run the
pipe under ``set -o pipefail`` so that the benchmark's own exit code counts.
"""

import json
import math
import sys

last = ""
for line in sys.stdin:
    sys.stdout.write(line)
    last = line
try:
    metrics = json.loads(last)["metrics"]
except (ValueError, KeyError, TypeError):
    sys.exit(f"last line is not a benchmark result: {last.strip()!r}")
bad = sorted(name for name, m in metrics.items()
             if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
             or not math.isfinite(m["value"]))
if not metrics or bad:
    sys.exit(f"metrics without a numeric value: {bad or 'none reported'}")
