"""Run one bellcast benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spin-haar-records --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The last line of standard output is the
JSON result; see perfbench/README.md for the workloads and metrics.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        from perfbench.bench import main
    except ImportError as exc:
        print(f"error: cannot load the benchmark or bellcast: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
