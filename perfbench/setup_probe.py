"""Time one cold set-up in a fresh interpreter: import `mnhd` and build the
named workload's graphs (design-built graphs are validated on the way).
Prints the seconds taken.  run.py starts several of these and reports the
median as `setup_s`.

    python3 perfbench/setup_probe.py bipartite-ladder
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build_workload(sys.argv[1])
    print(time.perf_counter() - start)
