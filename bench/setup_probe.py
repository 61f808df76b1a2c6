"""Time one fresh interpreter's set-up for a workload: import plus warm-up.

    python3 bench/setup_probe.py <workload>

Prints the seconds from before ``import freefold`` to the end of the lazy
set-up a library user pays once per process (see ``workloads.warm_up``), at
reference speed: divided by the host's slowness measured right after it
(``speed.py``).  Interpreter start-up is not included.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # imports every freefold layer

    workloads.warm_up(sys.argv[1])
    took = time.perf_counter() - started
    import speed

    print(took / speed.slowness_now())
