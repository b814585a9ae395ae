"""Time one set-up in a fresh interpreter and print it as JSON.

Set-up is ``import belyi_forge`` plus the workload's warm-up calls, the cost
every process pays before its first real call.  The speed probe runs before
and after it, so the caller can scale the time as it scales call latencies.
Usage:
``python3 perfbench/setup_child.py <workload>``.
"""

import json
import sys
import time
from pathlib import Path

import speed
import workloads


def main() -> None:
    name = sys.argv[1]
    before = speed.probe()
    t0 = time.perf_counter()
    mods = workloads.load_package(Path(__file__).resolve().parent.parent)
    for call in workloads.WARM_UPS[name]:
        workloads.execute(call, mods)
    setup_s = time.perf_counter() - t0
    slowness = ((before + speed.probe()) / 2 / speed.REFERENCE_S) ** speed.EXPONENT
    print(json.dumps({"setup_s": setup_s, "slowness": slowness}))


if __name__ == "__main__":
    main()
