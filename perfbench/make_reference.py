"""Record the reference outputs that every benchmark run checks against.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
It runs each call of every workload once (full and smoke sizes) and writes
``perfbench/reference.json``: for each call, the digest of its output, or
null when the call failed at the recorded commit.  The digest of a solver
call is true: only that its census matched the profile is recorded.
"""

import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    mods = workloads.load_package(HERE.parent)
    reference = {}
    for name in workloads.NAMES:
        for smoke in (False, True):
            for call in workloads.build_calls(name, 0, mods, smoke=smoke):
                key = workloads.label(call)
                if key in reference:
                    continue
                workloads.reset_caches(mods)
                _, reason, digest = workloads.execute(call, mods)
                reference[key] = None if reason is not None else digest
                print(f"{key}: {reason or digest}")
    path = HERE / "reference.json"
    path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")


if __name__ == "__main__":
    main()
