"""Pin the reference output digests the benchmark checks against.

Run from the repository root after a change that is *meant* to alter a
workload's outputs or inputs (never to make a failing run pass)::

    python3 perfbench/pin.py [--tiny]

Every workload runs one full input cycle for every seed variant, under
the benchmark's own noise controls, and the digests replace the
``full`` (or, with ``--tiny``, the ``tiny``) table in ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import monotonic

from run import HERE, NOISE_CONTROLS, ROOT, child_env, load_spec

REFERENCES = os.path.join(HERE, "references.json")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if any(os.environ.get(k) != v for k, v in NOISE_CONTROLS.items()):
        # Outputs are pinned in the environment the measured runs use.
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv],
            cwd=ROOT, env=child_env(), check=False,
        ).returncode
    parser = argparse.ArgumentParser(description="Pin reference digests.")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from workload import StepTimer
    from workloads import VARIANTS, WORKLOADS

    with open(REFERENCES, encoding="utf-8") as handle:
        table = json.load(handle)
    size = "tiny" if args.tiny else "full"
    timer = StepTimer(monotonic(), setup_only=False)
    for spec in load_spec()["workloads"]:
        name = spec["name"]
        table[size][name] = {}
        for variant in range(VARIANTS):
            workload = WORKLOADS[name](variant, tiny=args.tiny)
            table[size][name][str(variant)] = [
                workload.digest(workload.run_unit(unit, timer))
                for unit in range(workload.cycle)
            ]
        print(f"pinned {size} {name}", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
