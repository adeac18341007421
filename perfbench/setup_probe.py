"""Cold set-up of one workload's pipeline, in a fresh interpreter.

Run as ``python perfbench/setup_probe.py WORKLOAD SEED SCALE`` from the
repository root.  Imports and input generation are not timed; the timed
part is what a user pays before the first tuple flows: ``Pipeline(...)``,
``analyze()`` and ``build()``.  Prints one JSON object with the three
phases in seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, generate_input, make_pipeline  # noqa: E402


def main(argv) -> int:
    name, seed, scale = argv[0], int(argv[1]), float(argv[2])
    workload = WORKLOADS[name]
    tuples = generate_input(workload, seed, scale)
    # The cluster workload's daemons are deployment, not set-up: the
    # addresses are only stored by the constructor and never dialled here.
    hosts = ["127.0.0.1:9", "127.0.0.1:9"]
    clock = time.perf_counter
    before = hostspeed.probe()
    started = clock()
    pipeline = make_pipeline(workload, lambda: tuples, hosts=hosts)
    constructed = clock()
    pipeline.analyze()
    analyzed = clock()
    pipeline.build()
    built = clock()
    print(json.dumps({
        "construct_s": constructed - started,
        "analyze_s": analyzed - constructed,
        "build_s": built - analyzed,
        "slowdown": hostspeed.slowdown(before, hostspeed.probe()),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
