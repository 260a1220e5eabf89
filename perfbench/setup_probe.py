"""Print the set-up time of one workload, measured in a fresh interpreter.

Set-up is `import entdist` plus build_scenario for every scenario of the
workload, before the first point runs. run.py starts this script several
times and reports the median.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> None:
    workload = workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    import entdist

    for spec in workload.scenarios:
        entdist.harness.build_scenario(spec.source, overrides=spec.overrides,
                                       seed=spec.seed, rounds=spec.rounds)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
