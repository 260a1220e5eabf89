"""Write pins.json: a digest of each scenario's analytic columns at this commit.

The analytic columns do not depend on the workload seed, so one digest per
scenario serves every seed. Run it only at a commit whose analytic output is
trusted, from the repository root:

    python3 perfbench/pin.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from entdist import harness  # noqa: E402


def main() -> None:
    pins = {}
    for name in workloads.WORKLOADS:
        pins[name] = {}
        for spec in workloads.build(name, seed=0).scenarios:
            rows = harness.run_scenario(spec.source, overrides=spec.overrides,
                                        seed=spec.seed, rounds=spec.rounds, with_mc=False)
            pins[name][spec.name] = {"rows": len(rows), "sha256": check.analytic_digest(rows)}
    check.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
