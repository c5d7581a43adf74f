"""Self-test of the benchmark: python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that each
end-to-end and per-layer metric named in BENCHMARK.json is emitted and
that the answers pass.  Then runs each workload once more with a
deliberately wrong reference for its first operation and checks that
the correctness gate reports it.  Exits 1 on the first broken promise.
"""

import json
import sys

from run import ROOT, measure
from workloads import WORKLOADS

SECONDS = 1.0  # enough operations that every expected span is reached


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        print(f"BENCHMARK.json lists {sorted(declared)}, harness has {sorted(WORKLOADS)}")
        return 1
    wanted = {False: {m["name"] for m in spec["end_to_end"]},
              True: {m["name"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (False, True):
            record = measure(name, seed=1, seconds=SECONDS, trace=trace)
            emitted = set(record["metrics"])
            if emitted != wanted[trace]:
                print(f"{name} trace={trace}: missing {sorted(wanted[trace] - emitted)}, "
                      f"unexpected {sorted(emitted - wanted[trace])}")
                return 1
            if not record["correct"] or record["attempted"] < 1:
                print(f"{name} trace={trace}: failures {record['failures']}")
                return 1
        record = measure(name, seed=1, seconds=SECONDS, trace=False, tamper=True)
        if record["correct"] or record["failures"][0][0] != 0:
            print(f"{name}: a wrong reference for op 0 did not trip the gate")
            return 1
        print(f"{name}: ok ({record['attempted']} ops; wrong reference caught)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
