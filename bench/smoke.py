"""Smoke test for the benchmark itself.

Runs every workload once at minimal length, untraced and traced, and checks
that each run passes its correctness gates and prints exactly the metrics
BENCHMARK.json names, with the same units.  For traced runs it also checks
that the per-function self times plus the untraced remainder add up to the
traced wall time.  Run from the repository root (takes about a minute):

    python3 bench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec, workload, trace):
    result = run(spec, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names/units differ: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values()), values
    if trace:
        total = sum(v for k, v in values.items() if k.endswith(".self_us"))
        total += values["trace.untraced_us"]
        assert math.isclose(total, values["trace.wall_us"], rel_tol=1e-9), (total, values)
    else:
        assert all(v > 0 for v in values.values()), values
    print(f"ok  {workload:9s} trace={trace}  attempted={result['attempted']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
