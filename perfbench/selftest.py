#!/usr/bin/env python3
"""Benchmark self-test, run from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload at smoke size (one pass, --seconds 1) untraced and
traced, and checks that
  * the result line has exactly the contract keys, and every metric named
    in BENCHMARK.json for that mode is printed with its declared unit;
  * failed_frac is 0 (no exploration failed its count gate);
  * a deliberately corrupted golden count makes failed_frac > 0.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 7


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            if result is None:
                failures.append(f"{label}: no result line")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                wrong = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                failures.append(f"{label}: metrics missing {missing}, unexpected "
                                f"{extra}, wrong unit {wrong}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: failed {result['failed']} of "
                                f"{result['attempted']}")
            print(f"{label}: {result['attempted']} explorations, "
                  f"{result['failed']} failed", flush=True)

    # A corrupted golden must be caught.
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    victim = "dfs|deadlock-ab|sc|limit=100000|stop"
    goldens["explorations"][victim]["schedules"] += 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    corrupted = Path(build_root).resolve() / "selftest-goldens.json"
    corrupted.parent.mkdir(parents=True, exist_ok=True)
    corrupted.write_text(json.dumps(goldens), encoding="utf-8")
    result = run("bug-hunt", 0, ("--goldens", str(corrupted)))
    corrupted.unlink()
    if result is None or result["failed"] == 0 or result["correct"]:
        failures.append(f"corrupted golden for {victim} was not caught: {result}")
    else:
        print(f"corrupted golden caught: {result['failed']} of "
              f"{result['attempted']} explorations failed")

    for failure in failures:
        print("FAIL " + failure)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
