#!/usr/bin/env python3
"""Exploration benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which builds the lazyhb library from the enclosing tree)
into $CARGO_TARGET_DIR (default .bench_build), times the workload's set-up
over several launches, runs the measurement, gates every exploration's
contract counts against perfbench/goldens.json, and prints the result as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Maintenance: --record-goldens writes the counts of this workload and seed
into the golden file instead of measuring; --goldens PATH gates against
another golden file (the self-test uses it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SETUP_LAUNCHES = 20     # extra --setup-only launches behind setup_s
RUN_TIMEOUT_S = 170     # one benchmark process
BUILD_TIMEOUT_S = 850
CONTRACT = ("schedules", "terminal", "pruned", "violations", "hbrs", "lazy_hbrs",
            "value_classes", "states", "complete", "flush_events", "fence_events")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "perfbench"


def launch(cmd):
    """Run one benchmark process. Returns (seconds from spawn to its `ready`
    record or None, stdout lines, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("ready "):
                ready = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    return ready, lines, code


def records(lines, tag):
    prefix = tag + " "
    return [json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)]


def chain_holds(c):
    return (c["states"] <= c["value_classes"] <= c["lazy_hbrs"] <= c["hbrs"]
            <= c["schedules"])


def differs(a, b):
    return [k for k in CONTRACT if k in a and k in b and a[k] != b[k]]


def gate(count_records, goldens):
    """Failed explorations per the count contract. Returns (attempted,
    failed, problem descriptions)."""
    session = {r["id"]: r["counts"] for r in count_records
               if r["source"] == "session" and "counts" in r}
    attempted = failed = 0
    problems = []
    for r in count_records:
        attempts = r["attempts"]
        attempted += attempts
        bad = r["threw"] + r["repeat_mismatch"]
        counts = r.get("counts")
        why = []
        if r["threw"]:
            why.append(f"threw {r['threw']}x")
        if r["repeat_mismatch"]:
            why.append(f"counts changed between repeats {r['repeat_mismatch']}x")
        if counts is None:
            bad = attempts
        else:
            golden = goldens.get(r["id"])
            if golden is not None and differs(counts, golden):
                bad = attempts
                why.append("golden mismatch on " + ",".join(differs(counts, golden)))
            if golden is None and not chain_holds(counts):
                bad = attempts
                why.append("§3 chain violated")
            if r["source"] == "traced" and r["id"] in session and differs(counts, session[r["id"]]):
                bad = attempts
                why.append("traced != untraced on " + ",".join(differs(counts, session[r["id"]])))
            if r["must_complete"] and not counts["complete"]:
                bad = attempts
                why.append("not complete")
        failed += min(bad, attempts)
        if why:
            problems.append(f"{r['source']} {r['id']}: {'; '.join(why)}")
    return attempted, failed, problems


def load_goldens(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["explorations"]


def write_goldens(path, explorations):
    """One exploration per line, sorted, so re-recording diffs cleanly."""
    rows = [f"  {json.dumps(key)}: {json.dumps(explorations[key], sort_keys=True)}"
            for key in sorted(explorations)]
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"explorations": {\n' + ",\n".join(rows) + "\n}}\n")


def record_goldens(binary, args, path):
    """Run one reference + one traced pass and store the agreed counts."""
    _, lines, code = launch([str(binary), "--workload", args.workload, "--seed",
                             str(args.seed), "--seconds", "0", "--trace", "1"])
    if code != 0:
        raise RuntimeError(f"recording run exited {code}")
    counts = records(lines, "counts")
    attempted, failed, problems = gate(counts, {})
    if failed:
        raise RuntimeError("refusing to record inconsistent counts: " + "; ".join(problems))
    merged = {}
    for r in counts:  # session records first, traced ones add flush/fence
        merged.setdefault(r["id"], {}).update(r["counts"])
    doc = {"explorations": {}}
    if Path(path).exists():
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    doc["explorations"].update(merged)
    write_goldens(path, doc["explorations"])
    log(f"recorded {len(merged)} exploration(s) of {args.workload} seed {args.seed} "
        f"into {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="tree-complete, random-walk, bug-hunt or parallel-tree")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--goldens", default=str(GOLDENS))
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: cannot build the benchmark: {err}")
        return 2
    if args.record_goldens:
        record_goldens(binary, args, args.goldens)
        return 0

    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_LAUNCHES if args.trace == 0 else 0):
        ready, _, code = launch(base + ["--seconds", "0", "--trace", "0", "--setup-only"])
        if code != 0 or ready is None:
            log(f"perfbench: set-up launch exited {code}")
            return 1
        setup.append(ready)
    ready, lines, code = launch(base + ["--seconds", repr(args.seconds),
                                        "--trace", str(args.trace)])
    for line in lines:
        if not line.startswith(("counts ", "metrics ")):
            print(line)
    metric_records = records(lines, "metrics")
    if code != 0 or ready is None or not metric_records:
        log(f"perfbench: benchmark process exited {code} without a result")
        return 1
    setup.append(ready)

    attempted, failed, problems = gate(records(lines, "counts"), load_goldens(args.goldens))
    for problem in problems[:20]:
        print("FAILED " + problem)
    print(f"failed_frac: {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} explorations)")

    metrics = {}
    if args.trace == 0:
        print(f"setup_s: median {statistics.median(setup):.4g} s, "
              f"max {max(setup):.4g} s (n={len(setup)} launches)")
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics.update(metric_records[-1])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
