#!/usr/bin/env python3
"""Build and run the simulator/service performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mix4_memory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced too

The first run configures and builds perfbench/CMakeLists.txt (the
simulator libraries plus the benchmark program in this directory) into
.bench_build/.  Each run then executes the program, echoes its report,
and prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  The exit code is non-zero when a check
failed, the build failed, or the sources are missing.

Maintenance options: --force-reference compares any seed against the
default-seed reference (a held-out seed must then fail);
--write-reference rewrites perfbench/reference/<workload>.txt.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "perfbench"
SIM_WORKLOADS = ("mix4_memory", "mix4_compute")
WORKLOADS = SIM_WORKLOADS + ("service_flood",)
RUN_TIMEOUT_S = 170
# The committed references are for seed 1 (perfbench/bench.hh,
# kDefaultSeed).  HELD_OUT_SEED is kept out of tuning: a gain claimed on
# the default seed must also hold on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the program up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources in {ROOT}; nothing to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log in {log})")


def run_program(workload, seed, seconds, trace, extra):
    """Run the program once; return (rc, report lines, metrics, result)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={BUILD / 'work'}"]
    if workload in SIM_WORKLOADS:
        cmd.append(f"--reference={HERE / 'reference' / (workload + '.txt')}")
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines, metrics, result = [], {}, None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif len(parts) == 4 and parts[0] == "result":
            result = (parts[1] == "true", int(parts[2]), int(parts[3]))
        else:
            lines.append(line)
    return proc.returncode, lines, metrics, result


def show(workload, lines, metrics):
    for line in lines:
        print(line)
    print(f"{workload} metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-reference", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build()

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                rc, lines, metrics, _ = run_program(workload, seed, seconds,
                                                   trace, [])
                show(f"{workload} (trace {trace})", lines, metrics)
                ok = ok and rc == 0
        sys.exit(0 if ok else 1)

    extra = []
    if args.force_reference:
        extra.append("--force-reference")
    if args.write_reference:
        extra.append("--write-reference=" + str(
            HERE / "reference" / (args.workload + ".txt")))
    rc, lines, metrics, result = run_program(args.workload, seed, seconds,
                                            args.trace, extra)
    show(args.workload, lines, metrics)
    if result is None:
        fail(f"{args.workload} printed no result (exit code {rc})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail(f"{args.workload} did not report {m['name']}")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail(f"{m['name']} reported in {unit}, expected {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    correct, attempted, failed = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(rc)


if __name__ == "__main__":
    main()
