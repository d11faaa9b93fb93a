#!/usr/bin/env python3
"""Builds the specbench harness (Release) and runs one named workload.

    python3 specbench/run.py --workload learn-round --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The harness is built with CMake into
`.bench_build/` (or $CARGO_TARGET_DIR when set); build output goes to
stderr. The last line of stdout is the harness's JSON result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 1 the harness also writes its spans (Chrome trace-event JSON,
viewable in ui.perfetto.dev) to the build directory.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(HERE, "workloads")


def fail(message):
    print("specbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    source = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(source, "src")):
        fail("no specdag sources next to " + HERE + "; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "specbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "specbench")


def main():
    names = sorted(f[:-5] for f in os.listdir(WORKLOADS) if f.endswith(".json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload-file", os.path.join(WORKLOADS, args.workload + ".json"),
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("harness exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
