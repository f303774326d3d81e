#!/usr/bin/env python3
"""Build and run one workload of the repo benchmark.

    python3 perfbench/run.py --workload lm-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The script configures and builds
perfbench/ (which compiles the repo's src/ libraries) into .bench_build/,
pins the environment the workload runs under, and runs the
echo_perfbench binary.  The binary's last stdout line is the result
JSON; the exit code is nonzero when the build, a correctness gate or a
self-check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Pool threads per workload.  lm-train is GEMM- and optimizer-bound and
# gains from a second pool thread; nmt-train's many small ops run slower
# under parallel dispatch; serve-mixed on two threads let p50 latency
# jump from 1.3 ms to 28-1,576 ms at 500 req/s.
THREADS = {"lm-train": 2, "nmt-train": 1, "serve-mixed": 1}

# Settings that change which code paths or schedules run.  The benchmark
# measures the defaults, so it refuses to run with any of them set.
REFUSED = ("ECHO_PASSES", "ECHO_TAPE", "ECHO_FUSION", "ECHO_VERIFY",
           "ECHO_TRACE", "ECHO_PACK_CACHE_CAP_MB", "ECHO_PACK_CACHE",
           "ECHO_TUNE")

# The GEMM tuning cache is read from a fixed path inside the benchmark's
# own directory, where no file is kept: every GEMM runs its default
# schedule.  Left unset, the library reads .echo-tune-cache from the
# working directory, and a stray one there would change the schedules.
TUNE_CACHE = os.path.join(HERE, "tune-cache-none")

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    if os.path.isfile(os.path.join(BUILD, "build.ninja")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "echo_perfbench")


def check_metrics(result, trace):
    """The binary's metrics must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    set_vars = [v for v in REFUSED if v in os.environ]
    if set_vars:
        fail("refusing to run with %s set" % ", ".join(set_vars))
    binary = build()

    env = dict(os.environ)
    env["ECHO_NUM_THREADS"] = str(THREADS[args.workload])
    env["ECHO_TUNE_CACHE"] = TUNE_CACHE
    print("perfbench: %s ECHO_NUM_THREADS=%s ECHO_TUNE_CACHE=%s" %
          (args.workload, env["ECHO_NUM_THREADS"], TUNE_CACHE), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        fail("workload failed with exit code %d" % proc.returncode)
    check_metrics(json.loads(lines[-1]), args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
