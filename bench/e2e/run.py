#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), and every file a run writes stays under it: the
cluster's volumes and logs, and with --trace 1 the Chrome trace
(<build>/traces/<workload>-<seed>.json).  The last line of stdout is the
benchmark's JSON result; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(source, "..", "..", "CMakeLists.txt")):
        sys.exit("run.py: no repository sources around %s" % source)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: failed: %s" % " ".join(cmd))

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", source, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "--target", "bench_e2e",
          "-j", str(min(4, os.cpu_count() or 1))])

    cmd = [os.path.join(build, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
