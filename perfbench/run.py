#!/usr/bin/env python3
"""Builds and runs the astra-sim2 host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `astra-perfbench` package
(release profile) into $CARGO_TARGET_DIR, default `.bench_build`, with
Cargo's output sent to stderr, then runs one workload in a process of its
own, so `peak_rss_mb` is that workload's alone. The process is pinned to
at most two CPUs, which also caps the threads the library sizes from the
host (trace generation inside the batch service). Its standard output is
passed through; the last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_CPUS = 2


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
    os.sched_setaffinity(0, cpus)
    exe = os.path.join(target, "release", "astra-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
