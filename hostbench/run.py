#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it on one CPU.

Usage, from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo's own
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The benchmark process is pinned to the
highest-numbered CPU this process may use: the simulator hands a baton
between one OS thread per agent, and keeping those threads on one CPU
removes cross-CPU wake-ups from every measurement. The host label the
benchmark prints records the pinning.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "hostbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Replace this process, so that a signal meant for the benchmark
    # reaches it and no child outlives the command.
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
