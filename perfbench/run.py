#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <cc-gc|km-regions|pr-cluster|jobs-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
default `.bench_build`, then makes one measurement. The last line of
standard output is the result as one JSON object; build output goes to
standard error. Spans and the host-time-free report twin are written to
`perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")], env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
