#!/usr/bin/env python3
"""Build and run the LANTERN benchmark for one workload.

    python3 benchmark/run.py --workload fresh_large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the release
`lantern-serve` binary and the `lantern-benchmark` binary (a Cargo
package of its own in this directory) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the latter, which boots the server, loads
it, checks every answer and prints one JSON result line last on
stdout. Everything else goes to stderr. See `benchmark/src/main.rs`.
"""

import argparse
import os
import signal
import subprocess
import sys

# A run ends well within this; the margin covers a hang.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a LANTERN checkout",
                  file=sys.stderr)
            return 2

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--quiet", "--bin", "lantern-serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join("benchmark", "Cargo.toml")],
    )
    for build in builds:
        # Build output belongs on stderr: stdout ends with the result.
        if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: {' '.join(build)} failed", file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "lantern-benchmark"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "lantern-serve"),
        "--root", root,
    ]
    # A process group of its own, so a timeout can stop the server too.
    bench = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"error: the benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
