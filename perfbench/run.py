#!/usr/bin/env python3
"""Build the benchmark and the `serve` binary from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold|sweep|service --seed N --seconds S --trace 0|1

Build output goes to stderr; the benchmark's summary and its final JSON
line go to stdout. Builds land in $CARGO_TARGET_DIR (default
`.bench_build`); traced runs write their spans next to them, under
`perfbench/`. The exit code is the benchmark's: non-zero when a build
fails, a run cannot be carried out, or an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def option(args, flag, default):
    """The value following `flag` in `args`, or `default`."""
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return default


def main():
    args = sys.argv[1:]
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "serve"],
    ]
    for build in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet"] + build
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    spans_dir = os.path.join(target, "perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir,
        "spans-{}-{}.jsonl".format(option(args, "--workload", "x"), option(args, "--seed", "x")),
    )
    command = [os.path.join(release, "rfic-perfbench")] + args
    command += ["--serve", os.path.join(release, "serve"), "--spans", spans]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
