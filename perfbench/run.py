#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload leakage|spec-perf|serve-shards \
        --seed N --seconds S --trace 0|1 [--small]

Run it from the repository root. It builds the `sweep` binary (the
sharded workload spawns its workers from it) and the `perfbench` binary
into $CARGO_TARGET_DIR (default `.bench_build`), then runs `perfbench`,
whose last line of standard output is the result object. Campaign
directories go under `.bench_work`. Exits non-zero, without a result,
if the build fails or the measurement overruns its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A measurement's own limit, after the build: the slowest (`--trace 1`)
# takes about 40 s on a 2-vCPU host.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when the checkout is a repository, else a hash of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ["crates", "perfbench", "Cargo.lock", "Cargo.toml"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "prefender-sweep", "--bin", "sweep"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="0xC0FFEE")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--small", action="store_true",
                        help="reduced-size grids (the benchmark's own tests)")
    args = parser.parse_args()

    for needed in ["crates", "Cargo.toml", "Cargo.lock"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--commit", source_id()]
    if args.small:
        cmd.append("--small")
    # A session of its own, so a timeout stops the `sweep work` children
    # too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail(f"measurement overran {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
