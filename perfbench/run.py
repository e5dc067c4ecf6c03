#!/usr/bin/env python3
"""Builds the alive2re benchmark in this checkout and runs one workload.

    python3 perfbench/run.py --workload proofs|bugs|pipeline --seed N \
        --seconds S --trace 0|1 [--jobs J] [--pairs FILE]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark binary) into the
directory named by CARGO_TARGET_DIR, or .bench_build, in RelWithDebInfo,
the repository's default configuration; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is always
the binary's result object. With --trace 1 the spans are written next to
the build, to spans-<workload>-<seed>.json. See README.md for the
workloads and metrics.

The default seed is 0x5eed (24301); README.md names the held-out seed.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0x5EED
WORKLOADS = ("proofs", "bugs", "pipeline")
# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED,
                    help="decimal or 0x-prefixed (default 0x5eed)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int,
                    help="override the workload's job count")
    ap.add_argument("--pairs",
                    help="also write one JSON line per verified pair here")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no alive2re sources in %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    if args.pairs:
        cmd += ["--pairs", args.pairs]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # A session of its own, so a timeout or SIGTERM also stops the round
    # processes the binary forks.
    proc = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code:
        print("perfbench: benchmark exited with %d" % code, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
